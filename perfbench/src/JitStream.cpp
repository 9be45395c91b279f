//===- JitStream.cpp - the jit-cold and jit-warm workloads ----------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Both workloads launch a stream of specializations: each of the six
// programs' annotated kernels (SW4CK's five take turns) as a single thread
// with a seeded draw of the annotated scalars. Floating
// hyper-parameters and coefficients are scaled by a factor in [0.9, 1.1];
// integer bounds are drawn from [1, max(2, a quarter of the program's own
// value)], so every access stays inside the program's buffers and the
// loop-bound kernels (RSBENCH's windows and poles, WSM5's levels) execute
// little; 0/1 flags keep their value.
// Every drawn specialization is distinct (see drawRounds).
//
// A "client" models one process start on one device: a fresh device that
// holds all six programs, one JitRuntime and LoadedProgram per program, and
// the programs' inputs uploaded.
//
// The launches are one thread each because the simulator executes threads
// one after the other: a one-wave launch of RSBENCH, WSM5 or FEY-KAC costs
// milliseconds of executor time, which would bury the JIT work these
// workloads exist to measure. A one-thread launch still compiles (or reads
// from the cache) a whole specialization, and executes in microseconds.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Programs.h"

#include "gpu/Runtime.h"
#include "ir/Function.h"
#include "ir/OpSemantics.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// A jit-cold round launches ColdSpecsPerProgram specializations of every
/// program on both arches; a jit-warm stream holds WarmRounds per program.
/// The amounts of work are sized so a run measures about --seconds on a
/// 4-vCPU x86 host; they are a fixed function of --seconds, never of
/// elapsed time, so the deterministic figures repeat exactly.
constexpr double ColdRoundsPerSecond = 18;
constexpr unsigned ColdRoundsPerPass = 10;
/// Specializations of each program a jit-cold round launches: two, so the
/// process start (devices, runtimes, uploads) stays a small share of the
/// round next to the compiles.
constexpr unsigned ColdSpecsPerProgram = 2;
constexpr unsigned WarmRounds = 12;
constexpr unsigned WarmStartsPerPass = 20;
constexpr double WarmPassesPerSecond = 1.8;
/// Each jit-warm specialization: one launch from disk, three from memory.
constexpr unsigned WarmLaunchesPerSpec = 4;

const Dim3 OneBlock{1, 1, 1};
const Dim3 OneThread{1, 1, 1};

struct StreamSpec {
  unsigned Prog = 0;
  size_t Template = 0; ///< index into Program::Launches
  std::vector<ArgSpec> Args;
};

struct Round {
  std::vector<StreamSpec> Specs; ///< \p PerProgram per program
  std::vector<std::pair<size_t, GpuArch>> Order; ///< (spec index, arch)
};

/// Draws \p N rounds, each with \p PerProgram fresh specializations of every
/// program. The draws are stratified over the rounds: the k-th draw of a
/// program takes slice slot(k) of N x PerProgram equal slices of every
/// annotated scalar's range (and kernel slot(k) mod the kernel count), where
/// slot is a seeded permutation and the point within the slice is seeded
/// too. So the work mix, and with it the launch-latency distribution, is
/// nearly the same for every seed while every specialization differs.
std::vector<Round> drawRounds(const std::vector<Program> &Progs, Rng &R,
                              unsigned N, unsigned PerProgram,
                              std::set<std::vector<uint64_t>> &Seen) {
  const unsigned Draws = N * PerProgram;
  auto Permutation = [&] {
    std::vector<unsigned> P(Draws);
    for (unsigned I = 0; I != Draws; ++I)
      P[I] = I;
    for (size_t I = Draws; I > 1; --I)
      std::swap(P[I - 1], P[R.range(0, static_cast<int64_t>(I - 1))]);
    return P;
  };
  std::vector<Round> Out(N);
  for (unsigned P = 0; P != Progs.size(); ++P) {
    const Program &Pr = Progs[P];
    std::vector<size_t> Templates; // first launch of each annotated kernel
    std::set<std::string> Symbols;
    for (size_t I = 0; I != Pr.Launches.size(); ++I)
      if (Pr.Jit[0].JitKernels.count(Pr.Launches[I].Symbol) &&
          Symbols.insert(Pr.Launches[I].Symbol).second)
        Templates.push_back(I);
    if (Templates.empty())
      throw Fatal(Pr.B->name() + " has no annotated kernel");
    std::vector<unsigned> Slot = Permutation();

    for (unsigned D = 0; D != Draws; ++D)
      for (int Attempt = 0;; ++Attempt) {
        if (Attempt == 100)
          throw Fatal("cannot draw a fresh specialization of " +
                      Pr.B->name());
        StreamSpec S;
        S.Prog = P;
        S.Template = Templates[Slot[D] % Templates.size()];
        const LaunchSpec &L = Pr.Launches[S.Template];
        const pir::Function *F = Pr.M->getFunction(L.Symbol);
        S.Args = L.Args;
        std::vector<uint64_t> Key = {P, S.Template};
        for (uint32_t OneBased : Pr.Jit[0].JitArgIndices.at(L.Symbol)) {
          ArgSpec &A = S.Args.at(OneBased - 1);
          const pir::Type *Ty = F->getArg(OneBased - 1)->getType();
          double U = (Slot[D] + R.unit()) / Draws;
          if (Ty->isF64()) {
            A.Bits = pir::sem::boxF64(pir::sem::unboxF64(A.Bits) *
                                      (0.9 + 0.2 * U));
          } else if (Ty->isF32()) {
            A.Bits = pir::sem::boxF32(pir::sem::unboxF32(A.Bits) *
                                      static_cast<float>(0.9 + 0.2 * U));
          } else if (Ty->isI32() || Ty->isI64()) {
            int64_t V = Ty->isI32() ? static_cast<int32_t>(A.Bits)
                                    : static_cast<int64_t>(A.Bits);
            if (V >= 2) {
              const int64_t Hi = std::max<int64_t>(2, V / 4);
              int64_t Drawn = 1 + std::min<int64_t>(
                                      Hi - 1, static_cast<int64_t>(U * Hi));
              A.Bits = Ty->isI32() ? static_cast<uint32_t>(
                                         static_cast<int32_t>(Drawn))
                                   : static_cast<uint64_t>(Drawn);
            }
          }
          Key.push_back(A.Bits);
        }
        if (Seen.insert(Key).second) {
          Out[D / PerProgram].Specs.push_back(std::move(S));
          break;
        }
      }
  }
  for (Round &Rd : Out) {
    for (size_t I = 0; I != Rd.Specs.size(); ++I)
      for (GpuArch A : Arches)
        Rd.Order.push_back({I, A});
    for (size_t J = Rd.Order.size(); J > 1; --J)
      std::swap(Rd.Order[J - 1],
                Rd.Order[R.range(0, static_cast<int64_t>(J - 1))]);
  }
  return Out;
}

/// One device holding every program: with \p CacheDir, a Proteus process
/// start (a runtime and a JIT-enabled image per program); without, the AOT
/// images.
struct Client {
  Client(const std::vector<Program> &Progs, GpuArch A, uint64_t DevBytes,
         const std::string *CacheDir)
      : Arch(A) {
    {
      Span S("gpu.device_init");
      Dev = std::make_unique<Device>(getTarget(A), DevBytes);
    }
    for (const Program &P : Progs) {
      const CompiledProgram &CP =
          CacheDir ? P.Jit[archIndex(A)] : P.Aot[archIndex(A)];
      if (CacheDir) {
        Span S("jit.runtime_init");
        Rt.push_back(std::make_unique<JitRuntime>(*Dev, CP.ModuleId,
                                                  benchJitConfig(*CacheDir)));
      }
      {
        Span S("jit.program_load");
        LP.push_back(std::make_unique<LoadedProgram>(
            *Dev, CP, CacheDir ? Rt.back().get() : nullptr));
      }
      if (!LP.back()->ok())
        throw Fatal("program load failed: " + LP.back()->error());
      Buffers.emplace_back();
      if (!uploadBuffers(P, *Dev, Buffers.back(), &Transfer))
        throw Fatal("device OOM uploading " + P.B->name());
    }
  }

  /// Launches \p S; \p Ok and \p Err report the outcome.
  LaunchSample launch(const std::vector<Program> &Progs, const StreamSpec &S,
                      uint64_t LaunchId, bool &Ok, std::string &Err) {
    const LaunchSpec &L = Progs[S.Prog].Launches[S.Template];
    std::vector<KernelArg> Args = resolveArgs(S.Args, Buffers[S.Prog]);
    LoadedProgram &Image = *LP[S.Prog];
    Span Sp(Rt.empty() ? "gpu.launch" : "jit.launch", LaunchId);
    return measureLaunch(
        *Dev,
        [&] {
          return Image.launch(L.Symbol, OneBlock, OneThread, Args,
                              &Err) == GpuError::Success;
        },
        Ok);
  }

  SpecializationKey key(const std::vector<Program> &Progs,
                        const StreamSpec &S) const {
    const Program &P = Progs[S.Prog];
    return specializationKey(P.Jit[archIndex(Arch)],
                             P.Launches[S.Template].Symbol, Arch,
                             OneThread,
                             resolveArgs(S.Args, Buffers[S.Prog]));
  }

  GpuArch Arch;
  double Transfer = 0; ///< simulated seconds of the input uploads
  // Declaration order is destruction order in reverse: programs, then
  // runtimes, then the device they reference.
  std::unique_ptr<Device> Dev;
  std::vector<std::unique_ptr<JitRuntime>> Rt;
  std::vector<std::unique_ptr<LoadedProgram>> LP;
  std::vector<BufferMap> Buffers;
};

std::string jobName(const Program &P, GpuArch A) {
  return P.B->name() + "/" + archTag(A);
}

/// Checks launch \p S's output on \p C against the reference interpreter
/// replaying it on \p Image. Returns "" when they match; on a mismatch
/// \p Image is resynchronized so later launches are judged on their own.
std::string checkLaunch(const std::vector<Program> &Progs, Client &C,
                        const StreamSpec &S, std::vector<uint8_t> &Image) {
  const Program &P = Progs[S.Prog];
  std::string Why =
      interpret(P, P.Launches[S.Template].Symbol, OneBlock, OneThread,
                resolveArgs(S.Args, C.Buffers[S.Prog]), Image);
  if (Why.empty() && !buffersEqual(P, C.Buffers[S.Prog], *C.Dev, Image))
    Why = "device output differs from the reference interpreter";
  if (!Why.empty())
    syncBuffers(P, C.Buffers[S.Prog], *C.Dev, Image);
  return Why;
}

void reportFailure(const std::string &What, uint64_t &Reported) {
  if (Reported++ < 10)
    std::printf("check failed: %s\n", What.c_str());
}

// --- jit-cold ---------------------------------------------------------------

struct ColdRun {
  const std::vector<Program> &Progs;
  uint64_t DevBytes;
  std::vector<std::unique_ptr<Client>> Reference; ///< AOT, per arch
  std::unique_ptr<StageRepeat> Repeat;
  Stopwatch SW;
  RunTotals T;
  uint64_t LaunchId = 0;
  uint64_t Reported = 0;

  ColdRun(const std::vector<Program> &Progs, const std::string &Dir)
      : Progs(Progs), DevBytes(sharedDeviceBytes(Progs)) {
    for (GpuArch A : Arches)
      Reference.push_back(
          std::make_unique<Client>(Progs, A, DevBytes, nullptr));
    if (tracing())
      Repeat = std::make_unique<StageRepeat>(Dir + "/repeat");
  }

  struct Launched {
    LaunchSample LS;
    bool Ok = false;
    bool Compiled = false;
    std::string Why; ///< failure; "" when the launch checked out
    LaunchSample Aot; ///< the AOT reference launch of the same arguments
  };

  /// One modeled process start: fresh devices, runtimes and images over an
  /// empty persistent cache, then the round's specializations on both
  /// arches, each launched once.
  void round(const Round &Rd, const std::string &CacheDir,
             std::map<std::string, Job> &Jobs) {
    fs::create_directories(CacheDir);
    std::unique_ptr<Client> C[2];
    SW.start();
    for (GpuArch A : Arches)
      C[archIndex(A)] = std::make_unique<Client>(Progs, A, DevBytes, &CacheDir);
    SW.stop();
    std::vector<uint8_t> Image[2];
    for (GpuArch A : Arches) {
      Image[archIndex(A)] = C[archIndex(A)]->Dev->memory();
      T.SimTransferS += C[archIndex(A)]->Transfer;
    }

    // Timed launches, each followed by its untimed interpreter check (two
    // specializations of a program write the same buffers, so each is
    // checked before the next launch).
    std::vector<Launched> L[2] = {std::vector<Launched>(Rd.Specs.size()),
                                  std::vector<Launched>(Rd.Specs.size())};
    for (auto [I, A] : Rd.Order) {
      const int AI = archIndex(A);
      Client &X = *C[AI];
      const StreamSpec &S = Rd.Specs[I];
      Launched &Out = L[AI][I];
      JitProbe Before;
      if (tracing())
        Before = JitProbe::read(*X.Rt[S.Prog]);
      std::string Err;
      SW.start();
      Out.LS = X.launch(Progs, S, ++LaunchId, Out.Ok, Err);
      SW.stop();
      if (tracing()) {
        JitProbe After = JitProbe::read(*X.Rt[S.Prog]);
        classifyLaunch(Before, After, Out.LS.HostSec, T);
        Out.Compiled = After.Compiles != Before.Compiles;
      }
      Out.Why = Out.Ok ? checkLaunch(Progs, X, S, Image[AI])
                       : "launch failed: " + Err;
    }
    bool MemoryOk[2];
    for (GpuArch A : Arches)
      MemoryOk[archIndex(A)] =
          C[archIndex(A)]->Dev->memory() == Image[archIndex(A)];
    // AOT reference launches of the same arguments, for the paper clock and
    // the simulator's speed.
    for (auto [I, A] : Rd.Order) {
      bool Ok = false;
      std::string Err;
      L[archIndex(A)][I].Aot =
          Reference[archIndex(A)]->launch(Progs, Rd.Specs[I], 0, Ok, Err);
      if (!Ok)
        throw Fatal("AOT reference launch failed: " + Err);
    }

    for (auto [I, A] : Rd.Order) {
      Client &X = *C[archIndex(A)];
      const StreamSpec &S = Rd.Specs[I];
      const Program &Pr = Progs[S.Prog];
      const Launched &Out = L[archIndex(A)][I];
      ++T.Attempted;
      if (Out.Why.empty()) {
        T.addLaunch(Out.LS, true);
      } else {
        ++T.Failed;
        reportFailure(jobName(Pr, A) + ": " + Out.Why, Reported);
      }
      T.SimS += Out.LS.SimSec;
      Jobs[jobName(Pr, A)].ProteusSeconds += Out.LS.SimSec;
      T.addAotReference(Out.Aot);
      Jobs[jobName(Pr, A)].AotSeconds += Out.Aot.SimSec;
      if (tracing())
        T.ExecS += estimatedExecSeconds(Out.LS, Out.Aot);

      SpecializationKey Key = X.key(Progs, S);
      std::vector<uint8_t> Object =
          cachedObject(CacheDir, computeSpecializationHash(Key));
      T.ObjectBytes += Object.size();
      T.Spills += Out.LS.Stats.SpillSlots;
      if (Repeat && Out.Compiled) {
        std::string E =
            Repeat->compile(Pr, A, Pr.Launches[S.Template].Symbol, Key,
                            *X.Dev, Object, T);
        if (!E.empty())
          throw Fatal(E);
      }
    }

    for (GpuArch A : Arches) {
      Client &X = *C[archIndex(A)];
      if (!MemoryOk[archIndex(A)]) {
        ++T.Failed;
        reportFailure(std::string(archTag(A)) +
                          ": device memory outside the launched buffers "
                          "differs from the reference interpreter",
                      Reported);
      }
      for (unsigned P = 0; P != Progs.size(); ++P)
        Jobs[jobName(Progs[P], A)].ProteusSeconds +=
            addRuntimeCounters(*X.Rt[P], T);
    }
    C[0].reset();
    C[1].reset();
    fs::remove_all(CacheDir);
  }
};

/// Runs \p Rounds timed, after the untimed \p Warmup round: neither the
/// untraced nor the traced run then pays first-use costs (allocator growth,
/// cold page cache) the other does not.
RunTotals coldRun(const std::vector<Program> &Progs, const Round &Warmup,
                  const std::vector<Round> &Rounds, const std::string &Dir) {
  ColdRun R(Progs, Dir);
  {
    bool Traced = tracing();
    setTracing(false);
    std::map<std::string, Job> Discard;
    R.round(Warmup, Dir + "/warmup", Discard);
    setTracing(Traced);
    R.T = RunTotals();
    R.SW = Stopwatch();
  }
  for (size_t First = 0; First < Rounds.size(); First += ColdRoundsPerPass) {
    double W0 = R.SW.seconds();
    RunTotals::Mark M = R.T.mark();
    std::map<std::string, Job> Jobs;
    const size_t End =
        std::min<size_t>(First + ColdRoundsPerPass, Rounds.size());
    for (size_t I = First; I < End; ++I)
      R.round(Rounds[I], Dir + "/round" + std::to_string(I), Jobs);
    R.T.closePass(M, R.SW.seconds() - W0, jobSpeedup(Jobs));
  }
  R.T.TimedWall = R.SW.seconds();
  return R.T;
}

// --- jit-warm ---------------------------------------------------------------

/// What the untimed check pass of jit-warm establishes.
struct WarmCheck {
  RunTotals Figures; ///< deterministic figures every timed pass must repeat
  std::vector<uint8_t> Final[2]; ///< device memory after the pass
  std::vector<uint64_t> Hashes[2];
  std::map<std::string, Job> AotJobs;
  std::vector<LaunchSample> AotSamples[2]; ///< per launch, in launch order
  uint64_t ObjectBytes[2] = {0, 0};
  uint64_t Attempted = 0, Failed = 0;
};

/// The jit-warm launch sequence of one process start on arch \p A, made
/// with the AOT images on a fresh device: the paper clock's AOT side and
/// the simulator's speed.
std::vector<LaunchSample> aotReference(const std::vector<Program> &Progs,
                                       const std::vector<StreamSpec> &Specs,
                                       GpuArch A) {
  Client Ref(Progs, A, sharedDeviceBytes(Progs), nullptr);
  std::vector<LaunchSample> Out;
  for (const StreamSpec &S : Specs)
    for (unsigned K = 0; K != WarmLaunchesPerSpec; ++K) {
      bool Ok = false;
      std::string Err;
      Out.push_back(Ref.launch(Progs, S, 0, Ok, Err));
      if (!Ok)
        throw Fatal("AOT reference launch failed: " + Err);
    }
  return Out;
}

/// Deterministic figures of one client's pass, from its launch samples (in
/// launch order) and its runtimes' counters.
RunTotals clientFigures(const std::vector<LaunchSample> &Samples,
                        Client &C) {
  RunTotals F;
  for (size_t I = 0; I != Samples.size(); ++I) {
    F.addLaunch(Samples[I], true);
    F.SimS += Samples[I].SimSec;
    if (I % WarmLaunchesPerSpec == 0)
      F.Spills += Samples[I].Stats.SpillSlots;
  }
  for (auto &Rt : C.Rt)
    addRuntimeCounters(*Rt, F);
  return F;
}

/// Fills \p Dir with every specialization of \p Specs, compiled through the
/// same client configuration the timed passes use.
void fillCache(const std::vector<Program> &Progs,
               const std::vector<StreamSpec> &Specs, const std::string &Dir) {
  uint64_t DevBytes = sharedDeviceBytes(Progs);
  for (GpuArch A : Arches) {
    Client C(Progs, A, DevBytes, &Dir);
    for (const StreamSpec &S : Specs) {
      bool Ok = false;
      std::string Err;
      C.launch(Progs, S, 0, Ok, Err);
      if (!Ok)
        throw Fatal("cache fill launch failed: " + Err);
    }
    RunTotals F;
    for (auto &Rt : C.Rt)
      addRuntimeCounters(*Rt, F);
    if (F.Compiles != Specs.size())
      throw Fatal("cache fill compiled " + std::to_string(F.Compiles) +
                  " of " + std::to_string(Specs.size()) + " specializations");
  }
}

/// The untimed reference pass: the exact launch sequence of a timed pass,
/// with each specialization's first launch checked against the interpreter;
/// then AOT reference launches for the paper clock.
WarmCheck warmCheck(const std::vector<Program> &Progs,
                    const std::vector<StreamSpec> &Specs,
                    const std::string &Dir) {
  WarmCheck W;
  uint64_t DevBytes = sharedDeviceBytes(Progs);
  RunTotals Figures[2];
  std::vector<std::string> Failures[2];
  for (GpuArch A : Arches) {
    const int AI = archIndex(A);
    Client C(Progs, A, DevBytes, &Dir);
    std::vector<uint8_t> Image = C.Dev->memory();
    std::vector<LaunchSample> Samples;
    for (const StreamSpec &S : Specs) {
      const Program &Pr = Progs[S.Prog];
      for (unsigned K = 0; K != WarmLaunchesPerSpec; ++K) {
        bool Ok = false;
        std::string Err;
        Samples.push_back(C.launch(Progs, S, 0, Ok, Err));
        std::string Why =
            !Ok      ? "launch failed: " + Err
            : K == 0 ? checkLaunch(Progs, C, S, Image)
                     : "";
        if (!Why.empty())
          Failures[AI].push_back(jobName(Pr, A) + ": " + Why);
      }
      syncBuffers(Pr, C.Buffers[S.Prog], *C.Dev, Image);
      uint64_t Hash = computeSpecializationHash(C.key(Progs, S));
      W.Hashes[AI].push_back(Hash);
      W.ObjectBytes[AI] += cachedObject(Dir, Hash).size();
    }
    if (C.Dev->memory() != Image)
      Failures[AI].push_back(std::string(archTag(A)) +
                             ": device memory outside the launched buffers "
                             "differs from the reference interpreter");
    W.Final[AI] = C.Dev->memory();
    Figures[AI] = clientFigures(Samples, C);
    Figures[AI].ObjectBytes = W.ObjectBytes[AI];
    Figures[AI].SimTransferS = C.Transfer;
    Figures[AI].Attempted = Samples.size();
  }

  uint64_t Reported = 0;
  for (GpuArch A : Arches) {
    const int AI = archIndex(A);
    for (const std::string &F : Failures[AI])
      reportFailure(F, Reported);
    W.Failed += Failures[AI].size();
    W.Attempted += Figures[AI].Attempted;
    W.Figures.merge(Figures[AI]);
  }

  for (GpuArch A : Arches) {
    const int AI = archIndex(A);
    W.AotSamples[AI] = aotReference(Progs, Specs, A);
    for (size_t J = 0; J != W.AotSamples[AI].size(); ++J)
      W.AotJobs[jobName(Progs[Specs[J / WarmLaunchesPerSpec].Prog], A)]
          .AotSeconds += W.AotSamples[AI][J].SimSec;
  }
  return W;
}

/// One timed process start on arch \p A: a fresh client over the warm cache
/// and every specialization's launches. Adds the runtimes' paper-clock
/// seconds to \p Jobs; \p Ok is false when a launch failed or the final
/// device memory differs from the checked pass.
RunTotals warmStart(const std::vector<Program> &Progs,
                    const std::vector<StreamSpec> &Specs, const WarmCheck &W,
                    const std::string &Dir, GpuArch A, Stopwatch &SW,
                    std::map<std::string, Job> &Jobs, uint64_t &LaunchId,
                    uint64_t &Reported, bool &Ok) {
  const int AI = archIndex(A);
  std::vector<LaunchSample> Samples;
  std::map<unsigned, double> ProgSim; // simulated seconds per program
  RunTotals Traced;                   // launch classes of the traced run
  uint64_t Failed = 0;
  std::string Error;
  SW.start();
  Client C(Progs, A, sharedDeviceBytes(Progs), &Dir);
  for (const StreamSpec &S : Specs)
    for (unsigned K = 0; K != WarmLaunchesPerSpec; ++K) {
      JitRuntime &Rt = *C.Rt[S.Prog];
      JitProbe Before;
      if (tracing())
        Before = JitProbe::read(Rt);
      bool LaunchOk = false;
      std::string Err;
      LaunchSample LS = C.launch(Progs, S, ++LaunchId, LaunchOk, Err);
      if (tracing())
        classifyLaunch(Before, JitProbe::read(Rt), LS.HostSec, Traced);
      if (!LaunchOk) {
        ++Failed;
        Error = Err;
      }
      Samples.push_back(LS);
      ProgSim[S.Prog] += LS.SimSec;
    }
  SW.stop();

  RunTotals F = clientFigures(Samples, C);
  F.ObjectBytes = W.ObjectBytes[AI];
  F.SimTransferS = C.Transfer;
  F.Attempted = Samples.size();
  bool SameMemory = C.Dev->memory() == W.Final[AI];
  if (Failed)
    reportFailure(std::string(archTag(A)) + ": " + Error, Reported);
  else if (!SameMemory)
    reportFailure(std::string(archTag(A)) +
                      ": final device memory differs from the checked pass",
                  Reported);
  Ok = !Failed && SameMemory;
  if (!Ok) {
    // The start cannot tell which launch went wrong: none of its launches
    // counts as a success.
    F.Failed = F.Launches;
    F.Launches = 0;
    F.LaunchSec.clear();
  }
  for (unsigned P = 0; P != Progs.size(); ++P) {
    JitRuntimeStats St = C.Rt[P]->stats();
    Jobs[jobName(Progs[P], A)].ProteusSeconds +=
        ProgSim[P] + St.totalCompileSeconds() + St.CacheLookupSeconds;
  }
  if (tracing())
    for (size_t J = 0; J != Samples.size(); ++J)
      Traced.ExecS += estimatedExecSeconds(Samples[J], W.AotSamples[AI].at(J));
  F.merge(Traced);
  return F;
}

/// \p Passes timed passes of WarmStartsPerPass process starts per arch.
/// One thread drives the two devices in turn: two concurrent client threads
/// doubled the run-to-run spread on a shared 4-vCPU host and contended on
/// nothing, since each device has its own runtimes.
RunTotals warmRun(const std::vector<Program> &Progs,
                  const std::vector<StreamSpec> &Specs, const WarmCheck &W,
                  const std::string &Dir, unsigned Passes) {
  RunTotals T;
  uint64_t Reported = 0;
  uint64_t LaunchId = 0;
  for (unsigned Pass = 0; Pass != Passes; ++Pass) {
    RunTotals PassFig;
    std::map<std::string, Job> Jobs = W.AotJobs;
    for (auto &[Name, J] : Jobs)
      J.AotSeconds *= WarmStartsPerPass;
    Stopwatch SW;
    for (unsigned Start = 0; Start != WarmStartsPerPass; ++Start) {
      RunTotals StartFig;
      bool SameOutputs = true;
      for (GpuArch A : Arches) {
        bool Ok = false;
        StartFig.merge(warmStart(Progs, Specs, W, Dir, A, SW, Jobs, LaunchId,
                                 Reported, Ok));
        SameOutputs &= Ok;
      }
      if (SameOutputs) {
        std::string Diff = StartFig.exactMismatch(W.Figures);
        if (!Diff.empty())
          throw Fatal("jit-warm pass " + std::to_string(Pass) +
                      " differs from the checked pass in " + Diff);
      }
      if (StartFig.Compiles)
        throw Fatal("jit-warm compiled " + std::to_string(StartFig.Compiles) +
                    " specializations; the warm stream must compile none");
      PassFig.merge(StartFig);
    }
    // The simulator's speed, measured after every pass as the other
    // host-clock figures are, so the run can take its best pass.
    for (GpuArch A : Arches)
      for (const LaunchSample &RS : aotReference(Progs, Specs, A))
        PassFig.addAotReference(RS);
    PassFig.TimedWall = SW.seconds();
    PassFig.closePass(RunTotals::Mark(), SW.seconds(), jobSpeedup(Jobs));
    T.merge(PassFig);
  }
  return T;
}

} // namespace

Outcome runJitCold(const Options &O) {
  // A traced invocation makes the untraced and the traced run, each with
  // its interpreter checks and the traced one with its stage repeats: half
  // the rounds keep it well inside the time a run may take.
  double Seconds = O.Trace ? O.Seconds / 2.0 : O.Seconds;
  unsigned Passes = std::max<unsigned>(
      1, std::lround(Seconds * ColdRoundsPerSecond / ColdRoundsPerPass));
  unsigned NumRounds = Passes * ColdRoundsPerPass;
  std::vector<double> Setup;
  std::vector<Program> Progs;
  std::vector<Round> Rounds;
  Round Warmup;
  for (int I = 0; I != SetupRepeats; ++I) {
    double T0 = hostSeconds();
    std::vector<Program> P = buildPrograms();
    // Each pass is stratified on its own, so every pass carries the same
    // work mix and the best pass is chosen among equals.
    Rng R(O.Seed);
    std::set<std::vector<uint64_t>> Seen;
    Warmup = drawRounds(P, R, 1, ColdSpecsPerProgram, Seen).front();
    Rounds.clear();
    for (unsigned Pass = 0; Pass != Passes; ++Pass)
      for (Round &Rd :
           drawRounds(P, R, ColdRoundsPerPass, ColdSpecsPerProgram, Seen))
        Rounds.push_back(std::move(Rd));
    Setup.push_back(hostSeconds() - T0);
    if (I && !sameImages(P, Progs))
      throw Fatal("AOT images differ between set-up repetitions");
    Progs = std::move(P);
  }

  printSetup(Setup);
  RunTotals T = coldRun(Progs, Warmup, Rounds, O.Scratch + "/cold");
  const double PeakRss = peakRssMiB();
  std::printf("jit-cold: %u rounds, %llu launches in %.3f s timed\n",
              NumRounds, static_cast<unsigned long long>(T.Launches),
              T.TimedWall);
  printPasses("jit-cold", T);
  Outcome Out;
  Out.Attempted = T.Attempted;
  Out.Failed = T.Failed;
  if (!O.Trace) {
    Out.Metrics = endToEndMetrics(T, Setup, PeakRss);
    return Out;
  }

  setTracing(true);
  std::vector<Program> Traced = buildPrograms();
  RunTotals TT = coldRun(Traced, Warmup, Rounds, O.Scratch + "/cold-traced");
  setTracing(false);
  Out.Attempted += TT.Attempted;
  Out.Failed += TT.Failed;
  Out.Metrics = tracedMetrics(O, T, TT);
  return Out;
}

Outcome runJitWarm(const Options &O) {
  // As in jit-cold, a traced invocation makes both runs shorter.
  double Seconds = O.Trace ? O.Seconds / 2.0 : O.Seconds;
  unsigned Passes =
      std::max<unsigned>(2, std::lround(Seconds * WarmPassesPerSecond));
  std::vector<double> Setup;
  std::vector<Program> Progs;
  std::vector<StreamSpec> Specs;
  std::string Dir;
  for (int I = 0; I != SetupRepeats; ++I) {
    double T0 = hostSeconds();
    std::vector<Program> P = buildPrograms();
    Rng R(O.Seed);
    std::set<std::vector<uint64_t>> Seen;
    std::vector<Round> Rounds = drawRounds(P, R, WarmRounds, 1, Seen);
    std::vector<StreamSpec> S;
    for (Round &Rd : Rounds)
      for (StreamSpec &Sp : Rd.Specs)
        S.push_back(std::move(Sp));
    for (size_t J = S.size(); J > 1; --J)
      std::swap(S[J - 1], S[R.range(0, static_cast<int64_t>(J - 1))]);
    std::string D = O.Scratch + "/warm" + std::to_string(I);
    fillCache(P, S, D);
    Setup.push_back(hostSeconds() - T0);
    if (I && !sameImages(P, Progs))
      throw Fatal("AOT images differ between set-up repetitions");
    if (!Dir.empty())
      fs::remove_all(Dir);
    Progs = std::move(P);
    Specs = std::move(S);
    Dir = D;
  }

  printSetup(Setup);
  WarmCheck W = warmCheck(Progs, Specs, Dir);
  RunTotals T = warmRun(Progs, Specs, W, Dir, Passes);
  const double PeakRss = peakRssMiB();
  std::printf("jit-warm: %zu specializations x %u launches x 2 arches, %u "
              "passes of %u process starts, %llu launches in %.3f s timed\n",
              Specs.size(), WarmLaunchesPerSpec, Passes, WarmStartsPerPass,
              static_cast<unsigned long long>(T.Launches), T.TimedWall);
  printPasses("jit-warm", T);
  Outcome Out;
  Out.Attempted = W.Attempted + T.Attempted;
  Out.Failed = W.Failed + T.Failed;
  if (!O.Trace) {
    Out.Metrics = endToEndMetrics(T, Setup, PeakRss);
    return Out;
  }

  setTracing(true);
  std::vector<Program> Traced = buildPrograms();
  RunTotals TT = warmRun(Traced, Specs, W, Dir, Passes);
  {
    StageRepeat Repeat(O.Scratch + "/warm-repeat");
    for (GpuArch A : Arches)
      for (uint64_t Hash : W.Hashes[archIndex(A)]) {
        std::string E = Repeat.diskHit(Dir, Hash, A);
        if (!E.empty())
          throw Fatal(E);
      }
  }
  setTracing(false);
  Out.Attempted += TT.Attempted;
  Out.Failed += TT.Failed;
  Out.Metrics = tracedMetrics(O, T, TT);
  return Out;
}

} // namespace perfbench
