//===- Apps.cpp - the apps workload: the paper's Table 2 grid -------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Six HeCBench-sim programs x {amdgcn-sim, nvptx-sim} x {AOT, Proteus with a
// cold cache, Proteus with a warm persistent cache}, one thread, each
// execution on its own 256 MiB device exactly as hecbench::runBenchmark
// builds it. The driver makes runBenchmark's calls itself so that each layer
// can be timed; the self-check at the end proves it reproduces runBenchmark.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Programs.h"

#include "gpu/Runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

enum class Mode { Aot, Cold, Warm };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Aot:
    return "aot";
  case Mode::Cold:
    return "cold";
  case Mode::Warm:
    return "warm";
  }
  return "?";
}

struct Exec {
  unsigned Prog = 0;
  GpuArch Arch = GpuArch::AmdGcnSim;
  Mode M = Mode::Aot;
};

/// The grid in a seeded order: the 12 program x arch pairs shuffled, and
/// within each pair the AOT execution placed before, between or after the
/// cold and warm Proteus executions (warm always follows cold, whose cache
/// it reads).
std::vector<Exec> gridOrder(unsigned NumProgs, Rng &R) {
  std::vector<std::pair<unsigned, GpuArch>> Pairs;
  for (unsigned P = 0; P != NumProgs; ++P)
    for (GpuArch A : Arches)
      Pairs.push_back({P, A});
  for (size_t I = Pairs.size(); I > 1; --I)
    std::swap(Pairs[I - 1], Pairs[R.range(0, static_cast<int64_t>(I - 1))]);
  std::vector<Exec> Out;
  for (auto [P, A] : Pairs) {
    int64_t AotPos = R.range(0, 2);
    std::vector<Mode> Modes = {Mode::Cold, Mode::Warm};
    Modes.insert(Modes.begin() + AotPos, Mode::Aot);
    for (Mode M : Modes)
      Out.push_back({P, A, M});
  }
  return Out;
}

/// What one execution produced, kept until the checks after the pass.
struct ExecRecord {
  Exec E;
  std::string Error;
  double SimSeconds = 0;
  double HostJit = 0;
  uint64_t Compiles = 0;
  bool Verified = false;
  std::map<std::string, std::vector<uint8_t>> Buffers;
  std::vector<LaunchSample> Samples;
};

std::string cacheDirFor(const std::string &Root, const Program &P,
                        GpuArch A) {
  return Root + "/" + P.B->name() + "-" + archTag(A);
}

/// One program execution, mirroring hecbench::runBenchmark call for call.
ExecRecord execute(const Program &P, Exec E, const std::string &CacheDir,
                   Stopwatch &SW, RunTotals &T, StageRepeat *Rep,
                   uint64_t &LaunchId) {
  ExecRecord R;
  R.E = E;
  const bool Proteus = E.M != Mode::Aot;
  const CompiledProgram &CP =
      Proteus ? P.Jit[archIndex(E.Arch)] : P.Aot[archIndex(E.Arch)];

  SW.start();
  std::unique_ptr<Device> Dev;
  {
    Span S("gpu.device_init");
    Dev = std::make_unique<Device>(getTarget(E.Arch), 1ull << 28);
  }
  std::unique_ptr<JitRuntime> Rt;
  if (Proteus) {
    {
      Span S("jit.runtime_init");
      Rt = std::make_unique<JitRuntime>(*Dev, CP.ModuleId,
                                        benchJitConfig(CacheDir));
    }
    if (E.M == Mode::Cold) {
      Span S("fleet.clear");
      Rt->cache().clearPersistent();
    }
  }
  std::unique_ptr<LoadedProgram> LP;
  {
    Span S("jit.program_load");
    LP = std::make_unique<LoadedProgram>(*Dev, CP, Rt.get());
  }
  BufferMap Buffers;
  double Transfer = 0;
  if (!LP->ok())
    R.Error = LP->error();
  else if (!uploadBuffers(P, *Dev, Buffers, &Transfer))
    R.Error = "device OOM";

  // Compiled and disk-served launches, for the traced repeat.
  std::vector<std::pair<size_t, bool>> Repeats;
  if (R.Error.empty()) {
    Dev->resetSimulatedTime();
    const uint64_t Scale = P.B->timeScale();
    for (size_t I = 0; I != P.Launches.size(); ++I) {
      const LaunchSpec &L = P.Launches[I];
      std::vector<KernelArg> Args = resolveArgs(L.Args, Buffers);
      JitProbe Before;
      if (tracing() && Rt)
        Before = JitProbe::read(*Rt);
      bool Ok = false;
      std::string Err;
      LaunchSample S;
      {
        Span Sp(Proteus ? "jit.launch" : "gpu.launch", ++LaunchId);
        S = measureLaunch(
            *Dev,
            [&] {
              return LP->launch(L.Symbol, L.Grid, L.Block, Args, &Err) ==
                     GpuError::Success;
            },
            Ok);
      }
      if (!Ok) {
        R.Error = "launch of @" + L.Symbol + " failed: " + Err;
        break;
      }
      if (tracing()) {
        if (Rt) {
          JitProbe After = JitProbe::read(*Rt);
          classifyLaunch(Before, After, S.HostSec, T);
          if (After.Compiles != Before.Compiles)
            Repeats.push_back({I, true});
          else if (After.DiskHits != Before.DiskHits)
            Repeats.push_back({I, false});
        }
      }
      // Sampled-simulation extrapolation, as runBenchmark accounts it.
      if (Scale > 1) {
        double D = Dev->LastLaunch.DurationSec * static_cast<double>(Scale - 1);
        Dev->addSimulatedSeconds(D);
        Dev->addKernelSeconds(D);
        S.SimSec += D;
        S.KernelSec += D;
      }
      R.Samples.push_back(S);
    }
  }
  R.SimSeconds = Dev->simulatedSeconds();
  if (Rt) {
    R.HostJit = addRuntimeCounters(*Rt, T);
    R.Compiles = Rt->stats().Compilations;
  }
  SW.stop();

  if (Proteus) {
    T.SimS += R.SimSeconds;
    T.SimTransferS += Transfer;
  }
  if (R.Error.empty()) {
    Span S("check.output");
    std::map<std::string, uint64_t> Sizes;
    for (const BufferSpec &BS : P.Buffers)
      Sizes[BS.Name] = BS.Init.size();
    BufferReader Reader(*Dev, Buffers, Sizes);
    for (const BufferSpec &BS : P.Buffers)
      R.Buffers[BS.Name] = Reader.bytes(BS.Name);
    R.Verified = P.B->verifyOutput(Reader);
  }
  if (Proteus && R.Error.empty()) {
    // Object facts, once per specialization this runtime obtained.
    std::set<uint64_t> Seen;
    for (size_t I = 0; I != P.Launches.size(); ++I) {
      const LaunchSpec &L = P.Launches[I];
      std::vector<KernelArg> Args = resolveArgs(L.Args, Buffers);
      SpecializationKey Key = specializationKey(CP, L.Symbol, E.Arch, L.Block,
                                                Args);
      uint64_t Hash = computeSpecializationHash(Key);
      if (!Seen.insert(Hash).second)
        continue;
      std::vector<uint8_t> Object = cachedObject(CacheDir, Hash);
      T.ObjectBytes += Object.size();
      T.Spills += R.Samples[I].Stats.SpillSlots;
      for (auto [Idx, Compiled] : Repeats) {
        if (Idx != I)
          continue;
        std::string Err =
            Compiled ? Rep->compile(P, E.Arch, L.Symbol, Key, *Dev, Object, T)
                     : Rep->diskHit(CacheDir, Hash, E.Arch);
        if (!Err.empty())
          throw Fatal(Err);
      }
    }
  }
  return R;
}

/// One pass over the grid. \p Records receives every execution's outputs.
RunTotals runPass(const std::vector<Program> &Progs,
                  const std::vector<Exec> &Order, const std::string &Dir,
                  std::vector<ExecRecord> &Records) {
  RunTotals T;
  Stopwatch SW;
  std::unique_ptr<StageRepeat> Rep;
  if (tracing())
    Rep = std::make_unique<StageRepeat>(Dir + "/repeat");
  uint64_t LaunchId = 0;
  for (const Exec &E : Order) {
    const Program &P = Progs[E.Prog];
    std::string CacheDir = cacheDirFor(Dir, P, E.Arch);
    Records.push_back(execute(P, E, CacheDir, SW, T, Rep.get(), LaunchId));
    T.Attempted += P.Launches.size();
  }
  T.TimedWall = SW.seconds();

  // Checks: every execution verified by its program, every Proteus
  // execution's final buffers byte-identical to the AOT execution's.
  std::map<std::pair<unsigned, GpuArch>, const ExecRecord *> AotOf;
  for (const ExecRecord &R : Records)
    if (R.E.M == Mode::Aot)
      AotOf[{R.E.Prog, R.E.Arch}] = &R;
  std::map<std::string, Job> Jobs;
  for (const ExecRecord &R : Records) {
    const Program &P = Progs[R.E.Prog];
    const ExecRecord &Aot = *AotOf.at({R.E.Prog, R.E.Arch});
    std::string Why = R.Error;
    if (Why.empty() && !R.Verified)
      Why = "verifyOutput rejected the final buffers";
    if (Why.empty() && R.E.M != Mode::Aot && R.Buffers != Aot.Buffers)
      Why = "final buffers differ from the AOT execution's";
    if (!Why.empty()) {
      std::printf("check failed: %s %s %s: %s\n", P.B->name().c_str(),
                  archTag(R.E.Arch), modeName(R.E.M), Why.c_str());
      T.Failed += P.Launches.size();
      continue;
    }
    for (size_t I = 0; I != R.Samples.size(); ++I) {
      T.addLaunch(R.Samples[I], R.E.M != Mode::Aot);
      if (tracing())
        T.ExecS += R.E.M == Mode::Aot
                       ? R.Samples[I].HostSec
                       : estimatedExecSeconds(R.Samples[I], Aot.Samples[I]);
    }
    if (R.E.M != Mode::Aot)
      Jobs[P.B->name() + "/" + archTag(R.E.Arch) + "/" + modeName(R.E.M)] = {
          Aot.SimSeconds, R.HostJit + R.SimSeconds};
  }
  T.closePass(RunTotals::Mark(), T.TimedWall, jobSpeedup(Jobs));
  return T;
}

/// Seeded placement of the inputs: a zero-filled gap of 256 B to 256 KiB
/// before every input buffer moves the inputs relative to each other, as
/// allocation addresses differ between processes. The simulator's L2 model
/// maps addresses to sets, so simulated time depends on the placement;
/// results do not.
void placeInputs(std::vector<Program> &Progs, Rng &R) {
  for (Program &P : Progs) {
    std::vector<BufferSpec> Placed;
    for (BufferSpec &BS : P.Buffers) {
      uint64_t Gap = 256 * static_cast<uint64_t>(R.range(1, 1024));
      Placed.push_back(BufferSpec{"perfbench.gap." + BS.Name,
                                  std::vector<uint8_t>(Gap, 0)});
      Placed.push_back(std::move(BS));
    }
    P.Buffers = std::move(Placed);
  }
}

/// A benchmark that records its final buffers when the harness verifies
/// them, so runBenchmark's outputs can be compared byte for byte. Its
/// inputs are the driver's, placement buffer included.
class Capturing final : public Benchmark {
public:
  explicit Capturing(const Program &P) : P(P) {}

  std::string name() const override { return P.B->name(); }
  std::string domain() const override { return P.B->domain(); }
  std::string inputDescription() const override {
    return P.B->inputDescription();
  }
  std::unique_ptr<pir::Module> buildModule(pir::Context &Ctx) const override {
    return P.B->buildModule(Ctx);
  }
  std::vector<BufferSpec> buffers() const override { return P.Buffers; }
  std::vector<LaunchSpec> launches() const override {
    return P.B->launches();
  }
  uint64_t timeScale() const override { return P.B->timeScale(); }
  bool verifyOutput(const BufferReader &Out) const override {
    for (const BufferSpec &BS : P.Buffers)
      Captured[BS.Name] = Out.bytes(BS.Name);
    return P.B->verifyOutput(Out);
  }

  mutable std::map<std::string, std::vector<uint8_t>> Captured;

private:
  const Program &P;
};

/// The driver-equivalence self-check: for every program x arch pair, in
/// both cache states, runBenchmark must give the same simulated seconds
/// (bit for bit), the same final buffers and the same compile count as the
/// driver's own execution. Two threads split the pairs (each pair's cold
/// run precedes its warm run, whose cache it fills).
void selfCheck(const std::vector<Program> &Progs,
               const std::vector<ExecRecord> &Records,
               const std::string &Dir) {
  std::string Failure[2];
  auto Worker = [&](unsigned Half) {
    try {
      for (const ExecRecord &R : Records) {
        if (R.E.M == Mode::Aot || (R.E.Prog + archIndex(R.E.Arch)) % 2 != Half)
          continue;
        const Program &P = Progs[R.E.Prog];
        RunConfig C;
        C.Arch = R.E.Arch;
        C.Mode = ExecMode::Proteus;
        C.Jit = benchJitConfig(cacheDirFor(Dir, P, R.E.Arch));
        C.ColdCache = R.E.M == Mode::Cold;
        Capturing B(P);
        RunResult RR = runBenchmark(B, C);
        std::string Why;
        if (!RR.Ok)
          Why = "runBenchmark failed: " + RR.Error;
        else if (std::memcmp(&RR.DeviceSeconds, &R.SimSeconds, sizeof(double)))
          Why = "simulated seconds differ";
        else if (B.Captured != R.Buffers)
          Why = "final buffers differ";
        else if (RR.JitCompilations != R.Compiles)
          Why = "compile counts differ";
        if (!Why.empty()) {
          Failure[Half] = "driver self-check: " + P.B->name() + " " +
                          archTag(R.E.Arch) + " " + modeName(R.E.M) + ": " +
                          Why;
          return;
        }
      }
    } catch (const std::exception &E) {
      Failure[Half] = E.what();
    }
  };
  std::thread Second(Worker, 1u);
  Worker(0);
  Second.join();
  for (const std::string &F : Failure)
    if (!F.empty())
      throw Fatal(F);
}

} // namespace

Outcome runApps(const Options &O) {
  // Set-up: build the modules, generate the inputs, AOT-compile for both
  // arches; repeated so setup_s is a median.
  std::vector<double> Setup;
  std::vector<Program> Progs;
  for (int I = 0; I != SetupRepeats; ++I) {
    double T0 = hostSeconds();
    std::vector<Program> P = buildPrograms();
    Setup.push_back(hostSeconds() - T0);
    if (I && !sameImages(P, Progs))
      throw Fatal("AOT images differ between set-up repetitions");
    Progs = std::move(P);
  }
  printSetup(Setup);
  // The timed phase is whole passes over the grid, each about 20 s on a
  // 4-vCPU x86 host, and at least two of them so the host-clock metrics
  // can take the best pass: the speedup geomean needs every job, so a pass
  // is never cut.
  const unsigned Passes =
      std::max<unsigned>(AppsMinPasses, std::lround(O.Seconds / 8.0));
  Rng R(O.Seed);
  std::vector<Exec> Order = gridOrder(Progs.size(), R);
  const Rng Placement = R;
  Rng P = Placement;
  placeInputs(Progs, P);
  RunTotals T;
  std::vector<RunTotals> PassTotals;
  std::vector<ExecRecord> FirstRecords;
  for (unsigned Pass = 0; Pass != Passes; ++Pass) {
    std::vector<ExecRecord> Records;
    PassTotals.push_back(runPass(Progs, Order,
                                 O.Scratch + "/apps" + std::to_string(Pass),
                                 Records));
    std::string Diff = PassTotals.back().exactMismatch(PassTotals.front());
    if (!Diff.empty())
      throw Fatal("apps pass " + std::to_string(Pass) +
                  " differs from pass 0 in " + Diff);
    T.merge(PassTotals.back());
    if (!Pass)
      FirstRecords = std::move(Records);
  }
  // Each pass holds one 256 MiB device at a time; the self-check below
  // holds two, so the workload's own peak is read before it.
  const double PeakRss = peakRssMiB();
  selfCheck(Progs, FirstRecords, O.Scratch + "/selfcheck");
  std::printf("apps: %u passes, %llu launches in %.3f s timed; driver "
              "self-check passed (24 runBenchmark executions)\n",
              Passes, static_cast<unsigned long long>(T.Launches),
              T.TimedWall);

  printPasses("apps", T);

  Outcome Out;
  Out.Attempted = T.Attempted;
  Out.Failed = T.Failed;
  if (!O.Trace) {
    Out.Metrics = endToEndMetrics(T, Setup, PeakRss);
    return Out;
  }

  // One traced pass, compared with the fastest untraced one.
  setTracing(true);
  std::vector<Program> Traced = buildPrograms();
  P = Placement;
  placeInputs(Traced, P);
  std::vector<ExecRecord> TracedRecords;
  RunTotals TT =
      runPass(Traced, Order, O.Scratch + "/apps-traced", TracedRecords);
  setTracing(false);
  Out.Attempted += TT.Attempted;
  Out.Failed += TT.Failed;
  const RunTotals &Fastest = *std::min_element(
      PassTotals.begin(), PassTotals.end(),
      [](const RunTotals &A, const RunTotals &B) {
        return A.TimedWall < B.TimedWall;
      });
  Out.Metrics = tracedMetrics(O, Fastest, TT);
  return Out;
}

} // namespace perfbench
