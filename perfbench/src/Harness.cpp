//===- Harness.cpp - shared machinery of the perfbench driver -------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

extern char **environ;

using namespace proteus;

namespace perfbench {

// --- Tracing -------------------------------------------------------------

namespace {

struct SpanRecord {
  const char *Name = nullptr; ///< literal or interned, never freed
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;  ///< index into the same thread's records
  uint32_t Thread = 0;
  uint64_t LaunchId = 0; ///< launch the span belongs to; 0 = none
  bool Timed = false;    ///< started inside the timed region
};

struct ThreadBuffer {
  std::vector<SpanRecord> Records;
  int32_t Current = -1;
  uint32_t Id = 0;
};

bool TracingOn = false;
std::atomic<bool> TimedRegion{false};

std::mutex BuffersMutex; // guards Buffers and Interned
std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
std::set<std::string> Interned;

ThreadBuffer &threadBuffer() {
  thread_local ThreadBuffer *TB = nullptr;
  if (!TB) {
    std::lock_guard<std::mutex> Lock(BuffersMutex);
    Buffers.push_back(std::make_unique<ThreadBuffer>());
    TB = Buffers.back().get();
    TB->Id = static_cast<uint32_t>(Buffers.size() - 1);
  }
  return *TB;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char *intern(const std::string &S) {
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  return Interned.insert(S).first->c_str();
}

} // namespace

void setTracing(bool On) { TracingOn = On; }
bool tracing() { return TracingOn; }
void setTimedRegion(bool On) { TimedRegion.store(On); }

Span::Span(const char *Name, uint64_t LaunchId) {
  if (!TracingOn)
    return;
  ThreadBuffer &TB = threadBuffer();
  SpanRecord R;
  R.Name = Name;
  R.StartNs = nowNs();
  R.Parent = TB.Current;
  R.Thread = TB.Id;
  R.LaunchId = LaunchId;
  R.Timed = TimedRegion.load(std::memory_order_relaxed);
  Index = static_cast<int32_t>(TB.Records.size());
  TB.Records.push_back(R);
  TB.Current = Index;
}

Span::~Span() {
  if (Index < 0)
    return;
  ThreadBuffer &TB = threadBuffer();
  TB.Records[Index].EndNs = nowNs();
  TB.Current = TB.Records[Index].Parent;
}

void recordCompletedSpan(const std::string &Name, double Seconds) {
  if (!TracingOn)
    return;
  ThreadBuffer &TB = threadBuffer();
  SpanRecord R;
  R.Name = intern(Name);
  R.EndNs = nowNs();
  R.StartNs = R.EndNs - static_cast<int64_t>(Seconds * 1e9);
  R.Parent = TB.Current;
  R.Thread = TB.Id;
  R.LaunchId = TB.Current >= 0 ? TB.Records[TB.Current].LaunchId : 0;
  R.Timed = TimedRegion.load(std::memory_order_relaxed);
  TB.Records.push_back(R);
}

namespace {

/// Every thread's records. Call after all worker threads have been joined.
std::vector<std::vector<SpanRecord>> collectSpans() {
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  std::vector<std::vector<SpanRecord>> Out;
  for (const auto &B : Buffers)
    Out.push_back(B->Records);
  return Out;
}

/// Writes the spans as a Chrome trace-event file (load it in Perfetto or
/// chrome://tracing).
bool writeChromeTrace(const std::string &Path,
                      const std::vector<std::vector<SpanRecord>> &Spans) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  int64_t Origin = INT64_MAX;
  for (const auto &T : Spans)
    for (const SpanRecord &R : T)
      Origin = std::min(Origin, R.StartNs);
  OS << "{\"traceEvents\":[";
  bool First = true;
  char Buf[512];
  for (const auto &T : Spans)
    for (size_t I = 0; I != T.size(); ++I) {
      const SpanRecord &R = T[I];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"launch\":%" PRIu64
                    ",\"timed\":%d}}",
                    First ? "" : ",", R.Name,
                    std::string(R.Name, std::strcspn(R.Name, ".")).c_str(),
                    R.Thread, (R.StartNs - Origin) / 1e3,
                    (R.EndNs - R.StartNs) / 1e3, I, R.Parent, R.LaunchId,
                    R.Timed ? 1 : 0);
      OS << Buf;
      First = false;
    }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

} // namespace

// --- Timing --------------------------------------------------------------

double hostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Stopwatch::start() {
  Begin = hostSeconds();
  Running = true;
  setTimedRegion(true);
}

void Stopwatch::stop() {
  if (!Running)
    return;
  Total += hostSeconds() - Begin;
  Running = false;
  setTimedRegion(false);
}

// --- Statistics ----------------------------------------------------------

namespace {

/// Linear-interpolation percentile, \p P in [0, 1]; 0 for an empty set.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

/// Smoothed percentile of launch times: the mean of the values ranked
/// within 2.5 percentage points of \p P. Launch times come in clusters (one
/// per kernel and mode), and a plain percentile whose rank sits between two
/// clusters jumps from one to the other when the host's speed shifts a
/// little; the window average moves smoothly.
double smoothedPercentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Half = 0.025;
  double Last = static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(std::max(0.0, P - Half) * Last));
  size_t Hi = static_cast<size_t>(std::ceil(std::min(1.0, P + Half) * Last));
  double Sum = 0;
  for (size_t I = Lo; I <= Hi; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Hi - Lo + 1);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

} // namespace

double peakRssMiB() {
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// --- Seeded inputs -------------------------------------------------------

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<int64_t>(next() % Span);
}

// --- Configuration -------------------------------------------------------

JitConfig benchJitConfig(const std::string &CacheDir) {
  JitConfig C;
  C.EnableRCF = true;
  C.EnableLaunchBounds = true;
  C.UseMemoryCache = true;
  C.UsePersistentCache = true;
  C.CacheDir = CacheDir;
  C.Limits = CacheLimits();
  C.CacheRemote = false;
  C.VerifyIR = false;
  C.Async = JitConfig::AsyncMode::Sync;
  C.Tier = false;
  C.Analyze = JitConfig::AnalyzeMode::Warn;
  C.VerifyEachPass = false;
  C.Capture = false;
  C.Tune = false;
  C.Policy = false;
  return C;
}

void printConfig(const JitConfig &C) {
  std::printf("config: async=%s tier=%s analyze=%s rcf=%s launch_bounds=%s "
              "memory_cache=%s persistent_cache=%s cache=local "
              "cache_limits=none verify_ir=%s verify_each=%s capture=%s "
              "tune=%s policy=%s\n",
              asyncModeName(C.Async), tierModeName(C.Tier),
              analyzeModeName(C.Analyze), C.EnableRCF ? "on" : "off",
              C.EnableLaunchBounds ? "on" : "off",
              C.UseMemoryCache ? "on" : "off",
              C.UsePersistentCache ? "on" : "off", C.VerifyIR ? "on" : "off",
              C.VerifyEachPass ? "on" : "off", C.Capture ? "on" : "off",
              C.Tune ? "on" : "off", C.Policy ? "on" : "off");
}

std::vector<std::string> proteusEnvironment() {
  std::vector<std::string> Out;
  for (char **E = environ; E && *E; ++E)
    if (std::strncmp(*E, "PROTEUS_", 8) == 0)
      Out.emplace_back(*E, std::strcspn(*E, "="));
  return Out;
}

// --- Per-run accumulation ------------------------------------------------

const char *archTag(GpuArch A) {
  return A == GpuArch::AmdGcnSim ? "amdgcn" : "nvptx";
}

void RunTotals::addLaunch(const LaunchSample &S, bool Proteus) {
  LaunchSec.push_back(S.HostSec);
  ++Launches;
  Insts += S.Stats.TotalInstrs;
  L2Hits += S.Stats.L2Hits;
  L2Misses += S.Stats.L2Misses;
  if (Proteus) {
    SimKernelS += S.KernelSec;
    SimModuleLoadS += S.SimSec - S.KernelSec;
  } else {
    AotHostSec += S.HostSec;
    AotInsts += S.Stats.TotalInstrs;
  }
}

void RunTotals::addAotReference(const LaunchSample &S) {
  AotHostSec += S.HostSec;
  AotInsts += S.Stats.TotalInstrs;
}

void RunTotals::closePass(const Mark &M, double Wall, double Speedup) {
  std::vector<double> Slice(LaunchSec.begin() + M.LaunchSec, LaunchSec.end());
  Pass P;
  P.LaunchesPerS = Wall > 0 ? (Launches - M.Launches) / Wall : 0;
  P.P50 = smoothedPercentile(Slice, 0.5);
  P.P90 = smoothedPercentile(Slice, 0.9);
  P.Speedup = Speedup;
  Passes.push_back(P);
  double AotSec = AotHostSec - M.AotHostSec;
  if (AotSec > 0)
    AotRates.push_back(static_cast<double>(AotInsts - M.AotInsts) / AotSec /
                       1e6);
}

void RunTotals::merge(const RunTotals &O) {
  TimedWall += O.TimedWall;
  Passes.insert(Passes.end(), O.Passes.begin(), O.Passes.end());
  AotRates.insert(AotRates.end(), O.AotRates.begin(), O.AotRates.end());
  LaunchSec.insert(LaunchSec.end(), O.LaunchSec.begin(), O.LaunchSec.end());
  Launches += O.Launches;
  Attempted += O.Attempted;
  Failed += O.Failed;
  AotHostSec += O.AotHostSec;
  AotInsts += O.AotInsts;
  SimS += O.SimS;
  Insts += O.Insts;
  L2Hits += O.L2Hits;
  L2Misses += O.L2Misses;
  SimKernelS += O.SimKernelS;
  SimModuleLoadS += O.SimModuleLoadS;
  SimTransferS += O.SimTransferS;
  Compiles += O.Compiles;
  MemHits += O.MemHits;
  DiskHits += O.DiskHits;
  ObjectBytes += O.ObjectBytes;
  Spills += O.Spills;
  InstsAfterO3 += O.InstsAfterO3;
  HostJitS += O.HostJitS;
  ExecS += O.ExecS;
  CompileLaunchSec.insert(CompileLaunchSec.end(), O.CompileLaunchSec.begin(),
                          O.CompileLaunchSec.end());
  DiskLaunchSec.insert(DiskLaunchSec.end(), O.DiskLaunchSec.begin(),
                       O.DiskLaunchSec.end());
  HotLaunchSec.insert(HotLaunchSec.end(), O.HotLaunchSec.begin(),
                      O.HotLaunchSec.end());
  RepeatedCompiles[0] += O.RepeatedCompiles[0];
  RepeatedCompiles[1] += O.RepeatedCompiles[1];
}

std::string RunTotals::exactMismatch(const RunTotals &O) const {
  auto Differs = [](double A, double B) {
    return std::memcmp(&A, &B, sizeof(double)) != 0;
  };
  if (Differs(SimS, O.SimS))
    return "sim_s";
  if (Insts != O.Insts)
    return "gpu.insts";
  if (L2Hits != O.L2Hits || L2Misses != O.L2Misses)
    return "gpu.l2_hit_ratio";
  if (Differs(SimKernelS, O.SimKernelS))
    return "gpu.sim_kernel_s";
  if (Differs(SimModuleLoadS, O.SimModuleLoadS))
    return "gpu.sim_module_load_s";
  if (Differs(SimTransferS, O.SimTransferS))
    return "gpu.sim_transfer_s";
  if (Compiles != O.Compiles)
    return "jit.compiles";
  if (MemHits != O.MemHits)
    return "jit.mem_hits";
  if (DiskHits != O.DiskHits)
    return "jit.disk_hits";
  if (ObjectBytes != O.ObjectBytes)
    return "codegen.object_bytes";
  if (Spills != O.Spills)
    return "codegen.spills";
  if (Launches != O.Launches)
    return "launches";
  return "";
}

double jobSpeedup(const std::map<std::string, Job> &Jobs) {
  std::vector<double> Ratios;
  for (const auto &[Name, J] : Jobs)
    if (J.ProteusSeconds > 0)
      Ratios.push_back(J.AotSeconds / J.ProteusSeconds);
  return geomean(Ratios);
}

void printPasses(const char *Workload, const RunTotals &R) {
  for (size_t I = 0; I != R.Passes.size(); ++I)
    std::printf("%s pass %zu: launches_per_s=%.6g launch_ms_p50=%.6g "
                "launch_ms_p90=%.6g speedup=%.6g\n",
                Workload, I, R.Passes[I].LaunchesPerS, R.Passes[I].P50 * 1e3,
                R.Passes[I].P90 * 1e3, R.Passes[I].Speedup);
}

void printSetup(const std::vector<double> &SetupSeconds) {
  std::printf("set-up s:");
  for (double S : SetupSeconds)
    std::printf(" %.4f", S);
  std::printf("\n");
}

std::vector<Metric> endToEndMetrics(const RunTotals &R,
                                    const std::vector<double> &SetupSeconds,
                                    double PeakRssMiB) {
  // Host-clock figures come from the run's best pass: other tenants of the
  // host slow a pass down by up to a fifth for seconds at a time, and
  // interference only ever slows it, so the best pass is the steadiest
  // estimate of the program's own cost. (The speedup's Proteus side holds
  // host JIT seconds, so it is a host-clock figure too.)
  auto Best = [&](double RunTotals::Pass::*Field, bool Higher) {
    std::vector<double> V;
    for (const RunTotals::Pass &P : R.Passes)
      V.push_back(P.*Field);
    return V.empty() ? 0 : Higher ? *std::max_element(V.begin(), V.end())
                                  : *std::min_element(V.begin(), V.end());
  };
  return {
      {"setup_s", median(SetupSeconds), "s"},
      {"peak_rss_mb", PeakRssMiB, "MiB"},
      {"launches_per_s", Best(&RunTotals::Pass::LaunchesPerS, true), "1/s"},
      {"launch_ms_p50", Best(&RunTotals::Pass::P50, false) * 1e3, "ms"},
      {"launch_ms_p90", Best(&RunTotals::Pass::P90, false) * 1e3, "ms"},
      {"sim_minst_per_s",
       R.AotRates.empty()
           ? 0
           : *std::max_element(R.AotRates.begin(), R.AotRates.end()),
       "Minst/s"},
      {"sim_s", R.SimS, "s"},
      {"speedup_geomean", Best(&RunTotals::Pass::Speedup, true), "x"},
  };
}

namespace {

/// Per-name aggregates of a span set.
struct SpanTable {
  struct Entry {
    double SumDur = 0, SumSelf = 0;
    std::vector<double> Durations;
  };
  std::map<std::string, Entry> ByName;
  std::map<std::string, double> SelfByLayer;
  double TimedTopLevel = 0;
  double TimedGpuSetup = 0; ///< device init, malloc and h2d in the timed phase

  explicit SpanTable(const std::vector<std::vector<SpanRecord>> &Spans) {
    for (const auto &T : Spans) {
      std::vector<double> Self(T.size());
      for (size_t I = 0; I != T.size(); ++I)
        Self[I] = (T[I].EndNs - T[I].StartNs) / 1e9;
      for (size_t I = 0; I != T.size(); ++I)
        if (T[I].Parent >= 0)
          Self[T[I].Parent] -= (T[I].EndNs - T[I].StartNs) / 1e9;
      for (size_t I = 0; I != T.size(); ++I) {
        const SpanRecord &R = T[I];
        double Dur = (R.EndNs - R.StartNs) / 1e9;
        Entry &E = ByName[R.Name];
        E.SumDur += Dur;
        E.SumSelf += Self[I];
        E.Durations.push_back(Dur);
        std::string Layer(R.Name, std::strcspn(R.Name, "."));
        SelfByLayer[Layer] += Self[I];
        if (R.Timed && R.Parent < 0)
          TimedTopLevel += Dur;
        if (R.Timed && (!std::strcmp(R.Name, "gpu.device_init") ||
                        !std::strcmp(R.Name, "gpu.malloc") ||
                        !std::strcmp(R.Name, "gpu.h2d")))
          TimedGpuSetup += Dur;
      }
    }
  }

  const Entry &get(const std::string &Name) const {
    static const Entry Empty;
    auto It = ByName.find(Name);
    return It == ByName.end() ? Empty : It->second;
  }
  double meanDur(const std::string &Name) const {
    const Entry &E = get(Name);
    return E.Durations.empty() ? 0 : E.SumDur / E.Durations.size();
  }
};

double safeDiv(double A, double B) { return B > 0 ? A / B : 0; }

} // namespace

namespace {

std::vector<Metric>
perLayerMetrics(const RunTotals &T, double UntracedWall,
                const std::vector<std::vector<SpanRecord>> &Spans) {
  SpanTable S(Spans);
  std::vector<Metric> M;
  double Compiles = T.RepeatedCompiles[0] + T.RepeatedCompiles[1];
  auto PerCompile = [&](const std::string &Name, bool Self) {
    const SpanTable::Entry &E = S.get(Name);
    return safeDiv(Self ? E.SumSelf : E.SumDur, Compiles);
  };

  M.push_back({"hecbench.build_module_ms",
               S.meanDur("hecbench.build_module") * 1e3, "ms"});

  M.push_back({"jit.aot_compile_ms", S.meanDur("jit.aot_compile") * 1e3,
               "ms"});
  M.push_back({"jit.launch_compile_ms_p50",
               smoothedPercentile(T.CompileLaunchSec, 0.5) * 1e3, "ms"});
  M.push_back({"jit.launch_compile_ms_p90",
               smoothedPercentile(T.CompileLaunchSec, 0.9) * 1e3, "ms"});
  M.push_back({"jit.launch_disk_us_p50",
               smoothedPercentile(T.DiskLaunchSec, 0.5) * 1e6, "us"});
  M.push_back({"jit.launch_disk_us_p90",
               smoothedPercentile(T.DiskLaunchSec, 0.9) * 1e6, "us"});
  M.push_back({"jit.launch_hot_us_p50",
               smoothedPercentile(T.HotLaunchSec, 0.5) * 1e6, "us"});
  M.push_back({"jit.launch_hot_us_p90",
               smoothedPercentile(T.HotLaunchSec, 0.9) * 1e6, "us"});
  M.push_back({"jit.host_jit_s", T.HostJitS, "s"});
  M.push_back({"jit.compiles", static_cast<double>(T.Compiles), "count"});
  M.push_back({"jit.mem_hits", static_cast<double>(T.MemHits), "count"});
  M.push_back({"jit.disk_hits", static_cast<double>(T.DiskHits), "count"});

  M.push_back({"bitcode.index_ms", PerCompile("bitcode.index", true) * 1e3,
               "ms"});
  M.push_back({"bitcode.materialize_ms",
               PerCompile("bitcode.materialize", true) * 1e3, "ms"});

  M.push_back({"transforms.specialize_us",
               PerCompile("transforms.specialize", true) * 1e6, "us"});
  M.push_back({"transforms.o3_ms", PerCompile("transforms.o3", false) * 1e3,
               "ms"});
  // Metric suffix -> PassManager pass name.
  static const std::pair<const char *, const char *> Passes[] = {
      {"inliner", "inline"}, {"mem2reg", "mem2reg"},
      {"instcombine", "instcombine"}, {"simplifycfg", "simplifycfg"},
      {"cse", "cse"}, {"licm", "licm"}, {"dce", "dce"},
      {"loopunroll", "loop-unroll"}};
  for (const auto &[Metric, Pass] : Passes)
    M.push_back({std::string("transforms.o3.") + Metric + "_ms",
                 PerCompile(std::string("transforms.o3.") + Pass, true) * 1e3,
                 "ms"});
  M.push_back({"transforms.insts_after_o3",
               static_cast<double>(T.InstsAfterO3), "count"});

  M.push_back({"analysis.analyze_us",
               PerCompile("analysis.analyze", true) * 1e6, "us"});

  for (GpuArch A : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    double N = T.RepeatedCompiles[static_cast<int>(A)];
    for (const char *Stage : {"isel", "regalloc", "emit"}) {
      std::string Span = std::string("codegen.") + Stage + "." + archTag(A);
      M.push_back({std::string("codegen.") + Stage + "_ms." + archTag(A),
                   safeDiv(S.get(Span).SumSelf, N) * 1e3, "ms"});
    }
  }
  M.push_back({"codegen.object_bytes", static_cast<double>(T.ObjectBytes),
               "bytes"});
  M.push_back({"codegen.spills", static_cast<double>(T.Spills), "count"});

  M.push_back({"fleet.publish_us_p50",
               median(S.get("fleet.publish").Durations) * 1e6, "us"});
  M.push_back({"fleet.lookup_us_p50",
               median(S.get("fleet.lookup").Durations) * 1e6, "us"});

  M.push_back({"gpu.device_init_ms", S.meanDur("gpu.device_init") * 1e3,
               "ms"});
  M.push_back({"gpu.h2d_ms", S.meanDur("gpu.h2d") * 1e3, "ms"});
  M.push_back({"gpu.module_load_us_p50",
               median(S.get("gpu.module_load").Durations) * 1e6, "us"});
  M.push_back({"gpu.exec_s", T.ExecS, "s"});
  M.push_back({"gpu.host_ns_per_inst",
               safeDiv(T.ExecS, static_cast<double>(T.Insts)) * 1e9, "ns"});
  M.push_back({"gpu.insts", static_cast<double>(T.Insts), "count"});
  M.push_back({"gpu.sim_kernel_s", T.SimKernelS, "s"});
  M.push_back({"gpu.sim_transfer_s", T.SimTransferS, "s"});
  M.push_back({"gpu.sim_module_load_s", T.SimModuleLoadS, "s"});
  M.push_back({"gpu.l2_hit_ratio",
               safeDiv(static_cast<double>(T.L2Hits),
                       static_cast<double>(T.L2Hits + T.L2Misses)),
               "ratio"});

  double CompileSelf = 0;
  for (const char *Layer :
       {"bitcode", "transforms", "analysis", "codegen", "fleet"}) {
    auto It = S.SelfByLayer.find(Layer);
    if (It != S.SelfByLayer.end())
      CompileSelf += It->second;
  }
  M.push_back({"trace.overhead_pct",
               (safeDiv(T.TimedWall, UntracedWall) - 1) * 100, "%"});
  M.push_back({"trace.unattributed_pct",
               (1 - safeDiv(S.TimedTopLevel, T.TimedWall)) * 100, "%"});
  M.push_back({"share.gpu_pct",
               safeDiv(S.TimedGpuSetup + T.ExecS, T.TimedWall) * 100, "%"});
  M.push_back({"share.compile_pct", safeDiv(CompileSelf, T.TimedWall) * 100,
               "%"});
  M.push_back({"share.exec_pct", safeDiv(T.ExecS, T.TimedWall) * 100, "%"});
  return M;
}

} // namespace

std::vector<Metric> tracedMetrics(const Options &O, const RunTotals &Untraced,
                                  const RunTotals &Traced) {
  std::string Diff = Untraced.exactMismatch(Traced);
  if (!Diff.empty())
    throw Fatal("traced and untraced runs differ in " + Diff);
  std::vector<std::vector<SpanRecord>> Spans = collectSpans();
  if (!O.TraceFile.empty() && !writeChromeTrace(O.TraceFile, Spans))
    throw Fatal("cannot write " + O.TraceFile);
  return perLayerMetrics(Traced, Untraced.TimedWall, Spans);
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Metrics.size(); ++I) {
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace perfbench
