//===- Harness.h - shared machinery of the perfbench driver -----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the three workloads share: the in-memory span recorder of the
/// traced run, the timed-region stopwatch, distribution helpers, the
/// seeded generator, the hermetic JIT configuration, and the per-run
/// accumulator from which the end-to-end and per-layer metrics are derived.
///
/// Spans are recorded only from the benchmark's own files, around its calls
/// into each module's public functions. A span's layer is its name up to the
/// first '.', so "codegen.isel.amdgcn" belongs to the codegen layer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "codegen/Target.h"
#include "gpu/Device.h"
#include "jit/JitRuntime.h"

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A harness failure: the run stops without printing a result.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- Tracing -------------------------------------------------------------

/// Turns span recording on or off. Call only while no worker thread runs.
void setTracing(bool On);
bool tracing();

/// Marks the timed region. Spans started while it is set count towards
/// trace.unattributed_pct and the layer shares. Set from the thread that
/// owns the run, while no worker records spans.
void setTimedRegion(bool On);

/// RAII span around one call into a layer. A no-op when tracing is off.
class Span {
public:
  explicit Span(const char *Name, uint64_t LaunchId = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int32_t Index = -1;
};

/// Records a completed child of the current span that ended now and lasted
/// \p Seconds (the pass manager reports pass times only after the fact).
void recordCompletedSpan(const std::string &Name, double Seconds);

// --- Timing --------------------------------------------------------------

/// Host wall seconds since an arbitrary fixed origin.
double hostSeconds();

/// Accumulates the host wall time of the timed region, which a workload may
/// pause for its output checks.
class Stopwatch {
public:
  void start();
  void stop();
  double seconds() const { return Total; }

private:
  double Begin = 0;
  double Total = 0;
  bool Running = false;
};

// --- Seeded inputs -------------------------------------------------------

/// SplitMix64: the same seed gives the same inputs on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);

private:
  uint64_t State;
};

// --- Configuration -------------------------------------------------------

/// The one JIT configuration every workload uses: synchronous compiles,
/// tiering off, analyze=warn, capture/tune/policy off, a local cache in
/// \p CacheDir. Built in code; the environment is never consulted.
proteus::JitConfig benchJitConfig(const std::string &CacheDir);

/// Prints the effective configuration of the run.
void printConfig(const proteus::JitConfig &C);

/// Names of PROTEUS_* variables set in the environment.
std::vector<std::string> proteusEnvironment();

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  bool Trace = false;
  /// Private directory of this invocation; removed on exit.
  std::string Scratch;
  /// Where the traced run writes its spans; empty = nowhere.
  std::string TraceFile;
};

// --- Per-run accumulation ------------------------------------------------

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload reports.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// One launch call's measurements.
struct LaunchSample {
  double HostSec = 0;
  double SimSec = 0;    ///< device clock advance during the call
  double KernelSec = 0; ///< kernel share of SimSec
  proteus::gpu::LaunchStats Stats;
};

/// Runs \p Fn (one launch call on \p Dev) and measures it.
template <typename Fn>
LaunchSample measureLaunch(proteus::gpu::Device &Dev, Fn &&Call,
                           bool &Ok) {
  LaunchSample S;
  double Sim0 = Dev.simulatedSeconds(), K0 = Dev.kernelSeconds();
  double T0 = hostSeconds();
  Ok = Call();
  S.HostSec = hostSeconds() - T0;
  S.SimSec = Dev.simulatedSeconds() - Sim0;
  S.KernelSec = Dev.kernelSeconds() - K0;
  S.Stats = Dev.LastLaunch;
  return S;
}

/// Paper-clock seconds of one speedup job (Fig. 3).
struct Job {
  double AotSeconds = 0;
  double ProteusSeconds = 0;
};

/// Everything one timed run (untraced or traced) measures.
struct RunTotals {
  // End to end.
  double TimedWall = 0;          ///< host seconds of the timed phase
  /// Host-clock figures of each pass; the end-to-end metrics take the best
  /// pass, so one slow stretch of a run moves them little.
  struct Pass {
    double LaunchesPerS = 0, P50 = 0, P90 = 0, Speedup = 0;
  };
  std::vector<Pass> Passes;
  std::vector<double> LaunchSec; ///< wall time of each timed launch
  uint64_t Launches = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  double AotHostSec = 0; ///< host seconds inside AOT launch calls
  uint64_t AotInsts = 0;
  /// Simulated Minst per host second of repeated, identical stretches of
  /// AOT launches (passes); sim_minst_per_s is the best of them.
  std::vector<double> AotRates;
  double SimS = 0; ///< simulated seconds of the Proteus launch sequences

  // Exact, deterministic counts (also checked between runs).
  uint64_t Insts = 0; ///< executed instructions of the timed launches
  uint64_t L2Hits = 0, L2Misses = 0;
  double SimKernelS = 0, SimModuleLoadS = 0, SimTransferS = 0;
  uint64_t Compiles = 0, MemHits = 0, DiskHits = 0;
  uint64_t ObjectBytes = 0, Spills = 0, InstsAfterO3 = 0;

  // Host-clock layer figures of the traced run.
  double HostJitS = 0;
  double ExecS = 0; ///< timed launch time outside JIT compile and lookup
  std::vector<double> CompileLaunchSec, DiskLaunchSec, HotLaunchSec;
  unsigned RepeatedCompiles[2] = {0, 0}; ///< per GpuArch

  /// Adds one timed launch.
  void addLaunch(const LaunchSample &S, bool Proteus);
  /// Adds one AOT reference launch made outside the timed region.
  void addAotReference(const LaunchSample &S);
  /// Where a pass began: the sizes of the accumulators at its start.
  struct Mark {
    size_t LaunchSec = 0;
    uint64_t Launches = 0;
    double AotHostSec = 0;
    uint64_t AotInsts = 0;
  };
  Mark mark() const {
    return {LaunchSec.size(), Launches, AotHostSec, AotInsts};
  }
  /// Records the pass that began at \p M and took \p Wall host seconds.
  void closePass(const Mark &M, double Wall, double Speedup);
  /// Adds every additive figure of \p O (pass lists are appended).
  void merge(const RunTotals &O);
  /// Compares the deterministic figures; returns the first difference.
  std::string exactMismatch(const RunTotals &O) const;
};

/// Speedup geomean of a set of jobs (AOT paper clock / Proteus paper clock).
double jobSpeedup(const std::map<std::string, Job> &Jobs);

/// Prints each pass's host-clock figures.
void printPasses(const char *Workload, const RunTotals &R);

/// Prints the host seconds of each set-up repetition.
void printSetup(const std::vector<double> &SetupSeconds);

/// Resident set high-water mark of this process, in MiB. A workload reads
/// it right after its timed phase, before any check that holds more memory.
double peakRssMiB();

/// The eight end-to-end metrics.
std::vector<Metric> endToEndMetrics(const RunTotals &R,
                                    const std::vector<double> &SetupSeconds,
                                    double PeakRssMiB);

/// Completes a --trace 1 invocation: fails unless the traced run repeated
/// the untraced run's deterministic figures, writes the spans to
/// O.TraceFile, and returns the per-layer metrics of the traced run.
std::vector<Metric> tracedMetrics(const Options &O, const RunTotals &Untraced,
                                  const RunTotals &Traced);

/// Prints the result line: the last line of standard output.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics);

/// Name of \p A as used in metric suffixes ("amdgcn" / "nvptx").
const char *archTag(proteus::GpuArch A);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
