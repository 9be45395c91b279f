//===- Scheduler.h - heterogeneous placement scheduler ----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement half of the heterogeneous scheduling subsystem: decides,
/// per launch, which device of a mixed-arch pool should run a kernel. Sits
/// in front of JitRuntime::launchKernelOn — callers route launches through
/// Scheduler::launch (or place + launchKernelOn) instead of naming a device
/// themselves. Four modes (PROTEUS_SCHED, warn-don't-coerce):
///
///   * off    — every launch goes to device 0's default stream, byte- and
///              timing-identical to calling launchKernel directly;
///   * static — round-robin across the pool, the uniform-load baseline;
///   * load   — argmin over the per-device load gauge (the lock-free
///              published makespan, Device::loadGaugeNs), so launches route
///              around busy devices;
///   * perf   — load-aware *and* model-aware: each candidate device is
///              scored as ready-time + predicted kernel seconds from the
///              static roofline profile on that device's arch
///              (analysis/Roofline.h), so a kernel lands where it will
///              *finish* first, not merely start first.
///
/// Critical-path slack (analysis/CriticalPath.h) biases placement: when an
/// installed timeline report says a kernel is entirely off the critical
/// path (criticalityOf == 0), perf and load modes place it by ready time
/// alone — an idle-but-slower device absorbs slack work without lengthening
/// the run (counted as sched.placements.slack).
///
/// Thread safety: place()/launch() may be called concurrently. Device load
/// gauges are relaxed atomics published by the streams; the scheduler's own
/// mutable state (round-robin cursors, profiles, the criticality map) is
/// guarded by one internal mutex. The scheduler never touches a device —
/// it only picks one; the launch itself goes through the JIT runtime's
/// per-device locking.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SCHED_SCHEDULER_H
#define PROTEUS_SCHED_SCHEDULER_H

#include "analysis/CriticalPath.h"
#include "analysis/Roofline.h"
#include "jit/JitRuntime.h"
#include "support/Knobs.h"
#include "support/Metrics.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace proteus {
namespace sched {

/// Placement policy (PROTEUS_SCHED=off|static|perf|load).
enum class SchedMode {
  Off,    ///< pin everything to device 0 (today's behavior)
  Static, ///< round-robin across the pool
  Perf,   ///< predicted-finish-first (roofline + load gauge)
  Load,   ///< emptiest-queue-first (load gauge only)
};

const char *schedModeName(SchedMode M);

struct SchedConfig {
  SchedMode Mode = SchedMode::Off;

  /// Reads PROTEUS_SCHED, the one row of envKnobs(). Invalid values keep
  /// the default and emit a warning (into \p Warnings when given, else
  /// stderr) with a counted "config.errors" — the same warn-don't-coerce
  /// policy as JitConfig::fromEnvironment.
  static SchedConfig fromEnvironment(std::vector<std::string> *Warnings =
                                         nullptr);
  static std::span<const knobs::Knob> envKnobs();
};

/// A placement decision: the device to launch on and the stream within it
/// (null = the device's default stream with legacy barrier semantics —
/// only Off mode returns null; the other modes spread across streams).
struct Placement {
  unsigned DeviceIndex = 0;
  gpu::Stream *S = nullptr;
};

/// Decides placements over the devices attached to one JitRuntime.
///
/// Owns a metrics::Registry with the placement accounting:
///   sched.placements.dev<N> — launches placed on device N;
///   sched.placements.slack — placements biased by critical-path slack.
class Scheduler {
public:
  Scheduler(JitRuntime &Jit, SchedConfig Config);

  SchedMode mode() const { return Config.Mode; }

  /// Supplies the static roofline profile for \p Symbol — the input of
  /// perf-mode prediction (programs obtain it from computeStaticProfile on
  /// their kernel IR). Without a profile, perf mode degrades to load mode
  /// for that kernel.
  void noteKernelProfile(const std::string &Symbol,
                         const pir::analysis::KernelStaticProfile &P);

  /// Installs a timeline criticality report (analysis::analyzeTimeline over
  /// a previous run's trace); kernels it marks slack-only are placed by
  /// ready time alone. Replaces any previous report.
  void setCriticalPathReport(const analysis::CriticalPathReport &R);

  /// Picks the device + stream for one launch of \p Symbol. Deterministic
  /// given the same gauge readings (ties break toward the lower device
  /// index / stream id).
  Placement place(const std::string &Symbol, gpu::Dim3 Grid, gpu::Dim3 Block);

  /// place() + launchKernelOn in one step. \p ArgsFor maps the chosen
  /// device index to that device's argument values (buffers live per
  /// device); \p PlacedOn, when non-null, reports the decision.
  gpu::GpuError launch(const std::string &Symbol, gpu::Dim3 Grid,
                       gpu::Dim3 Block,
                       const std::function<std::vector<gpu::KernelArg>(
                           unsigned DeviceIndex)> &ArgsFor,
                       std::string *Error = nullptr,
                       unsigned *PlacedOn = nullptr);

  /// The placement accounting registry (sched.placements.*).
  metrics::Registry &registry() { return Reg; }

  /// Predicted execution seconds of \p Symbol's grid on device \p Device,
  /// from the noted static profile and the device arch's roofline; negative
  /// when no profile was noted. Exposed so tests and benches can assert the
  /// perf-mode ranking instead of hard-coding device indices.
  double predictedSeconds(const std::string &Symbol, unsigned Device,
                          gpu::Dim3 Grid, gpu::Dim3 Block) const;

private:
  JitRuntime &Jit;
  const SchedConfig Config;
  metrics::Registry Reg;
  std::vector<metrics::Counter *> PlacementCounters; // one per device
  metrics::Counter *SlackPlacements = nullptr;

  mutable std::mutex Mutex; // guards everything below
  std::map<std::string, pir::analysis::KernelStaticProfile> Profiles;
  /// Kernel name -> criticality fraction from the installed report.
  std::map<std::string, double> Criticality;
  uint64_t NextDevice = 0;              // static-mode cursor
  std::vector<uint64_t> NextStream;     // per-device stream cursor
};

} // namespace sched
} // namespace proteus

#endif // PROTEUS_SCHED_SCHEDULER_H
