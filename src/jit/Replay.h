//===- Replay.h - standalone capture-artifact replay ------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a capture artifact (src/capture) in isolation: a fresh simulated
/// device is rebuilt to the captured address map (claimed allocations at
/// their original addresses, globals pinned to their original symbols),
/// pre-launch memory images are restored, and the launch is re-JITed through
/// a real JitRuntime — the identical pipeline live launches take, so replay
/// exercises specialization, O3, the sanitizer, tiering, everything.
/// Afterwards the replayed output memory and the freshly computed
/// specialization hash are diffed against the values recorded at capture
/// time.
///
/// The determinism contract: the simulator is functional (every thread
/// executes, memory effects are exact), so as long as the JIT pipeline is
/// semantics-preserving, replay must be byte-identical — under any
/// PROTEUS_TIER / PROTEUS_ANALYZE override the caller layers into
/// ReplayOptions::Jit. A mismatch is therefore always a finding: a
/// miscompilation, a nondeterministic pass, or a capture bug.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_REPLAY_H
#define PROTEUS_JIT_REPLAY_H

#include "capture/Artifact.h"
#include "jit/JitRuntime.h"

#include <cstdint>
#include <optional>
#include <string>

namespace proteus {

/// Knobs for one replay run.
struct ReplayOptions {
  /// Base JIT configuration. Typically JitConfig::fromEnvironment() so the
  /// PROTEUS_TIER / PROTEUS_ANALYZE / PROTEUS_ASYNC overrides apply; replay
  /// then forces the artifact's specialization knobs (RCF, launch bounds)
  /// on top — they are inputs of the recorded hash — plus Sync mode,
  /// capture off (a replay must not re-capture itself) and VerifyIR on
  /// (the artifact's bitcode is outside bytes).
  JitConfig Jit;
  /// When non-empty, the replay runtime uses this persistent cache
  /// directory (artifact-aware warm load: a second replay of the same
  /// artifact against the same directory compiles nothing).
  std::string CacheDir;
  /// Launch-geometry override: when set, the replay launches Grid x Block
  /// instead of the recorded geometry (the variant manager races block-size
  /// variants this way; the replayed specialization hash then incorporates
  /// the overridden launch bounds, so HashMatch is only meaningful without
  /// an override). The differential output check still runs — a kernel
  /// whose result depends on its launch geometry fails OutputMatch and
  /// disqualifies itself as a variant.
  bool OverrideGeometry = false;
  gpu::Dim3 Grid{1, 1, 1};
  gpu::Dim3 Block{1, 1, 1};
  /// Device-architecture override: when set, the replay device is built
  /// with this arch instead of the recorded one, exercising the retarget
  /// path — the artifact's bitcode recompiles through the target arch's
  /// backend. Like a geometry override, the replayed specialization hash
  /// then keys the overridden arch, so HashMatch is only meaningful when
  /// the override equals the recorded arch. The differential output check
  /// still applies in full: the simulator is functional, so a retargeted
  /// kernel must reproduce the captured bytes exactly.
  std::optional<GpuArch> ArchOverride;
};

/// Outcome of one replay.
struct ReplayResult {
  /// False when the replay could not run at all (bad artifact, device
  /// rebuild failure, launch error) — see Error.
  bool Ok = false;
  std::string Error;

  /// Byte-exact comparison of every captured region's post-launch image.
  bool OutputMatch = false;
  /// The replayed specialization hash equals the recorded one.
  bool HashMatch = false;

  uint64_t RecordedHash = 0;
  uint64_t ReplayedHash = 0;
  unsigned MismatchedRegions = 0;
  /// Human-readable description of the first differing byte, when any.
  std::string FirstMismatch;

  /// Compiles the replay actually performed (full-pipeline + Tier-0); 0
  /// means every object came out of the (persistent) code cache.
  uint64_t CompilationsUsed = 0;

  /// Performance readings from the replay device — the variant manager's
  /// scoring inputs. Launch is the executed launch's counter set
  /// (Device::LastLaunch); KernelSeconds is the device's kernel-only
  /// simulated time, SimulatedSeconds its makespan.
  gpu::LaunchStats Launch;
  double KernelSeconds = 0;
  double SimulatedSeconds = 0;

  /// Full success: ran, outputs match, hash matches.
  bool passed() const { return Ok && OutputMatch && HashMatch; }
};

/// Replays \p A on a fresh device under \p Opts and diffs against the
/// capture-time record.
ReplayResult replayArtifact(const capture::CaptureArtifact &A,
                            const ReplayOptions &Opts);

} // namespace proteus

#endif // PROTEUS_JIT_REPLAY_H
