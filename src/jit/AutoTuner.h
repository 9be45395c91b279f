//===- AutoTuner.h - kernel variant manager and auto-tuning -----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's section 6 future-work item "exploring runtime optimizations
/// like kernel scheduling and auto-tuning", built on the pieces Proteus
/// already has — grown here into a kernel *variant manager*:
///
/// For one (kernel, args, arch) specialization the manager generates
/// several competing variants — block-size / launch-bounds budgets, the
/// fast vs. full O3 preset, LICM on/off, wider loop unrolling — and races
/// them on *replayed* capture artifacts (src/capture + Replay.h): each
/// trial rebuilds a fresh simulated device from the artifact's pre-launch
/// images, so trials are side-effect-free by construction, never touch a
/// live device, and every trial's output is differentially checked against
/// the recorded post-launch images. A kernel whose result depends on its
/// launch geometry simply fails the output check and disqualifies that
/// variant — correctness gates the race, not heuristics.
///
/// The empirical winner is installed on every attached device through the
/// runtime's one compile-or-reuse-and-swap primitive
/// (JitRuntime::installSpecialization, the Tier-1 hot-swap), and the
/// decision is persisted in the code cache keyed by (module, kernel, arch,
/// total threads, argument bits) — the rocFFT "kernel repo" idea — so a
/// warm fleet never re-tunes: the next run loads the decision, installs the
/// winner from the persistent code cache with zero compiles, and records a
/// TunerCacheHits. This is the only tuner: the block-size axis races here,
/// on replayed launches, never on a live device.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_AUTOTUNER_H
#define PROTEUS_JIT_AUTOTUNER_H

#include "capture/Artifact.h"
#include "jit/JitRuntime.h"
#include "jit/Replay.h"

namespace proteus {

/// One competing configuration of a kernel specialization.
struct VariantSpec {
  std::string Name;
  gpu::Dim3 Grid{1, 1, 1};
  gpu::Dim3 Block{1, 1, 1};
  O3Options O3;
};

/// Outcome of racing one variant on the replay substrate.
struct VariantTrial {
  VariantSpec Spec;
  bool Ok = false;
  /// Replayed output bytes matched the artifact's recorded post-images
  /// (a variant that changes results is never eligible to win).
  bool OutputMatch = false;
  double KernelSeconds = 0;
  uint64_t Compilations = 0;
  gpu::LaunchStats Stats;
  std::string Error;
};

/// Outcome of one variant-manager tuning session.
struct VariantTuningResult {
  bool Ok = false;
  /// The decision came from the persisted store: nothing was raced.
  bool FromCache = false;
  /// The winner was installed (hot-swapped) on the runtime's devices.
  bool Promoted = false;
  std::string Error;
  VariantSpec Winner;
  double WinnerSeconds = 0;
  /// The recorded default configuration's trial time (variant 0), for
  /// speedup reporting. 0 when the default trial failed.
  double BaselineSeconds = 0;
  /// Simulated device seconds spent across all trials — the tuning cost,
  /// reported separately from program device time (trials run on throwaway
  /// replay devices and never advance a live device's clock).
  double TuningSeconds = 0;
  /// Host wall-clock seconds the tuning session took.
  double TuningWallSeconds = 0;
  /// Persisted-decision key (computeTuningKeyHash inputs from the
  /// artifact).
  uint64_t DecisionKey = 0;
  std::vector<VariantTrial> Trials;
};

/// Races competing variants of captured kernel launches and manages the
/// persisted per-(arch, shape) decisions. One instance serves one
/// JitRuntime; tuning sessions are independent per artifact.
class VariantManager {
public:
  struct Options {
    /// Master switch (PROTEUS_TUNE). Disabled sessions return immediately.
    bool Enabled = true;
    /// Maximum trials per specialization (PROTEUS_TUNE_BUDGET). The
    /// recorded default configuration always races, so the budget is
    /// effectively clamped to at least 1.
    unsigned Budget = 8;

    /// Derives the tuning knobs from a runtime configuration
    /// (PROTEUS_TUNE / PROTEUS_TUNE_BUDGET land here).
    static Options fromConfig(const JitConfig &C) {
      Options O;
      O.Enabled = C.Tune;
      O.Budget = C.TuneBudget;
      return O;
    }
  };

  explicit VariantManager(JitRuntime &Jit) : Jit(Jit) {}
  VariantManager(JitRuntime &Jit, Options Opts) : Jit(Jit), Opts(Opts) {}

  /// The competing variants for \p A, budget-capped. Variant 0 is always
  /// the recorded default (the artifact's geometry under the runtime's own
  /// O3 configuration) so the race always includes the status quo.
  ///
  /// With PROTEUS_POLICY=on and a roofline verdict recorded for
  /// (A.KernelSymbol, A.Arch), tuning axes the classification says cannot
  /// pay off are dropped *before* the budget cap — so PROTEUS_TUNE_BUDGET
  /// bounds raced trials, and pruned variants never consume budget slots
  /// (policy.pruned_trials counts them).
  std::vector<VariantSpec> generateVariants(
      const capture::CaptureArtifact &A) const;

  /// The policy verdict for \p A's (kernel, arch), classifying the
  /// artifact's own bitcode on the static roofline when the runtime has
  /// not compiled (and hence classified) this kernel yet. Returns nullopt
  /// when the policy is off or the bitcode cannot be classified.
  std::optional<PolicyVerdict> ensureVerdict(const capture::CaptureArtifact &A);

  /// Tunes one captured launch: consults the persisted decision store
  /// first (a hit installs the winner warm and races nothing), otherwise
  /// races generateVariants() on the replay substrate, promotes the
  /// winner on every attached device, and persists the decision.
  VariantTuningResult tuneArtifact(const capture::CaptureArtifact &A);

  /// Reads every capture artifact in \p Dir and tunes each in turn
  /// (unreadable files are skipped). Returns one result per artifact
  /// tuned.
  std::vector<VariantTuningResult> tuneDirectory(const std::string &Dir);

private:
  JitRuntime &Jit;
  Options Opts;
};

} // namespace proteus

#endif // PROTEUS_JIT_AUTOTUNER_H
