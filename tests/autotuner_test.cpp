//===- autotuner_test.cpp - variant manager / auto-tuning tests -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "gpu/DeviceManager.h"
#include "ir/Context.h"
#include "jit/AutoTuner.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

uint64_t processCounter(const std::string &Name) {
  for (const auto &[K, V] : metrics::processRegistry().counterValues())
    if (K == Name)
      return V;
  return 0;
}

struct Harness {
  Context Ctx;
  Module M{Ctx, "tune"};
  Function *F = nullptr;
  std::unique_ptr<DeviceManager> Mgr;
  Device *Dev = nullptr; // device 0 convenience
  std::unique_ptr<JitRuntime> Jit;
  std::vector<std::unique_ptr<LoadedProgram>> LPs;
  std::string CacheDir;
  std::string CaptureDir;
  bool OwnsCacheDir = true;
  std::vector<DevicePtr> Xs, Ys; // per-device buffers
  DevicePtr X = 0, Y = 0;        // device 0 convenience
  static constexpr uint32_t N = 2048;

  explicit Harness(unsigned NumDevices = 1, bool Capture = false,
                   std::function<void(JitConfig &)> Tweak = nullptr,
                   std::string SharedCacheDir = std::string()) {
    F = buildDaxpyKernel(M);
    AotOptions AO;
    AO.Arch = GpuArch::AmdGcnSim;
    AO.EnableProteusExtensions = true;
    CompiledProgram Prog = aotCompile(M, AO);
    DeviceManager::Config DC;
    DC.NumDevices = NumDevices;
    DC.MemoryBytesPerDevice = 1 << 22;
    Mgr = std::make_unique<DeviceManager>(DC);
    Dev = &Mgr->device(0);
    OwnsCacheDir = SharedCacheDir.empty();
    CacheDir = OwnsCacheDir ? fs::makeTempDirectory("proteus-tune")
                            : std::move(SharedCacheDir);
    JitConfig JC;
    JC.CacheDir = CacheDir;
    if (Capture) {
      CaptureDir = fs::makeTempDirectory("proteus-tune-cap");
      JC.Capture = true;
      JC.CaptureDir = CaptureDir;
    }
    if (Tweak)
      Tweak(JC);
    Jit = std::make_unique<JitRuntime>(*Dev, Prog.ModuleId, JC);
    Xs.resize(NumDevices);
    Ys.resize(NumDevices);
    std::vector<double> H(N, 1.0);
    for (unsigned D = 0; D != NumDevices; ++D) {
      LPs.emplace_back(new LoadedProgram(Mgr->device(D), Prog, Jit.get()));
      EXPECT_TRUE(LPs.back()->ok()) << LPs.back()->error();
      gpuMalloc(Mgr->device(D), &Xs[D], N * 8);
      gpuMalloc(Mgr->device(D), &Ys[D], N * 8);
      gpuMemcpyHtoD(Mgr->device(D), Xs[D], H.data(), N * 8);
      gpuMemcpyHtoD(Mgr->device(D), Ys[D], H.data(), N * 8);
    }
    X = Xs[0];
    Y = Ys[0];
  }

  ~Harness() {
    Jit.reset(); // drain workers before tearing down directories
    if (OwnsCacheDir)
      fs::removeAllFiles(CacheDir);
    if (!CaptureDir.empty())
      fs::removeAllFiles(CaptureDir);
  }

  std::vector<KernelArg> args() const { return argsFor(0); }
  std::vector<KernelArg> argsFor(unsigned D) const {
    return {{sem::boxF64(2.0)}, {Xs[D]}, {Ys[D]}, {N}};
  }

  /// Launches daxpy once on device 0 (capture must be enabled) and returns
  /// the recorded artifact.
  capture::CaptureArtifact captureOne(Dim3 Grid, Dim3 Block) {
    std::string Err;
    EXPECT_EQ(Jit->launchKernel("daxpy", Grid, Block, args(), &Err),
              GpuError::Success)
        << Err;
    Jit->drain();
    std::vector<std::string> Files = fs::listFiles(CaptureDir);
    EXPECT_EQ(Files.size(), 1u);
    if (Files.empty())
      return {};
    std::string RErr;
    std::optional<capture::CaptureArtifact> A =
        capture::readArtifactFile(CaptureDir + "/" + Files[0], &RErr);
    EXPECT_TRUE(A.has_value()) << RErr;
    return A ? *A : capture::CaptureArtifact{};
  }
};

// ---- Configuration validation ----------------------------------------------

TEST(AutoTunerTest, CachePolicyEnvAcceptsDocumentedSpellings) {
  struct Case {
    const char *Value;
    EvictionPolicy Expected;
  } Cases[] = {{"lru", EvictionPolicy::LRU},
               {"lfu", EvictionPolicy::LFU},
               {"runtime", EvictionPolicy::LFU}};
  for (const Case &C : Cases) {
    setenv("PROTEUS_CACHE_POLICY", C.Value, 1);
    std::vector<std::string> Warnings;
    CacheLimits L = CacheLimits::fromEnvironment(&Warnings);
    EXPECT_EQ(L.Policy, C.Expected) << C.Value;
    EXPECT_TRUE(Warnings.empty())
        << "documented spelling '" << C.Value << "' warned: " << Warnings[0];
  }
  unsetenv("PROTEUS_CACHE_POLICY");
}

TEST(AutoTunerTest, CachePolicyEnvWarnsInsteadOfCoercing) {
  // "mru" is not a policy; the old parser silently coerced anything that
  // was not exactly "lfu" — including the README-documented "runtime" — to
  // LRU. Now: keep the default, warn, count a config error.
  setenv("PROTEUS_CACHE_POLICY", "mru", 1);
  const uint64_t ErrsBefore = processCounter("config.errors");
  std::vector<std::string> Warnings;
  CacheLimits L = CacheLimits::fromEnvironment(&Warnings);
  EXPECT_EQ(L.Policy, EvictionPolicy::LRU) << "default kept, not coerced";
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_NE(Warnings[0].find("PROTEUS_CACHE_POLICY"), std::string::npos);
  EXPECT_NE(Warnings[0].find("lru|lfu|runtime"), std::string::npos)
      << Warnings[0];
  EXPECT_EQ(processCounter("config.errors"), ErrsBefore + 1);
  unsetenv("PROTEUS_CACHE_POLICY");
}

TEST(AutoTunerTest, TuneEnvKnobs) {
  setenv("PROTEUS_TUNE", "on", 1);
  setenv("PROTEUS_TUNE_BUDGET", "3", 1);
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  EXPECT_TRUE(C.Tune);
  EXPECT_EQ(C.TuneBudget, 3u);
  EXPECT_TRUE(Warnings.empty());

  VariantManager::Options O = VariantManager::Options::fromConfig(C);
  EXPECT_TRUE(O.Enabled);
  EXPECT_EQ(O.Budget, 3u);

  setenv("PROTEUS_TUNE", "maybe", 1);
  setenv("PROTEUS_TUNE_BUDGET", "0", 1);
  Warnings.clear();
  C = JitConfig::fromEnvironment(&Warnings);
  EXPECT_FALSE(C.Tune) << "invalid value keeps the default";
  EXPECT_EQ(C.TuneBudget, 8u);
  EXPECT_EQ(Warnings.size(), 2u);
  unsetenv("PROTEUS_TUNE");
  unsetenv("PROTEUS_TUNE_BUDGET");
}

// ---- Variant manager --------------------------------------------------------

TEST(AutoTunerTest, VariantManagerRacesReplayedArtifact) {
  Harness H(1, /*Capture=*/true);
  capture::CaptureArtifact A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
  ASSERT_FALSE(A.KernelSymbol.empty());

  // Snapshot the live device after the capture launch: the race must not
  // touch it at all — trials run on throwaway replay devices. (The winner
  // promotion does charge the live device its module-upload time, so the
  // makespan may grow by that install cost; no kernel time may.)
  std::vector<uint8_t> Before = H.Dev->memory();
  const double KernBefore = H.Dev->kernelSeconds();
  const uint64_t TrialsBefore = H.Jit->stats().TunerTrials;

  VariantManager VM(*H.Jit);
  VariantTuningResult R = VM.tuneArtifact(A);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.FromCache);
  EXPECT_TRUE(R.Promoted);
  ASSERT_GE(R.Trials.size(), 3u) << "at least 3 variants must race";
  for (const VariantTrial &T : R.Trials) {
    EXPECT_TRUE(T.Ok) << T.Spec.Name << ": " << T.Error;
    EXPECT_TRUE(T.OutputMatch)
        << T.Spec.Name << " changed the kernel's output";
    EXPECT_GT(T.KernelSeconds, 0.0) << T.Spec.Name;
  }
  EXPECT_EQ(H.Jit->stats().TunerTrials, TrialsBefore + R.Trials.size());
  EXPECT_GT(R.BaselineSeconds, 0.0);
  EXPECT_LE(R.WinnerSeconds, R.BaselineSeconds)
      << "the recorded default races too, so the winner can never lose "
         "to it";
  EXPECT_GT(R.TuningSeconds, 0.0) << "tuning cost is accounted";

  EXPECT_EQ(H.Dev->memory(), Before);
  EXPECT_DOUBLE_EQ(H.Dev->kernelSeconds(), KernBefore)
      << "no trial kernel may run on the live device";
}

TEST(AutoTunerTest, BudgetCapsTrialsAndDisabledRacesNothing) {
  Harness H(1, /*Capture=*/true);
  capture::CaptureArtifact A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});

  VariantManager::Options O;
  O.Budget = 2;
  VariantManager VM(*H.Jit, O);
  VariantTuningResult R = VM.tuneArtifact(A);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Trials.size(), 2u) << "PROTEUS_TUNE_BUDGET caps the race";
  EXPECT_EQ(R.Trials[0].Spec.Name, "default")
      << "the recorded default always stays in the race";

  VariantManager::Options Off;
  Off.Enabled = false;
  VariantManager Disabled(*H.Jit, Off);
  VariantTuningResult R2 = Disabled.tuneArtifact(A);
  EXPECT_FALSE(R2.Ok);
  EXPECT_TRUE(R2.Trials.empty());
  EXPECT_NE(R2.Error.find("disabled"), std::string::npos) << R2.Error;
}

TEST(AutoTunerTest, WinnerHotSwappedOnEveryDevice) {
  Harness H(/*NumDevices=*/2, /*Capture=*/true);
  capture::CaptureArtifact A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
  ASSERT_FALSE(A.KernelSymbol.empty());

  VariantManager VM(*H.Jit);
  VariantTuningResult R = VM.tuneArtifact(A);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Promoted);
  EXPECT_EQ(H.Jit->stats().TunerPromotions, 1u)
      << "one promotion per decision, however many devices it reached";

  // The winner is installed on *every* attached device: launching its
  // shape anywhere compiles nothing (the per-arch object was hot-swapped
  // onto each device's loaded-kernel table).
  const uint64_t Compiles =
      H.Jit->stats().Compilations + H.Jit->stats().Tier0Compiles;
  for (unsigned D = 0; D != H.Mgr->numDevices(); ++D) {
    std::string Err;
    ASSERT_EQ(H.Jit->launchKernelOn(D, "daxpy", R.Winner.Grid,
                                    R.Winner.Block, H.argsFor(D), nullptr,
                                    &Err),
              GpuError::Success)
        << "device " << D << ": " << Err;
  }
  EXPECT_EQ(H.Jit->stats().Compilations + H.Jit->stats().Tier0Compiles,
            Compiles)
      << "winner launches must not compile on any device";
}

TEST(AutoTunerTest, PersistedDecisionWarmPathCompilesNothing) {
  std::string SharedCache = fs::makeTempDirectory("proteus-tune-shared");
  capture::CaptureArtifact A;
  VariantTuningResult Cold;
  {
    Harness HA(1, /*Capture=*/true, nullptr, SharedCache);
    A = HA.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
    ASSERT_FALSE(A.KernelSymbol.empty());
    VariantManager VM(*HA.Jit);
    Cold = VM.tuneArtifact(A);
    ASSERT_TRUE(Cold.Ok) << Cold.Error;
    ASSERT_FALSE(Cold.FromCache);
    ASSERT_GE(Cold.Trials.size(), 3u);
  } // runtime A gone; the decision + winner object live in SharedCache

  {
    // A fresh "fleet member" warm-starts from the shared cache: the tuning
    // session must race nothing and compile nothing.
    Harness HB(1, /*Capture=*/false, nullptr, SharedCache);
    VariantManager VM(*HB.Jit);
    VariantTuningResult Warm = VM.tuneArtifact(A);
    ASSERT_TRUE(Warm.Ok) << Warm.Error;
    EXPECT_TRUE(Warm.FromCache);
    EXPECT_TRUE(Warm.Promoted);
    EXPECT_TRUE(Warm.Trials.empty());
    EXPECT_EQ(Warm.DecisionKey, Cold.DecisionKey);
    EXPECT_EQ(Warm.Winner.Block.count(), Cold.Winner.Block.count());

    JitRuntimeStats Stats = HB.Jit->stats();
    EXPECT_EQ(Stats.TunerCacheHits, 1u);
    EXPECT_EQ(Stats.TunerTrials, 0u) << "a warm fleet never re-tunes";
    EXPECT_EQ(Stats.Compilations, 0u)
        << "the winner object comes out of the persistent code cache";
    EXPECT_EQ(Stats.Tier0Compiles, 0u);
    EXPECT_EQ(Stats.Launches, 0u) << "zero tuning launches on the warm path";

    // And the installed winner serves real launches without compiling.
    std::string Err;
    ASSERT_EQ(HB.Jit->launchKernel("daxpy", Warm.Winner.Grid,
                                   Warm.Winner.Block, HB.args(), &Err),
              GpuError::Success)
        << Err;
    EXPECT_EQ(HB.Jit->stats().Compilations, 0u);
    EXPECT_EQ(HB.Jit->stats().Tier0Compiles, 0u);
  }
  fs::removeAllFiles(SharedCache);
}

TEST(AutoTunerTest, FailedWinnerInstallIsACountedError) {
  // A persisted decision for a kernel this runtime never registered: the
  // warm path's winner install fails, and that failure is a counted error.
  Harness H(1, /*Capture=*/true);
  capture::CaptureArtifact A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
  ASSERT_FALSE(A.KernelSymbol.empty());
  A.KernelSymbol = "ghost";
  TuningDecision D;
  D.GridX = 16;
  D.BlockX = 128;
  H.Jit->storeTuningDecision(
      computeTuningKeyHash(A.ModuleId, A.KernelSymbol, A.Arch,
                           A.Grid.count() * A.Block.count(), A.ArgBits),
      D);
  const uint64_t ErrsBefore = H.Jit->stats().TunerErrors;

  VariantManager VM(*H.Jit);
  VariantTuningResult R = VM.tuneArtifact(A);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.FromCache);
  EXPECT_FALSE(R.Promoted);
  EXPECT_NE(R.Error.find("not registered"), std::string::npos) << R.Error;
  EXPECT_EQ(H.Jit->stats().TunerErrors, ErrsBefore + 1);
  EXPECT_EQ(H.Jit->stats().TunerPromotions, 0u);
}

TEST(AutoTunerTest, TierOnPromotedWinnerIsFinalTier) {
  capture::CaptureArtifact A;
  {
    Harness HA(1, /*Capture=*/true);
    A = HA.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
    ASSERT_FALSE(A.KernelSymbol.empty());
  }
  // A tiered runtime tunes the artifact: the race runs on replays and the
  // winner is compiled once, at the final tier — never as a Tier-0
  // baseline waiting for a promotion.
  Harness H(1, /*Capture=*/false, [](JitConfig &JC) { JC.Tier = true; });
  VariantManager VM(*H.Jit);
  VariantTuningResult R = VM.tuneArtifact(A);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Promoted);
  std::string Err;
  ASSERT_EQ(H.Jit->launchKernel("daxpy", R.Winner.Grid, R.Winner.Block,
                                H.args(), &Err),
            GpuError::Success)
      << Err;
  H.Jit->drain();
  JitRuntimeStats S = H.Jit->stats();
  EXPECT_EQ(S.Tier0Compiles, 0u);
  EXPECT_EQ(S.Compilations, 1u) << "the winner, compiled once";
  EXPECT_EQ(S.Tier1Promotions, 0u) << "no Tier-0 binary was ever served";

  // The installed object is the final-tier cache entry of the winner's
  // specialization (daxpy folds arguments 1 and 4).
  SpecializationKey Key;
  Key.ModuleId = A.ModuleId;
  Key.KernelSymbol = A.KernelSymbol;
  Key.Arch = A.Arch;
  Key.FoldedArgs = {{0, A.ArgBits[0]}, {3, A.ArgBits[3]}};
  Key.LaunchBoundsThreads = static_cast<uint32_t>(R.Winner.Block.count());
  std::optional<CachedCode> Entry =
      H.Jit->cache().lookupEntry(computeSpecializationHash(Key));
  ASSERT_TRUE(Entry.has_value());
  EXPECT_EQ(Entry->Tier, CodeTier::Final);
}

TEST(AutoTunerTest, InstallReplacesTier0AndCompilesOncePerArch) {
  // Tiering on, but the policy keeps every kernel at Tier-0 (an empty
  // critical set), so a Tier-0 mapping stays until an install replaces it.
  Harness H(/*NumDevices=*/3, /*Capture=*/false, [](JitConfig &JC) {
    JC.Tier = true;
    JC.Policy = true;
  });
  H.Jit->policy()->setCriticalKernels({});
  const Dim3 Grid{16, 1, 1}, Block{128, 1, 1};
  auto Launch = [&](unsigned D) {
    std::string Err;
    EXPECT_EQ(H.Jit->launchKernelOn(D, "daxpy", Grid, Block, H.argsFor(D),
                                    nullptr, &Err),
              GpuError::Success)
        << "device " << D << ": " << Err;
    return H.Mgr->device(D).LastLaunch;
  };
  const LaunchStats Tier0Run = Launch(0);
  H.Jit->drain();
  ASSERT_EQ(H.Jit->stats().Tier0Compiles, 1u);
  ASSERT_EQ(H.Jit->stats().Compilations, 0u);

  // Single-device install: the Tier-0 entry is not servable as final, so
  // it compiles, and device 0's Tier-0 mapping is replaced.
  JitRuntime::InstallReport One;
  std::string Err;
  ASSERT_EQ(H.Jit->installSpecialization("daxpy", Block, H.argsFor(0), 0,
                                         /*ReuseCached=*/true, nullptr, &One,
                                         &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(One.CompiledArches, 1u);
  EXPECT_EQ(One.ReusedArches, 0u);
  const LaunchStats FinalRun = Launch(0);
  EXPECT_EQ(H.Jit->stats().Compilations, 1u);
  EXPECT_EQ(H.Jit->stats().Tier0Compiles, 1u);
  EXPECT_NE(FinalRun.RegsUsed, Tier0Run.RegsUsed)
      << "device 0 must run the final-tier object now";

  // All-device install, recompiled (a pipeline override, as the tuner
  // passes, skips the cache entirely): one compile for the pool's one
  // arch, loaded on every device. Devices 1 and 2 map the specialization
  // for the first time: two cross-device loads, each a per-arch reuse.
  const O3Options O3 = H.Jit->config().O3;
  JitRuntime::InstallReport All;
  ASSERT_EQ(H.Jit->installSpecialization("daxpy", Block, H.argsFor(0), -1,
                                         /*ReuseCached=*/false, &O3, &All,
                                         &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(All.CompiledArches, 1u);
  EXPECT_EQ(All.ReusedArches, 0u);
  JitRuntimeStats S = H.Jit->stats();
  EXPECT_EQ(S.Compilations, 2u);
  EXPECT_EQ(S.CrossDeviceLoads, 2u);
  EXPECT_EQ(S.PerArchCompileReuse, 2u);

  // A warm all-device install compiles nothing; reloading devices that
  // already map the specialization counts loads, not reuse.
  JitRuntime::InstallReport Warm;
  ASSERT_EQ(H.Jit->installSpecialization("daxpy", Block, H.argsFor(0), -1,
                                         /*ReuseCached=*/true, nullptr, &Warm,
                                         &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(Warm.CompiledArches, 0u);
  EXPECT_EQ(Warm.ReusedArches, 1u);
  for (unsigned D = 0; D != 3; ++D) {
    const LaunchStats Run = Launch(D);
    EXPECT_EQ(Run.TotalInstrs, FinalRun.TotalInstrs) << "device " << D;
    EXPECT_EQ(Run.RegsUsed, FinalRun.RegsUsed) << "device " << D;
  }
  H.Jit->drain();
  S = H.Jit->stats();
  EXPECT_EQ(S.Compilations, 2u);
  EXPECT_EQ(S.Tier0Compiles, 1u);
  EXPECT_EQ(S.CrossDeviceLoads, 4u);
  EXPECT_EQ(S.PerArchCompileReuse, 2u);
  EXPECT_EQ(S.Tier1Promotions, 0u);
  EXPECT_EQ(S.PolicyTierDemotions, 1u);
}

// ---- Bottleneck-aware policy ------------------------------------------------

TEST(AutoTunerTest, MemoryBoundVerdictPrunesEveryAxisWithExactCounters) {
  // Baseline: the unpruned race over a captured daxpy launch.
  capture::CaptureArtifact A;
  size_t TrialsUnpruned = 0;
  {
    Harness H(1, /*Capture=*/true);
    A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
    ASSERT_FALSE(A.KernelSymbol.empty());
    VariantManager VM(*H.Jit);
    VariantTuningResult R = VM.tuneArtifact(A);
    ASSERT_TRUE(R.Ok) << R.Error;
    TrialsUnpruned = R.Trials.size();
    ASSERT_GE(TrialsUnpruned, 3u);
  }

  // Policy on, fresh cache: daxpy (2 FLOPs against 24 bytes per thread)
  // classifies MemoryBound, which prunes every tuning axis — only the
  // recorded default races, and policy.pruned_trials counts exactly the
  // variants the unpruned race would have run.
  Harness H(1, /*Capture=*/false,
            [](JitConfig &JC) { JC.Policy = true; });
  VariantManager VM(*H.Jit);
  VariantTuningResult R = VM.tuneArtifact(A);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Trials.size(), 1u) << "only the recorded default races";
  EXPECT_EQ(R.Trials[0].Spec.Name, "default");
  EXPECT_TRUE(R.Promoted);

  std::optional<PolicyVerdict> V =
      H.Jit->policy()->verdictFor(A.KernelSymbol, A.Arch);
  ASSERT_TRUE(V.has_value()) << "tuning must classify the artifact";
  EXPECT_EQ(V->Class, pir::analysis::BottleneckClass::MemoryBound);

  JitRuntimeStats Stats = H.Jit->stats();
  EXPECT_GE(Stats.PolicyClassified, 1u);
  EXPECT_EQ(Stats.PolicyPrunedTrials, TrialsUnpruned - 1)
      << "every non-default variant of the unpruned race was pruned";
  EXPECT_EQ(Stats.TunerTrials, 1u);
}

TEST(AutoTunerTest, PrunedVariantsDoNotConsumeTuneBudget) {
  Harness H(1, /*Capture=*/true,
            [](JitConfig &JC) { JC.Policy = true; });
  capture::CaptureArtifact A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
  ASSERT_FALSE(A.KernelSymbol.empty());

  // Force a ComputeBound verdict: only the block-size axis is pruned, the
  // pipeline variants (o3-fast, no-licm, unroll-wide) stay in the race.
  PolicyVerdict V;
  V.Class = pir::analysis::BottleneckClass::ComputeBound;
  H.Jit->policy()->recordVerdict(A.KernelSymbol, A.Arch, V);

  // Budget 3 with 3 pruned block variants: before the fix the pruned specs
  // consumed budget slots and the race collapsed to the default alone; now
  // the budget bounds *raced* trials, so 3 variants genuinely race.
  VariantManager::Options O;
  O.Budget = 3;
  VariantManager VM(*H.Jit, O);
  VariantTuningResult R = VM.tuneArtifact(A);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Trials.size(), 3u)
      << "budget caps raced trials after pruning, not before";
  EXPECT_EQ(R.Trials[0].Spec.Name, "default");
  for (const VariantTrial &T : R.Trials)
    EXPECT_EQ(T.Spec.Block.count(), A.Block.count())
        << T.Spec.Name << ": block-size variants must have been pruned";
  EXPECT_EQ(H.Jit->stats().PolicyPrunedTrials, 3u)
      << "exactly the three non-default block candidates were pruned";
}

TEST(AutoTunerTest, PolicyOffRuntimeHasNoPolicyState) {
  Harness H;
  EXPECT_EQ(H.Jit->policy(), nullptr);
  EXPECT_EQ(H.Jit->stats().PolicyClassified, 0u);
  EXPECT_EQ(H.Jit->stats().PolicyPrunedTrials, 0u);
}

TEST(AutoTunerTest, ConcurrentTuningStorm) {
  // Concurrent tuning sessions and launches against one runtime: the
  // decision store, the counters, and the hot-swap path must be
  // data-race-free (this test is in the TSan lane's storm set).
  Harness H(/*NumDevices=*/2, /*Capture=*/true,
            [](JitConfig &JC) { JC.Tier = true; });
  capture::CaptureArtifact A = H.captureOne(Dim3{16, 1, 1}, Dim3{128, 1, 1});
  ASSERT_FALSE(A.KernelSymbol.empty());

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&H, &A, T] {
      if (T % 2 == 0) {
        VariantManager VM(*H.Jit);
        VariantTuningResult R = VM.tuneArtifact(A);
        EXPECT_TRUE(R.Ok || R.FromCache) << R.Error;
      } else {
        for (unsigned I = 0; I != 8; ++I) {
          std::string Err;
          EXPECT_EQ(H.Jit->launchKernelOn(T % H.Mgr->numDevices(), "daxpy",
                                          Dim3{16, 1, 1}, Dim3{128, 1, 1},
                                          H.argsFor(T % H.Mgr->numDevices()),
                                          nullptr, &Err),
                    GpuError::Success)
              << Err;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  H.Jit->drain();
  EXPECT_GE(H.Jit->stats().TunerTrials + H.Jit->stats().TunerCacheHits, 2u);
}

} // namespace
