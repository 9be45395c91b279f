//===- JitRuntime.h - the Proteus JIT runtime library -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT compilation runtime library of paper section 3.3 — the component
/// reached through __jit_launch_kernel. Per launch it:
///
///   1. hashes (module id, kernel symbol, designated argument values,
///      launch-bounds threads) into the specialization key;
///   2. serves from the in-memory cache, then the persistent cache;
///   3. on a miss: obtains the kernel's bitcode (host-side .jit.<sym>
///      section on amdgcn-sim; device-memory readback of __jit_bc_<sym> on
///      nvptx-sim), links device globals to their runtime-resolved
///      addresses, applies the enabled specializations (RCF, LB), runs the
///      aggressive O3 pipeline, invokes the backend (plus the PTX assembler
///      step on nvptx-sim), inserts the object into both cache levels;
///   4. loads and launches the binary.
///
/// Every specialization knob can be disabled independently, which is how
/// the paper's None/LB/RCF/LB+RCF analysis modes (section 4.5) and the
/// overhead experiment (Figure 6) are produced.
///
/// The runtime is thread-safe and optionally asynchronous. Concurrent
/// launches of the same not-yet-compiled specialization are deduplicated
/// through an in-flight compilation table (one compile, many waiters), and
/// JitConfig::AsyncMode selects how a miss is served:
///
///   * Sync     — compile on the launching thread (the paper's behaviour);
///   * Block    — compile on a worker pool; the launch waits on a future;
///   * Fallback — the launch immediately runs the kernel's generic
///                (unspecialized AOT) binary while the specialized one
///                compiles in the background and is hot-swapped in on a
///                later launch, as in tiered JITs.
///
/// Orthogonally, PROTEUS_TIER=on enables tiered compilation of the
/// specialized binary itself: a miss is served by a fast Tier-0 compile
/// (argument specialization + a minimal cleanup pipeline + single-pass
/// register allocation) while the full Tier-1 pipeline runs on the worker
/// pool at low priority and atomically hot-swaps the loaded kernel once
/// ready. Cache entries carry a tier tag and a pipeline fingerprint, so a
/// persisted Tier-0 baseline found on a later run is served immediately
/// and promoted in place rather than mistaken for a final artifact.
/// Kernels are materialized from a parse-once module index that clones
/// only the launched kernel's reachable call closure per specialization.
///
/// Multi-device: additional devices (attachDevice) share one runtime, one
/// code cache and one module index. Specializations are keyed by GpuArch,
/// so a kernel is compiled once per architecture and the same object is
/// loaded onto every same-arch device that launches it (PerArchCompileReuse
/// / CrossDeviceLoads count this). With more than one device attached,
/// device-global references stay symbolic in the object and are resolved
/// per device at module-load time through the loader's relocation patching;
/// with a single device the compiler keeps baking resolved addresses into
/// the IR (cheaper, and lets O3 fold address arithmetic). The two linkage
/// modes carry different pipeline fingerprints, so cached objects of one
/// mode are never served in the other.
///
/// Lock order (deadlock discipline): the runtime's table mutexes
/// (RegistryMutex, InFlightMutex, IndexMutex, MemoMutex, OriginMutex) are
/// leaves taken before any per-device lock, never while one is held — and
/// no two device locks are ever held at once. Work that visits several
/// devices (the hot-swap behind Tier-1 promotion and installs,
/// resetInMemoryState) iterates them in ascending ordinal, locking one at a
/// time.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_JITRUNTIME_H
#define PROTEUS_JIT_JITRUNTIME_H

#include "gpu/Runtime.h"
#include "jit/CodeCache.h"
#include "jit/CompilationPolicy.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "transforms/O3Pipeline.h"

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace proteus {

class KernelModuleIndex;

namespace capture {
class CaptureSession;
}

/// Runtime configuration (environment-variable equivalents).
struct JitConfig {
  /// How a launch that misses the code cache obtains its binary.
  enum class AsyncMode {
    Sync,     ///< compile inline on the launching thread (default)
    Block,    ///< compile on the worker pool; the launch waits on a future
    Fallback, ///< launch the generic AOT binary now, hot-swap the
              ///< specialized binary once the background compile finishes
  };

  bool EnableRCF = true;          // runtime constant folding of arguments
  bool EnableLaunchBounds = true; // launch-bounds specialization
  bool UseMemoryCache = true;
  bool UsePersistentCache = true;
  std::string CacheDir = "proteus-jit-cache";
  /// Size limits + eviction policy (paper section 3.4); defaults unlimited.
  CacheLimits Limits;
  /// Fleet mode (PROTEUS_CACHE_REMOTE=off|on): when on, the persistent
  /// level speaks to the node's shared cache service (tools/proteus-cached)
  /// over a unix socket, with batched lookups, fleet-wide compile dedup and
  /// a local-directory fallback when the daemon is unreachable.
  bool CacheRemote = false;
  /// Daemon socket path (PROTEUS_CACHE_SOCKET); empty derives
  /// "<CacheDir>/proteus-cached.sock".
  std::string CacheSocket;
  /// Verify the deserialized kernel IR before specializing (defensive mode
  /// for untrusted persistent caches / debugging; off by default, always
  /// on for capture replay).
  bool VerifyIR = false;
  /// Asynchronous compilation pipeline (PROTEUS_ASYNC=sync|block|fallback).
  AsyncMode Async = AsyncMode::Sync;
  /// Worker threads for the async pipeline (PROTEUS_ASYNC_WORKERS).
  unsigned AsyncWorkers = 4;
  O3Options O3;

  /// Tiered compilation (PROTEUS_TIER=off|on). When on, a cold launch is
  /// served by a fast Tier-0 compile (O3Preset::Fast + fast register
  /// allocation) and the full Tier-1 pipeline runs on the worker pool at
  /// low priority, hot-swapping the loaded kernel and promoting the cache
  /// entry in place once ready. Composes with every AsyncMode: in Sync the
  /// Tier-0 compile runs inline (but far cheaper than the full pipeline);
  /// in Fallback the generic binary covers the launch while even Tier-0
  /// compiles in the background.
  bool Tier = false;

  /// What to do with kernel-sanitizer findings (divergent barriers,
  /// shared-scratch races/OOB/uninitialized reads — see
  /// analysis/KernelAnalyzer.h) on the specialized, optimized kernel
  /// (PROTEUS_ANALYZE=off|warn|error).
  enum class AnalyzeMode {
    Off,   ///< skip the analysis stage entirely
    Warn,  ///< report findings to stderr, launch anyway (default)
    Error, ///< fail the launch with the findings as the error message
  };
  AnalyzeMode Analyze = AnalyzeMode::Warn;

  /// Run verifyFunction after every O3 pass and attribute any breakage to
  /// the offending pass by name; a failure fails the compile instead of
  /// emitting a miscompiled kernel (PROTEUS_VERIFY_EACH=1).
  bool VerifyEachPass = false;

  /// Launch capture (PROTEUS_CAPTURE=off|on): record specialized launches
  /// into self-contained replayable artifacts (pruned bitcode, arg values,
  /// memory snapshots, geometry, arch, pipeline fingerprint) via a bounded
  /// ring that sheds load instead of ever blocking the launch path.
  /// Generic-fallback launches (unspecialized tier-0 covers) are not
  /// captured. See src/capture and tools/proteus-replay.
  bool Capture = false;
  /// Directory receiving .pcap artifacts (PROTEUS_CAPTURE_DIR).
  std::string CaptureDir = "proteus-captures";
  /// Capture-ring capacity: captures that may be queued or in flight before
  /// new ones are shed (PROTEUS_CAPTURE_RING, in [1, 65536]).
  unsigned CaptureRing = 64;
  /// Capture each distinct launch shape (specialization hash + geometry +
  /// argument bits) only once per runtime; repeats are counted as
  /// capture.dedup and skip all snapshot work, so a steady-state launch
  /// loop pays nothing after its first iteration. Set to false
  /// (PROTEUS_CAPTURE_DEDUP=off) to record every launch — the stress mode
  /// the pressure tests use to exercise ring shedding.
  bool CaptureDedup = true;

  /// Kernel variant tuning (PROTEUS_TUNE=off|on): whether the variant
  /// manager (jit/AutoTuner.h) races competing specializations — block
  /// sizes, pipeline presets, unroll/LICM aggressiveness — on replayed
  /// capture artifacts and promotes the empirical winner. Off by default;
  /// the VariantManager honors this through Options::fromConfig.
  bool Tune = false;
  /// Upper bound on variants raced per specialization
  /// (PROTEUS_TUNE_BUDGET, in [1, 256]). The default/recorded
  /// configuration always races, so the budget caps the extra trials.
  unsigned TuneBudget = 8;

  /// Bottleneck-aware compilation policy (PROTEUS_POLICY=off|on). When on,
  /// every compiled kernel is classified on the static roofline
  /// (analysis/Roofline.h) with register-allocation feedback, the verdict
  /// is recorded on the runtime's CompilationPolicy and persisted alongside
  /// tuning decisions, the variant manager prunes tuning axes the class
  /// says cannot pay off (policy.pruned_trials), and kernels off an
  /// installed timeline critical path are kept at Tier-0
  /// (policy.tier_demotions). Off by default: the tuner races every axis
  /// blindly, exactly as before.
  bool Policy = false;

  /// Applies the PROTEUS_* environment variables on top of the defaults
  /// (PROTEUS_NO_RCF, PROTEUS_NO_LAUNCH_BOUNDS, PROTEUS_CACHE_DIR,
  /// PROTEUS_CACHE_REMOTE, PROTEUS_CACHE_SOCKET,
  /// PROTEUS_ASYNC, PROTEUS_ASYNC_WORKERS, PROTEUS_CAPTURE,
  /// PROTEUS_CAPTURE_DIR, PROTEUS_CAPTURE_RING, PROTEUS_CAPTURE_DEDUP,
  /// PROTEUS_TUNE, PROTEUS_TUNE_BUDGET, PROTEUS_POLICY and the CacheLimits
  /// variables).
  /// Unrecognized or out-of-range values are rejected: the default is kept
  /// and a diagnostic is appended to \p Warnings (or printed to stderr as
  /// "proteus: warning: ..." when \p Warnings is null) instead of being
  /// silently coerced.
  static JitConfig fromEnvironment(std::vector<std::string> *Warnings =
                                       nullptr);
};

const char *asyncModeName(JitConfig::AsyncMode M);
const char *analyzeModeName(JitConfig::AnalyzeMode M);
const char *tierModeName(bool TierEnabled);

/// Fingerprint of the pipeline composition that produces \p Tier objects.
/// Stored in every cache entry the runtime writes; an entry whose recorded
/// fingerprint does not match the current value for its tier is treated as
/// a miss (stale pipeline) instead of being served. \p SymbolicGlobals
/// distinguishes multi-device objects (global references left as load-time
/// relocations) from single-device objects (addresses baked into the IR):
/// an object of one linkage mode must never be served in the other.
uint64_t jitPipelineFingerprint(CodeTier Tier, bool SymbolicGlobals = false);

/// Every JitRuntime statistic, defined exactly once: (field name, registry
/// metric name). The lists expand into the JitRuntimeStats snapshot fields,
/// the runtime's metric-handle struct, handle registration and the stats()
/// snapshot — adding a stat means adding one line here.
///
/// Counters: Launches; Compilations; AsyncCompiles (compiles dispatched to
/// the worker pool); FallbackLaunches (launches served by the generic
/// binary); DedupedWaits (launches that joined an in-flight compile);
/// AnnotationRangeErrors (launches rejected because a jit-annotated
/// argument index was out of range); AnalysisDiagnostics (individual
/// kernel-sanitizer findings); AnalysisRejects (compiles failed by
/// AnalyzeMode::Error); VerifyFailures (O3 passes caught breaking the IR
/// in verify-each mode).
///
/// Tiering counters: Compilations counts full-pipeline (final-tier)
/// compiles only; Tier0Compiles counts fast baseline compiles, and
/// Tier1Promotions counts background promotions that replaced a served
/// Tier-0 binary — so with PROTEUS_TIER=on a cold specialization
/// eventually contributes one Tier0Compiles, one Compilations and one
/// Tier1Promotions. AsyncCompiles keeps counting only launch-path pool
/// dispatches, never internal promotion jobs. PrunedFunctions counts
/// module-index functions skipped by closure-pruned materialization;
/// HashMemoHits counts launches whose specialization hash was served by
/// the per-kernel memo instead of being recomputed.
///
/// Multi-device counters: StreamLaunches counts launches dispatched to an
/// explicit (non-default) stream; CrossDeviceLoads counts module loads of a
/// JIT object onto a device other than the one whose launch first loaded
/// that specialization (launch path, promotion and install hot-swaps
/// alike); PerArchCompileReuse counts, once per (specialization, device)
/// pair, such a device's first load of the specialization — it reused the
/// per-arch compiled object instead of recompiling (the
/// compile-once/load-everywhere proof).
///
/// Tuner counters: TunerTrials counts variant trials raced (replayed or
/// live); TunerCacheHits counts tuning sessions served by a persisted
/// decision (zero trials ran); TunerPromotions counts tuned winners
/// installed with pipeline overrides; TunerErrors counts tuning requests
/// that failed outright (unknown kernel, no correct variant, compile or
/// load failure during promotion).
///
/// Policy counters (PROTEUS_POLICY=on): PolicyClassified counts roofline
/// classifications performed (one per compile, plus on-demand artifact
/// classifications by the variant manager); PolicyPrunedTrials counts
/// tuning variants the classification pruned before racing;
/// PolicyTierDemotions counts Tier-1 promotions skipped because the kernel
/// was off the installed timeline critical path.
///
/// Retarget counters (the cross-arch migration path, src/sched):
/// RetargetCompiles counts retargets that had to run the backend for the
/// target arch; RetargetCacheReuse counts retargets served entirely from a
/// warm final-tier cache entry (local or fleet) — together they prove
/// migration recompiles at most once per arch. BitcodeParses counts
/// KernelModuleIndex builds — the front-end parse, at most one per kernel
/// however many threads race to build it — so a retarget that reuses the
/// parse-once index keeps this at one per kernel (the zero-re-parse property
/// the migration differential test asserts).
#define PROTEUS_JIT_COUNTERS(X)                                                \
  X(Launches, "jit.launches")                                                  \
  X(StreamLaunches, "jit.stream_launches")                                     \
  X(Compilations, "jit.compilations")                                          \
  X(Tier0Compiles, "jit.tier0_compiles")                                       \
  X(Tier1Promotions, "jit.tier1_promotions")                                   \
  X(CrossDeviceLoads, "jit.cross_device_loads")                                \
  X(PerArchCompileReuse, "jit.per_arch_compile_reuse")                         \
  X(PrunedFunctions, "jit.pruned_functions")                                   \
  X(HashMemoHits, "jit.hash_memo_hits")                                        \
  X(AsyncCompiles, "jit.async_compiles")                                       \
  X(FallbackLaunches, "jit.fallback_launches")                                 \
  X(DedupedWaits, "jit.deduped_waits")                                         \
  X(FleetDedupWaits, "jit.fleet_dedup_waits")                                  \
  X(FleetServedCompiles, "jit.fleet_served_compiles")                          \
  X(AnnotationRangeErrors, "jit.annotation_range_errors")                      \
  X(AnalysisDiagnostics, "jit.analysis_diagnostics")                           \
  X(AnalysisRejects, "jit.analysis_rejects")                                   \
  X(VerifyFailures, "jit.verify_failures")                                     \
  X(TunerTrials, "jit.tuner_trials")                                           \
  X(TunerCacheHits, "jit.tuner_cache_hits")                                    \
  X(TunerPromotions, "jit.tuner_promotions")                                   \
  X(TunerErrors, "jit.tuner_errors")                                           \
  X(PolicyClassified, "policy.classified")                                     \
  X(PolicyPrunedTrials, "policy.pruned_trials")                                \
  X(PolicyTierDemotions, "policy.tier_demotions")                              \
  X(RetargetCompiles, "sched.retarget_compiles")                               \
  X(RetargetCacheReuse, "sched.retarget_reuse")                                \
  X(BitcodeParses, "jit.bitcode_parses")

/// Timers: BitcodeFetchSeconds includes the simulated device readback
/// (NVIDIA); QueueWaitSeconds is enqueue -> worker pickup latency;
/// LaunchBlockedSeconds is compile time visible on the launch path (inline
/// compiles in Sync mode plus time launches spent blocked on a compile
/// future in Block / dedup waits). Stage timers accumulate on every exit
/// path, including compile errors (metrics::ScopedTimer).
/// Tier0VisibleSeconds is the slice of LaunchBlockedSeconds incurred while
/// tiering is on — i.e. the launch-visible cost of the Tier-0 pipeline,
/// the number the tiered cold-start benchmark compares against a
/// full-pipeline baseline.
#define PROTEUS_JIT_TIMERS(X)                                                  \
  X(BitcodeFetchSeconds, "jit.bitcode_fetch_seconds")                          \
  X(Tier0VisibleSeconds, "jit.tier0_visible_seconds")                          \
  X(BitcodeParseSeconds, "jit.bitcode_parse_seconds")                          \
  X(LinkGlobalsSeconds, "jit.link_globals_seconds")                            \
  X(SpecializeSeconds, "jit.specialize_seconds")                               \
  X(OptimizeSeconds, "jit.optimize_seconds")                                   \
  X(AnalyzeSeconds, "jit.analyze_seconds")                                     \
  X(VerifyEachSeconds, "jit.verify_each_seconds")                              \
  X(BackendSeconds, "jit.backend_seconds")                                     \
  X(CacheLookupSeconds, "jit.cache_lookup_seconds")                            \
  X(QueueWaitSeconds, "jit.queue_wait_seconds")                                \
  X(LaunchBlockedSeconds, "jit.launch_blocked_seconds")

/// Cumulative runtime accounting: a point-in-time snapshot of the metrics
/// registry, safe to read while launches and background compiles proceed.
struct JitRuntimeStats {
#define PROTEUS_JIT_STAT_FIELD(Field, Name) uint64_t Field = 0;
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_FIELD)
#undef PROTEUS_JIT_STAT_FIELD
#define PROTEUS_JIT_STAT_FIELD(Field, Name) double Field = 0;
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_FIELD)
#undef PROTEUS_JIT_STAT_FIELD

  /// Per-pass attribution of OptimizeSeconds, keyed by pass name (from the
  /// registry's "o3.pass.<name>" timers fed by the PassManager timing hook).
  std::map<std::string, double> O3PassSeconds;

  double totalCompileSeconds() const {
    return BitcodeFetchSeconds + BitcodeParseSeconds + LinkGlobalsSeconds +
           SpecializeSeconds + OptimizeSeconds + AnalyzeSeconds +
           VerifyEachSeconds + BackendSeconds;
  }

  /// Compile time hidden from the launch path by the async pipeline
  /// (Figure 6's launch-visible vs hidden split).
  double hiddenCompileSeconds() const {
    double Hidden = totalCompileSeconds() - LaunchBlockedSeconds;
    return Hidden > 0 ? Hidden : 0;
  }
};

/// Where a JIT kernel's bitcode lives.
struct JitKernelInfo {
  std::string Symbol;
  std::vector<uint32_t> AnnotatedArgs; // 1-based indices to fold
  /// amdgcn-sim: bitcode readable directly from the host-side image.
  std::vector<uint8_t> HostBitcode;
  /// nvptx-sim: device address/size of __jit_bc_<symbol> to read back.
  gpu::DevicePtr DeviceBitcodeAddr = 0;
  uint64_t DeviceBitcodeSize = 0;
  /// Device holding __jit_bc_<symbol> (set by program load); null means
  /// the runtime's primary device.
  gpu::Device *BitcodeDevice = nullptr;
  /// The kernel's generic (unspecialized) AOT binary, used as the tier-0
  /// launch target in AsyncMode::Fallback while a specialization compiles.
  std::vector<uint8_t> GenericObject;
  /// Architecture GenericObject was compiled for (read from the object
  /// header at registration). In a mixed-arch pool fallback only serves
  /// the generic on matching devices; launches on other arches block on
  /// the compile future instead of loading a foreign-arch object.
  GpuArch GenericArch = GpuArch::AmdGcnSim;
};

/// The runtime library instance bound to one *primary* device, optionally
/// serving a pool of further devices attached with attachDevice().
class JitRuntime {
public:
  JitRuntime(gpu::Device &Dev, uint64_t ModuleId, JitConfig Config);
  ~JitRuntime();

  JitRuntime(const JitRuntime &) = delete;
  JitRuntime &operator=(const JitRuntime &) = delete;

  /// Attaches another device to this runtime (idempotent). Attached devices
  /// share the code cache and module indexes: a specialization is compiled
  /// once per GpuArch and loaded per device. Returns the device's index for
  /// launchKernelOn. Must complete before concurrent launches begin —
  /// attachment is program-setup work, like kernel registration.
  unsigned attachDevice(gpu::Device &Dev);

  unsigned numDevices() const {
    return static_cast<unsigned>(Devices.size());
  }
  gpu::Device &device(unsigned Index) { return *Devices[Index]->Dev; }

  /// Registers a JIT-annotated kernel (done by program load). Re-registering
  /// a symbol keeps the first registration (the kernels are identical; the
  /// first device's bitcode location stays authoritative).
  void registerKernel(JitKernelInfo Info);

  /// __jit_register_var: makes a device global's address resolvable when
  /// linking JIT modules.
  void registerVar(const std::string &Symbol, gpu::DevicePtr Address);

  /// __jit_launch_kernel: the entry point replacing direct kernel launches.
  /// Safe to call concurrently from multiple threads. Launches on the
  /// primary device's default stream (legacy barrier semantics).
  gpu::GpuError launchKernel(const std::string &Symbol, gpu::Dim3 Grid,
                             gpu::Dim3 Block,
                             const std::vector<gpu::KernelArg> &Args,
                             std::string *Error = nullptr);

  /// Launches on device \p DeviceIndex (attachDevice order; 0 = primary),
  /// optionally on an explicit stream of that device. A null \p S targets
  /// the device's default stream with full-barrier semantics; a non-null
  /// stream enqueues FIFO on its private timeline (StreamLaunches counts
  /// these). Compilation is shared: same arch -> same specialization object,
  /// loaded per device.
  gpu::GpuError launchKernelOn(unsigned DeviceIndex,
                               const std::string &Symbol, gpu::Dim3 Grid,
                               gpu::Dim3 Block,
                               const std::vector<gpu::KernelArg> &Args,
                               gpu::Stream *S = nullptr,
                               std::string *Error = nullptr);

  /// What one install did: how many distinct architectures it compiled
  /// and how many it served from a warm final-tier cache entry.
  struct InstallReport {
    unsigned CompiledArches = 0;
    unsigned ReusedArches = 0;
  };

  /// Compiles (or serves from the cache) the *final-tier* object for the
  /// specialization that (\p Symbol, \p Block, \p Args) resolve to and
  /// hot-swaps it onto the target devices — the one install entry behind
  /// tuner promotion (VariantManager) and cross-arch migration
  /// (sched::Migrator). \p DeviceIndex >= 0 targets that one device; -1
  /// targets every attached device, compiling once per distinct GpuArch.
  ///
  /// With \p ReuseCached, a servable final-tier cache entry (local or
  /// fleet) short-circuits the compile, so a warm install compiles
  /// nothing; otherwise the specialization is recompiled from the kernel's
  /// parse-once module index. A non-null \p O3Override replaces JitConfig::O3
  /// for the compile (a tuned winner's pipeline knobs). The loaded kernel
  /// replaces any previous mapping for the specialization hash on each
  /// target device (the Tier-1 hot-swap), so the next launch of this shape
  /// there runs the installed binary with zero compiles. Callers do their
  /// own accounting from \p Report (noteRetarget, noteTunerPromotion).
  gpu::GpuError installSpecialization(const std::string &Symbol,
                                      gpu::Dim3 Block,
                                      const std::vector<gpu::KernelArg> &Args,
                                      int DeviceIndex, bool ReuseCached,
                                      const O3Options *O3Override = nullptr,
                                      InstallReport *Report = nullptr,
                                      std::string *Error = nullptr);

  /// Runs \p Fn on device \p DeviceIndex with that device's runtime lock
  /// held — the primitive external engines (the migration protocol in
  /// src/sched) use to operate on a device's memory, streams and events
  /// without racing concurrent launches, which the runtime serializes under
  /// the same lock. \p Fn must not call back into this runtime (the lock is
  /// not recursive) and must not touch any other device (the lock order
  /// forbids holding two device locks at once).
  void withDeviceLocked(unsigned DeviceIndex,
                        const std::function<void(gpu::Device &)> &Fn);

  /// Tuning-decision store, wrapped so the TunerCacheHits counter is
  /// exact: a hit here is precisely "a tuning session that raced nothing".
  std::optional<TuningDecision> lookupTuningDecision(uint64_t Key);
  void storeTuningDecision(uint64_t Key, const TuningDecision &D);

  /// Tuner accounting hooks (the variant manager is a separate layer but
  /// its counters live on this runtime's registry with the JIT stats).
  void noteTunerTrials(uint64_t N) { Stat.TunerTrials->add(N); }
  void noteTunerError() { Stat.TunerErrors->add(); }
  void noteTunerPromotion();

  /// Migration accounting hook: RetargetCompiles / RetargetCacheReuse
  /// from one retargeting install.
  void noteRetarget(const InstallReport &R);

  /// The bottleneck-aware policy store, or null when JitConfig::Policy is
  /// off. The variant manager consults it for pruning and records verdicts
  /// it computes on demand from artifact bitcode.
  CompilationPolicy *policy() { return PolicyState.get(); }

  /// Policy accounting hooks (mirroring the tuner hooks: the variant
  /// manager's policy counters live on this runtime's registry).
  void notePolicyClassified() { Stat.PolicyClassified->add(); }
  void notePolicyPrunedTrials(uint64_t N) { Stat.PolicyPrunedTrials->add(N); }

  /// Snapshot of the counters. Lock-free with respect to the hot paths:
  /// reads the relaxed-atomic instruments, no stats mutex exists.
  JitRuntimeStats stats() const;

  /// The registry backing stats(); exposes every named instrument,
  /// including the per-pass "o3.pass.<name>" timers.
  const metrics::Registry &metricsRegistry() const { return Metrics; }

  CodeCache &cache() { return Cache; }
  const JitConfig &config() const { return Config; }

  /// The live capture session when JitConfig::Capture is on, else null
  /// (test/flush access; the launch path reaches it internally).
  capture::CaptureSession *captureSession() { return CaptureSess.get(); }

  /// Waits until every background compilation dispatched so far has
  /// finished (no-op in Sync mode).
  void drain();

  /// Drops in-memory state (fresh-process simulation; persistent cache
  /// stays warm). Drains background compiles first.
  void resetInMemoryState();

private:
  struct CompileOutcome;
  struct InFlightCompile;

  /// Everything the runtime holds per attached device: the device itself,
  /// the lock serializing operations against it (module loads, launches,
  /// symbol resolution, bitcode readback), and the per-device loaded-kernel
  /// maps. Elements are heap-allocated so attachDevice never moves them.
  /// See the file comment for the lock order.
  struct DeviceState {
    gpu::Device *Dev = nullptr;
    unsigned Index = 0; ///< position in Devices (attach order)
    std::mutex Lock;
    /// Specialization hash -> kernel loaded on this device.
    std::map<uint64_t, gpu::LoadedKernel *> Loaded;
    /// Kernel symbol -> loaded generic (unspecialized) binary.
    std::map<std::string, gpu::LoadedKernel *> GenericLoaded;
  };

  /// True once more than one device is attached: compiled objects keep
  /// device-global references symbolic (resolved per device at load time)
  /// instead of baking the primary device's addresses into the IR.
  bool symbolicGlobals() const { return Devices.size() > 1; }

  /// Builds the specialization key for a launch targeting \p Arch. Returns
  /// false (with \p Error set and AnnotationRangeErrors counted) when an
  /// annotated 1-based argument index is out of range for \p Args instead
  /// of silently skipping it.
  bool buildKey(const JitKernelInfo &Info, gpu::Dim3 Block,
                const std::vector<gpu::KernelArg> &Args, GpuArch Arch,
                SpecializationKey &Out, std::string *Error) const;
  /// The registered kernel \p Symbol, or null (registration precedes
  /// launches and map nodes are stable, so the pointer stays valid).
  const JitKernelInfo *findKernel(const std::string &Symbol);
  gpu::GpuError fetchBitcode(const JitKernelInfo &Info,
                             std::vector<uint8_t> &Out, std::string *Error);
  /// The one "index or fetch" step: leaves \p Out empty when the kernel's
  /// module index is built (or being built), else fetches the bitcode on
  /// the calling thread — the NVIDIA readback is a device operation that
  /// must not run on a worker. The parse happens wherever the compile runs.
  gpu::GpuError bitcodeUnlessIndexed(const JitKernelInfo &Info,
                                     std::vector<uint8_t> &Out,
                                     std::string *Error);
  /// The one cache-entry rule: \p CC may be served for a request at tier
  /// \p Want when its pipeline fingerprint is current and the request is
  /// Tier-0 or the entry is final (a Tier-0 baseline never substitutes for
  /// a final compile).
  bool servable(const CachedCode &CC, CodeTier Want) const;
  /// Compiles one specialization at \p Tier. Tier0 selects the fast O3
  /// preset and fast register allocation and counts Tier0Compiles; Final
  /// runs the full pipeline and counts Compilations. Both tag their cache
  /// insert with the tier and its pipeline fingerprint. \p Bitcode may be
  /// empty when the kernel's module index was already built. A non-null
  /// \p O3Override replaces Config.O3 (the variant manager compiling a
  /// winner under its tuned pipeline knobs); the cache entry still carries
  /// the standard final-tier fingerprint — for a tuned specialization the
  /// decision record, not the fingerprint, is the pipeline's provenance.
  CompileOutcome compileSpecialization(const std::string &Symbol,
                                       std::vector<uint8_t> Bitcode,
                                       const SpecializationKey &Key,
                                       uint64_t Hash,
                                       CodeTier Tier = CodeTier::Final,
                                       const O3Options *O3Override = nullptr);
  /// Returns the kernel's parse-once module index, building (and caching)
  /// it from \p Bitcode on first use. Concurrent first users of one kernel
  /// share a single parse: the first registers an in-flight build the rest
  /// wait on, while different kernels still parse in parallel. Null with
  /// \p Error set on parse failure (never cached, so a retry re-parses) or
  /// when no index exists and \p Bitcode is empty.
  std::shared_ptr<const KernelModuleIndex>
  getOrBuildIndex(const std::string &Symbol,
                  const std::vector<uint8_t> &Bitcode, std::string *Error);
  /// Memoized computeSpecializationHash: per (kernel, annotated-arg
  /// values, launch-bounds threads) the hash is computed once and served
  /// from a map afterwards (HashMemoHits counts the served launches).
  uint64_t lookupSpecHash(const std::string &Symbol,
                          const SpecializationKey &Key);
  /// The job body of a launch miss, run inline (Sync) or on the pool:
  /// compiles at the miss tier (Tier-0 when tiering is on), retires
  /// \p Job, and on a Tier-0 success schedules the promotion for the
  /// launching device \p Launcher.
  void runMissJob(const JitKernelInfo &Info, std::vector<uint8_t> Bitcode,
                  const SpecializationKey &Key, uint64_t Hash,
                  unsigned Launcher,
                  const std::shared_ptr<InFlightCompile> &Job);
  /// Enqueues the Tier-1 promotion compile for \p Hash at low pool
  /// priority (deduplicated; at most one promotion per hash in flight).
  /// On success the promoted binary replaces the cache entry in place and
  /// is hot-swapped onto device \p Launcher — whose own Tier-0 load may
  /// not have happened yet — and every other device holding the hash.
  void scheduleTier1Promotion(const JitKernelInfo &Info,
                              const SpecializationKey &Key, uint64_t Hash,
                              unsigned Launcher);
  void completeJob(uint64_t Hash, const std::shared_ptr<InFlightCompile> &Job,
                   CompileOutcome Outcome);
  /// The generic AOT binary of \p Info on \p DS (DS.Lock held), loaded on
  /// first use. Null when the kernel carries no generic binary for this
  /// device's arch, or — with \p Error set — when the load fails.
  gpu::LoadedKernel *genericOn(DeviceState &DS, const JitKernelInfo &Info,
                               std::string *Error);
  /// Launches the generic AOT binary on \p DS; returns std::nullopt when
  /// the kernel carries no generic binary for this device.
  std::optional<gpu::GpuError>
  launchGeneric(DeviceState &DS, const JitKernelInfo &Info, gpu::Dim3 Grid,
                gpu::Dim3 Block, const std::vector<gpu::KernelArg> &Args,
                gpu::Stream *S, std::string *Error);
  gpu::GpuError loadAndLaunch(DeviceState &DS, uint64_t Hash,
                              const std::vector<uint8_t> &Object,
                              const JitKernelInfo &Info,
                              const std::shared_ptr<const KernelModuleIndex>
                                  &CaptureIndex,
                              gpu::Dim3 Grid, gpu::Dim3 Block,
                              const std::vector<gpu::KernelArg> &Args,
                              gpu::Stream *S, std::string *Error);
  /// Launches an already-loaded specialized kernel, recording a capture
  /// artifact around it when capture is on: reserve a ring slot (shed and
  /// launch plain when full), snapshot input regions, launch, snapshot
  /// outputs, submit. Called with DS.Lock held; \p CaptureIndex supplies
  /// the pruned-bitcode closure and may be null (capture skipped).
  gpu::GpuError launchLoaded(DeviceState &DS, gpu::LoadedKernel &K,
                             const JitKernelInfo &Info, uint64_t Hash,
                             const std::shared_ptr<const KernelModuleIndex>
                                 &CaptureIndex,
                             gpu::Dim3 Grid, gpu::Dim3 Block,
                             const std::vector<gpu::KernelArg> &Args,
                             gpu::Stream *S, std::string *Error);
  /// Records that \p Hash was first loaded via device \p Ordinal; returns
  /// the origin ordinal (the existing one on a repeat call).
  unsigned recordLoadOrigin(uint64_t Hash, unsigned Ordinal);
  /// The one hot-swap: loads \p Object onto the devices in \p Targets —
  /// and, with \p AndHolders, onto every other device already mapping
  /// \p Hash — in ascending ordinal, one device lock at a time, replacing
  /// any previous mapping for \p Hash. Targets.front() is recorded as the
  /// load origin unless one exists; loads elsewhere count CrossDeviceLoads
  /// (plus PerArchCompileReuse on a device's first mapping). Stops at the
  /// first failed load; \p Swapped counts the loads that succeeded.
  gpu::GpuError hotSwap(uint64_t Hash, const std::vector<uint8_t> &Object,
                        const std::vector<unsigned> &Targets, bool AndHolders,
                        unsigned *Swapped, std::string *Error);

  const uint64_t ModuleId;
  const JitConfig Config;
  CodeCache Cache;

  /// Named instruments behind stats(). Handles are resolved once in the
  /// constructor (the Stat struct below); updates are relaxed atomics, so
  /// launches and workers never serialize on accounting.
  metrics::Registry Metrics;
  struct StatHandles {
#define PROTEUS_JIT_STAT_HANDLE(Field, Name) metrics::Counter *Field = nullptr;
    PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_HANDLE)
#undef PROTEUS_JIT_STAT_HANDLE
#define PROTEUS_JIT_STAT_HANDLE(Field, Name)                                   \
  metrics::TimerMetric *Field = nullptr;
    PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_HANDLE)
#undef PROTEUS_JIT_STAT_HANDLE
  };
  StatHandles Stat;

  std::mutex RegistryMutex; // guards Kernels + GlobalAddresses
  std::map<std::string, JitKernelInfo> Kernels;
  std::map<std::string, gpu::DevicePtr> GlobalAddresses;

  /// The device pool, in attachDevice order; [0] is the primary device the
  /// runtime was constructed with. Grown only during setup (attachDevice
  /// must precede concurrent launches), read lock-free afterwards; each
  /// element carries its own device lock (see the lock-order file comment).
  std::vector<std::unique_ptr<DeviceState>> Devices;

  /// Which device first loaded each specialization, for the
  /// CrossDeviceLoads / PerArchCompileReuse accounting.
  std::mutex OriginMutex;
  std::unordered_map<uint64_t, unsigned> FirstLoadedOn;

  /// In-flight compilation table: one compile per specialization hash, any
  /// number of waiters (the dedup structure of the async pipeline).
  std::mutex InFlightMutex;
  std::unordered_map<uint64_t, std::shared_ptr<InFlightCompile>> InFlight;
  /// Hashes with a Tier-1 promotion scheduled or running (also guarded by
  /// InFlightMutex); keeps a launch storm over a Tier-0 entry from
  /// enqueueing redundant promotions.
  std::unordered_set<uint64_t> PromotionsInFlight;

  /// Parse-once module indexes, one per kernel symbol: the pruned
  /// parsed-module cache. Tier-0, Tier-1 and plain compiles all
  /// materialize their module from here instead of re-parsing bitcode.
  /// An entry is registered when its build starts, so racing first users
  /// of a kernel wait on the one parse; a failed build is removed.
  struct IndexBuild {
    std::shared_ptr<const KernelModuleIndex> Index;
    std::string Error;
  };
  std::mutex IndexMutex;
  std::map<std::string, std::shared_future<IndexBuild>> ModuleIndexes;

  /// Specialization-hash memo: kernel symbol -> (folded argument bits,
  /// launch-bounds threads) -> hash. Valid because ModuleId, Arch and each
  /// kernel's annotated-argument indices are fixed for the runtime's
  /// lifetime, so those hash inputs are implied by the symbol.
  std::mutex MemoMutex;
  std::unordered_map<std::string, std::map<std::vector<uint64_t>, uint64_t>>
      HashMemo;

  /// Bottleneck-aware policy store (JitConfig::Policy); null when the
  /// policy is off. Own mutex; consulted from the launch path
  /// (scheduleTier1Promotion) and the variant manager alike.
  std::unique_ptr<CompilationPolicy> PolicyState;

  /// Live capture session (JitConfig::Capture); null when capture is off.
  /// Declared before the pool: background compiles never touch it, but the
  /// session's writer thread must outlive nothing of the runtime it reads
  /// (the module indexes it serializes are shared_ptr-held per record).
  std::unique_ptr<capture::CaptureSession> CaptureSess;

  /// Worker pool for Block/Fallback modes and for Tier-1 promotions when
  /// tiering is on; null otherwise. Declared last so it is destroyed
  /// (drained and joined) before any state the compile tasks reference.
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace proteus

#endif // PROTEUS_JIT_JITRUNTIME_H
