//===- JitRuntime.cpp - the Proteus JIT runtime library ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/JitRuntime.h"

#include "analysis/KernelAnalyzer.h"
#include "bitcode/ModuleIndex.h"
#include "capture/Capture.h"
#include "codegen/Compiler.h"
#include "fleet/RemoteBackend.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/Hashing.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include "transforms/SpecializeArgs.h"

using namespace proteus;
using namespace proteus::gpu;

namespace {

/// Identifies the exact pipeline composition that produced a cached object.
/// Bump PipelineVersion whenever the Tier-0 or Tier-1 pipeline changes
/// shape, so persisted artifacts built by an older pipeline are recompiled
/// instead of served as current.
constexpr uint64_t PipelineVersion = 1;

} // namespace

uint64_t proteus::jitPipelineFingerprint(CodeTier Tier,
                                         bool SymbolicGlobals) {
  FNV1aHash H;
  H.update(PipelineVersion);
  H.update(static_cast<uint8_t>(Tier));
  // Linkage mode is part of the pipeline identity: an object with baked
  // global addresses is only valid on the device it was linked against.
  H.update(static_cast<uint8_t>(SymbolicGlobals));
  return H.digest();
}

namespace {

using JC = JitConfig;
using G = knobs::Grammar;
using knobs::field;
using knobs::OffOn;

constexpr knobs::Spelling AsyncModes[] = {
    {"sync", unsigned(JC::AsyncMode::Sync)},
    {"block", unsigned(JC::AsyncMode::Block)},
    {"fallback", unsigned(JC::AsyncMode::Fallback)}};
constexpr knobs::Spelling AnalyzeModes[] = {
    {"off", unsigned(JC::AnalyzeMode::Off)},
    {"warn", unsigned(JC::AnalyzeMode::Warn)},
    {"error", unsigned(JC::AnalyzeMode::Error)}};
constexpr knobs::Spelling ZeroOne[] = {{"0", 0}, {"1", 1}};

constexpr knobs::Knob JitKnobs[] = {
    {"PROTEUS_NO_RCF", "JitConfig", G::Flag, field<&JC::EnableRCF>(), "unset",
     "disable runtime constant folding of annotated arguments"},
    {"PROTEUS_CACHE_DIR", "JitConfig", G::Path, field<&JC::CacheDir>(),
     "proteus-jit-cache", "persistent code-cache directory (empty: none)", {},
     0, 0, "directory path", /*AllowEmpty=*/true},
    {"PROTEUS_CACHE_REMOTE", "JitConfig", G::Choice, field<&JC::CacheRemote>(),
     "off", "use the shared `proteus-cached` daemon as persistent level",
     OffOn},
    {"PROTEUS_CACHE_SOCKET", "JitConfig", G::Path, field<&JC::CacheSocket>(),
     "", "daemon socket (unset: `<cache-dir>/proteus-cached.sock`)", {}, 0, 0,
     "unix socket path"},
    {"PROTEUS_ASYNC", "JitConfig", G::Choice, field<&JC::Async>(), "sync",
     "compile on the launch thread, the worker pool, or behind AOT fallback",
     AsyncModes},
    {"PROTEUS_ASYNC_WORKERS", "JitConfig", G::Unsigned,
     field<&JC::AsyncWorkers>(), "4", "compile worker-pool size", {}, 1, 1024},
    {"PROTEUS_TIER", "JitConfig", G::Choice, field<&JC::Tier>(), "off",
     "serve cold launches from Tier-0, promote in the background", OffOn},
    {"PROTEUS_ANALYZE", "JitConfig", G::Choice, field<&JC::Analyze>(), "warn",
     "kernel sanitizer on the specialized IR; `error` fails the launch",
     AnalyzeModes},
    {"PROTEUS_VERIFY_EACH", "JitConfig", G::Choice,
     field<&JC::VerifyEachPass>(), "0", "re-verify IR after every O3 pass",
     ZeroOne},
    {"PROTEUS_CAPTURE", "JitConfig", G::Choice, field<&JC::Capture>(), "off",
     "record specialized launches as replayable `.pcap` artifacts", OffOn},
    {"PROTEUS_CAPTURE_DIR", "JitConfig", G::Path, field<&JC::CaptureDir>(),
     "proteus-captures", "where capture artifacts are written", {}, 0, 0,
     "directory path"},
    {"PROTEUS_CAPTURE_RING", "JitConfig", G::Unsigned,
     field<&JC::CaptureRing>(), "64",
     "capture-ring capacity; a full ring sheds, never blocks", {}, 1, 65536},
    {"PROTEUS_CAPTURE_DEDUP", "JitConfig", G::Choice,
     field<&JC::CaptureDedup>(), "on",
     "capture each distinct launch shape once (`off`: every launch)", OffOn},
    {"PROTEUS_TUNE", "JitConfig", G::Choice, field<&JC::Tune>(), "off",
     "auto-tune variants over replayed capture artifacts", OffOn},
    {"PROTEUS_TUNE_BUDGET", "JitConfig", G::Unsigned, field<&JC::TuneBudget>(),
     "8", "most variants raced per specialization", {}, 1, 256},
    {"PROTEUS_POLICY", "JitConfig", G::Choice, field<&JC::Policy>(), "off",
     "roofline verdicts prune tuning axes and gate Tier-1 promotion", OffOn},
};

} // namespace

std::span<const knobs::Knob> JitConfig::envKnobs() { return JitKnobs; }

JitConfig JitConfig::fromEnvironment(std::vector<std::string> *Warnings) {
  JitConfig C = knobs::read<JitConfig>(JitKnobs, Warnings);
  C.Limits = CacheLimits::fromEnvironment(Warnings);
  return C;
}

const char *proteus::asyncModeName(JitConfig::AsyncMode M) {
  return knobs::spelling(AsyncModes, unsigned(M));
}

const char *proteus::analyzeModeName(JitConfig::AnalyzeMode M) {
  return knobs::spelling(AnalyzeModes, unsigned(M));
}

const char *proteus::tierModeName(bool TierEnabled) {
  return knobs::spelling(knobs::OffOn, TierEnabled);
}

/// Result of one specialization compile, delivered to every waiter through
/// the in-flight table's shared future.
struct JitRuntime::CompileOutcome {
  GpuError Err = GpuError::Success;
  std::string Message;
  std::vector<uint8_t> Object;
};

/// One in-flight compilation: the owner fulfils the promise (inline in Sync
/// mode, on a worker otherwise); any number of launches hold the shared
/// future.
struct JitRuntime::InFlightCompile {
  std::promise<CompileOutcome> Promise;
  std::shared_future<CompileOutcome> Future{Promise.get_future().share()};
};

/// Builds the persistent-level backend for \p Config: the fleet service
/// client when PROTEUS_CACHE_REMOTE=on (socket from PROTEUS_CACHE_SOCKET,
/// defaulting to <CacheDir>/proteus-cached.sock, with the local directory
/// as its outage fallback), or null to let CodeCache build the default
/// sharded local backend.
static std::unique_ptr<fleet::CacheBackend>
makeCacheBackend(const JitConfig &Config) {
  if (!Config.CacheRemote || !Config.UsePersistentCache ||
      Config.CacheDir.empty())
    return nullptr;
  fleet::RemoteBackendOptions RO;
  RO.SocketPath = Config.CacheSocket.empty()
                      ? Config.CacheDir + "/proteus-cached.sock"
                      : Config.CacheSocket;
  RO.FallbackDir = Config.CacheDir;
  RO.Fallback = CodeCache::backendOptions(Config.Limits);
  return std::make_unique<fleet::RemoteCacheBackend>(std::move(RO));
}

JitRuntime::JitRuntime(Device &Dev, uint64_t ModuleId, JitConfig Config)
    : ModuleId(ModuleId), Config(Config),
      Cache(Config.UseMemoryCache, Config.UsePersistentCache,
            Config.CacheDir, Config.Limits, makeCacheBackend(Config)) {
  Devices.emplace_back(new DeviceState);
  Devices.back()->Dev = &Dev;
#define PROTEUS_JIT_STAT_REGISTER(Field, Name)                                 \
  Stat.Field = &Metrics.counter(Name);
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_REGISTER)
#undef PROTEUS_JIT_STAT_REGISTER
#define PROTEUS_JIT_STAT_REGISTER(Field, Name)                                 \
  Stat.Field = &Metrics.timer(Name);
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_REGISTER)
#undef PROTEUS_JIT_STAT_REGISTER
  // The pool serves Block/Fallback launch-path compiles and, when tiering
  // is on, the low-priority Tier-1 promotion compiles — so Sync mode with
  // tiering still owns a pool (its Tier-0 compiles stay inline).
  if (this->Config.Async != JitConfig::AsyncMode::Sync || this->Config.Tier)
    Pool = std::make_unique<ThreadPool>(
        this->Config.AsyncWorkers ? this->Config.AsyncWorkers : 1u);
  if (this->Config.Capture)
    CaptureSess = std::make_unique<capture::CaptureSession>(
        this->Config.CaptureDir, this->Config.CaptureRing, Metrics);
  if (this->Config.Policy)
    PolicyState = std::make_unique<CompilationPolicy>();
}

JitRuntime::~JitRuntime() {
  if (Pool)
    Pool->shutdown(); // drain compiles that still reference this runtime
}

unsigned JitRuntime::attachDevice(Device &D) {
  for (unsigned I = 0; I != Devices.size(); ++I)
    if (Devices[I]->Dev == &D)
      return I;
  Devices.emplace_back(new DeviceState);
  Devices.back()->Dev = &D;
  Devices.back()->Index = static_cast<unsigned>(Devices.size() - 1);
  return Devices.back()->Index;
}

void JitRuntime::registerKernel(JitKernelInfo Info) {
  {
    // First registration wins: per-device program loads re-register the
    // same kernels, and the first device's bitcode location must stay
    // authoritative (fetchBitcode reads from that device).
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    if (Kernels.count(Info.Symbol))
      return;
  }
  if (!Info.GenericObject.empty())
    Info.GenericArch = readObject(Info.GenericObject).Arch;
  // In Fallback mode the generic binary is loaded eagerly on the primary
  // device, at registration time, so the tier-0 path of a cold launch is a
  // plain kernel launch with no module load on it. Other devices load it
  // lazily in launchGeneric (matching arch only — a mixed pool's foreign
  // devices block on the compile instead).
  if (Config.Async == JitConfig::AsyncMode::Fallback) {
    DeviceState &DS = *Devices.front();
    std::lock_guard<std::mutex> Lock(DS.Lock);
    std::string Ignored; // a failed load is retried lazily in launchGeneric
    genericOn(DS, Info, &Ignored);
  }
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  Kernels.emplace(Info.Symbol, std::move(Info));
}

void JitRuntime::registerVar(const std::string &Symbol, DevicePtr Address) {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  GlobalAddresses[Symbol] = Address;
}

JitRuntimeStats JitRuntime::stats() const {
  JitRuntimeStats S;
#define PROTEUS_JIT_STAT_SNAPSHOT(Field, Name) S.Field = Stat.Field->value();
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_SNAPSHOT)
#undef PROTEUS_JIT_STAT_SNAPSHOT
#define PROTEUS_JIT_STAT_SNAPSHOT(Field, Name) S.Field = Stat.Field->seconds();
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_SNAPSHOT)
#undef PROTEUS_JIT_STAT_SNAPSHOT
  for (const auto &[Name, Seconds] : Metrics.timerValues())
    if (Name.rfind("o3.pass.", 0) == 0)
      S.O3PassSeconds[Name.substr(8)] = Seconds;
  return S;
}

void JitRuntime::drain() {
  if (Pool)
    Pool->waitIdle();
  if (CaptureSess)
    CaptureSess->flush(); // every submitted capture persisted (or failed)
}

void JitRuntime::resetInMemoryState() {
  drain();
  // Ascending-ordinal visit, one device lock at a time (lock order).
  for (auto &DS : Devices) {
    std::lock_guard<std::mutex> Lock(DS->Lock);
    DS->Loaded.clear();
    DS->GenericLoaded.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(OriginMutex);
    FirstLoadedOn.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    ModuleIndexes.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    HashMemo.clear();
  }
  Cache.clearMemory();
}

bool JitRuntime::buildKey(const JitKernelInfo &Info, Dim3 Block,
                          const std::vector<KernelArg> &Args, GpuArch Arch,
                          SpecializationKey &Out, std::string *Error) const {
  SpecializationKey Key;
  Key.ModuleId = ModuleId;
  Key.KernelSymbol = Info.Symbol;
  Key.Arch = Arch;
  if (Config.EnableRCF) {
    for (uint32_t OneBased : Info.AnnotatedArgs) {
      if (OneBased == 0 || OneBased > Args.size()) {
        // An out-of-range annotation means the launch and the annotation
        // disagree about the kernel's signature; folding a garbage value
        // (or silently not specializing) would be worse than failing.
        Stat.AnnotationRangeErrors->add();
        trace::instant("jit.annotation_range_error");
        if (Error)
          *Error = "jit-annotated argument index " +
                   std::to_string(OneBased) + " of kernel @" + Info.Symbol +
                   " is out of range: launch provided " +
                   std::to_string(Args.size()) +
                   " argument(s) (indices are 1-based)";
        return false;
      }
      uint32_t Idx = OneBased - 1;
      Key.FoldedArgs.push_back(RuntimeArgValue{Idx, Args[Idx].Bits});
    }
  }
  if (Config.EnableLaunchBounds)
    Key.LaunchBoundsThreads = static_cast<uint32_t>(Block.count());
  Out = std::move(Key);
  return true;
}

const JitKernelInfo *JitRuntime::findKernel(const std::string &Symbol) {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto KIt = Kernels.find(Symbol);
  return KIt != Kernels.end() ? &KIt->second : nullptr;
}

bool JitRuntime::servable(const CachedCode &CC, CodeTier Want) const {
  return (Want == CodeTier::Tier0 || CC.Tier == CodeTier::Final) &&
         CC.PipelineFingerprint ==
             jitPipelineFingerprint(CC.Tier, symbolicGlobals());
}

GpuError JitRuntime::fetchBitcode(const JitKernelInfo &Info,
                                  std::vector<uint8_t> &Out,
                                  std::string *Error) {
  trace::Span Sp("jit.fetch_bitcode", "jit");
  metrics::ScopedTimer FetchT(*Stat.BitcodeFetchSeconds);
  if (!Info.HostBitcode.empty()) {
    Out = Info.HostBitcode;
  } else if (Info.DeviceBitcodeAddr) {
    // Read back from the device whose program load uploaded the bitcode.
    DeviceState *BDS = Devices.front().get();
    for (auto &DS : Devices)
      if (DS->Dev == Info.BitcodeDevice)
        BDS = DS.get();
    Out.resize(Info.DeviceBitcodeSize);
    GpuError E;
    {
      std::lock_guard<std::mutex> Lock(BDS->Lock);
      E = gpuMemcpyDtoH(*BDS->Dev, Out.data(), Info.DeviceBitcodeAddr,
                        Info.DeviceBitcodeSize);
    }
    if (E != GpuError::Success) {
      if (Error)
        *Error = "failed to read __jit_bc_" + Info.Symbol +
                 " from device memory";
      return E;
    }
  } else {
    if (Error)
      *Error = "no bitcode registered for @" + Info.Symbol;
    return GpuError::InvalidValue;
  }
  return GpuError::Success;
}

GpuError JitRuntime::bitcodeUnlessIndexed(const JitKernelInfo &Info,
                                          std::vector<uint8_t> &Out,
                                          std::string *Error) {
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    if (ModuleIndexes.count(Info.Symbol))
      return GpuError::Success;
  }
  return fetchBitcode(Info, Out, Error);
}

std::shared_ptr<const KernelModuleIndex>
JitRuntime::getOrBuildIndex(const std::string &Symbol,
                            const std::vector<uint8_t> &Bitcode,
                            std::string *Error) {
  // Register the build before parsing, so racing builders of one kernel
  // wait on a single parse; the parse itself runs outside the lock, so
  // first compiles of different kernels do not serialize on it.
  std::shared_future<IndexBuild> Pending;
  std::promise<IndexBuild> Promise;
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    auto It = ModuleIndexes.find(Symbol);
    if (It != ModuleIndexes.end())
      Pending = It->second;
    else if (!Bitcode.empty())
      ModuleIndexes.emplace(Symbol, Promise.get_future().share());
  }
  if (Pending.valid()) {
    const IndexBuild &B = Pending.get();
    if (!B.Index && Error)
      *Error = B.Error;
    return B.Index;
  }
  if (Bitcode.empty()) {
    if (Error)
      *Error = "no parsed module index for @" + Symbol +
               " and no bitcode to build one";
    return nullptr;
  }
  IndexBuild B;
  Stat.BitcodeParses->add();
  {
    trace::Span Sp("compile.parse", "jit");
    metrics::ScopedTimer T(*Stat.BitcodeParseSeconds);
    std::string ParseError;
    B.Index = KernelModuleIndex::create(Bitcode, ParseError);
    if (!B.Index)
      B.Error = "corrupt kernel bitcode for @" + Symbol + ": " + ParseError;
  }
  // Defensive mode: verify everything the bitcode contained, before any
  // pruned materialization can drop an unreachable-but-broken function.
  if (B.Index && Config.VerifyIR) {
    pir::VerifyResult VR = pir::verifyModule(B.Index->prototype());
    if (!VR.ok()) {
      B.Index.reset();
      B.Error = "kernel bitcode for @" + Symbol + " failed verification:\n" +
                VR.message();
    }
  }
  // Failures are not cached: the entry goes before the waiters wake, so
  // each later retry re-parses and re-reports.
  if (!B.Index) {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    ModuleIndexes.erase(Symbol);
    if (Error)
      *Error = B.Error;
  }
  std::shared_ptr<const KernelModuleIndex> Index = B.Index;
  Promise.set_value(std::move(B));
  return Index;
}

JitRuntime::CompileOutcome
JitRuntime::compileSpecialization(const std::string &Symbol,
                                  std::vector<uint8_t> Bitcode,
                                  const SpecializationKey &Key,
                                  uint64_t Hash, CodeTier Tier,
                                  const O3Options *O3Override,
                                  bool ServeCached) {
  CompileOutcome Out;
  const bool Tier0 = Tier == CodeTier::Tier0;

  // Fleet-wide compile dedup: claim the specialization hash across every
  // process sharing the cache (lock file locally, Acquire RPC against the
  // shared cache service). Exactly one claimant compiles; the rest wait for
  // its publish and load that object instead of burning a redundant
  // compile. A caller that asked for a fresh compile (!ServeCached) is
  // exempt — it needs its own object, not whatever someone else published.
  struct ClaimGuard {
    CodeCache *C = nullptr;
    uint64_t Hash = 0;
    ~ClaimGuard() {
      if (C)
        C->endCompile(Hash);
    }
  } Claim;
  if (ServeCached) {
    std::optional<CachedCode> CC;
    if (Cache.beginCompile(Hash) == fleet::CompileClaim::Owner) {
      Claim.C = &Cache;
      Claim.Hash = Hash;
      // Double-checked claim: another process may have published between
      // this caller's cache miss and the claim acquisition. Serve that
      // entry (under the same tier/pipeline rules as a waited-for publish)
      // instead of recompiling it.
      CC = Cache.lookupEntry(Hash);
    } else {
      Stat.FleetDedupWaits->add();
      trace::instant("jit.fleet_wait", "jit");
      // Another process may publish while we wait; an unusable publish
      // (stale pipeline / insufficient tier) falls through to a local,
      // unclaimed compile — the atomic publish tolerates the duplicate.
      CC = Cache.waitRemoteCompile(Hash);
      if (!CC) {
        // waitRemoteCompile re-acquired the claim (the previous owner
        // died) or timed out; either way this caller compiles and must
        // release.
        Claim.C = &Cache;
        Claim.Hash = Hash;
      }
    }
    if (CC && servable(*CC, Tier)) {
      Stat.FleetServedCompiles->add();
      trace::instant("jit.fleet_served", "jit");
      Out.Object = std::move(CC->Object);
      return Out;
    }
  }

  if (Tier0)
    Stat.Tier0Compiles->add();
  else
    Stat.Compilations->add();
  trace::Span CompileSp(Tier0 ? "jit.compile.tier0" : "jit.compile", "jit");

  // Stage timers are RAII-scoped (metrics::ScopedTimer) so every exit path
  // — including the error returns below — records the time spent. The old
  // accumulate-locals-then-publish-at-the-end scheme dropped the parse and
  // link timings whenever a compile failed.

  // (1) Materialize the kernel module from the parse-once index: the
  // bitcode is parsed at most once per kernel and runtime lifetime; each
  // compile clones only the launched kernel's reachable call closure into
  // a fresh context it owns exclusively.
  std::string IndexError;
  std::shared_ptr<const KernelModuleIndex> Index =
      getOrBuildIndex(Symbol, Bitcode, &IndexError);
  if (!Index) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = std::move(IndexError);
    return Out;
  }
  pir::Context Ctx;
  std::unique_ptr<pir::Module> MOwner = [&] {
    trace::Span Sp("compile.materialize", "jit");
    metrics::ScopedTimer T(*Stat.BitcodeParseSeconds);
    uint64_t Pruned = 0;
    std::unique_ptr<pir::Module> M = Index->materialize(Ctx, Symbol, &Pruned);
    if (M)
      Stat.PrunedFunctions->add(Pruned);
    return M;
  }();
  if (!MOwner) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = "bitcode for @" + Symbol + " does not contain the kernel";
    return Out;
  }
  pir::Module &M = *MOwner;
  pir::Function *F = M.getFunction(Symbol);
  if (!F || !F->isKernel() || F->isDeclaration()) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = "bitcode for @" + Symbol + " does not contain the kernel";
    return Out;
  }
  // (2) Link device globals. Single-device mode replaces references with
  // their resolved device addresses (so JIT code shares state with AOT
  // code, and O3 can fold the constant addresses): addresses registered
  // through __jit_register_var are snapshotted; unknown symbols fall back
  // to the vendor runtime's table (a device operation, taken under the
  // primary device's lock). Multi-device mode keeps the references
  // symbolic — one object serves every same-arch device, and the backend
  // emits load-time relocations the loader resolves against each device's
  // own symbol table.
  if (!symbolicGlobals()) {
    std::map<std::string, DevicePtr> Globals;
    {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      Globals = GlobalAddresses;
    }
    trace::Span Sp("compile.link_globals", "jit");
    metrics::ScopedTimer T(*Stat.LinkGlobalsSeconds);
    for (const auto &G : M.globals()) {
      if (!G->hasUses())
        continue;
      auto AIt = Globals.find(G->getName());
      DevicePtr Addr = AIt != Globals.end() ? AIt->second : 0;
      if (!Addr) {
        DeviceState &DS = *Devices.front();
        std::lock_guard<std::mutex> Lock(DS.Lock);
        gpuGetSymbolAddress(*DS.Dev, &Addr, G->getName());
      }
      if (!Addr) {
        Out.Err = GpuError::NotFound;
        Out.Message = "cannot link device global @" + G->getName();
        return Out;
      }
      G->replaceAllUsesWith(Ctx.getConstantPtr(Addr));
    }
  }

  // (3) Specialize.
  {
    trace::Span Sp("compile.specialize", "jit");
    metrics::ScopedTimer T(*Stat.SpecializeSeconds);
    if (Config.EnableRCF && !Key.FoldedArgs.empty())
      specializeArguments(*F, Key.FoldedArgs);
    if (Config.EnableLaunchBounds)
      specializeLaunchBounds(*F, Key.LaunchBoundsThreads);
  }

  // (4) Aggressive O3, with per-pass attribution: the pass manager's timing
  // hook feeds one "o3.pass.<name>" timer per pass (surfaced through
  // JitRuntimeStats::O3PassSeconds), and each pass invocation emits an
  // "o3.<name>" trace span. In verify-each mode (PROTEUS_VERIFY_EACH=1) a
  // post-pass hook re-verifies the IR after every pass invocation and
  // attributes the first breakage to the offending pass by name — failing
  // this compile rather than emitting a miscompiled kernel (and rather than
  // aborting the process like the PassManager's own test-mode VerifyEach).
  std::string VerifyEachFailure;
  {
    trace::Span Sp("compile.o3", "jit");
    metrics::ScopedTimer T(*Stat.OptimizeSeconds);
    // Tier-0 swaps in the fast preset (inline + mem2reg + one InstCombine
    // + DCE, single iteration) while keeping every other O3 knob. The
    // variant manager overrides the whole knob set when compiling a trial
    // or a tuned winner.
    O3Options O3Opts = O3Override ? *O3Override : Config.O3;
    if (Tier0)
      O3Opts.Preset = O3Preset::Fast;
    std::unique_ptr<PassManager> PM = buildO3Pipeline(O3Opts);
    PM->setTimingHook([this](const std::string &PassName, double Seconds) {
      Metrics.timer("o3.pass." + PassName).addSeconds(Seconds);
    });
    if (Config.VerifyEachPass)
      PM->setPostPassHook([&](const std::string &PassName, pir::Function &Fn) {
        metrics::ScopedTimer VT(*Stat.VerifyEachSeconds);
        if (!VerifyEachFailure.empty())
          return; // the first broken pass is the actionable one
        pir::VerifyResult VR = pir::verifyFunction(Fn);
        if (!VR.ok()) {
          Stat.VerifyFailures->add();
          trace::instant("jit.verify_each_failure");
          VerifyEachFailure = "pass '" + PassName + "' broke function @" +
                              Fn.getName() + ":\n" + VR.message();
        }
      });
    PM->run(M);
  }
  if (!VerifyEachFailure.empty()) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = "verify-each: " + VerifyEachFailure;
    return Out;
  }

  // (4b) Kernel sanitizer: the JIT sees the exact specialized, optimized
  // kernel that is about to run on-device, so this is where GPU-semantics
  // bugs (divergent barriers, shared-scratch races/OOB/uninitialized
  // reads) are reported — as warnings, or as a launch failure in
  // AnalyzeMode::Error.
  if (Config.Analyze != JitConfig::AnalyzeMode::Off) {
    trace::Span Sp("compile.analyze", "jit");
    metrics::ScopedTimer T(*Stat.AnalyzeSeconds);
    pir::analysis::AnalysisReport AR = pir::analysis::analyzeKernel(*F);
    if (!AR.clean()) {
      Stat.AnalysisDiagnostics->add(AR.Diags.size());
      trace::instant("jit.analysis_diagnostic");
      if (Config.Analyze == JitConfig::AnalyzeMode::Error) {
        Stat.AnalysisRejects->add();
        Out.Err = GpuError::InvalidValue;
        Out.Message = "kernel @" + Symbol + " failed launch-time analysis (" +
                      std::to_string(AR.Diags.size()) + " finding(s)):\n" +
                      AR.message();
        return Out;
      }
      for (const pir::analysis::LintDiagnostic &D : AR.Diags)
        std::fprintf(stderr, "proteus: warning: %s\n", D.render().c_str());
    }
  }

  // (5) Backend (includes the PTX assembler detour on nvptx-sim). Tier-0
  // uses the single-pass register allocator.
  BackendStats BS;
  {
    trace::Span Sp("compile.backend", "jit");
    metrics::ScopedTimer T(*Stat.BackendSeconds);
    BackendOptions BO;
    BO.RegAlloc.Fast = Tier0;
    // The backend target comes from the specialization key, not from any
    // particular device: the object is compiled once per arch and loaded
    // onto every device of that arch.
    Out.Object = compileKernelToObject(*F, getTarget(Key.Arch), &BS, BO);
  }

  // (5b) Bottleneck classification: the JIT sees the final specialized,
  // optimized IR and the allocator's spill feedback together, so this is
  // the one point where a trustworthy roofline verdict exists. Recorded on
  // the policy store for the variant manager's pruning and persisted with
  // any later tuning decision.
  if (PolicyState) {
    pir::analysis::RegPressureFeedback Reg;
    Reg.RegsUsed = BS.RA.RegsUsed;
    Reg.SpillSlots = BS.RA.SpillSlots;
    Reg.SpillLoads = BS.RA.SpillLoads;
    Reg.SpillStores = BS.RA.SpillStores;
    Reg.RegisterBudget = BS.RegisterBudget;
    pir::analysis::RooflineReport RR =
        pir::analysis::classifyKernel(*F, getTarget(Key.Arch), &Reg);
    PolicyVerdict V;
    V.Class = RR.Class;
    V.ArithmeticIntensity = RR.ArithmeticIntensity;
    V.RidgeFlopsPerByte = RR.Model.ridgeFlopsPerByte();
    PolicyState->recordVerdict(Symbol, Key.Arch, V);
    Stat.PolicyClassified->add();
  }

  // (6) Publish: insert into both cache levels before the in-flight entry
  // is retired, so no launch can miss both. The tier tag and pipeline
  // fingerprint travel with the entry (including its persisted form), so
  // a Tier-0 baseline is never mistaken for a final artifact later — and
  // a baked-address object is never served in symbolic-globals mode.
  Cache.insert(Hash, Out.Object, Tier,
               jitPipelineFingerprint(Tier, symbolicGlobals()));
  return Out;
}

uint64_t JitRuntime::lookupSpecHash(const std::string &Symbol,
                                    const SpecializationKey &Key) {
  // Memo key: only the hash inputs that vary per launch. ModuleId and each
  // kernel's annotated-argument indices are fixed for the runtime's
  // lifetime, so they are implied by the symbol — but Arch is not: a
  // heterogeneous device pool launches the same symbol for several
  // architectures through one runtime.
  std::vector<uint64_t> MemoKey;
  MemoKey.reserve(Key.FoldedArgs.size() + 2);
  MemoKey.push_back(static_cast<uint64_t>(Key.Arch));
  for (const RuntimeArgValue &V : Key.FoldedArgs)
    MemoKey.push_back(V.Bits);
  MemoKey.push_back(Key.LaunchBoundsThreads);
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    auto KIt = HashMemo.find(Symbol);
    if (KIt != HashMemo.end()) {
      auto It = KIt->second.find(MemoKey);
      if (It != KIt->second.end()) {
        Stat.HashMemoHits->add();
        return It->second;
      }
    }
  }
  uint64_t Hash = computeSpecializationHash(Key);
  std::lock_guard<std::mutex> Lock(MemoMutex);
  HashMemo[Symbol].emplace(std::move(MemoKey), Hash);
  return Hash;
}

void JitRuntime::runMissJob(const JitKernelInfo &Info,
                            std::vector<uint8_t> Bitcode,
                            const SpecializationKey &Key, uint64_t Hash,
                            unsigned Launcher,
                            const std::shared_ptr<InFlightCompile> &Job) {
  // With tiering on a miss is served by the fast Tier-0 pipeline and the
  // full compile is promoted in the background afterwards.
  CompileOutcome O =
      compileSpecialization(Info.Symbol, std::move(Bitcode), Key, Hash,
                            Config.Tier ? CodeTier::Tier0 : CodeTier::Final);
  bool Ok = O.Err == GpuError::Success;
  completeJob(Hash, Job, std::move(O));
  if (Ok && Config.Tier)
    scheduleTier1Promotion(Info, Key, Hash, Launcher);
}

void JitRuntime::scheduleTier1Promotion(const JitKernelInfo &Info,
                                        const SpecializationKey &Key,
                                        uint64_t Hash, unsigned Launcher) {
  if (!Pool)
    return;
  // Critical-path gate: a kernel with timeline slack cannot shorten the
  // run, so its Tier-0 binary is already good enough — skip the background
  // promotion compile entirely.
  if (PolicyState && !PolicyState->shouldPromote(Info.Symbol)) {
    Stat.PolicyTierDemotions->add();
    trace::instant("jit.policy_tier_demotion");
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    if (!PromotionsInFlight.insert(Hash).second)
      return; // a promotion for this specialization is already in flight
  }
  auto Unschedule = [this, Hash] {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    PromotionsInFlight.erase(Hash);
  };
  // A persisted Tier-0 entry served on a fresh process has no module index
  // yet: fetch its bitcode here, off the worker.
  std::vector<uint8_t> Bitcode;
  if (bitcodeUnlessIndexed(Info, Bitcode, nullptr) != GpuError::Success) {
    Unschedule();
    return; // keep serving Tier-0; a later cold lookup may retry
  }
  trace::instant("jit.tier1_schedule");
  bool Enqueued = Pool->enqueue(
      [this, Symbol = Info.Symbol, Key, Hash, Launcher, Unschedule,
       BC = std::move(Bitcode)]() mutable {
        CompileOutcome O = compileSpecialization(Symbol, std::move(BC), Key,
                                                 Hash, CodeTier::Final);
        // The launching device is always swapped — its own Tier-0 load may
        // not have happened yet — plus every device holding the hash. A
        // racing launch either still maps Tier-0 (correct, just
        // unpromoted) or already sees the new kernel. A failed promotion
        // keeps the Tier-0 entry: correct code, just not final.
        unsigned Swapped = 0;
        if (O.Err == GpuError::Success)
          hotSwap(Hash, O.Object, {Launcher}, /*AndHolders=*/true, &Swapped,
                  nullptr);
        if (Swapped) {
          // One promotion per specialization, however many devices the
          // hot-swap reached.
          Stat.Tier1Promotions->add();
          trace::instant("jit.tier1_promotion");
        }
        Unschedule();
      },
      ThreadPool::Priority::Low);
  if (!Enqueued)
    Unschedule(); // pool is shutting down
}

void JitRuntime::completeJob(uint64_t Hash,
                             const std::shared_ptr<InFlightCompile> &Job,
                             CompileOutcome Outcome) {
  // Publish the result to waiters first; the cache entry (on success) was
  // already inserted, so a launch that finds neither the in-flight job nor
  // the table entry still finds the object in the cache.
  Job->Promise.set_value(std::move(Outcome));
  std::lock_guard<std::mutex> Lock(InFlightMutex);
  InFlight.erase(Hash);
}

LoadedKernel *JitRuntime::genericOn(DeviceState &DS,
                                    const JitKernelInfo &Info,
                                    std::string *Error) {
  if (auto It = DS.GenericLoaded.find(Info.Symbol);
      It != DS.GenericLoaded.end())
    return It->second;
  // No tier-0 binary — or one compiled for a different architecture than
  // this device runs — means the caller must wait on the compile instead.
  if (Info.GenericObject.empty() ||
      Info.GenericArch != DS.Dev->target().Arch)
    return nullptr;
  LoadedKernel *K = nullptr;
  std::string LoadErr;
  if (gpuModuleLoad(*DS.Dev, &K, Info.GenericObject, &LoadErr) !=
      GpuError::Success) {
    if (Error)
      *Error = "failed to load generic binary for @" + Info.Symbol + ": " +
               LoadErr;
    return nullptr;
  }
  DS.GenericLoaded[Info.Symbol] = K;
  return K;
}

std::optional<GpuError>
JitRuntime::launchGeneric(DeviceState &DS, const JitKernelInfo &Info,
                          Dim3 Grid, Dim3 Block,
                          const std::vector<KernelArg> &Args, Stream *S,
                          std::string *Error) {
  std::lock_guard<std::mutex> Lock(DS.Lock);
  std::string LoadErr;
  LoadedKernel *K = genericOn(DS, Info, &LoadErr);
  if (!K) {
    if (LoadErr.empty())
      return std::nullopt;
    if (Error)
      *Error = std::move(LoadErr);
    return GpuError::LaunchFailure;
  }
  Stat.FallbackLaunches->add();
  trace::instant("jit.fallback_launch");
  trace::Span Sp("jit.kernel_launch", "jit");
  return gpuLaunchKernelAsync(*DS.Dev, *K, Grid, Block, Args, S, Error);
}

unsigned JitRuntime::recordLoadOrigin(uint64_t Hash, unsigned Ordinal) {
  std::lock_guard<std::mutex> Lock(OriginMutex);
  auto [It, Inserted] = FirstLoadedOn.emplace(Hash, Ordinal);
  (void)Inserted;
  return It->second;
}

GpuError JitRuntime::loadAndLaunch(
    DeviceState &DS, uint64_t Hash, const std::vector<uint8_t> &Object,
    const JitKernelInfo &Info,
    const std::shared_ptr<const KernelModuleIndex> &CaptureIndex, Dim3 Grid,
    Dim3 Block, const std::vector<KernelArg> &Args, Stream *S,
    std::string *Error) {
  std::lock_guard<std::mutex> Lock(DS.Lock);
  LoadedKernel *K = nullptr;
  if (auto It = DS.Loaded.find(Hash); It != DS.Loaded.end()) {
    K = It->second;
  } else {
    trace::Span Sp("jit.module_load", "jit");
    std::string LoadError;
    if (gpuModuleLoad(*DS.Dev, &K, Object, &LoadError) != GpuError::Success) {
      if (Error)
        *Error = "failed to load JIT object for @" + Info.Symbol + ": " +
                 LoadError;
      return GpuError::LaunchFailure;
    }
    DS.Loaded[Hash] = K;
    // Cross-device accounting: the first device to load a specialization
    // is its origin; any other device loading the same object reused the
    // per-arch compile instead of triggering its own.
    unsigned Origin = recordLoadOrigin(Hash, DS.Index);
    if (Origin != DS.Index) {
      Stat.CrossDeviceLoads->add();
      Stat.PerArchCompileReuse->add();
      trace::instant("jit.cross_device_load");
    }
  }
  return launchLoaded(DS, *K, Info, Hash, CaptureIndex, Grid, Block, Args, S,
                      Error);
}

GpuError JitRuntime::launchLoaded(
    DeviceState &DS, LoadedKernel &K, const JitKernelInfo &Info,
    uint64_t Hash,
    const std::shared_ptr<const KernelModuleIndex> &CaptureIndex, Dim3 Grid,
    Dim3 Block, const std::vector<KernelArg> &Args, Stream *S,
    std::string *Error) {
  trace::Span Sp("jit.kernel_launch", "jit");
  // Skip capture when it is off, the kernel's closure is unavailable, this
  // launch shape was already recorded (dedup mode counts capture.dedup), or
  // the ring is full (tryReserve counts the drop) — the launch itself must
  // never block or fail on account of capture.
  uint64_t DedupKey = 0;
  if (CaptureSess && Config.CaptureDedup) {
    FNV1aHash KeyHash;
    KeyHash.update(Hash);
    KeyHash.update(Grid.X);
    KeyHash.update(Grid.Y);
    KeyHash.update(Grid.Z);
    KeyHash.update(Block.X);
    KeyHash.update(Block.Y);
    KeyHash.update(Block.Z);
    for (const KernelArg &Arg : Args)
      KeyHash.update(Arg.Bits);
    DedupKey = KeyHash.digest();
    if (DedupKey == 0) // 0 means "capture every launch" to the session
      DedupKey = 1;
  }
  if (!CaptureSess || !CaptureIndex || !CaptureSess->tryReserve(DedupKey))
    return gpuLaunchKernelAsync(*DS.Dev, K, Grid, Block, Args, S, Error);

  capture::PendingRecord Rec;
  Rec.Index = CaptureIndex;
  capture::CaptureArtifact &A = Rec.Artifact;
  A.ModuleId = ModuleId;
  A.KernelSymbol = Info.Symbol;
  A.Arch = DS.Dev->target().Arch;
  A.Grid = Grid;
  A.Block = Block;
  A.ArgBits.reserve(Args.size());
  for (const KernelArg &Arg : Args)
    A.ArgBits.push_back(Arg.Bits);
  A.AnnotatedArgs = Info.AnnotatedArgs;
  A.EnableRCF = Config.EnableRCF;
  A.EnableLaunchBounds = Config.EnableLaunchBounds;
  A.TierMode = Config.Tier;
  A.SpecializationHash = Hash;
  A.PipelineFingerprint =
      jitPipelineFingerprint(CodeTier::Final, symbolicGlobals());
  A.DeviceMemoryBytes = DS.Dev->memory().size();
  // Snapshot candidates: every argument's raw bits (non-pointer values that
  // fall outside any allocation are skipped by snapshotRegions; a scalar
  // that happens to alias an allocation is over-captured, which is safe)
  // plus the device addresses of the kernel closure's globals.
  std::vector<uint64_t> Candidates = A.ArgBits;
  for (const std::string &G : CaptureIndex->closureGlobalNames(Info.Symbol)) {
    DevicePtr Addr = DS.Dev->getSymbolAddress(G);
    if (Addr) {
      A.Globals.push_back({G, Addr});
      Candidates.push_back(Addr);
    }
  }
  A.Regions = capture::snapshotRegions(*DS.Dev, Candidates);

  GpuError E = gpuLaunchKernelAsync(*DS.Dev, K, Grid, Block, Args, S, Error);
  if (E != GpuError::Success) {
    // A failed launch has no output state worth replaying; return the ring
    // slot without persisting anything (counted as capture.skips) and
    // un-mark the shape so a later successful launch can capture it.
    CaptureSess->release(DedupKey);
    return E;
  }
  // The simulator applies memory effects synchronously in host enqueue
  // order, even on async streams, so the post snapshot here is exact.
  capture::fillPostBytes(*DS.Dev, A.Regions);
  CaptureSess->submit(std::move(Rec));
  return E;
}

GpuError JitRuntime::launchKernel(const std::string &Symbol, Dim3 Grid,
                                  Dim3 Block,
                                  const std::vector<KernelArg> &Args,
                                  std::string *Error) {
  return launchKernelOn(0, Symbol, Grid, Block, Args, nullptr, Error);
}

GpuError JitRuntime::launchKernelOn(unsigned DeviceIndex,
                                    const std::string &Symbol, Dim3 Grid,
                                    Dim3 Block,
                                    const std::vector<KernelArg> &Args,
                                    Stream *S, std::string *Error) {
  if (DeviceIndex >= Devices.size()) {
    if (Error)
      *Error = "device index " + std::to_string(DeviceIndex) +
               " out of range (" + std::to_string(Devices.size()) +
               " device(s) attached)";
    return GpuError::InvalidValue;
  }
  DeviceState &DS = *Devices[DeviceIndex];
  if (S && &S->device() != DS.Dev) {
    if (Error)
      *Error = "stream does not belong to device " +
               std::to_string(DeviceIndex);
    return GpuError::InvalidValue;
  }
  trace::Span LaunchSp("jit.launch", "jit");
  Stat.Launches->add();
  if (S)
    Stat.StreamLaunches->add();
  const JitKernelInfo *Info = findKernel(Symbol);
  if (!Info) {
    if (Error)
      *Error = "kernel @" + Symbol + " is not registered for JIT";
    return GpuError::NotFound;
  }

  SpecializationKey Key;
  {
    trace::Span Sp("jit.build_key", "jit");
    if (!buildKey(*Info, Block, Args, DS.Dev->target().Arch, Key, Error))
      return GpuError::InvalidValue;
  }
  uint64_t Hash = lookupSpecHash(Symbol, Key);

  // Capture needs the kernel's module index (the pruned-bitcode source) in
  // hand before any device lock is taken: building it may fetch bitcode,
  // and the NVIDIA readback locks the bitcode-holding device. Once built
  // the index is a map lookup; failure just means this launch goes
  // uncaptured.
  std::shared_ptr<const KernelModuleIndex> CaptureIndex;
  if (CaptureSess) {
    std::vector<uint8_t> Bitcode;
    if (bitcodeUnlessIndexed(*Info, Bitcode, nullptr) == GpuError::Success)
      CaptureIndex = getOrBuildIndex(Symbol, Bitcode, nullptr);
  }

  // --- Already loaded on this device? ---------------------------------------
  {
    std::lock_guard<std::mutex> Lock(DS.Lock);
    if (auto LIt = DS.Loaded.find(Hash); LIt != DS.Loaded.end())
      return launchLoaded(DS, *LIt->second, *Info, Hash, CaptureIndex, Grid,
                          Block, Args, S, Error);
  }

  // --- Cache lookup + in-flight dedup, atomically ----------------------------
  // Checking the in-flight table and the cache under one lock closes the
  // window where a finished compile has been retired from the table but a
  // racing launch misses the cache: compiles insert into the cache before
  // erasing their table entry.
  std::shared_ptr<InFlightCompile> Job;
  bool Owner = false;
  std::optional<std::vector<uint8_t>> Object;
  bool PromoteServed = false; // serving a Tier-0 entry: promote it
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    auto JIt = InFlight.find(Hash);
    if (JIt != InFlight.end()) {
      Job = JIt->second;
    } else {
      {
        trace::Span Sp("jit.cache_lookup", "jit");
        metrics::ScopedTimer T(*Stat.CacheLookupSeconds);
        // A launch asks for Tier-0 when tiering is on: a persisted Tier-0
        // baseline (typically left by a run that exited before promoting)
        // is served now and promoted in the background. With tiering off
        // it is a miss, recompiled final and overwritten in place; so is
        // an entry from a different pipeline composition.
        std::optional<CachedCode> CC = Cache.lookupEntry(Hash);
        if (CC &&
            servable(*CC, Config.Tier ? CodeTier::Tier0 : CodeTier::Final)) {
          PromoteServed =
              CC->Tier == CodeTier::Tier0 && !PromotionsInFlight.count(Hash);
          Object = std::move(CC->Object);
        }
      }
      if (!Object) {
        Job = std::make_shared<InFlightCompile>();
        InFlight.emplace(Hash, Job);
        Owner = true;
      }
    }
  }
  if (PromoteServed)
    scheduleTier1Promotion(*Info, Key, Hash, DS.Index);

  // Serves a finished compile: its object, or its error.
  auto Take = [&](const CompileOutcome &O) {
    if (O.Err == GpuError::Success)
      Object = O.Object;
    else if (Error)
      *Error = O.Message;
    return O.Err;
  };
  if (!Object) {
    if (Owner) {
      std::vector<uint8_t> Bitcode;
      std::string FetchError;
      GpuError FE = bitcodeUnlessIndexed(*Info, Bitcode, &FetchError);
      if (FE != GpuError::Success) {
        completeJob(Hash, Job, CompileOutcome{FE, FetchError, {}});
        if (Error)
          *Error = FetchError;
        return FE;
      }
      if (Config.Async == JitConfig::AsyncMode::Sync) {
        // Sync: compile inline; the full cost is launch-visible (with
        // tiering on, only the Tier-0 cost).
        {
          Timer VisT;
          metrics::ScopedTimer T(*Stat.LaunchBlockedSeconds);
          runMissJob(*Info, std::move(Bitcode), Key, Hash, DS.Index, Job);
          if (Config.Tier)
            Stat.Tier0VisibleSeconds->addSeconds(VisT.seconds());
        }
        if (GpuError E = Take(Job->Future.get()); E != GpuError::Success)
          return E;
      } else {
        Stat.AsyncCompiles->add();
        Timer QueueT;
        Pool->enqueue([this, Info, Key, Hash, Launcher = DS.Index, Job,
                       QueueT, BC = std::move(Bitcode)]() mutable {
          Stat.QueueWaitSeconds->addSeconds(QueueT.seconds());
          runMissJob(*Info, std::move(BC), Key, Hash, Launcher, Job);
        });
      }
    } else {
      Stat.DedupedWaits->add();
      trace::instant("jit.deduped_wait");
    }

    if (!Object && Config.Async == JitConfig::AsyncMode::Fallback) {
      bool Ready = Job->Future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
      if (Ready) {
        if (GpuError E = Take(Job->Future.get()); E != GpuError::Success)
          return E;
      } else if (std::optional<GpuError> GE =
                     launchGeneric(DS, *Info, Grid, Block, Args, S, Error)) {
        // Tier-0 launch; the specialized binary is hot-swapped in by a
        // later launch once the background compile lands in the cache.
        return *GE;
      }
      // No generic binary available: degrade to blocking on the future.
    }

    if (!Object) {
      const CompileOutcome *O;
      {
        trace::Span Sp("jit.inflight_wait", "jit");
        Timer VisT;
        metrics::ScopedTimer T(*Stat.LaunchBlockedSeconds);
        O = &Job->Future.get();
        // With tiering on, every in-flight launch-path compile is Tier-0,
        // so the wait is Tier-0-visible time.
        if (Config.Tier)
          Stat.Tier0VisibleSeconds->addSeconds(VisT.seconds());
      }
      if (GpuError E = Take(*O); E != GpuError::Success)
        return E;
    }
  }

  // --- Load and launch ---------------------------------------------------------
  return loadAndLaunch(DS, Hash, *Object, *Info, CaptureIndex, Grid, Block,
                       Args, S, Error);
}

std::optional<TuningDecision> JitRuntime::lookupTuningDecision(uint64_t Key) {
  std::optional<TuningDecision> D = Cache.lookupTuningDecision(Key);
  if (D) {
    Stat.TunerCacheHits->add();
    trace::instant("jit.tuner_cache_hit");
  }
  return D;
}

void JitRuntime::storeTuningDecision(uint64_t Key, const TuningDecision &D) {
  Cache.storeTuningDecision(Key, D);
}

void JitRuntime::noteTunerPromotion() {
  Stat.TunerPromotions->add();
  trace::instant("jit.tuner_promotion");
}

void JitRuntime::noteRetarget(const InstallReport &R) {
  Stat.RetargetCompiles->add(R.CompiledArches);
  Stat.RetargetCacheReuse->add(R.ReusedArches);
  trace::instant("sched.retarget");
}

GpuError JitRuntime::hotSwap(uint64_t Hash, const std::vector<uint8_t> &Object,
                             const std::vector<unsigned> &Targets,
                             bool AndHolders, unsigned *Swapped,
                             std::string *Error) {
  const unsigned Origin = recordLoadOrigin(Hash, Targets.front());
  for (unsigned I = 0; I != Devices.size(); ++I) {
    DeviceState &DS = *Devices[I];
    const bool Target =
        std::find(Targets.begin(), Targets.end(), I) != Targets.end();
    if (!Target && !AndHolders)
      continue;
    std::lock_guard<std::mutex> Lock(DS.Lock);
    auto It = DS.Loaded.find(Hash);
    const bool Held = It != DS.Loaded.end();
    if (!Target && !Held)
      continue;
    trace::Span Sp("jit.module_load", "jit");
    LoadedKernel *K = nullptr;
    std::string LoadError;
    if (gpuModuleLoad(*DS.Dev, &K, Object, &LoadError) != GpuError::Success) {
      if (Error)
        *Error = "failed to load JIT object on device " + std::to_string(I) +
                 ": " + LoadError;
      return GpuError::LaunchFailure;
    }
    DS.Loaded[Hash] = K;
    if (Swapped)
      ++*Swapped;
    if (I != Origin) {
      Stat.CrossDeviceLoads->add();
      if (!Held)
        Stat.PerArchCompileReuse->add();
    }
  }
  return GpuError::Success;
}

GpuError JitRuntime::installSpecialization(const std::string &Symbol,
                                           Dim3 Block,
                                           const std::vector<KernelArg> &Args,
                                           int DeviceIndex, bool ReuseCached,
                                           const O3Options *O3Override,
                                           InstallReport *Report,
                                           std::string *Error) {
  if (DeviceIndex >= static_cast<int>(Devices.size())) {
    if (Error)
      *Error = "device index " + std::to_string(DeviceIndex) +
               " out of range (" + std::to_string(Devices.size()) +
               " device(s) attached)";
    return GpuError::InvalidValue;
  }
  const JitKernelInfo *Info = findKernel(Symbol);
  if (!Info) {
    if (Error)
      *Error = "kernel @" + Symbol + " is not registered for JIT";
    return GpuError::NotFound;
  }

  // One compile (or cache fetch) per distinct architecture among the
  // targets; like the launch path, the same object then serves every
  // device of that arch.
  std::map<GpuArch, std::vector<unsigned>> PerArch;
  for (unsigned I = 0; I != Devices.size(); ++I)
    if (DeviceIndex < 0 || I == static_cast<unsigned>(DeviceIndex))
      PerArch[Devices[I]->Dev->target().Arch].push_back(I);
  InstallReport Local;
  InstallReport &R = Report ? *Report : Local;
  for (const auto &[Arch, Targets] : PerArch) {
    SpecializationKey Key;
    if (!buildKey(*Info, Block, Args, Arch, Key, Error))
      return GpuError::InvalidValue;
    const uint64_t Hash = lookupSpecHash(Symbol, Key);
    // The warm path must not pin a Tier-0 baseline or a stale artifact —
    // in particular, a retarget racing an in-flight Tier-1 promotion
    // recompiles rather than loading the Tier-0 placeholder.
    std::optional<CachedCode> CC;
    if (ReuseCached)
      CC = Cache.lookupEntry(Hash);
    std::vector<uint8_t> Object;
    if (CC && servable(*CC, CodeTier::Final)) {
      Object = std::move(CC->Object);
      ++R.ReusedArches;
    } else {
      std::vector<uint8_t> Bitcode;
      if (GpuError FE = bitcodeUnlessIndexed(*Info, Bitcode, Error);
          FE != GpuError::Success)
        return FE;
      CompileOutcome O =
          compileSpecialization(Symbol, std::move(Bitcode), Key, Hash,
                                CodeTier::Final, O3Override, ReuseCached);
      if (O.Err != GpuError::Success) {
        if (Error)
          *Error = O.Message;
        return O.Err;
      }
      Object = std::move(O.Object);
      ++R.CompiledArches;
    }
    // Replacing any previous mapping means a Tier-0 binary a racing launch
    // installed can never outlive this install.
    if (GpuError E = hotSwap(Hash, Object, Targets, /*AndHolders=*/false,
                             nullptr, Error);
        E != GpuError::Success)
      return E;
  }
  return GpuError::Success;
}

void JitRuntime::withDeviceLocked(
    unsigned DeviceIndex, const std::function<void(Device &)> &Fn) {
  DeviceState &DS = *Devices[DeviceIndex];
  std::lock_guard<std::mutex> Lock(DS.Lock);
  Fn(*DS.Dev);
}
