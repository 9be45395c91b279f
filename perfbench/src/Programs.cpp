//===- Programs.cpp - program images, checks and the stage repeat ---------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "analysis/KernelAnalyzer.h"
#include "bitcode/ModuleIndex.h"
#include "codegen/ISel.h"
#include "codegen/ObjectFile.h"
#include "codegen/Ptx.h"
#include "codegen/RegAlloc.h"
#include "gpu/Runtime.h"
#include "ir/Function.h"
#include "ir/Interpreter.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;

namespace perfbench {

std::vector<Program> buildPrograms() {
  std::vector<Program> Out;
  for (auto &B : allBenchmarks()) {
    Program P;
    P.Ctx = std::make_unique<pir::Context>();
    {
      Span S("hecbench.build_module");
      P.M = B->buildModule(*P.Ctx);
      P.Buffers = B->buffers();
      P.Launches = B->launches();
    }
    for (GpuArch A : Arches) {
      AotOptions AO;
      AO.Arch = A;
      {
        Span S("jit.aot_compile");
        P.Aot[archIndex(A)] = aotCompile(*P.M, AO);
      }
      AO.EnableProteusExtensions = true;
      {
        Span S("jit.aot_compile");
        P.Jit[archIndex(A)] = aotCompile(*P.M, AO);
      }
    }
    P.B = std::move(B);
    Out.push_back(std::move(P));
  }
  return Out;
}

static bool sameImage(const CompiledProgram &A, const CompiledProgram &B) {
  return A.ModuleId == B.ModuleId &&
         A.Image.KernelObjects == B.Image.KernelObjects &&
         A.Image.JitSections == B.Image.JitSections &&
         A.Image.JitDataGlobals == B.Image.JitDataGlobals;
}

bool sameImages(const std::vector<Program> &A, const std::vector<Program> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    for (int X = 0; X != 2; ++X)
      if (!sameImage(A[I].Aot[X], B[I].Aot[X]) ||
          !sameImage(A[I].Jit[X], B[I].Jit[X]))
        return false;
  return true;
}

bool uploadBuffers(const Program &P, Device &Dev, BufferMap &Out,
                   double *SimTransfer) {
  for (const BufferSpec &BS : P.Buffers) {
    DevicePtr Ptr = 0;
    {
      Span S("gpu.malloc");
      if (gpuMalloc(Dev, &Ptr, BS.Init.size()) != GpuError::Success)
        return false;
    }
    double Sim0 = Dev.simulatedSeconds();
    {
      Span S("gpu.h2d");
      gpuMemcpyHtoD(Dev, Ptr, BS.Init.data(), BS.Init.size());
    }
    if (SimTransfer)
      *SimTransfer += Dev.simulatedSeconds() - Sim0;
    Out[BS.Name] = Ptr;
  }
  return true;
}

uint64_t sharedDeviceBytes(const std::vector<Program> &Progs) {
  uint64_t Bytes = 1ull << 20; // allocator alignment and headroom
  for (const Program &P : Progs) {
    for (const BufferSpec &BS : P.Buffers)
      Bytes += BS.Init.size() + 256;
    for (const CompiledProgram &CP : P.Jit) {
      for (const auto &[Sym, BC] : CP.Image.JitDataGlobals)
        Bytes += BC.size() + 256;
      for (const ImageGlobal &G : CP.Image.Globals)
        Bytes += G.Bytes + 256;
    }
  }
  return (Bytes + (1ull << 20) - 1) & ~((1ull << 20) - 1);
}

std::vector<KernelArg> resolveArgs(const std::vector<ArgSpec> &Args,
                                   const BufferMap &Buffers) {
  std::vector<KernelArg> Out;
  for (const ArgSpec &A : Args)
    Out.push_back(KernelArg{A.K == ArgSpec::Kind::Scalar
                                ? A.Bits
                                : Buffers.at(A.BufferName) + A.ByteOffset});
  return Out;
}

SpecializationKey specializationKey(const CompiledProgram &Prog,
                                    const std::string &Symbol, GpuArch Arch,
                                    Dim3 Block,
                                    const std::vector<KernelArg> &Args) {
  SpecializationKey Key;
  Key.ModuleId = Prog.ModuleId;
  Key.KernelSymbol = Symbol;
  Key.Arch = Arch;
  for (uint32_t OneBased : Prog.JitArgIndices.at(Symbol))
    Key.FoldedArgs.push_back(
        RuntimeArgValue{OneBased - 1, Args.at(OneBased - 1).Bits});
  Key.LaunchBoundsThreads = static_cast<uint32_t>(Block.count());
  return Key;
}

std::string interpret(const Program &P, const std::string &Symbol, Dim3 Grid,
                      Dim3 Block, const std::vector<KernelArg> &Args,
                      std::vector<uint8_t> &Memory) {
  Span S("check.interpreter");
  if (!P.M->globals().empty())
    return "interpreter check: device globals are not linked";
  pir::Function *F = P.M->getFunction(Symbol);
  if (!F)
    return "interpreter check: unknown kernel @" + Symbol;
  std::vector<uint64_t> Bits;
  for (const KernelArg &A : Args)
    Bits.push_back(A.Bits);
  pir::IRInterpreter Interp(Memory);
  for (uint32_t Blk = 0; Blk != Grid.X; ++Blk)
    for (uint32_t Ty = 0; Ty != Block.Y; ++Ty)
      for (uint32_t Tx = 0; Tx != Block.X; ++Tx) {
        pir::ThreadGeometry G;
        G.ThreadIdx[0] = Tx;
        G.ThreadIdx[1] = Ty;
        G.BlockIdx[0] = Blk;
        G.BlockDim[0] = Block.X;
        G.BlockDim[1] = Block.Y;
        G.GridDim[0] = Grid.X;
        pir::InterpResult R = Interp.run(*F, Bits, G);
        if (!R.Ok)
          return "interpreter failed in @" + Symbol + ": " + R.Error;
      }
  return "";
}

bool buffersEqual(const Program &P, const BufferMap &Buffers,
                  const Device &Dev, const std::vector<uint8_t> &Image) {
  Span S("check.compare");
  for (const BufferSpec &BS : P.Buffers) {
    DevicePtr Ptr = Buffers.at(BS.Name);
    if (std::memcmp(Dev.memory().data() + Ptr, Image.data() + Ptr,
                    BS.Init.size()) != 0)
      return false;
  }
  return true;
}

void syncBuffers(const Program &P, const BufferMap &Buffers, const Device &Dev,
                 std::vector<uint8_t> &Image) {
  for (const BufferSpec &BS : P.Buffers) {
    DevicePtr Ptr = Buffers.at(BS.Name);
    std::memcpy(Image.data() + Ptr, Dev.memory().data() + Ptr,
                BS.Init.size());
  }
}

JitProbe JitProbe::read(JitRuntime &Rt) {
  JitProbe P;
  P.Compiles = Rt.stats().Compilations;
  P.DiskHits = Rt.cache().stats().PersistentHits;
  return P;
}

void classifyLaunch(const JitProbe &Before, const JitProbe &After,
                    double HostSec, RunTotals &T) {
  if (After.Compiles != Before.Compiles)
    T.CompileLaunchSec.push_back(HostSec);
  else if (After.DiskHits != Before.DiskHits)
    T.DiskLaunchSec.push_back(HostSec);
  else
    T.HotLaunchSec.push_back(HostSec);
}

double estimatedExecSeconds(const LaunchSample &Proteus,
                            const LaunchSample &Aot) {
  if (!Aot.Stats.TotalInstrs)
    return 0;
  return static_cast<double>(Proteus.Stats.TotalInstrs) * Aot.HostSec /
         static_cast<double>(Aot.Stats.TotalInstrs);
}

double addRuntimeCounters(JitRuntime &Rt, RunTotals &T) {
  Rt.drain();
  JitRuntimeStats S = Rt.stats();
  CodeCacheStats C = Rt.cache().stats();
  T.Compiles += S.Compilations;
  T.DiskHits += C.PersistentHits;
  T.MemHits += S.Launches - S.Compilations - C.PersistentHits;
  double HostJit = S.totalCompileSeconds() + S.CacheLookupSeconds;
  T.HostJitS += HostJit;
  return HostJit;
}

std::vector<uint8_t> cachedObject(const std::string &Dir, uint64_t Hash) {
  CodeCache Reader(/*UseMemory=*/false, /*UsePersistent=*/true, Dir);
  std::optional<CachedCode> CC = Reader.lookupEntry(Hash);
  return CC ? std::move(CC->Object) : std::vector<uint8_t>();
}

StageRepeat::StageRepeat(const std::string &Dir)
    : Publish(/*UseMemory=*/false, /*UsePersistent=*/true, Dir) {
  for (GpuArch A : Arches)
    LoadDev[archIndex(A)] = std::make_unique<Device>(getTarget(A), 1u << 20);
}

static uint64_t countInstructions(pir::Function &F) {
  uint64_t N = 0;
  for (pir::BasicBlock &BB : F)
    N += BB.size();
  return N;
}

std::string StageRepeat::compile(const Program &P, GpuArch Arch,
                                 const std::string &Symbol,
                                 const SpecializationKey &Key,
                                 Device &LinkDev,
                                 const std::vector<uint8_t> &Expected,
                                 RunTotals &T) {
  const CompiledProgram &CP = P.Jit[archIndex(Arch)];
  const TargetInfo &Target = getTarget(Arch);
  const JitConfig Cfg = benchJitConfig("");
  // The bitcode the runtime compiles: the .jit.<symbol> section on amdgcn,
  // the __jit_bc_<symbol> data global (read back from device) on nvptx.
  auto SIt = CP.Image.JitSections.find(Symbol);
  const std::vector<uint8_t> &Bitcode =
      SIt != CP.Image.JitSections.end()
          ? SIt->second
          : CP.Image.JitDataGlobals.at(Symbol);

  // The runtime's cache traffic before a compile: a miss, the fleet-wide
  // compile claim, and the double-checked miss under the claim.
  const uint64_t Hash = computeSpecializationHash(Key);
  {
    Span S("fleet.lookup_miss");
    Publish.lookupEntry(Hash);
  }
  bool Claimed = false;
  {
    Span S("fleet.claim");
    Claimed = Publish.beginCompile(Hash) == fleet::CompileClaim::Owner;
  }
  if (!Claimed)
    return "repeat: cannot claim the compile of @" + Symbol;
  {
    Span S("fleet.lookup_miss");
    Publish.lookupEntry(Hash);
  }

  std::shared_ptr<const KernelModuleIndex> Index;
  std::string Error;
  {
    Span S("bitcode.index");
    Index = KernelModuleIndex::create(Bitcode, Error);
  }
  if (!Index)
    return "repeat: bitcode parse failed: " + Error;
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M;
  {
    Span S("bitcode.materialize");
    uint64_t Pruned = 0;
    M = Index->materialize(Ctx, Symbol, &Pruned);
  }
  pir::Function *F = M ? M->getFunction(Symbol) : nullptr;
  if (!F)
    return "repeat: kernel @" + Symbol + " missing from its bitcode";
  {
    Span S("jit.link_globals");
    for (const auto &G : M->globals()) {
      if (!G->hasUses())
        continue;
      DevicePtr Addr = 0;
      if (gpuGetSymbolAddress(LinkDev, &Addr, G->getName()) !=
          GpuError::Success)
        return "repeat: cannot link device global @" + G->getName();
      G->replaceAllUsesWith(Ctx.getConstantPtr(Addr));
    }
  }
  {
    Span S("transforms.specialize");
    if (!Key.FoldedArgs.empty())
      specializeArguments(*F, Key.FoldedArgs);
    specializeLaunchBounds(*F, Key.LaunchBoundsThreads);
  }
  {
    Span S("transforms.o3");
    std::unique_ptr<PassManager> PM = buildO3Pipeline(Cfg.O3);
    PM->setTimingHook([](const std::string &Pass, double Seconds) {
      recordCompletedSpan("transforms.o3." + Pass, Seconds);
    });
    PM->run(*M);
  }
  T.InstsAfterO3 += countInstructions(*F);
  {
    Span S("analysis.analyze");
    pir::analysis::analyzeKernel(*F);
  }

  // The backend in compileKernelToObject's order: isel, the PTX detour on
  // nvptx, register allocation, object emission.
  static const char *const Stage[3][2] = {
      {"codegen.isel.amdgcn", "codegen.isel.nvptx"},
      {"codegen.regalloc.amdgcn", "codegen.regalloc.nvptx"},
      {"codegen.emit.amdgcn", "codegen.emit.nvptx"}};
  const int AI = archIndex(Arch);
  mcode::MachineFunction MF = [&] {
    Span S(Stage[0][AI]);
    return selectInstructions(*F);
  }();
  if (Target.EmitsPtx) {
    Span S(Stage[2][AI]);
    PtxAssembleResult Asm = assemblePtx(printPtx(MF));
    if (!Asm.Ok)
      return "repeat: ptx assembly failed: " + Asm.Error;
    MF = std::move(Asm.MF);
  }
  {
    Span S(Stage[1][AI]);
    allocateRegisters(MF, Target.registerBudget(F->getLaunchBounds()),
                      BackendOptions().RegAlloc);
  }
  std::vector<uint8_t> Object;
  {
    Span S(Stage[2][AI]);
    Object = writeObject(MF, Arch);
  }
  ++T.RepeatedCompiles[AI];
  if (Object != Expected)
    return "repeat: stage-by-stage compile of @" + Symbol + " on " +
           gpuArchName(Arch) + " differs from the object the runtime cached";

  {
    Span S("fleet.publish");
    Publish.insert(Hash, Object, CodeTier::Final,
                   jitPipelineFingerprint(CodeTier::Final));
  }
  {
    Span S("fleet.release");
    Publish.endCompile(Hash);
  }
  std::optional<CachedCode> Back;
  {
    Span S("fleet.lookup");
    Back = Publish.lookupEntry(Hash);
  }
  if (!Back || Back->Object != Object)
    return "repeat: published object did not read back";
  LoadedKernel *K = nullptr;
  Span S("gpu.module_load");
  if (gpuModuleLoad(*LoadDev[archIndex(Arch)], &K, Object, &Error) !=
      GpuError::Success)
    return "repeat: module load failed: " + Error;
  return "";
}

std::string StageRepeat::diskHit(const std::string &Dir, uint64_t Hash,
                                 GpuArch Arch) {
  CodeCache Reader(/*UseMemory=*/false, /*UsePersistent=*/true, Dir);
  std::optional<CachedCode> CC;
  {
    Span S("fleet.lookup");
    CC = Reader.lookupEntry(Hash);
  }
  if (!CC)
    return "repeat: cached object vanished";
  LoadedKernel *K = nullptr;
  std::string Error;
  Span S("gpu.module_load");
  if (gpuModuleLoad(*LoadDev[archIndex(Arch)], &K, CC->Object, &Error) !=
      GpuError::Success)
    return "repeat: module load failed: " + Error;
  return "";
}

} // namespace perfbench
