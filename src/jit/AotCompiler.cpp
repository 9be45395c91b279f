//===- AotCompiler.cpp - AOT split compilation with JIT extensions -----------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/AotCompiler.h"

#include "bitcode/Bitcode.h"
#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "support/Hashing.h"
#include "support/Timer.h"

#include <functional>
#include <unordered_set>

using namespace proteus;
using namespace pir;

uint64_t DeviceImage::totalBytes() const {
  uint64_t Total = 0;
  for (const auto &[Sym, Obj] : KernelObjects)
    Total += Obj.size();
  for (const auto &[Sym, BC] : JitSections)
    Total += BC.size();
  for (const auto &[Sym, BC] : JitDataGlobals)
    Total += BC.size();
  for (const ImageGlobal &G : Globals)
    Total += G.Bytes;
  return Total;
}

std::unique_ptr<Module>
proteus::extractKernelModule(Module &Source, const std::string &KernelName) {
  Function *Kernel = Source.getFunction(KernelName);
  assert(Kernel && Kernel->isKernel() && "extracting unknown kernel");

  // Transitive closure of callees and referenced globals, collected in
  // post-order so that callees are cloned before their callers (device code
  // is non-recursive; the inliner enforces that later anyway).
  std::unordered_set<GlobalVariable *> NeededGlobals;
  std::unordered_set<Function *> Visited;
  std::vector<Function *> PostOrder;
  std::function<void(Function *)> Visit = [&](Function *F) {
    if (!Visited.insert(F).second)
      return;
    for (BasicBlock &BB : *F)
      for (Instruction &I : BB)
        for (Value *Op : I.operands()) {
          if (auto *Callee = dyn_cast<Function>(Op))
            Visit(Callee);
          else if (auto *G = dyn_cast<GlobalVariable>(Op))
            NeededGlobals.insert(G);
        }
    PostOrder.push_back(F);
  };
  Visit(Kernel);

  auto Out = std::make_unique<Module>(Source.getContext(),
                                      Source.getName() + "." + KernelName);
  // Globals first (deterministic: source order).
  for (const auto &G : Source.globals())
    if (NeededGlobals.count(G.get()))
      Out->createGlobal(G->getName(), G->getElemType(), G->getNumElements(),
                        G->getInit());
  for (Function *F : PostOrder)
    cloneFunctionInto(*Out, *F, F->getName());
  return Out;
}

CompiledProgram proteus::aotCompile(Module &Source,
                                    const AotOptions &Options) {
  CompiledProgram Out;
  Out.Image.Arch = Options.Arch;
  const TargetInfo &Target = getTarget(Options.Arch);
  Timer Total;

  // --- Front end -----------------------------------------------------------
  // Stand-in for the C++/HIP front end: lex/parse/semantic passes over the
  // program's source, proportional to program size (three passes, like
  // lexing + parsing + IR generation). This keeps the *ratios* of Figure 5
  // meaningful: extension costs are measured against a real build baseline.
  {
    Timer Fe;
    std::string Text = printModule(Source);
    // The module identifier is bound to source content *before*
    // optimization, exactly like LLVM's module id in the paper: any source
    // edit changes it. Same value as Module::computeModuleId, without
    // printing the module a second time.
    Out.ModuleId = hashString(Text);
    for (int Pass = 0; Pass != 3; ++Pass) {
      pir::Context FeCtx;
      pir::ParseResult R = pir::parseModule(FeCtx, Text);
      if (!R.M)
        break; // never happens for printer output
    }
    Out.Stats.FrontendSeconds = Fe.seconds();
  }

  // --- Proteus plugin: parse annotations and extract bitcode ---------------
  if (Options.EnableProteusExtensions) {
    Timer Ext;
    for (Function *K : Source.kernels()) {
      const auto &Ann = K->getJitAnnotation();
      if (!Ann)
        continue;
      std::unique_ptr<Module> KernelMod =
          extractKernelModule(Source, K->getName());
      std::vector<uint8_t> Bitcode = writeBitcode(*KernelMod);
      if (Options.Arch == GpuArch::AmdGcnSim) {
        // Designated image section ".jit.<symbol>": host-readable directly.
        Out.Image.JitSections[K->getName()] = std::move(Bitcode);
      } else {
        // NVIDIA's binary tools drop non-standard sections; store the byte
        // array as a data-segment device global __jit_bc_<symbol> instead.
        Out.Image.JitDataGlobals[K->getName()] = std::move(Bitcode);
      }
      Out.JitKernels.insert(K->getName());
      Out.JitArgIndices[K->getName()] = Ann->ArgIndices;
    }
    Out.Stats.ExtensionSeconds = Ext.seconds();
  }

  // --- Device path: O3 + backend per kernel -------------------------------
  auto Optimized = cloneModule(Source, Source.getContext(),
                               Source.getName() + ".aot");
  Timer Opt;
  runO3(*Optimized, Options.O3);
  Out.Stats.OptimizeSeconds = Opt.seconds();

  Timer Backend;
  for (Function *K : Optimized->kernels()) {
    BackendStats BS;
    Out.Image.KernelObjects[K->getName()] =
        compileKernelToObject(*K, Target, &BS);
  }
  Out.Stats.BackendSeconds = Backend.seconds();

  // --- Globals carried by the image ----------------------------------------
  for (const auto &G : Source.globals())
    Out.Image.Globals.push_back(
        ImageGlobal{G->getName(), G->sizeInBytes(), G->getInit()});

  // --- Static link of the JIT runtime library ------------------------------
  // On the CUDA path the paper attributes most of the AOT slowdown to
  // statically linking the Proteus runtime and NVIDIA's proprietary
  // libraries. Model that as real symbol-resolution work over a synthetic
  // archive sized like those libraries.
  if (Options.EnableProteusExtensions &&
      Options.Arch == GpuArch::NvPtxSim) {
    Timer Link;
    static const std::vector<uint64_t> &Archive = *[] {
      auto *A = new std::vector<uint64_t>(192 * 1024 / 8);
      uint64_t X = 0x9E3779B97F4A7C15ull;
      for (uint64_t &V : *A) {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
        V = X;
      }
      return A;
    }();
    // "Resolve" a symbol table: scan the archive accumulating a digest, as
    // a linker walks relocation tables — once for the runtime library and
    // once per JIT kernel's embedded payload.
    size_t Rounds = 1 + Out.JitKernels.size();
    for (size_t Round = 0; Round != Rounds; ++Round) {
      FNV1aHash H;
      H.update(static_cast<uint64_t>(Round));
      for (uint64_t V : Archive)
        H.update(V);
      volatile uint64_t Sink = H.digest();
      (void)Sink;
    }
    Out.Stats.LinkSeconds = Link.seconds();
  }

  (void)Total;
  return Out;
}
