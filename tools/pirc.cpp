//===- pirc.cpp - PIR compiler driver tool ------------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver over the PIR stack, in the spirit of opt/llc:
//
//   pirc verify file.pir               parse + verify, print diagnostics
//   pirc print file.pir                parse and pretty-print (round trip)
//   pirc opt file.pir                  run the O3 pipeline, print the result
//   pirc compile file.pir [--target=amdgcn-sim|nvptx-sim] [--kernel=name]
//                                      compile to an object, print a summary
//   pirc disasm file.pir [...]         compile and print the machine code
//   pirc ptx file.pir [...]            print the PTX-like assembly
//   pirc run file.pir --kernel=name [--blocks=N --threads=N --args=a,b,...]
//                                      execute on the simulator and report
//                                      the hardware counters
//   pirc annotate file.pir             print automatic specialization
//                                      recommendations per kernel
//   pirc config [--markdown]           print every PROTEUS_* knob's effective
//                                      value and its source, or the README
//                                      environment-table rows
//
// Scalar arguments for `run` are parsed per the kernel signature (i32/i64
// as integers, f32/f64 as decimals); pointer arguments receive device
// buffers sized --bufsize bytes (default 64KiB), zero-initialized.
//
//===----------------------------------------------------------------------===//

#include "codegen/Compiler.h"
#include "codegen/ISel.h"
#include "codegen/Ptx.h"
#include "gpu/DeviceManager.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "ir/Verifier.h"
#include "jit/AutoAnnotate.h"
#include "jit/JitRuntime.h"
#include "sched/Scheduler.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "transforms/O3Pipeline.h"

#include <cstdio>
#include <cstring>

using namespace proteus;
using namespace proteus::gpu;

namespace {

struct Options {
  std::string Command;
  std::string File;
  GpuArch Arch = GpuArch::AmdGcnSim;
  std::string Kernel;
  uint32_t Blocks = 1;
  uint32_t Threads = 32;
  uint64_t BufBytes = 64 * 1024;
  std::string ArgsCsv;
};

int usage() {
  std::fprintf(stderr,
               "usage: pirc <verify|print|opt|compile|disasm|ptx|run|"
               "annotate> file.pir\n"
               "            [--target=amdgcn-sim|nvptx-sim] [--kernel=NAME]\n"
               "            [--blocks=N] [--threads=N] [--args=v1,v2,...]\n"
               "            [--bufsize=BYTES]\n"
               "       pirc config [--markdown]\n");
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.File = Argv[2];
  for (int I = 3; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&A](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = Value("--target=")) {
      if (std::string(V) == "nvptx-sim")
        Opts.Arch = GpuArch::NvPtxSim;
      else if (std::string(V) == "amdgcn-sim")
        Opts.Arch = GpuArch::AmdGcnSim;
      else
        return false;
    } else if (const char *V = Value("--kernel=")) {
      Opts.Kernel = V;
    } else if (const char *V = Value("--blocks=")) {
      Opts.Blocks = static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
    } else if (const char *V = Value("--threads=")) {
      Opts.Threads = static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
    } else if (const char *V = Value("--args=")) {
      Opts.ArgsCsv = V;
    } else if (const char *V = Value("--bufsize=")) {
      Opts.BufBytes = std::strtoull(V, nullptr, 10);
    } else {
      return false;
    }
  }
  return true;
}

std::unique_ptr<pir::Module> load(pir::Context &Ctx, const std::string &Path,
                                  bool &Ok) {
  Ok = false;
  auto Bytes = fs::readFile(Path);
  if (!Bytes) {
    std::fprintf(stderr, "pirc: cannot read '%s'\n", Path.c_str());
    return nullptr;
  }
  std::string Text(Bytes->begin(), Bytes->end());
  pir::ParseResult R = pir::parseModule(Ctx, Text);
  if (!R) {
    std::fprintf(stderr, "pirc: %s: %s\n", Path.c_str(), R.Error.c_str());
    return nullptr;
  }
  Ok = true;
  return std::move(R.M);
}

pir::Function *selectKernel(pir::Module &M, const Options &Opts) {
  if (!Opts.Kernel.empty()) {
    pir::Function *F = M.getFunction(Opts.Kernel);
    if (!F || !F->isKernel()) {
      std::fprintf(stderr, "pirc: no kernel named '%s'\n",
                   Opts.Kernel.c_str());
      return nullptr;
    }
    return F;
  }
  auto Kernels = M.kernels();
  if (Kernels.size() != 1) {
    std::fprintf(stderr,
                 "pirc: module has %zu kernels; select one with "
                 "--kernel=NAME\n",
                 Kernels.size());
    return nullptr;
  }
  return Kernels[0];
}

int cmdRun(pir::Module &M, pir::Function *F, const Options &Opts) {
  runO3(M);
  Device Dev(getTarget(Opts.Arch));
  std::vector<uint8_t> Obj = compileKernelToObject(*F, Dev.target());
  // Register module globals before load so relocations resolve.
  for (const auto &G : M.globals())
    gpuRegisterVar(Dev, G->getName(), G->sizeInBytes(), G->getInit());
  LoadedKernel *K = nullptr;
  std::string Err;
  if (gpuModuleLoad(Dev, &K, Obj, &Err) != GpuError::Success) {
    std::fprintf(stderr, "pirc: load failed: %s\n", Err.c_str());
    return 1;
  }

  // Marshal arguments: pointers become fresh buffers, scalars come from
  // --args in order.
  std::vector<std::string_view> Scalars =
      Opts.ArgsCsv.empty() ? std::vector<std::string_view>{}
                           : split(Opts.ArgsCsv, ',');
  size_t NextScalar = 0;
  std::vector<KernelArg> Args;
  for (size_t I = 0; I != F->getNumArgs(); ++I) {
    pir::Type *Ty = F->getArg(I)->getType();
    if (Ty->isPointer()) {
      DevicePtr P = 0;
      if (gpuMalloc(Dev, &P, Opts.BufBytes) != GpuError::Success) {
        std::fprintf(stderr, "pirc: device OOM\n");
        return 1;
      }
      Args.push_back(KernelArg{P});
      continue;
    }
    std::string V = NextScalar < Scalars.size()
                        ? std::string(Scalars[NextScalar++])
                        : "0";
    if (Ty->isFloatingPoint()) {
      double D = std::strtod(V.c_str(), nullptr);
      Args.push_back(KernelArg{Ty->isF32() ? pir::sem::boxF32(
                                                 static_cast<float>(D))
                                           : pir::sem::boxF64(D)});
    } else {
      Args.push_back(KernelArg{static_cast<uint64_t>(
          std::strtoll(V.c_str(), nullptr, 0))});
    }
  }

  if (gpuLaunchKernel(Dev, *K, Dim3{Opts.Blocks, 1, 1},
                      Dim3{Opts.Threads, 1, 1}, Args,
                      &Err) != GpuError::Success) {
    std::fprintf(stderr, "pirc: launch failed: %s\n", Err.c_str());
    return 1;
  }
  const LaunchStats &S = Dev.LastLaunch;
  std::printf("kernel %s on %s: %u x %u threads\n", F->getName().c_str(),
              Dev.target().Name.c_str(), Opts.Blocks, Opts.Threads);
  std::printf("  duration        %.9f s (simulated)\n", S.DurationSec);
  std::printf("  instructions    %llu (%.1f per thread)\n",
              static_cast<unsigned long long>(S.TotalInstrs),
              S.instPerThread());
  std::printf("  VALU / SALU     %llu / %llu\n",
              static_cast<unsigned long long>(S.VALUInsts),
              static_cast<unsigned long long>(S.SALUInsts));
  std::printf("  mem ld/st       %llu / %llu   L2 hit %.1f%%\n",
              static_cast<unsigned long long>(S.MemLoads),
              static_cast<unsigned long long>(S.MemStores),
              100.0 * S.l2HitRatio());
  std::printf("  spills ld/st    %llu / %llu   regs %u   occupancy %.1f%%\n",
              static_cast<unsigned long long>(S.SpillLoads),
              static_cast<unsigned long long>(S.SpillStores), S.RegsUsed,
              100.0 * S.Occupancy);
  return 0;
}

/// `pirc config`: every knob row of every owner, with the value the
/// environment gives it and where that value came from; `--markdown`
/// prints the README environment table's rows instead.
int cmdConfig(bool Markdown) {
  std::vector<std::string> Warnings;
  const JitConfig Jit = JitConfig::fromEnvironment(&Warnings);
  const DeviceManager::Config Devices =
      DeviceManager::configFromEnvironment(&Warnings);
  const sched::SchedConfig Sched =
      sched::SchedConfig::fromEnvironment(&Warnings);
  const trace::EnvConfig Trace = trace::EnvConfig::fromEnvironment(&Warnings);
  const std::pair<std::span<const knobs::Knob>, const void *> Owners[] = {
      {JitConfig::envKnobs(), &Jit},
      {CacheLimits::envKnobs(), &Jit.Limits},
      {DeviceManager::Config::envKnobs(), &Devices},
      {sched::SchedConfig::envKnobs(), &Sched},
      {trace::EnvConfig::envKnobs(), &Trace}};
  for (const auto &[Rows, Effective] : Owners)
    for (const knobs::Knob &K : Rows) {
      if (Markdown) {
        std::string Values;
        for (char C : knobs::expected(K))
          Values += C == '|' ? std::string("\\|") : std::string(1, C);
        std::printf("| `%s` | %s (default %s) | %s |\n", K.Name,
                    Values.c_str(), *K.Default ? K.Default : "unset", K.Doc);
        continue;
      }
      const char *Raw = knobs::rawValue(K);
      knobs::Value Parsed;
      const char *Source = !Raw                          ? "default"
                           : knobs::parse(K, Raw, Parsed) ? "environment"
                                                          : "default (invalid)";
      std::printf("%-25s %-22s %-19s %s\n", K.Name,
                  ("'" + knobs::format(K, Effective) + "'").c_str(), Source,
                  K.Owner);
    }
  if (!Markdown)
    for (const std::string &W : Warnings)
      std::fprintf(stderr, "proteus: warning: %s\n", W.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "config") == 0) {
    if (Argc == 2 || (Argc == 3 && std::strcmp(Argv[2], "--markdown") == 0))
      return cmdConfig(Argc == 3);
    return usage();
  }
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return usage();

  pir::Context Ctx;
  bool Ok = false;
  std::unique_ptr<pir::Module> M = load(Ctx, Opts.File, Ok);
  if (!Ok)
    return 1;

  if (Opts.Command == "verify") {
    pir::VerifyResult R = pir::verifyModule(*M);
    if (!R.ok()) {
      std::fprintf(stderr, "%s", R.message().c_str());
      return 1;
    }
    std::printf("%s: OK (%zu functions, %zu globals)\n", Opts.File.c_str(),
                M->functions().size(), M->globals().size());
    return 0;
  }
  if (Opts.Command == "print") {
    std::fputs(pir::printModule(*M).c_str(), stdout);
    return 0;
  }
  if (Opts.Command == "opt") {
    runO3(*M);
    std::fputs(pir::printModule(*M).c_str(), stdout);
    return 0;
  }
  if (Opts.Command == "annotate") {
    for (pir::Function *K : M->kernels()) {
      std::printf("kernel @%s:", K->getName().c_str());
      auto Recs = suggestJitAnnotations(*K);
      if (Recs.empty()) {
        std::printf(" no specialization candidates\n");
        continue;
      }
      std::printf(" annotate(\"jit\"");
      for (const ArgRecommendation &R : Recs)
        std::printf(", %u", R.ArgIndex);
      std::printf(")\n");
      for (const ArgRecommendation &R : Recs) {
        std::printf("  arg %u (%s):", R.ArgIndex,
                    K->getArg(R.ArgIndex - 1)->getName().c_str());
        for (SpecializationReason Why : R.Reasons)
          std::printf(" %s", specializationReasonName(Why));
        std::printf("\n");
      }
    }
    return 0;
  }

  pir::Function *F = selectKernel(*M, Opts);
  if (!F)
    return 1;

  if (Opts.Command == "compile" || Opts.Command == "disasm" ||
      Opts.Command == "ptx") {
    runO3(*M);
    if (Opts.Command == "ptx") {
      mcode::MachineFunction MF = selectInstructions(*F);
      std::fputs(printPtx(MF).c_str(), stdout);
      return 0;
    }
    BackendStats BS;
    mcode::MachineFunction MF =
        compileKernel(*F, getTarget(Opts.Arch), &BS);
    if (Opts.Command == "disasm") {
      std::fputs(mcode::printMachineFunction(MF).c_str(), stdout);
      return 0;
    }
    std::vector<uint8_t> Obj = writeObject(MF, Opts.Arch);
    std::printf("%s: kernel @%s for %s\n", Opts.File.c_str(),
                F->getName().c_str(), gpuArchName(Opts.Arch));
    std::printf("  object          %zu bytes\n", Obj.size());
    std::printf("  instructions    %zu in %zu blocks\n",
                MF.totalInstructions(), MF.Blocks.size());
    std::printf("  registers       %u (budget %u)   spill slots %u\n",
                MF.NumRegs, BS.RegisterBudget, MF.NumSpillSlots);
    return 0;
  }
  if (Opts.Command == "run")
    return cmdRun(*M, F, Opts);
  return usage();
}
