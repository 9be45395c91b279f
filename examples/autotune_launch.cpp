//===- autotune_launch.cpp - launch auto-tuning example -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The paper's section 6 outlook ("exploring runtime optimizations like
// kernel scheduling and auto-tuning") running on the reproduction: the
// RSBENCH lookup kernel is launch-bounds-sensitive (register pressure), so
// the best block size is not obvious. The program launches xs_lookup once
// with capture on, then hands the recorded launch to the VariantManager,
// which races competing variants — block sizes (each a distinct
// launch-bounds specialization) and pipeline presets — on replays of the
// captured launch. Trials never touch the live device, and each one's
// output is checked against the recorded result. The fastest correct
// variant is hot-swapped onto the device and its decision persisted, so
// the winning shape then launches with zero further compiles. See
// bench/autotune_speedup and DESIGN.md section 2h.
//
// Build and run:   ./examples/autotune_launch
//
//===----------------------------------------------------------------------===//

#include "capture/Artifact.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "ir/Module.h"
#include "jit/AutoTuner.h"
#include "support/FileSystem.h"

#include <cstdio>

using namespace proteus;
using namespace proteus::gpu;

static int run(const JitConfig &JC) {
  // Reuse the RSBENCH module: one annotated kernel with a wide accumulator
  // band whose spill behaviour depends on launch bounds.
  auto Bench = hecbench::makeRsbenchBenchmark();
  pir::Context Ctx;
  auto M = Bench->buildModule(Ctx);

  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  Device Dev(getAmdGcnSimTarget(), 1 << 24);
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  if (!LP.ok()) {
    std::fprintf(stderr, "load failed: %s\n", LP.error().c_str());
    return 1;
  }

  constexpr uint32_t Lookups = 1024;
  DevicePtr Energies = 0, Poles = 0, Xs = 0;
  gpuMalloc(Dev, &Energies, Lookups * 8);
  gpuMalloc(Dev, &Poles, 5 * 16 * 2 * 8);
  gpuMalloc(Dev, &Xs, Lookups * 4 * 8);
  std::vector<double> H(Lookups);
  for (uint32_t I = 0; I != Lookups; ++I)
    H[I] = 0.1 + 0.02 * I;
  gpuMemcpyHtoD(Dev, Energies, H.data(), Lookups * 8);

  std::vector<KernelArg> Args = {
      {Energies}, {Poles}, {Xs},
      {Lookups},  {5},     {16},
      {pir::sem::boxF64(0.25)}};

  // One captured launch at the program's own geometry.
  std::string Err;
  if (LP.launch("xs_lookup", Dim3{Lookups / 128, 1, 1}, Dim3{128, 1, 1},
                Args, &Err) != GpuError::Success) {
    std::fprintf(stderr, "launch failed: %s\n", Err.c_str());
    return 1;
  }
  Jit.drain(); // the capture is on disk
  std::vector<std::string> Files = fs::listFiles(JC.CaptureDir);
  std::optional<capture::CaptureArtifact> A;
  if (Files.size() == 1)
    A = capture::readArtifactFile(JC.CaptureDir + "/" + Files[0], &Err);
  if (!A) {
    std::fprintf(stderr, "no capture artifact: %s\n", Err.c_str());
    return 1;
  }

  VariantManager VM(Jit, VariantManager::Options::fromConfig(JC));
  VariantTuningResult R = VM.tuneArtifact(*A);
  if (!R.Ok) {
    std::fprintf(stderr, "tuning failed: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("auto-tuning xs_lookup over %u work items on %s "
              "(replayed trials):\n\n",
              Lookups, Dev.target().Name.c_str());
  std::printf("  %-14s %-14s %-14s %s\n", "variant", "threads/block",
              "kernel (s)", "output");
  for (const VariantTrial &T : R.Trials)
    std::printf("  %-14s %-14llu %-14.9f %s%s\n", T.Spec.Name.c_str(),
                static_cast<unsigned long long>(T.Spec.Block.count()),
                T.KernelSeconds, T.OutputMatch ? "match" : "MISMATCH",
                T.Spec.Name == R.Winner.Name ? "  <== winner" : "");

  // The winner is installed: its shape launches with zero compiles.
  const uint64_t Compiles = Jit.stats().Compilations;
  if (LP.launch("xs_lookup", R.Winner.Grid, R.Winner.Block, Args, &Err) !=
      GpuError::Success) {
    std::fprintf(stderr, "winner launch failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("\nwinner '%s' (%.2fx over the recorded default) is "
              "installed: launching it compiled %llu more kernel(s).\n",
              R.Winner.Name.c_str(),
              R.WinnerSeconds > 0 ? R.BaselineSeconds / R.WinnerSeconds
                                  : 0.0,
              static_cast<unsigned long long>(Jit.stats().Compilations -
                                              Compiles));
  return Jit.stats().Compilations == Compiles ? 0 : 1;
}

int main() {
  JitConfig JC;
  JC.CacheDir = fs::makeTempDirectory("proteus-autotune");
  JC.Capture = true;
  JC.CaptureDir = fs::makeTempDirectory("proteus-autotune-cap");
  JC.Tune = true;
  int Status = run(JC);
  fs::removeAllFiles(JC.CacheDir);
  fs::removeAllFiles(JC.CaptureDir);
  return Status;
}
