//===- Programs.h - program images, checks and the stage repeat -*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces the workloads share on top of the harness: the six HeCBench-sim
/// programs built and AOT-compiled for both arches (the set-up step), launch
/// argument resolution, the reference-interpreter check, the runtime
/// telemetry probe of the traced run, and the traced run's stage-by-stage
/// repeat of a specialization's compile.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "Harness.h"

#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "jit/CodeCache.h"
#include "jit/Program.h"

#include <memory>

namespace perfbench {

constexpr proteus::GpuArch Arches[2] = {proteus::GpuArch::AmdGcnSim,
                                        proteus::GpuArch::NvPtxSim};

inline int archIndex(proteus::GpuArch A) { return static_cast<int>(A); }

/// One HeCBench-sim program, built and AOT-compiled for both arches.
struct Program {
  std::unique_ptr<proteus::hecbench::Benchmark> B;
  std::unique_ptr<pir::Context> Ctx;
  std::unique_ptr<pir::Module> M;
  std::vector<proteus::hecbench::BufferSpec> Buffers;
  std::vector<proteus::hecbench::LaunchSpec> Launches;
  proteus::CompiledProgram Aot[2]; ///< plain AOT image, per arch
  proteus::CompiledProgram Jit[2]; ///< image with the Proteus extensions
};

/// Builds every program's module, its inputs and its four AOT images. This
/// is the set-up work of every workload.
std::vector<Program> buildPrograms();

/// True when two builds produced identical images (AOT determinism).
bool sameImages(const std::vector<Program> &A, const std::vector<Program> &B);

using BufferMap = std::map<std::string, proteus::gpu::DevicePtr>;

/// Allocates and uploads \p P's buffers on \p Dev, adding the simulated
/// transfer time to \p SimTransfer. Returns false on device OOM.
bool uploadBuffers(const Program &P, proteus::gpu::Device &Dev,
                   BufferMap &Out, double *SimTransfer);

/// Device bytes that hold every program's buffers and images on one device.
uint64_t sharedDeviceBytes(const std::vector<Program> &Progs);

/// Resolves buffer arguments of \p L against \p Buffers.
std::vector<proteus::gpu::KernelArg>
resolveArgs(const std::vector<proteus::hecbench::ArgSpec> &Args,
            const BufferMap &Buffers);

/// The specialization key the runtime builds for this launch under
/// benchJitConfig (RCF and launch bounds on).
proteus::SpecializationKey
specializationKey(const proteus::CompiledProgram &Prog,
                  const std::string &Symbol, proteus::GpuArch Arch,
                  proteus::gpu::Dim3 Block,
                  const std::vector<proteus::gpu::KernelArg> &Args);

/// Runs \p Symbol of the source module on the reference interpreter over
/// \p Memory with the launch geometry. Returns an error message or "".
std::string interpret(const Program &P, const std::string &Symbol,
                      proteus::gpu::Dim3 Grid, proteus::gpu::Dim3 Block,
                      const std::vector<proteus::gpu::KernelArg> &Args,
                      std::vector<uint8_t> &Memory);

/// True when \p Dev holds the same bytes as \p Image in every buffer of
/// \p Buffers.
bool buffersEqual(const Program &P, const BufferMap &Buffers,
                  const proteus::gpu::Device &Dev,
                  const std::vector<uint8_t> &Image);

/// Copies \p P's buffers from \p Dev into \p Image.
void syncBuffers(const Program &P, const BufferMap &Buffers,
                 const proteus::gpu::Device &Dev, std::vector<uint8_t> &Image);

/// Reads the runtime's own telemetry around one launch (traced run only).
struct JitProbe {
  uint64_t Compiles = 0;
  uint64_t DiskHits = 0;

  static JitProbe read(proteus::JitRuntime &Rt);
};

/// Classifies one traced Proteus launch (compiled, served from disk, or hot)
/// from the probes around it.
void classifyLaunch(const JitProbe &Before, const JitProbe &After,
                    double HostSec, RunTotals &T);

/// Estimated executor host seconds of a Proteus launch: its executed
/// instructions at the host cost per instruction measured on the AOT launch
/// of the same kernel and arguments.
double estimatedExecSeconds(const LaunchSample &Proteus,
                            const LaunchSample &Aot);

/// Adds one runtime's final counters to \p T and returns its host JIT
/// seconds.
double addRuntimeCounters(proteus::JitRuntime &Rt, RunTotals &T);

/// Scratch state of the traced run's stage-by-stage repeat.
class StageRepeat {
public:
  explicit StageRepeat(const std::string &Dir);

  /// Repeats the compile of one specialization through the public entry
  /// points, one span per stage, then publishes, looks up and loads the
  /// object. \p LinkDev resolves device globals as the runtime did.
  /// Fails when the object differs from \p Expected, the bytes the runtime
  /// cached for the same key.
  std::string compile(const Program &P, proteus::GpuArch Arch,
                      const std::string &Symbol,
                      const proteus::SpecializationKey &Key,
                      proteus::gpu::Device &LinkDev,
                      const std::vector<uint8_t> &Expected, RunTotals &T);

  /// Repeats a persistent-cache hit: lookup of \p Hash in \p Dir, then a
  /// module load.
  std::string diskHit(const std::string &Dir, uint64_t Hash,
                      proteus::GpuArch Arch);

private:
  proteus::CodeCache Publish; ///< persistent level only
  std::unique_ptr<proteus::gpu::Device> LoadDev[2];
};

/// Object bytes cached under \p Hash in \p Dir, read without touching any
/// runtime's counters; empty when absent.
std::vector<uint8_t> cachedObject(const std::string &Dir, uint64_t Hash);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
