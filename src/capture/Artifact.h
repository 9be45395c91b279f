//===- Artifact.h - self-contained kernel launch artifacts ------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The capture artifact (.pcap): everything needed to re-JIT and re-execute
/// one kernel launch in isolation — the kernel's pruned bitcode, the runtime
/// argument values, snapshots of the device-memory regions the launch may
/// read and write (pre- and post-launch bytes of the same region set), the
/// launch geometry, the target architecture, the specialization knobs that
/// fed the specialization hash, and the JIT pipeline fingerprint as
/// provenance metadata.
///
/// The on-disk format is framed like the persistent code cache: a magic +
/// version header followed by a payload size and an FNV-1a integrity hash,
/// so a truncated or corrupted file is rejected as unreadable instead of
/// replaying garbage. Serialization contains no timestamps or absolute
/// paths — the same capture produces byte-identical artifacts across runs,
/// which is what makes a checked-in regression corpus diffable.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_CAPTURE_ARTIFACT_H
#define PROTEUS_CAPTURE_ARTIFACT_H

#include "codegen/Target.h"
#include "gpu/Executor.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace proteus {
namespace capture {

/// One contiguous device allocation touched by the launch: its contents
/// immediately before the launch (the input image replay restores) and
/// immediately after (the output image replay diffs against).
struct MemoryRegion {
  uint64_t Address = 0;
  std::vector<uint8_t> PreBytes;
  std::vector<uint8_t> PostBytes;
};

/// A device global the kernel's call closure references, pinned to the
/// address it had at capture time so replay can relink identically.
struct GlobalBinding {
  std::string Symbol;
  uint64_t Address = 0;
};

/// Everything recorded about one launch.
struct CaptureArtifact {
  uint64_t ModuleId = 0;
  std::string KernelSymbol;
  GpuArch Arch = GpuArch::AmdGcnSim;
  gpu::Dim3 Grid;
  gpu::Dim3 Block;
  /// Raw 64-bit payload of every launch argument, in order.
  std::vector<uint64_t> ArgBits;
  /// The kernel's jit-annotated argument indices (1-based, as registered).
  std::vector<uint32_t> AnnotatedArgs;
  /// Specialization knobs in effect at capture time; replay forces these
  /// (they are inputs of the specialization hash).
  bool EnableRCF = true;
  bool EnableLaunchBounds = true;
  /// Whether tiered compilation was on at capture time (provenance only).
  bool TierMode = false;
  /// The specialization hash the capturing runtime computed — replay must
  /// arrive at the identical value.
  uint64_t SpecializationHash = 0;
  /// jitPipelineFingerprint of the capturing runtime's final-tier pipeline
  /// (provenance; a replay under a newer pipeline still must reproduce the
  /// same functional output).
  uint64_t PipelineFingerprint = 0;
  /// Size of the captured device's memory, so replay can rebuild a device
  /// with the identical address space.
  uint64_t DeviceMemoryBytes = 0;
  /// The kernel's pruned module bitcode (reachable call closure only).
  std::vector<uint8_t> Bitcode;
  std::vector<GlobalBinding> Globals;
  /// Sorted by Address (deterministic serialization order).
  std::vector<MemoryRegion> Regions;
};

/// Current artifact format version (bump on layout changes).
constexpr uint32_t ArtifactVersion = 1;

/// Largest device an artifact may record: 16x the largest in-tree device
/// (256 MiB). Replay rebuilds a device of the recorded size, so without a
/// cap a hostile artifact could ask the host for any allocation.
constexpr uint64_t MaxDeviceMemoryBytes = 4ull << 30;

/// Empty when \p Bytes is a device size replay can rebuild (non-zero, at
/// most MaxDeviceMemoryBytes); otherwise the reason it is not.
std::string deviceMemoryBytesError(uint64_t Bytes);

/// Serializes \p A into the framed on-disk byte format.
std::vector<uint8_t> serializeArtifact(const CaptureArtifact &A);

/// Parses a framed artifact. Returns false (with \p Error set) on a bad
/// magic, version mismatch, size mismatch, integrity-hash mismatch, or a
/// truncated payload — never undefined behavior on corrupt input.
bool deserializeArtifact(const std::vector<uint8_t> &Bytes,
                         CaptureArtifact &Out, std::string *Error = nullptr);

/// Reads and validates the artifact file at \p Path.
std::optional<CaptureArtifact> readArtifactFile(const std::string &Path,
                                                std::string *Error = nullptr);

/// Writes \p A to \p Path via write-to-temp + atomic-rename, so a crash or
/// shed mid-write can never leave a partial artifact behind. Returns the
/// number of bytes written, or 0 on IO failure.
uint64_t writeArtifactFile(const std::string &Path, const CaptureArtifact &A);

/// Deterministic artifact file name:
/// "capture-<symbol>-<hash hex>-<seq>.pcap".
std::string artifactFileName(const std::string &KernelSymbol,
                             uint64_t SpecializationHash, uint64_t Sequence);

} // namespace capture
} // namespace proteus

#endif // PROTEUS_CAPTURE_ARTIFACT_H
