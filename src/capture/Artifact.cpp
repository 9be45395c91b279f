//===- Artifact.cpp - self-contained kernel launch artifacts --------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "capture/Artifact.h"

#include "support/BinaryStream.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"

namespace proteus {
namespace capture {

namespace {

constexpr uint8_t Magic[4] = {'P', 'C', 'A', 'P'};

void writeDim3(ByteWriter &W, const gpu::Dim3 &D) {
  W.writeU32(D.X);
  W.writeU32(D.Y);
  W.writeU32(D.Z);
}

gpu::Dim3 readDim3(ByteReader &R) {
  gpu::Dim3 D;
  D.X = R.readU32();
  D.Y = R.readU32();
  D.Z = R.readU32();
  return D;
}

std::vector<uint8_t> serializePayload(const CaptureArtifact &A) {
  ByteWriter W;
  W.writeU64(A.ModuleId);
  W.writeString(A.KernelSymbol);
  W.writeU8(static_cast<uint8_t>(A.Arch));
  writeDim3(W, A.Grid);
  writeDim3(W, A.Block);
  W.writeU32(static_cast<uint32_t>(A.ArgBits.size()));
  for (uint64_t Bits : A.ArgBits)
    W.writeU64(Bits);
  W.writeU32(static_cast<uint32_t>(A.AnnotatedArgs.size()));
  for (uint32_t Idx : A.AnnotatedArgs)
    W.writeU32(Idx);
  W.writeU8(A.EnableRCF ? 1 : 0);
  W.writeU8(A.EnableLaunchBounds ? 1 : 0);
  W.writeU8(A.TierMode ? 1 : 0);
  W.writeU64(A.SpecializationHash);
  W.writeU64(A.PipelineFingerprint);
  W.writeU64(A.DeviceMemoryBytes);
  W.writeBytes(A.Bitcode);
  W.writeU32(static_cast<uint32_t>(A.Globals.size()));
  for (const GlobalBinding &G : A.Globals) {
    W.writeString(G.Symbol);
    W.writeU64(G.Address);
  }
  W.writeU32(static_cast<uint32_t>(A.Regions.size()));
  for (const MemoryRegion &R : A.Regions) {
    W.writeU64(R.Address);
    W.writeBytes(R.PreBytes);
    W.writeBytes(R.PostBytes);
  }
  return W.take();
}

bool deserializePayload(const std::vector<uint8_t> &Payload,
                        CaptureArtifact &Out, std::string *Error) {
  ByteReader R(Payload);
  Out.ModuleId = R.readU64();
  Out.KernelSymbol = R.readString();
  uint8_t ArchByte = R.readU8();
  if (ArchByte > static_cast<uint8_t>(GpuArch::NvPtxSim)) {
    if (Error)
      *Error = "unknown target architecture tag";
    return false;
  }
  Out.Arch = static_cast<GpuArch>(ArchByte);
  Out.Grid = readDim3(R);
  Out.Block = readDim3(R);
  uint32_t NumArgs = R.readU32();
  Out.ArgBits.clear();
  for (uint32_t I = 0; I < NumArgs && R.ok(); ++I)
    Out.ArgBits.push_back(R.readU64());
  uint32_t NumAnnotated = R.readU32();
  Out.AnnotatedArgs.clear();
  for (uint32_t I = 0; I < NumAnnotated && R.ok(); ++I)
    Out.AnnotatedArgs.push_back(R.readU32());
  Out.EnableRCF = R.readU8() != 0;
  Out.EnableLaunchBounds = R.readU8() != 0;
  Out.TierMode = R.readU8() != 0;
  Out.SpecializationHash = R.readU64();
  Out.PipelineFingerprint = R.readU64();
  Out.DeviceMemoryBytes = R.readU64();
  if (R.ok()) {
    std::string SizeError = deviceMemoryBytesError(Out.DeviceMemoryBytes);
    if (!SizeError.empty()) {
      if (Error)
        *Error = std::move(SizeError);
      return false;
    }
  }
  Out.Bitcode = R.readBytes();
  uint32_t NumGlobals = R.readU32();
  Out.Globals.clear();
  for (uint32_t I = 0; I < NumGlobals && R.ok(); ++I) {
    GlobalBinding G;
    G.Symbol = R.readString();
    G.Address = R.readU64();
    Out.Globals.push_back(std::move(G));
  }
  uint32_t NumRegions = R.readU32();
  Out.Regions.clear();
  for (uint32_t I = 0; I < NumRegions && R.ok(); ++I) {
    MemoryRegion M;
    M.Address = R.readU64();
    M.PreBytes = R.readBytes();
    M.PostBytes = R.readBytes();
    Out.Regions.push_back(std::move(M));
  }
  if (!R.ok() || R.remaining() != 0) {
    if (Error)
      *Error = "truncated or malformed artifact payload";
    return false;
  }
  return true;
}

} // namespace

std::string deviceMemoryBytesError(uint64_t Bytes) {
  if (Bytes == 0)
    return "artifact records a zero-sized device";
  if (Bytes > MaxDeviceMemoryBytes)
    return "artifact records a " + std::to_string(Bytes) +
           "-byte device, over the " + std::to_string(MaxDeviceMemoryBytes) +
           "-byte cap";
  return std::string();
}

std::vector<uint8_t> serializeArtifact(const CaptureArtifact &A) {
  std::vector<uint8_t> Payload = serializePayload(A);
  ByteWriter W;
  for (uint8_t B : Magic)
    W.writeU8(B);
  W.writeU32(ArtifactVersion);
  W.writeU64(Payload.size());
  W.writeU64(hashBytes(Payload.data(), Payload.size()));
  std::vector<uint8_t> Bytes = W.take();
  Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());
  return Bytes;
}

bool deserializeArtifact(const std::vector<uint8_t> &Bytes,
                         CaptureArtifact &Out, std::string *Error) {
  ByteReader R(Bytes);
  for (uint8_t B : Magic) {
    if (R.readU8() != B) {
      if (Error)
        *Error = "not a capture artifact (bad magic)";
      return false;
    }
  }
  uint32_t Version = R.readU32();
  if (!R.ok()) {
    if (Error)
      *Error = "truncated artifact header";
    return false;
  }
  if (Version != ArtifactVersion) {
    if (Error)
      *Error = "unsupported artifact version " + std::to_string(Version);
    return false;
  }
  uint64_t PayloadSize = R.readU64();
  uint64_t PayloadHash = R.readU64();
  if (!R.ok() || R.remaining() != PayloadSize) {
    if (Error)
      *Error = "artifact payload size mismatch";
    return false;
  }
  std::vector<uint8_t> Payload(Bytes.end() - static_cast<long>(PayloadSize),
                               Bytes.end());
  if (hashBytes(Payload.data(), Payload.size()) != PayloadHash) {
    if (Error)
      *Error = "artifact integrity hash mismatch";
    return false;
  }
  return deserializePayload(Payload, Out, Error);
}

std::optional<CaptureArtifact> readArtifactFile(const std::string &Path,
                                                std::string *Error) {
  auto Bytes = fs::readFile(Path);
  if (!Bytes) {
    if (Error)
      *Error = "cannot read '" + Path + "'";
    return std::nullopt;
  }
  CaptureArtifact A;
  if (!deserializeArtifact(*Bytes, A, Error))
    return std::nullopt;
  return A;
}

uint64_t writeArtifactFile(const std::string &Path, const CaptureArtifact &A) {
  std::vector<uint8_t> Bytes = serializeArtifact(A);
  if (!fs::writeFileAtomic(Path, Bytes))
    return 0;
  return Bytes.size();
}

std::string artifactFileName(const std::string &KernelSymbol,
                             uint64_t SpecializationHash, uint64_t Sequence) {
  return "capture-" + KernelSymbol + "-" + hashToHex(SpecializationHash) +
         "-" + std::to_string(Sequence) + ".pcap";
}

} // namespace capture
} // namespace proteus
