//===- capture_replay_test.cpp - capture/replay differential suite --------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The capture/replay determinism contract, end to end:
//
//  * artifact serialization round-trips every field and rejects truncated
//    or corrupted inputs with precise errors;
//  * PROTEUS_CAPTURE=on records exactly one self-contained artifact per
//    distinct launch shape, counted in the runtime's metrics registry
//    (capture_pressure_test covers the dedup and capture-all accounting);
//  * property suite: capture -> replay over generated random kernels
//    (tests/RandomKernel.h, >= 64 fixed seeds across both simulated
//    architectures) is byte-identical with a matching specialization hash.
//    PROTEUS_FUZZ_ITERS widens the sweep beyond the quick-mode default;
//  * replay honors a persistent cache (warm replays compile nothing) and
//    stays byte-identical under tier and analyze pipeline overrides;
//  * the capture environment knobs follow the warn-don't-coerce contract:
//    invalid values fall back to defaults and are counted as config errors.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"

#include "capture/Artifact.h"
#include "capture/Capture.h"
#include "codegen/Target.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "jit/Replay.h"
#include "support/BinaryStream.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define PROTEUS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PROTEUS_TSAN 1
#endif
#endif

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

constexpr uint32_t N = 32; // elements / threads per random kernel

/// Quick mode runs the fixed 64-seed corpus; PROTEUS_FUZZ_ITERS widens it.
unsigned fuzzIterations() {
  if (const char *E = std::getenv("PROTEUS_FUZZ_ITERS")) {
    unsigned V = static_cast<unsigned>(std::strtoul(E, nullptr, 10));
    if (V > 0)
      return V;
  }
  return 64;
}

uint64_t counterValue(const metrics::Registry &R, const std::string &Name) {
  for (const auto &[K, V] : R.counterValues())
    if (K == Name)
      return V;
  return 0;
}

/// Captures one launch of the seed's random kernel through a fully
/// capture-enabled JitRuntime and returns the recorded artifact.
std::optional<capture::CaptureArtifact>
captureRandomKernel(uint64_t Seed, GpuArch Arch, std::string *FailReason) {
  Context Ctx;
  Module M(Ctx, "capture" + std::to_string(Seed));
  buildRandomKernelInto(M, Seed);

  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  std::string Dir = fs::makeTempDirectory("proteus-capture-test");
  JitConfig JC;
  JC.UsePersistentCache = false;
  JC.Capture = true;
  JC.CaptureDir = Dir;

  std::optional<capture::CaptureArtifact> Artifact;
  {
    Device Dev(getTarget(Arch), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok()) {
      *FailReason = "load: " + LP.error();
      fs::removeAllFiles(Dir);
      return std::nullopt;
    }
    DevicePtr In = 0, Out = 0;
    gpuMalloc(Dev, &In, N * sizeof(double));
    gpuMalloc(Dev, &Out, N * sizeof(double));
    std::vector<double> Init(N);
    Rng R(Seed ^ 0x5eed);
    for (uint32_t I = 0; I != N; ++I)
      Init[I] = R.unit() * 8.0 - 4.0;
    gpuMemcpyHtoD(Dev, In, Init.data(), N * sizeof(double));
    Rng AR(Seed ^ 0xa59);
    std::vector<KernelArg> Args = {{In},
                                   {Out},
                                   {N},
                                   {sem::boxF64(AR.unit() * 3.0)},
                                   {AR.below(1000)}};
    std::string Err;
    if (LP.launch("rk", Dim3{1, 1, 1}, Dim3{N, 1, 1}, Args, &Err) !=
        GpuError::Success) {
      *FailReason = "launch: " + Err;
      fs::removeAllFiles(Dir);
      return std::nullopt;
    }
    Jit.drain();

    EXPECT_EQ(counterValue(Jit.metricsRegistry(), "capture.records"), 1u);
    EXPECT_EQ(counterValue(Jit.metricsRegistry(), "capture.artifacts"), 1u);
    EXPECT_EQ(counterValue(Jit.metricsRegistry(), "capture.drops"), 0u);
  }

  std::vector<std::string> Files = fs::listFiles(Dir);
  if (Files.size() != 1) {
    *FailReason =
        "expected one artifact, found " + std::to_string(Files.size());
    fs::removeAllFiles(Dir);
    return std::nullopt;
  }
  std::string Error;
  Artifact = capture::readArtifactFile(Dir + "/" + Files[0], &Error);
  fs::removeAllFiles(Dir);
  if (!Artifact)
    *FailReason = "read: " + Error;
  return Artifact;
}

// ---------------------------------------------------------------------------
// Artifact serialization.
// ---------------------------------------------------------------------------

capture::CaptureArtifact sampleArtifact() {
  capture::CaptureArtifact A;
  A.ModuleId = 0x1122334455667788ull;
  A.KernelSymbol = "daxpy";
  A.Arch = GpuArch::NvPtxSim;
  A.Grid = Dim3{4, 2, 1};
  A.Block = Dim3{64, 1, 1};
  A.ArgBits = {1, 2, 3, 0xffffffffffffffffull};
  A.AnnotatedArgs = {1, 4};
  A.EnableRCF = true;
  A.EnableLaunchBounds = false;
  A.TierMode = true;
  A.SpecializationHash = 0xdeadbeefcafef00dull;
  A.PipelineFingerprint = 0x0123456789abcdefull;
  A.DeviceMemoryBytes = 1 << 20;
  A.Bitcode = {9, 8, 7, 6, 5};
  A.Globals = {{"lut", 4096}, {"cfg", 8192}};
  A.Regions = {{64, {1, 2, 3, 4}, {4, 3, 2, 1}}, {256, {0}, {9}}};
  return A;
}

TEST(ArtifactFormatTest, SerializationRoundTripsEveryField) {
  capture::CaptureArtifact A = sampleArtifact();
  std::vector<uint8_t> Bytes = capture::serializeArtifact(A);

  capture::CaptureArtifact B;
  std::string Error;
  ASSERT_TRUE(capture::deserializeArtifact(Bytes, B, &Error)) << Error;
  EXPECT_EQ(B.ModuleId, A.ModuleId);
  EXPECT_EQ(B.KernelSymbol, A.KernelSymbol);
  EXPECT_EQ(B.Arch, A.Arch);
  EXPECT_EQ(B.Grid.X, A.Grid.X);
  EXPECT_EQ(B.Grid.Y, A.Grid.Y);
  EXPECT_EQ(B.Block.X, A.Block.X);
  EXPECT_EQ(B.ArgBits, A.ArgBits);
  EXPECT_EQ(B.AnnotatedArgs, A.AnnotatedArgs);
  EXPECT_EQ(B.EnableRCF, A.EnableRCF);
  EXPECT_EQ(B.EnableLaunchBounds, A.EnableLaunchBounds);
  EXPECT_EQ(B.TierMode, A.TierMode);
  EXPECT_EQ(B.SpecializationHash, A.SpecializationHash);
  EXPECT_EQ(B.PipelineFingerprint, A.PipelineFingerprint);
  EXPECT_EQ(B.DeviceMemoryBytes, A.DeviceMemoryBytes);
  EXPECT_EQ(B.Bitcode, A.Bitcode);
  ASSERT_EQ(B.Globals.size(), 2u);
  EXPECT_EQ(B.Globals[0].Symbol, "lut");
  EXPECT_EQ(B.Globals[1].Address, 8192u);
  ASSERT_EQ(B.Regions.size(), 2u);
  EXPECT_EQ(B.Regions[0].Address, 64u);
  EXPECT_EQ(B.Regions[0].PreBytes, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(B.Regions[0].PostBytes, (std::vector<uint8_t>{4, 3, 2, 1}));

  // Serialization is deterministic: same artifact, same bytes.
  EXPECT_EQ(capture::serializeArtifact(B), Bytes);
}

TEST(ArtifactFormatTest, RejectsTruncationAtEveryLength) {
  std::vector<uint8_t> Bytes = capture::serializeArtifact(sampleArtifact());
  capture::CaptureArtifact Out;
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    std::string Error;
    EXPECT_FALSE(capture::deserializeArtifact(Cut, Out, &Error))
        << "length " << Len;
    EXPECT_FALSE(Error.empty()) << "length " << Len;
  }
}

TEST(ArtifactFormatTest, RejectsCorruptionWithPreciseErrors) {
  std::vector<uint8_t> Bytes = capture::serializeArtifact(sampleArtifact());
  capture::CaptureArtifact Out;
  std::string Error;

  std::vector<uint8_t> BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(capture::deserializeArtifact(BadMagic, Out, &Error));
  EXPECT_NE(Error.find("bad magic"), std::string::npos) << Error;

  std::vector<uint8_t> BadVersion = Bytes;
  BadVersion[4] = 99;
  EXPECT_FALSE(capture::deserializeArtifact(BadVersion, Out, &Error));
  EXPECT_NE(Error.find("unsupported artifact version"), std::string::npos)
      << Error;

  // Flip one payload byte: the integrity hash must catch it.
  std::vector<uint8_t> Flipped = Bytes;
  Flipped.back() ^= 0x40;
  EXPECT_FALSE(capture::deserializeArtifact(Flipped, Out, &Error));
  EXPECT_NE(Error.find("integrity hash"), std::string::npos) << Error;

  // Trailing garbage after the framed payload is rejected too.
  std::vector<uint8_t> Padded = Bytes;
  Padded.push_back(0);
  EXPECT_FALSE(capture::deserializeArtifact(Padded, Out, &Error));
}

// ---------------------------------------------------------------------------
// End-to-end capture.
// ---------------------------------------------------------------------------

TEST(CaptureTest, RecordsOneSelfContainedArtifactPerLaunch) {
  std::string Fail;
  std::optional<capture::CaptureArtifact> A =
      captureRandomKernel(11, GpuArch::AmdGcnSim, &Fail);
  ASSERT_TRUE(A) << Fail;
  EXPECT_EQ(A->KernelSymbol, "rk");
  EXPECT_EQ(A->Arch, GpuArch::AmdGcnSim);
  EXPECT_EQ(A->ArgBits.size(), 5u);
  EXPECT_EQ(A->AnnotatedArgs, (std::vector<uint32_t>{4, 5}));
  EXPECT_EQ(A->Grid.X, 1u);
  EXPECT_EQ(A->Block.X, N);
  EXPECT_FALSE(A->Bitcode.empty());
  EXPECT_NE(A->SpecializationHash, 0u);
  EXPECT_NE(A->PipelineFingerprint, 0u);
  // Both pointer args resolve to captured regions with both-way images.
  ASSERT_EQ(A->Regions.size(), 2u);
  for (const capture::MemoryRegion &R : A->Regions) {
    EXPECT_EQ(R.PreBytes.size(), N * sizeof(double));
    EXPECT_EQ(R.PostBytes.size(), N * sizeof(double));
  }
}

// ---------------------------------------------------------------------------
// The differential property: capture -> replay is byte-identical.
// ---------------------------------------------------------------------------

TEST(CaptureReplayPropertyTest, RandomKernelsReplayByteIdentical) {
  unsigned Iters = fuzzIterations();
  for (unsigned I = 0; I != Iters; ++I) {
    uint64_t Seed = 1000 + I;
    GpuArch Arch = (I % 2) ? GpuArch::NvPtxSim : GpuArch::AmdGcnSim;
    std::string Fail;
    std::optional<capture::CaptureArtifact> A =
        captureRandomKernel(Seed, Arch, &Fail);
    ASSERT_TRUE(A) << "seed " << Seed << ": " << Fail;

    ReplayOptions Opts; // default pipeline, hermetic (no persistent cache)
    Opts.Jit.UsePersistentCache = false;
    ReplayResult R = replayArtifact(*A, Opts);
    EXPECT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    EXPECT_TRUE(R.OutputMatch)
        << "seed " << Seed << ": " << R.MismatchedRegions
        << " region(s) diverge: " << R.FirstMismatch;
    EXPECT_TRUE(R.HashMatch) << "seed " << Seed;
    if (!R.passed())
      break; // one broken seed is enough signal; keep the log short
  }
}

TEST(CaptureReplayPropertyTest, ReplayIsByteIdenticalUnderTierOverride) {
  std::string Fail;
  std::optional<capture::CaptureArtifact> A =
      captureRandomKernel(42, GpuArch::AmdGcnSim, &Fail);
  ASSERT_TRUE(A) << Fail;

  // PROTEUS_TIER=on equivalent: the Tier-0 fast path must produce the same
  // bytes as the full pipeline or the tiering design is broken.
  ReplayOptions Opts;
  Opts.Jit.UsePersistentCache = false;
  Opts.Jit.Tier = true;
  ReplayResult R = replayArtifact(*A, Opts);
  EXPECT_TRUE(R.passed()) << R.Error << R.FirstMismatch;

  // PROTEUS_ANALYZE=error: generated kernels are sanitizer-clean, so the
  // strictest launch gate must not reject the replay.
  ReplayOptions Strict;
  Strict.Jit.UsePersistentCache = false;
  Strict.Jit.Analyze = JitConfig::AnalyzeMode::Error;
  ReplayResult R2 = replayArtifact(*A, Strict);
  EXPECT_TRUE(R2.passed()) << R2.Error << R2.FirstMismatch;
}

TEST(ReplayTest, WarmReplayServesFromPersistentCache) {
  std::string Fail;
  std::optional<capture::CaptureArtifact> A =
      captureRandomKernel(77, GpuArch::NvPtxSim, &Fail);
  ASSERT_TRUE(A) << Fail;

  std::string CacheDir = fs::makeTempDirectory("proteus-replay-cache");
  ReplayOptions Opts;
  Opts.CacheDir = CacheDir;

  ReplayResult Cold = replayArtifact(*A, Opts);
  EXPECT_TRUE(Cold.passed()) << Cold.Error << Cold.FirstMismatch;
  EXPECT_GT(Cold.CompilationsUsed, 0u);

  ReplayResult Warm = replayArtifact(*A, Opts);
  EXPECT_TRUE(Warm.passed()) << Warm.Error << Warm.FirstMismatch;
  EXPECT_EQ(Warm.CompilationsUsed, 0u)
      << "warm replay must load the specialized binary from the cache";
  fs::removeAllFiles(CacheDir);
}

TEST(ReplayTest, RejectsUnrunnableArtifacts) {
  capture::CaptureArtifact A = sampleArtifact();
  A.Bitcode.clear();
  ReplayResult R = replayArtifact(A, ReplayOptions{});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no kernel bitcode"), std::string::npos) << R.Error;

  capture::CaptureArtifact B = sampleArtifact();
  B.DeviceMemoryBytes = 0;
  R = replayArtifact(B, ReplayOptions{});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("zero-sized device"), std::string::npos) << R.Error;

  // The recorded device size is outside bytes: replay must not hand an
  // arbitrary size to the allocator. 2^40 and one byte over the cap are
  // both refused before any device is built, and so is a decode of either.
  for (uint64_t Bytes :
       {uint64_t(1) << 40, capture::MaxDeviceMemoryBytes + 1}) {
    capture::CaptureArtifact D = sampleArtifact();
    D.DeviceMemoryBytes = Bytes;
    R = replayArtifact(D, ReplayOptions{});
    EXPECT_FALSE(R.Ok) << Bytes;
    EXPECT_NE(R.Error.find(std::to_string(Bytes) + "-byte device, over the " +
                           std::to_string(capture::MaxDeviceMemoryBytes) +
                           "-byte cap"),
              std::string::npos)
        << R.Error;

    capture::CaptureArtifact Out;
    std::string Error;
    EXPECT_FALSE(capture::deserializeArtifact(capture::serializeArtifact(D),
                                              Out, &Error))
        << Bytes;
    EXPECT_NE(Error.find("-byte cap"), std::string::npos) << Error;
  }

  capture::CaptureArtifact C = sampleArtifact();
  C.Regions[0].PostBytes.push_back(0); // pre/post images must pair up
  R = replayArtifact(C, ReplayOptions{});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("mismatched pre/post"), std::string::npos)
      << R.Error;
}

TEST(ReplayTest, CorpusMutationSweep) {
  // Every decodable mutant of every checked-in artifact replays to a result
  // or a clean error. Each mutant is re-framed with a correct header hash,
  // so the damage reaches the payload decoder, the bitcode reader and the
  // JIT pipeline instead of stopping at the integrity check. Whether a
  // mutant's replay succeeds or matches its recorded output does not
  // matter; under ASan+UBSan (tools/ci_asan.sh) it must not report.
  constexpr unsigned MutantsPerArtifact = 48;
  constexpr size_t HeaderBytes = 24; // magic, version, size, hash
  std::mt19937_64 Rng(0x9ca9);
  std::vector<std::string> Files = fs::listFiles(PROTEUS_CORPUS_DIR);
  std::sort(Files.begin(), Files.end()); // the Rng stream follows file order
  unsigned Artifacts = 0, Rejected = 0, Replayed = 0;
  for (const std::string &File : Files) {
    if (File.size() < 5 || File.substr(File.size() - 5) != ".pcap")
      continue;
    std::optional<std::vector<uint8_t>> Bytes =
        fs::readFile(std::string(PROTEUS_CORPUS_DIR) + "/" + File);
    ASSERT_TRUE(Bytes && Bytes->size() > HeaderBytes) << File;
    capture::CaptureArtifact Original;
    ASSERT_TRUE(capture::deserializeArtifact(*Bytes, Original)) << File;
    ++Artifacts;
    for (unsigned I = 0; I != MutantsPerArtifact; ++I) {
      std::vector<uint8_t> Payload(Bytes->begin() + HeaderBytes,
                                   Bytes->end());
      unsigned Flips = 1 + static_cast<unsigned>(Rng() % 4);
      for (unsigned F = 0; F != Flips; ++F) {
        uint8_t Mask = static_cast<uint8_t>(1 + Rng() % 255);
        Payload[Rng() % Payload.size()] ^= Mask;
      }
      ByteWriter W;
      for (char C : std::string("PCAP"))
        W.writeU8(static_cast<uint8_t>(C));
      W.writeU32(capture::ArtifactVersion);
      W.writeU64(Payload.size());
      W.writeU64(hashBytes(Payload.data(), Payload.size()));
      std::vector<uint8_t> Framed = W.take();
      Framed.insert(Framed.end(), Payload.begin(), Payload.end());

      capture::CaptureArtifact A;
      std::string Error;
      if (!capture::deserializeArtifact(Framed, A, &Error)) {
        EXPECT_FALSE(Error.empty()) << File << " mutant " << I;
        ++Rejected;
        continue;
      }
#if PROTEUS_TSAN
      // TSan's calloc zeroes eagerly, so a mutant recording a multi-GiB
      // device would commit all of it; the size path has its own cases.
      if (A.DeviceMemoryBytes > Original.DeviceMemoryBytes)
        continue;
#endif
      ReplayOptions Opts;
      Opts.Jit.UsePersistentCache = false;
      // One block bounds the work: a mutated geometry can name billions
      // of threads, and the corpus kernels run tens of milliseconds each.
      // A block larger than the recorded one falls back to the recorded.
      Opts.OverrideGeometry = true;
      Opts.Block = A.Block.count() <= Original.Block.count() ? A.Block
                                                             : Original.Block;
      ReplayResult R = replayArtifact(A, Opts);
      EXPECT_TRUE(R.Ok || !R.Error.empty()) << File << " mutant " << I;
      ++Replayed;
    }
  }
  EXPECT_GE(Artifacts, 12u);
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Replayed, 0u);
}

// ---------------------------------------------------------------------------
// Environment validation: warn, don't coerce.
// ---------------------------------------------------------------------------

TEST(CaptureEnvTest, ParsesValidSettings) {
  setenv("PROTEUS_CAPTURE", "on", 1);
  setenv("PROTEUS_CAPTURE_DIR", "/tmp/proteus-env-captures", 1);
  setenv("PROTEUS_CAPTURE_RING", "128", 1);
  setenv("PROTEUS_CAPTURE_DEDUP", "off", 1);
  JitConfig C = JitConfig::fromEnvironment();
  EXPECT_TRUE(C.Capture);
  EXPECT_EQ(C.CaptureDir, "/tmp/proteus-env-captures");
  EXPECT_EQ(C.CaptureRing, 128u);
  EXPECT_FALSE(C.CaptureDedup);

  setenv("PROTEUS_CAPTURE", "off", 1);
  setenv("PROTEUS_CAPTURE_DEDUP", "on", 1);
  C = JitConfig::fromEnvironment();
  EXPECT_FALSE(C.Capture);
  EXPECT_TRUE(C.CaptureDedup);

  unsetenv("PROTEUS_CAPTURE");
  unsetenv("PROTEUS_CAPTURE_DIR");
  unsetenv("PROTEUS_CAPTURE_RING");
  unsetenv("PROTEUS_CAPTURE_DEDUP");
}

TEST(CaptureEnvTest, InvalidValuesWarnAndKeepDefaults) {
  metrics::Counter &Errors =
      metrics::processRegistry().counter("config.errors");

  uint64_t Before = Errors.value();
  setenv("PROTEUS_CAPTURE", "banana", 1);
  setenv("PROTEUS_CAPTURE_RING", "0", 1);
  JitConfig C = JitConfig::fromEnvironment();
  EXPECT_FALSE(C.Capture) << "invalid PROTEUS_CAPTURE must keep the default";
  EXPECT_EQ(C.CaptureRing, 64u)
      << "out-of-range PROTEUS_CAPTURE_RING must keep the default";
  EXPECT_GE(Errors.value(), Before + 2)
      << "each rejected setting counts as a config error";

  setenv("PROTEUS_CAPTURE_RING", "notanumber", 1);
  EXPECT_EQ(JitConfig::fromEnvironment().CaptureRing, 64u);
  setenv("PROTEUS_CAPTURE_RING", "70000", 1); // above the sanity ceiling
  EXPECT_EQ(JitConfig::fromEnvironment().CaptureRing, 64u);

  setenv("PROTEUS_CAPTURE_DIR", "", 1);
  EXPECT_EQ(JitConfig::fromEnvironment().CaptureDir, "proteus-captures");

  setenv("PROTEUS_CAPTURE_DEDUP", "sometimes", 1);
  EXPECT_TRUE(JitConfig::fromEnvironment().CaptureDedup)
      << "invalid PROTEUS_CAPTURE_DEDUP must keep the default";

  unsetenv("PROTEUS_CAPTURE");
  unsetenv("PROTEUS_CAPTURE_DIR");
  unsetenv("PROTEUS_CAPTURE_RING");
  unsetenv("PROTEUS_CAPTURE_DEDUP");
}

} // namespace
