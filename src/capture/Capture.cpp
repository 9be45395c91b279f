//===- Capture.cpp - bounded launch-capture ring --------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "capture/Capture.h"

#include "bitcode/Bitcode.h"
#include "bitcode/ModuleIndex.h"
#include "gpu/Device.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace proteus;
using namespace proteus::capture;

CaptureSession::CaptureSession(std::string Dir, unsigned RingCapacity,
                               metrics::Registry &Metrics)
    : Dir(std::move(Dir)), Capacity(std::max(1u, RingCapacity)),
      Metrics(Metrics) {
  DirOk = fs::createDirectories(this->Dir);
  Writer = std::thread([this] { writerMain(); });
}

CaptureSession::~CaptureSession() {
  {
    std::lock_guard<std::mutex> G(Mutex);
    Paused = false;
    Shutdown = true;
  }
  WriterCV.notify_all();
  if (Writer.joinable())
    Writer.join();
}

bool CaptureSession::tryReserve(uint64_t DedupKey) {
  bool Duplicate = false;
  {
    std::lock_guard<std::mutex> G(Mutex);
    if (DirOk && !Shutdown) {
      // Dedup check comes after the health checks (an unusable session
      // counts drops, never dedups) but before the capacity check: a shape
      // that is already on disk is a duplicate whether or not the ring
      // happens to be full right now.
      if (DedupKey != 0 && SeenShapes.count(DedupKey))
        Duplicate = true;
      else if (Reserved < Capacity) {
        ++Reserved;
        if (DedupKey != 0)
          SeenShapes.insert(DedupKey);
        return true;
      }
    }
  }
  Metrics.counter(Duplicate ? "capture.dedup" : "capture.drops").add();
  return false;
}

void CaptureSession::release(uint64_t DedupKey) {
  {
    std::lock_guard<std::mutex> G(Mutex);
    if (Reserved > 0)
      --Reserved;
    if (DedupKey != 0)
      SeenShapes.erase(DedupKey);
  }
  Metrics.counter("capture.skips").add();
  DrainCV.notify_all();
}

void CaptureSession::submit(PendingRecord Record) {
  {
    std::lock_guard<std::mutex> G(Mutex);
    Record.Sequence = NextSequence++;
    Queue.push_back(std::move(Record));
  }
  Metrics.counter("capture.records").add();
  WriterCV.notify_one();
}

void CaptureSession::flush() {
  std::unique_lock<std::mutex> L(Mutex);
  DrainCV.wait(L, [this] { return Reserved == 0; });
}

void CaptureSession::pauseWriterForTest(bool NewPaused) {
  {
    std::lock_guard<std::mutex> G(Mutex);
    Paused = NewPaused;
  }
  WriterCV.notify_all();
}

void CaptureSession::writerMain() {
  for (;;) {
    PendingRecord Record;
    {
      std::unique_lock<std::mutex> L(Mutex);
      WriterCV.wait(L, [this] {
        return Shutdown || (!Paused && !Queue.empty());
      });
      if (Queue.empty()) {
        if (Shutdown)
          return;
        continue;
      }
      Record = std::move(Queue.front());
      Queue.pop_front();
    }
    persist(Record);
    {
      std::lock_guard<std::mutex> G(Mutex);
      if (Reserved > 0)
        --Reserved;
    }
    DrainCV.notify_all();
  }
}

void CaptureSession::persist(PendingRecord &Record) {
  CaptureArtifact &A = Record.Artifact;
  if (A.Bitcode.empty() && Record.Index) {
    auto Key = std::make_pair(static_cast<const void *>(Record.Index.get()),
                              A.KernelSymbol);
    auto It = BitcodeMemo.find(Key);
    if (It == BitcodeMemo.end()) {
      pir::Context Ctx;
      std::unique_ptr<pir::Module> Pruned =
          Record.Index->materialize(Ctx, A.KernelSymbol, nullptr);
      std::vector<uint8_t> Bitcode;
      if (Pruned)
        Bitcode = writeBitcode(*Pruned);
      It = BitcodeMemo.emplace(std::move(Key), std::move(Bitcode)).first;
    }
    A.Bitcode = It->second;
  }
  if (A.Bitcode.empty()) {
    Metrics.counter("capture.write_failures").add();
    return;
  }
  std::string Path =
      Dir + "/" +
      artifactFileName(A.KernelSymbol, A.SpecializationHash, Record.Sequence);
  uint64_t Bytes = writeArtifactFile(Path, A);
  if (Bytes == 0) {
    Metrics.counter("capture.write_failures").add();
    return;
  }
  Metrics.counter("capture.artifacts").add();
  Metrics.counter("capture.bytes").add(Bytes);
}

std::vector<MemoryRegion>
proteus::capture::snapshotRegions(const gpu::Device &Dev,
                                  const std::vector<uint64_t> &Candidates) {
  // Dedup candidate addresses into (base, size) allocations via an ordered
  // map so the region list is sorted and deterministic.
  std::map<uint64_t, uint64_t> Found;
  for (uint64_t P : Candidates) {
    uint64_t Base = 0, Size = 0;
    if (Dev.findAllocation(P, &Base, &Size))
      Found[Base] = Size;
  }
  const gpu::DeviceMemory &Mem = Dev.memory();
  std::vector<MemoryRegion> Regions;
  Regions.reserve(Found.size());
  for (const auto &BaseSize : Found) {
    MemoryRegion R;
    R.Address = BaseSize.first;
    R.PreBytes.resize(BaseSize.second);
    std::memcpy(R.PreBytes.data(), Mem.data() + BaseSize.first,
                BaseSize.second);
    Regions.push_back(std::move(R));
  }
  return Regions;
}

void proteus::capture::fillPostBytes(const gpu::Device &Dev,
                                     std::vector<MemoryRegion> &Regions) {
  const gpu::DeviceMemory &Mem = Dev.memory();
  for (MemoryRegion &R : Regions) {
    R.PostBytes.resize(R.PreBytes.size());
    std::memcpy(R.PostBytes.data(), Mem.data() + R.Address,
                R.PostBytes.size());
  }
}
