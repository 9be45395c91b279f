//===- Device.cpp - simulated GPU device ------------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/Device.h"

#include "codegen/ObjectFile.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace proteus;
using namespace proteus::gpu;

void LaunchStats::accumulate(const LaunchStats &O) {
  Blocks += O.Blocks;
  ThreadsPerBlock = O.ThreadsPerBlock;
  TotalInstrs += O.TotalInstrs;
  VALUInsts += O.VALUInsts;
  SALUInsts += O.SALUInsts;
  MemLoads += O.MemLoads;
  MemStores += O.MemStores;
  SpillLoads += O.SpillLoads;
  SpillStores += O.SpillStores;
  Atomics += O.Atomics;
  Branches += O.Branches;
  Barriers += O.Barriers;
  TranscendentalInsts += O.TranscendentalInsts;
  DivInsts += O.DivInsts;
  L2Hits += O.L2Hits;
  L2Misses += O.L2Misses;
  RegsUsed = std::max(RegsUsed, O.RegsUsed);
  SpillSlots = std::max(SpillSlots, O.SpillSlots);
  LaunchBoundsThreads = O.LaunchBoundsThreads;
  DurationSec += O.DurationSec;
  // Keep the most recent derived rates (they are per-launch metrics).
  Occupancy = O.Occupancy;
  IPC = O.IPC;
  VALUBusyPct = O.VALUBusyPct;
  StallPct = O.StallPct;
}

L2Cache::L2Cache(uint64_t SizeBytes, unsigned LineBytes, unsigned Ways)
    : LineBytes(LineBytes), Ways(Ways),
      NumSets(std::max<uint64_t>(1, SizeBytes / LineBytes / Ways)),
      Tags(NumSets * Ways, 0), LastUsed(NumSets * Ways, 0) {}

bool L2Cache::access(uint64_t Address) {
  uint64_t Line = Address / LineBytes + 1; // +1 so tag 0 means empty
  size_t Set = static_cast<size_t>(Line % NumSets);
  uint64_t *SetTags = &Tags[Set * Ways];
  uint32_t *SetUsed = &LastUsed[Set * Ways];
  ++Clock;
  unsigned VictimWay = 0;
  uint32_t VictimStamp = ~0u;
  for (unsigned W = 0; W != Ways; ++W) {
    if (SetTags[W] == Line) {
      SetUsed[W] = Clock;
      return true;
    }
    if (SetUsed[W] < VictimStamp) {
      VictimStamp = SetUsed[W];
      VictimWay = W;
    }
  }
  SetTags[VictimWay] = Line;
  SetUsed[VictimWay] = Clock;
  return false;
}

void L2Cache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(LastUsed.begin(), LastUsed.end(), 0);
  Clock = 0;
}

Device::Device(const TargetInfo &Target, uint64_t MemoryBytes)
    : Target(Target), Memory(MemoryBytes), L2(Target.L2Bytes, 128, 16) {
  // Stream 0 is the legacy default stream; it always exists.
  Streams.emplace_back(new Stream(*this, 0));
}

Stream *Device::createStream() {
  Streams.emplace_back(
      new Stream(*this, static_cast<unsigned>(Streams.size())));
  return Streams.back().get();
}

DevicePtr Device::allocate(uint64_t Bytes) {
  if (Bytes == 0)
    Bytes = 1;
  // Round to 256-byte alignment like real allocators.
  Bytes = (Bytes + 255) & ~255ull;
  // First-fit from the free list.
  for (size_t I = 0; I != FreeList.size(); ++I) {
    if (FreeList[I].second >= Bytes) {
      DevicePtr P = FreeList[I].first;
      if (FreeList[I].second > Bytes) {
        FreeList[I].first += Bytes;
        FreeList[I].second -= Bytes;
      } else {
        FreeList.erase(FreeList.begin() + static_cast<long>(I));
      }
      Allocations[P] = Bytes;
      return P;
    }
  }
  if (Brk + Bytes > Memory.size())
    return 0;
  DevicePtr P = Brk;
  Brk += Bytes;
  Memory.commit(P, Bytes);
  Allocations[P] = Bytes;
  return P;
}

FreeStatus Device::free(DevicePtr P) {
  auto It = Allocations.find(P);
  if (It == Allocations.end()) {
    // Distinguish a double free (the block is sitting on the free list)
    // from a pointer that was never an allocation start.
    for (const auto &Blk : FreeList)
      if (Blk.first == P) {
        ++DoubleFreeCount;
        return FreeStatus::DoubleFree;
      }
    ++UnknownFreeCount;
    return FreeStatus::Unknown;
  }
  FreeList.push_back({It->first, It->second});
  Allocations.erase(It);
  return FreeStatus::Ok;
}

bool Device::findAllocation(DevicePtr P, DevicePtr *Base,
                            uint64_t *Size) const {
  for (const auto &Alloc : Allocations) {
    if (P >= Alloc.first && P < Alloc.first + Alloc.second) {
      if (Base)
        *Base = Alloc.first;
      if (Size)
        *Size = Alloc.second;
      return true;
    }
  }
  return false;
}

bool Device::claimRange(DevicePtr Base, uint64_t Bytes) {
  if (Base == 0 || Bytes == 0 || !validRange(Base, Bytes))
    return false;
  for (const auto &Alloc : Allocations)
    if (Base < Alloc.first + Alloc.second && Alloc.first < Base + Bytes)
      return false;
  Allocations[Base] = Bytes;
  Memory.commit(Base, Bytes);
  if (Base + Bytes > Brk)
    Brk = Base + Bytes;
  return true;
}

DevicePtr Device::registerGlobal(const std::string &Symbol, uint64_t Bytes,
                                 const std::vector<uint8_t> &Init) {
  auto It = Symbols.find(Symbol);
  if (It != Symbols.end())
    return It->second;
  DevicePtr P = allocate(Bytes);
  if (!P)
    return 0;
  if (!Init.empty() && validRange(P, Init.size()))
    std::memcpy(Memory.data() + P, Init.data(), Init.size());
  Symbols[Symbol] = P;
  return P;
}

DevicePtr Device::getSymbolAddress(const std::string &Symbol) const {
  auto It = Symbols.find(Symbol);
  return It == Symbols.end() ? 0 : It->second;
}

LoadedKernel *Device::loadKernel(const std::vector<uint8_t> &Object,
                                 std::string *Error) {
  auto fail = [&](std::string Msg, bool Malformed) -> LoadedKernel * {
    if (Malformed)
      metrics::processRegistry().counter("gpu.load_rejects").add();
    if (Error)
      *Error = std::move(Msg);
    return nullptr;
  };
  ObjectReadResult R = readObject(Object);
  if (!R.Ok)
    return fail(R.Error, /*Malformed=*/true);
  if (R.Arch != Target.Arch)
    return fail("object compiled for " + std::string(gpuArchName(R.Arch)) +
                    " loaded on " + Target.Name,
                /*Malformed=*/false);
  // Patch global-variable relocations against the symbol table.
  for (const mcode::Relocation &Rel : R.MF.Relocs) {
    DevicePtr Addr = getSymbolAddress(Rel.Symbol);
    if (!Addr)
      return fail("unresolved device global @" + Rel.Symbol,
                  /*Malformed=*/false);
    if (Rel.Block >= R.MF.Blocks.size() ||
        Rel.InstrIndex >= R.MF.Blocks[Rel.Block].Instrs.size())
      return fail("relocation out of range", /*Malformed=*/true);
    R.MF.Blocks[Rel.Block].Instrs[Rel.InstrIndex].Imm =
        static_cast<int64_t>(Addr);
  }
  auto LK = std::make_unique<LoadedKernel>();
  std::string DecodeError;
  if (!predecodeKernel(R.MF, R.Arch, *LK, DecodeError))
    return fail(DecodeError, /*Malformed=*/true);
  Kernels.push_back(std::move(LK));
  return Kernels.back().get();
}
