//===- Device.h - simulated GPU device --------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated GPU device: global memory with a bump-with-free-list
/// allocator, a symbol table for device global variables, loaded code
/// modules, an L2 cache model, and the per-stream simulated timelines that
/// track kernel and transfer time (see Stream.h for the timeline model).
/// The HIP/CUDA-like entry points in Runtime.h operate on this object.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DEVICE_H
#define PROTEUS_GPU_DEVICE_H

#include "codegen/MachineIR.h"
#include "codegen/Target.h"
#include "gpu/DeviceMemory.h"
#include "gpu/LaunchStats.h"
#include "gpu/Predecode.h"
#include "gpu/Stream.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace proteus {
namespace gpu {

using DevicePtr = uint64_t;

/// Set-associative L2 cache model shared by all accesses of a launch.
class L2Cache {
public:
  L2Cache(uint64_t SizeBytes, unsigned LineBytes, unsigned Ways);

  /// Simulates one access; returns true on hit.
  bool access(uint64_t Address);

  void reset();

private:
  unsigned LineBytes;
  unsigned Ways;
  size_t NumSets;
  std::vector<uint64_t> Tags;     // NumSets x Ways, 0 = empty
  std::vector<uint32_t> LastUsed; // LRU stamps
  uint32_t Clock = 0;
};

/// Outcome of Device::free — unknown and double frees are counted and
/// reported instead of silently ignored, so leak/double-free bugs in
/// multi-stream programs fail loudly.
enum class FreeStatus {
  Ok,
  Unknown,    ///< pointer was never a live allocation start
  DoubleFree, ///< pointer matches an allocation already on the free list
};

/// One simulated GPU.
class Device {
public:
  explicit Device(const TargetInfo &Target, uint64_t MemoryBytes = 1ull << 28);

  const TargetInfo &target() const { return Target; }

  /// Index of this device within its DeviceManager (0 for standalone
  /// devices); used as the device half of trace lane ids.
  unsigned ordinal() const { return Ordinal; }
  void setOrdinal(unsigned O) { Ordinal = O; }

  // -- Memory --------------------------------------------------------------

  /// Allocates \p Bytes of device memory; returns 0 on exhaustion.
  DevicePtr allocate(uint64_t Bytes);

  /// Frees a prior allocation. Unknown pointers and double frees are
  /// diagnosed (counted, see unknownFrees()/doubleFrees()) instead of
  /// silently ignored.
  FreeStatus free(DevicePtr P);

  uint64_t unknownFrees() const { return UnknownFreeCount; }
  uint64_t doubleFrees() const { return DoubleFreeCount; }

  /// Global memory, zero-filled at construction and committed by the host
  /// only as it is written (see DeviceMemory.h).
  DeviceMemory &memory() { return Memory; }
  const DeviceMemory &memory() const { return Memory; }

  bool validRange(DevicePtr P, uint64_t Bytes) const {
    return P + Bytes <= Memory.size() && P + Bytes >= P;
  }

  /// If \p P points inside a live allocation, reports its base and size and
  /// returns true. Lets the capture subsystem decide whether an argument's
  /// raw bits name device memory worth snapshotting.
  bool findAllocation(DevicePtr P, DevicePtr *Base, uint64_t *Size) const;

  /// Every live allocation as (base, size), sorted by base address — the
  /// deterministic enumeration the migration engine walks when it copies a
  /// device's reachable state to another device. Caller must hold whatever
  /// lock serializes operations against this device.
  std::vector<std::pair<DevicePtr, uint64_t>> liveAllocations() const {
    std::vector<std::pair<DevicePtr, uint64_t>> Out(Allocations.begin(),
                                                    Allocations.end());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// Reconstructs an allocation at an exact prior address (capture replay
  /// rebuilds the captured device's address map verbatim). Fails when the
  /// range is invalid or overlaps an existing allocation.
  bool claimRange(DevicePtr Base, uint64_t Bytes);

  // -- Globals --------------------------------------------------------------

  /// Registers a device global symbol at a fresh allocation, copying the
  /// initializer (zero-fill when empty). Idempotent per symbol.
  DevicePtr registerGlobal(const std::string &Symbol, uint64_t Bytes,
                           const std::vector<uint8_t> &Init);

  /// Device address of \p Symbol, or 0 when unknown (mirrors
  /// cuda/hipGetSymbolAddress).
  DevicePtr getSymbolAddress(const std::string &Symbol) const;

  /// Binds \p Symbol to an existing address without allocating (capture
  /// replay pins globals to their capture-time addresses inside ranges it
  /// already claimed). Overwrites any previous binding.
  void defineSymbol(const std::string &Symbol, DevicePtr Address) {
    Symbols[Symbol] = Address;
  }

  /// Every symbol binding as (name, address), sorted by name — migration
  /// re-binds these on the target device so symbolic-linkage relocations
  /// resolve to the migrated copies of the globals.
  std::vector<std::pair<std::string, DevicePtr>> symbolBindings() const {
    std::vector<std::pair<std::string, DevicePtr>> Out(Symbols.begin(),
                                                       Symbols.end());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  // -- Modules / kernels -----------------------------------------------------

  /// Loads object bytes: decodes them, patches global-variable relocations
  /// against the symbol table and predecodes the kernel (predecodeKernel),
  /// which validates everything the executor will trust. Returns null and
  /// sets \p Error on failure; malformed objects are counted as
  /// "gpu.load_rejects" in metrics::processRegistry().
  LoadedKernel *loadKernel(const std::vector<uint8_t> &Object,
                           std::string *Error = nullptr);

  // -- Streams ---------------------------------------------------------------

  /// The legacy default stream (id 0); target of the synchronous API.
  Stream &defaultStream() { return *Streams.front(); }

  /// Creates a new independent stream (hip/cudaStreamCreate).
  Stream *createStream();

  /// Stream by id, or null when out of range.
  Stream *stream(unsigned Id) {
    return Id < Streams.size() ? Streams[Id].get() : nullptr;
  }

  unsigned numStreams() const { return static_cast<unsigned>(Streams.size()); }

  // -- Simulated time --------------------------------------------------------

  /// Simulated device makespan: the completion time of all work enqueued on
  /// any stream. With only the default stream in use this equals the old
  /// serial accumulate-everything clock.
  double simulatedSeconds() const {
    double Max = 0.0;
    for (const auto &S : Streams)
      if (S->tailSeconds() > Max)
        Max = S->tailSeconds();
    return Max;
  }

  /// Charges \p S seconds of serial (full-barrier) work: the op starts at
  /// the current makespan — after everything on every stream — and lands on
  /// the default stream's timeline, like a CUDA legacy-default-stream op.
  void chargeSerial(double S, const char *TraceName = nullptr) {
    defaultStream().waitUntil(simulatedSeconds());
    defaultStream().enqueue(S, TraceName);
  }

  /// Legacy name for chargeSerial (pre-stream callers).
  void addSimulatedSeconds(double S) { chargeSerial(S); }

  void resetSimulatedTime() {
    for (auto &S : Streams)
      S->resetTimeline();
    recomputeLoadGauge();
  }

  // -- Load gauge ------------------------------------------------------------
  //
  // A monotonically-published copy of the device makespan in integer
  // nanoseconds, maintained with relaxed atomics so the heterogeneous
  // scheduler can rank devices by queue depth WITHOUT taking the per-device
  // lock that serializes enqueues (reading Stream::Tail directly from
  // another thread would be a data race). Streams push tail advances here;
  // the timeline-reset paths recompute it.

  /// Published device makespan in nanoseconds; safe to read from any thread.
  uint64_t loadGaugeNs() const {
    return LoadGaugeNs.load(std::memory_order_relaxed);
  }

  /// Publishes a stream-tail advance (CAS-max; called by Stream under the
  /// owner's device lock, but readers are lock-free).
  void noteTailSeconds(double TailSec) {
    uint64_t Ns =
        TailSec > 0 ? static_cast<uint64_t>(TailSec * 1e9) : uint64_t(0);
    uint64_t Cur = LoadGaugeNs.load(std::memory_order_relaxed);
    while (Ns > Cur && !LoadGaugeNs.compare_exchange_weak(
                           Cur, Ns, std::memory_order_relaxed))
      ;
  }

  /// Re-derives the gauge from the current stream tails (after a reset,
  /// when the makespan may have moved backwards).
  void recomputeLoadGauge() {
    LoadGaugeNs.store(static_cast<uint64_t>(simulatedSeconds() * 1e9),
                      std::memory_order_relaxed);
  }

  /// Accumulated kernel-only simulated time (sum over all streams).
  double kernelSeconds() const { return KernelSeconds; }
  void addKernelSeconds(double S) { KernelSeconds += S; }

  L2Cache &l2() { return L2; }

  /// Counters of the most recent launch (set by the Executor).
  LaunchStats LastLaunch;

  /// Per-kernel aggregated profile (rocprof/nvprof-sim).
  std::map<std::string, LaunchStats> Profile;

private:
  const TargetInfo &Target;
  DeviceMemory Memory;
  uint64_t Brk = 64; // address 0 reserved as null
  std::unordered_map<uint64_t, uint64_t> Allocations; // ptr -> size
  std::vector<std::pair<uint64_t, uint64_t>> FreeList; // (ptr, size)
  std::unordered_map<std::string, DevicePtr> Symbols;
  std::vector<std::unique_ptr<LoadedKernel>> Kernels;
  L2Cache L2;
  std::vector<std::unique_ptr<Stream>> Streams;
  double KernelSeconds = 0.0;
  std::atomic<uint64_t> LoadGaugeNs{0};
  unsigned Ordinal = 0;
  uint64_t UnknownFreeCount = 0;
  uint64_t DoubleFreeCount = 0;
};

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DEVICE_H
