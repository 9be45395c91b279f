//===- DeviceMemory.h - lazily zeroed simulated global memory ---*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte array behind a simulated device's global memory. It reads as
/// all zeros when created, but costs nothing until it is used: the bytes
/// come from std::calloc, and glibc serves large requests (over its
/// mmap threshold, at most 32 MiB) with a fresh anonymous mapping that it
/// does not memset. A 256 MiB device therefore constructs in microseconds.
/// Like a real device allocator, Device backs each fresh allocation with
/// host pages when it is handed out (commit()), so a program's resident
/// size is what it allocated and its kernels never take first-touch page
/// faults. Small devices come from the heap and are reused warm, which is
/// why this is calloc and not a raw mmap per device: a fresh mapping
/// page-faults every page again on every device.
///
/// The interface is the slice of std::vector<uint8_t> its callers use
/// (data/size, iteration, indexing), plus a copying conversion to a vector
/// and comparison and same-size assignment against one, for the snapshot
/// and restore callers. It is neither copyable nor movable.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DEVICEMEMORY_H
#define PROTEUS_GPU_DEVICEMEMORY_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace proteus {
namespace gpu {

class DeviceMemory {
public:
  using value_type = uint8_t;
  using iterator = uint8_t *;
  using const_iterator = const uint8_t *;

  /// Zero-filled memory of \p Bytes bytes. Throws std::bad_alloc when the
  /// host cannot reserve the address space.
  explicit DeviceMemory(uint64_t Bytes) {
    if (Bytes == 0)
      return;
    Data = static_cast<uint8_t *>(std::calloc(Bytes, 1));
    if (!Data)
      throw std::bad_alloc();
    End = Data + Bytes;
  }
  ~DeviceMemory() { std::free(Data); }

  DeviceMemory(const DeviceMemory &) = delete;
  DeviceMemory &operator=(const DeviceMemory &) = delete;

  /// Backs bytes [Offset, Offset + Bytes) with host pages now, in one
  /// call, instead of one page fault per page at first touch. Contents are
  /// unchanged; a host that cannot prefault skips it.
  void commit(uint64_t Offset, uint64_t Bytes);

  uint8_t *data() { return Data; }
  const uint8_t *data() const { return Data; }
  size_t size() const { return static_cast<size_t>(End - Data); }

  iterator begin() { return Data; }
  iterator end() { return End; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return End; }

  uint8_t &operator[](size_t I) { return Data[I]; }
  const uint8_t &operator[](size_t I) const { return Data[I]; }

  /// A full copy of the memory image. Reading untouched pages commits
  /// nothing on the device side, but the copy itself is size() bytes.
  operator std::vector<uint8_t>() const {
    return std::vector<uint8_t>(begin(), end());
  }

  bool operator==(const std::vector<uint8_t> &Image) const {
    return Image.size() == size() &&
           (Data == End || std::memcmp(Data, Image.data(), size()) == 0);
  }

  /// Restores a memory image taken with the vector conversion. Throws
  /// std::length_error when \p Image is not exactly size() bytes: the
  /// device's address space never changes size.
  DeviceMemory &operator=(const std::vector<uint8_t> &Image) {
    if (Image.size() != size())
      throw std::length_error("device memory image of " +
                              std::to_string(Image.size()) +
                              " bytes assigned to a " + std::to_string(size()) +
                              "-byte device");
    if (Data != End)
      std::memcpy(Data, Image.data(), size());
    return *this;
  }

private:
  // A begin/end pair, as in the std::vector this replaced: the executor's
  // hot loop compiles to the same code as it did over the vector.
  uint8_t *Data = nullptr;
  uint8_t *End = nullptr;
};

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DEVICEMEMORY_H
