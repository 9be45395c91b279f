//===- DeviceMemory.cpp - lazily zeroed simulated global memory -----------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/DeviceMemory.h"

#include <sys/mman.h>
#include <unistd.h>

using namespace proteus::gpu;

void DeviceMemory::commit(uint64_t Offset, uint64_t Bytes) {
#ifdef MADV_POPULATE_WRITE
  if (Bytes == 0)
    return;
  static const uintptr_t Page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  uintptr_t Begin = reinterpret_cast<uintptr_t>(Data + Offset) & ~(Page - 1);
  uintptr_t End =
      (reinterpret_cast<uintptr_t>(Data + Offset + Bytes) + Page - 1) &
      ~(Page - 1);
  // Every page overlapping device bytes is mapped and writable, so this
  // only faults pages in. Failure (kernels before 5.14) loses the prefault.
  (void)::madvise(reinterpret_cast<void *>(Begin), End - Begin,
                  MADV_POPULATE_WRITE);
#else
  (void)Offset;
  (void)Bytes;
#endif
}
