//===- DeviceManager.h - pool of simulated devices --------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pool of N simulated GPUs, the multi-device half of the execution
/// engine. Devices may mix architectures (heterogeneous nodes: MI250X-like
/// and V100-like side by side), each owns its own memory, streams, and
/// timelines, and the pool assigns ordinals used for trace lanes and for
/// the JIT runtime's ascending-index lock order.
///
/// Configuration comes from the environment through Config's knob rows
/// (PROTEUS_NUM_DEVICES, PROTEUS_DEFAULT_STREAMS, PROTEUS_DEVICE_ARCHS),
/// validated and warning on invalid values — never silently substituting a
/// different configuration. An architecture list with an empty segment
/// (leading, trailing, or doubled comma) or an unknown name is rejected
/// whole.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DEVICEMANAGER_H
#define PROTEUS_GPU_DEVICEMANAGER_H

#include "gpu/Device.h"
#include "support/Knobs.h"

#include <memory>
#include <string>
#include <vector>

namespace proteus {
namespace gpu {

/// Owns N simulated devices and assigns their ordinals.
class DeviceManager {
public:
  struct Config {
    unsigned NumDevices = 1;
    /// Streams pre-created per device, including the default stream.
    unsigned StreamsPerDevice = 1;
    /// Architectures cycled across devices (device i gets
    /// Archs[i % Archs.size()]); empty means all amdgcn-sim.
    std::vector<GpuArch> Archs;
    uint64_t MemoryBytesPerDevice = 1ull << 28;

    /// The knob rows configFromEnvironment reads.
    static std::span<const knobs::Knob> envKnobs();
  };

  /// Reads PROTEUS_NUM_DEVICES / PROTEUS_DEFAULT_STREAMS /
  /// PROTEUS_DEVICE_ARCHS. Invalid values keep the default and emit a
  /// warning (into \p Warnings when given, else stderr) — the same
  /// fail-loud policy as JitConfig::fromEnvironment.
  static Config configFromEnvironment(std::vector<std::string> *Warnings =
                                          nullptr);

  explicit DeviceManager(const Config &C);

  /// Convenience: pool configured from the environment.
  DeviceManager() : DeviceManager(configFromEnvironment()) {}

  unsigned numDevices() const {
    return static_cast<unsigned>(Devices.size());
  }

  Device &device(unsigned I) { return *Devices[I]; }
  const Device &device(unsigned I) const { return *Devices[I]; }

  /// Sum of per-device makespans — the pool's aggregate busy time. With
  /// identical work fanned out across devices this stays ~constant while
  /// the pool makespan (max) shrinks, which is what the multi-stream bench
  /// measures.
  double totalSimulatedSeconds() const;

  /// Pool makespan: completion time of all work on all devices.
  double makespanSeconds() const;

private:
  std::vector<std::unique_ptr<Device>> Devices;
};

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DEVICEMANAGER_H
