//===- DeviceManager.cpp - pool of simulated devices -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/DeviceManager.h"

#include <algorithm>

using namespace proteus;
using namespace proteus::gpu;

namespace {

using Config = DeviceManager::Config;
using G = knobs::Grammar;
using knobs::field;

constexpr knobs::Spelling ArchNames[] = {
    {"amdgcn-sim", unsigned(GpuArch::AmdGcnSim)},
    {"nvptx-sim", unsigned(GpuArch::NvPtxSim)}};

constexpr knobs::Knob DeviceKnobs[] = {
    {"PROTEUS_NUM_DEVICES", "DeviceManager::Config", G::Unsigned,
     field<&Config::NumDevices>(), "1", "simulated devices in the pool", {}, 1,
     64},
    {"PROTEUS_DEFAULT_STREAMS", "DeviceManager::Config", G::Unsigned,
     field<&Config::StreamsPerDevice>(), "1",
     "streams per device, counting the default stream", {}, 1, 256},
    {"PROTEUS_DEVICE_ARCHS", "DeviceManager::Config", G::ArchList,
     field<&Config::Archs>(), "",
     "architectures cycled across the pool (unset: all `amdgcn-sim`)",
     ArchNames},
};

} // namespace

std::span<const knobs::Knob> Config::envKnobs() { return DeviceKnobs; }

Config
DeviceManager::configFromEnvironment(std::vector<std::string> *Warnings) {
  return knobs::read<Config>(DeviceKnobs, Warnings);
}

DeviceManager::DeviceManager(const Config &C) {
  std::vector<GpuArch> Archs =
      C.Archs.empty() ? std::vector<GpuArch>{GpuArch::AmdGcnSim} : C.Archs;
  unsigned N = C.NumDevices ? C.NumDevices : 1;
  for (unsigned I = 0; I != N; ++I) {
    const TargetInfo &TI = getTarget(Archs[I % Archs.size()]);
    Devices.emplace_back(new Device(TI, C.MemoryBytesPerDevice));
    Devices.back()->setOrdinal(I);
    for (unsigned S = 1; S < C.StreamsPerDevice; ++S)
      Devices.back()->createStream();
  }
}

double DeviceManager::totalSimulatedSeconds() const {
  double Sum = 0.0;
  for (const auto &D : Devices)
    Sum += D->simulatedSeconds();
  return Sum;
}

double DeviceManager::makespanSeconds() const {
  double Max = 0.0;
  for (const auto &D : Devices)
    Max = std::max(Max, D->simulatedSeconds());
  return Max;
}
