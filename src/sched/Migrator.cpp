//===- Migrator.cpp - cross-arch kernel + state migration -----------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sched/Migrator.h"

#include "support/Trace.h"

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::sched;

Migrator::Migrator(JitRuntime &Jit, metrics::Registry &Reg)
    : Jit(Jit), Reg(Reg) {}

MigrationResult Migrator::migrate(unsigned SrcIndex, unsigned DstIndex,
                                  const std::string &Symbol, Dim3 Block,
                                  const std::vector<KernelArg> &Args,
                                  Stream *SrcS, Stream *DstS) {
  MigrationResult R;
  if (SrcIndex == DstIndex) {
    R.Error = "migration source and target are the same device";
    return R;
  }
  if (SrcIndex >= Jit.numDevices() || DstIndex >= Jit.numDevices()) {
    R.Error = "migration device index out of range (" +
              std::to_string(Jit.numDevices()) + " device(s) attached)";
    return R;
  }
  trace::Span Sp("sched.migrate", "sched");

  // Phase 1 — drain the source: enqueue the copy-out of every live
  // allocation FIFO on the source stream (behind the in-flight work), then
  // stamp the drain event. One region buffer per allocation; addresses are
  // preserved so target-side pointers remain valid verbatim.
  struct Region {
    DevicePtr Base = 0;
    std::vector<uint8_t> Bytes;
  };
  std::vector<Region> Regions;
  std::vector<std::pair<std::string, DevicePtr>> Symbols;
  Event Drain;
  std::string Phase1Error;
  Jit.withDeviceLocked(SrcIndex, [&](Device &Src) {
    Stream *S = SrcS ? SrcS : &Src.defaultStream();
    for (const auto &[Base, Size] : Src.liveAllocations()) {
      Region Rg;
      Rg.Base = Base;
      Rg.Bytes.resize(Size);
      if (gpuMemcpyDtoHAsync(Src, Rg.Bytes.data(), Base, Size, S) !=
          GpuError::Success) {
        Phase1Error = "migration copy-out failed for allocation at " +
                      std::to_string(Base);
        return;
      }
      Regions.push_back(std::move(Rg));
    }
    Symbols = Src.symbolBindings();
    gpuEventRecord(Src, Drain, S);
  });
  if (!Phase1Error.empty()) {
    R.Error = Phase1Error;
    return R;
  }
  R.DrainTimeSec = Drain.TimeSec;

  // Phase 2 — rebuild on the target: wait for the drain (cross-device
  // event wait; all timelines share one simulated-time coordinate), claim
  // each region at its original address (an identical existing allocation
  // is reused — repeated and round-trip migrations land on their own prior
  // claims), copy the bytes in, and re-bind the symbols before any module
  // load needs them.
  std::string Phase2Error;
  Jit.withDeviceLocked(DstIndex, [&](Device &Dst) {
    Stream *S = DstS ? DstS : &Dst.defaultStream();
    gpuStreamWaitEvent(S, Drain);
    for (Region &Rg : Regions) {
      DevicePtr Base = 0;
      uint64_t Size = 0;
      bool Known = Dst.findAllocation(Rg.Base, &Base, &Size);
      if (Known && (Base != Rg.Base || Size != Rg.Bytes.size())) {
        Phase2Error = "migration target address " + std::to_string(Rg.Base) +
                      " collides with a differently-shaped allocation";
        return;
      }
      if (!Known && !Dst.claimRange(Rg.Base, Rg.Bytes.size())) {
        Phase2Error = "migration target cannot claim range at " +
                      std::to_string(Rg.Base);
        return;
      }
      if (gpuMemcpyHtoDAsync(Dst, Rg.Base, Rg.Bytes.data(), Rg.Bytes.size(),
                             S) != GpuError::Success) {
        Phase2Error = "migration copy-in failed for allocation at " +
                      std::to_string(Rg.Base);
        return;
      }
      R.BytesCopied += Rg.Bytes.size();
      ++R.RegionsCopied;
    }
    for (const auto &[Name, Address] : Symbols) {
      Dst.defineSymbol(Name, Address);
      ++R.SymbolsRebound;
    }
  });
  if (!Phase2Error.empty()) {
    R.Error = Phase2Error;
    return R;
  }

  // Phase 3 — retarget the code onto the target device (compile-or-reuse
  // per the target's arch; symbols are already bound, so symbolic-linkage
  // relocations resolve at load time).
  std::string RetargetError;
  JitRuntime::InstallReport Installed;
  if (Jit.installSpecialization(Symbol, Block, Args,
                                static_cast<int>(DstIndex),
                                /*ReuseCached=*/true, /*O3Override=*/nullptr,
                                &Installed,
                                &RetargetError) != GpuError::Success) {
    R.Error = "migration retarget failed: " + RetargetError;
    return R;
  }
  Jit.noteRetarget(Installed);
  R.RetargetReusedCache = Installed.ReusedArches > 0;

  Reg.counter("sched.migrations").add();
  Reg.counter("sched.migration_bytes").add(R.BytesCopied);
  Reg.counter("sched.migration_regions").add(R.RegionsCopied);
  Reg.counter("sched.migration_symbols").add(R.SymbolsRebound);
  Reg.counter(R.RetargetReusedCache ? "sched.migration_retarget_reused"
                                    : "sched.migration_retarget_compiled")
      .add();
  R.Ok = true;
  return R;
}
