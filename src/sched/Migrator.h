//===- Migrator.h - cross-arch kernel + state migration ---------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The migration half of the heterogeneous scheduling subsystem: moves a
/// kernel's execution — its compiled code and the device state it reaches —
/// from one device of the pool to another, across architectures, at a
/// stream boundary. The protocol (DESIGN §2k):
///
///   1. *Drain the source.* Copy every live allocation out on the source
///      stream (async DtoH, so the copies queue FIFO behind the in-flight
///      work), then record the drain event: its stamp is the simulated time
///      at which the source's tail — including the copy-out — completes.
///   2. *Rebuild on the target.* The target stream first waits on the drain
///      event (cross-device event waits are legal: one global simulated-time
///      coordinate), then each allocation is claimed at its *original*
///      address on the target and copied in (async HtoD) — pointers held in
///      kernel arguments and device globals stay valid verbatim, exactly as
///      capture replay rebuilds an address map. Symbol bindings are
///      re-defined on the target before any code loads, so symbolic-linkage
///      relocations resolve to the migrated globals.
///   3. *Retarget the code.* JitRuntime::installSpecialization compiles
///      the specialization for the target arch from the cached parse-once
///      module index — or serves a warm final-tier cache object — and loads
///      it, hot-swapping any previous mapping. Subsequent launches of the
///      shape on the target device run with zero compiles and byte-identical
///      results (the timeline tail simply replays there).
///
/// Device access goes through JitRuntime::withDeviceLocked — one device
/// lock at a time, source first, then target, never both — so migrations
/// are safe against concurrent launches (the TSan migration-storm lane
/// exercises exactly this).
///
/// Accounting on the caller-supplied registry: sched.migrations,
/// sched.migration_bytes, sched.migration_regions, sched.migration_symbols,
/// and mirrors of the runtime's retarget outcome (sched.migration_retarget_
/// compiled / _reused).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SCHED_MIGRATOR_H
#define PROTEUS_SCHED_MIGRATOR_H

#include "jit/JitRuntime.h"
#include "support/Metrics.h"

#include <string>

namespace proteus {
namespace sched {

/// Outcome of one migration.
struct MigrationResult {
  bool Ok = false;
  std::string Error;
  uint64_t BytesCopied = 0;    ///< payload moved device-to-device
  uint64_t RegionsCopied = 0;  ///< live allocations migrated
  uint64_t SymbolsRebound = 0; ///< device globals re-defined on the target
  /// Whether the retarget was served from a warm cache entry (local or
  /// fleet) instead of compiling.
  bool RetargetReusedCache = false;
  /// The drain stamp: simulated time at which the source stream's FIFO —
  /// including the migration copy-out — completes.
  double DrainTimeSec = 0.0;
};

/// Executes migrations between devices attached to one JitRuntime.
class Migrator {
public:
  /// \p Reg receives the sched.migration* counters (typically
  /// Scheduler::registry(), so placement and migration accounting land in
  /// one place).
  Migrator(JitRuntime &Jit, metrics::Registry &Reg);

  /// Migrates the specialization that (\p Symbol, \p Block, \p Args)
  /// resolve to — and all reachable device state — from \p SrcIndex to
  /// \p DstIndex. \p SrcS / \p DstS select the streams forming the
  /// boundary; null means the respective device's default stream. The
  /// caller resumes launching on the target device afterwards.
  MigrationResult migrate(unsigned SrcIndex, unsigned DstIndex,
                          const std::string &Symbol, gpu::Dim3 Block,
                          const std::vector<gpu::KernelArg> &Args,
                          gpu::Stream *SrcS = nullptr,
                          gpu::Stream *DstS = nullptr);

private:
  JitRuntime &Jit;
  metrics::Registry &Reg;
};

} // namespace sched
} // namespace proteus

#endif // PROTEUS_SCHED_MIGRATOR_H
