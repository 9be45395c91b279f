//===- Executor.cpp - functional GPU execution -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Per-thread interpretation of predecoded machine code (see Predecode.h).
// Every handler names its operation and operand type, so the OpSemantics
// evaluators it calls fold to the one operation; semantics still come from
// ir/OpSemantics.h, so the executor agrees bit-for-bit with the reference
// IR interpreter and the constant folder. Threads run sequentially (the
// simulation is deterministic); atomics therefore serialize naturally.
//
// Counting is per block: each Enter bumps its block's visit count and
// charges the block's instruction count against the per-thread step
// limit. A block always runs to its terminator (the predecoder guarantees
// the shape), so a launch's counters are visits x the blocks' static
// histograms; only the L2 hit/miss counts are taken per access.
//
// Address map: [0, MemSize) is device global memory; addresses at or above
// LocalBase are thread-private scratch from allocas, resolved per thread.
//
//===----------------------------------------------------------------------===//

#include "gpu/Executor.h"

#include "gpu/PerfModel.h"
#include "ir/OpSemantics.h"
#include "support/StringUtils.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;
using pir::Type;

namespace {

/// Bytes a load or store of type \p K moves.
constexpr unsigned typeSize(Type::Kind K) {
  switch (K) {
  case Type::Kind::I1:
    return 1;
  case Type::Kind::I32:
  case Type::Kind::F32:
    return 4;
  default:
    return 8;
  }
}

constexpr bool isFloatKind(Type::Kind K) {
  return K == Type::Kind::F32 || K == Type::Kind::F64;
}

/// Launch counters: visits x the static histogram of every block.
void addBlockCounts(LaunchStats &S, const BlockCounts &C, uint64_t Visits) {
  S.TotalInstrs += Visits * C.TotalInstrs;
  S.SALUInsts += Visits * C.SALUInsts;
  S.VALUInsts += Visits * C.VALUInsts;
  S.TranscendentalInsts += Visits * C.TranscendentalInsts;
  S.DivInsts += Visits * C.DivInsts;
  S.MemLoads += Visits * C.MemLoads;
  S.MemStores += Visits * C.MemStores;
  S.Atomics += Visits * C.Atomics;
  S.SpillLoads += Visits * C.SpillLoads;
  S.SpillStores += Visits * C.SpillStores;
  S.Branches += Visits * C.Branches;
  S.Barriers += Visits * C.Barriers;
}

} // namespace

LaunchResult proteus::gpu::launchKernel(Device &Dev,
                                        const LoadedKernel &Kernel,
                                        Dim3 Grid, Dim3 Block,
                                        const std::vector<KernelArg> &Args,
                                        uint64_t MaxStepsPerThread) {
  LaunchResult Out;
  if (Args.size() != Kernel.Params.size()) {
    Out.Error = formatString("argument count mismatch: got %zu, kernel %s "
                             "takes %zu",
                             Args.size(), Kernel.Name.c_str(),
                             Kernel.Params.size());
    return Out;
  }
  if (Grid.count() == 0 || Block.count() == 0) {
    Out.Error = "empty grid or block";
    return Out;
  }

  LaunchStats &S = Out.Stats;
  S.Kernel = Kernel.Name;
  S.Blocks = Grid.count();
  S.ThreadsPerBlock = Block.count();
  S.RegsUsed = Kernel.NumRegs;
  S.SpillSlots = Kernel.NumSpillSlots;
  S.LaunchBoundsThreads = Kernel.LaunchBoundsThreads;

  DeviceMemory &Mem = Dev.memory();
  L2Cache &L2 = Dev.l2();

  std::vector<uint64_t> Regs(Kernel.NumRegs, 0);
  std::vector<uint64_t> Spill(Kernel.NumSpillSlots, 0);
  std::vector<uint8_t> Local(Kernel.LocalBytes, 0);
  std::vector<uint64_t> Visits(Kernel.Blocks.size(), 0);

  // Scratch (spill + alloca) L2 pollution: give each thread distinct
  // synthetic addresses above the global range so heavy spilling evicts
  // useful lines, as it does on real hardware.
  const uint64_t ScratchL2Base = Mem.size();
  const uint64_t PerThreadScratch =
      static_cast<uint64_t>(Kernel.NumSpillSlots) * 8 + Kernel.LocalBytes +
      64;

  // Hot state in locals: nothing the loop stores through R can alias it.
  const DecodedInstr *const Code = Kernel.Code.data();
  uint64_t *const R = Regs.data();
  uint64_t *const Sp = Spill.data();
  uint64_t *const Vis = Visits.data();
  uint8_t *const MemData = Mem.data();
  const uint64_t MemSize = Mem.size();
  uint8_t *const LocalData = Local.data();
  const uint64_t LocalSize = Local.size();
  uint64_t L2Hits = 0, L2Misses = 0;

  // Host pointer for a Size-byte access at Addr, or null when out of
  // bounds.
  auto translate = [&](uint64_t Addr, unsigned Size) -> uint8_t * {
    if (Addr >= LocalBase) {
      uint64_t Off = Addr - LocalBase;
      return Off + Size <= LocalSize ? LocalData + Off : nullptr;
    }
    return Addr + Size <= MemSize && Addr + Size >= Addr ? MemData + Addr
                                                         : nullptr;
  };
  auto outOfBounds = [&](const char *What, uint64_t Addr) {
    Out.Error = formatString("%s out of bounds at 0x%llx in %s", What,
                             static_cast<unsigned long long>(Addr),
                             Kernel.Name.c_str());
  };

  const uint64_t BlocksTotal = Grid.count();
  const uint64_t ThreadsPerBlk = Block.count();
  uint64_t ThreadLinear = 0;
  // Geometry registers in SpecialReg order: tid, ctaid, ntid, nctaid.
  uint64_t Geo[12] = {0, 0, 0, 0, 0, 0, Block.X, Block.Y, Block.Z,
                      Grid.X, Grid.Y, Grid.Z};

  for (uint64_t Blk = 0; Blk != BlocksTotal; ++Blk) {
    Geo[3] = static_cast<uint32_t>(Blk % Grid.X);
    Geo[4] = static_cast<uint32_t>(Blk / Grid.X % Grid.Y);
    Geo[5] = static_cast<uint32_t>(
        Blk / (static_cast<uint64_t>(Grid.X) * Grid.Y));
    for (uint64_t T = 0; T != ThreadsPerBlk; ++T, ++ThreadLinear) {
      Geo[0] = static_cast<uint32_t>(T % Block.X);
      Geo[1] = static_cast<uint32_t>(T / Block.X % Block.Y);
      Geo[2] = static_cast<uint32_t>(
          T / (static_cast<uint64_t>(Block.X) * Block.Y));

      // Initialize registers/spill slots for this thread.
      std::fill(Regs.begin(), Regs.end(), 0);
      std::fill(Spill.begin(), Spill.end(), 0);
      std::fill(Local.begin(), Local.end(), 0);
      for (size_t A = 0; A != Args.size(); ++A) {
        const mcode::MachineParam &P = Kernel.Params[A];
        if (P.ArgReg != mcode::NoReg)
          R[P.ArgReg] = Args[A].Bits;
        else if (P.SpillSlot >= 0)
          Sp[P.SpillSlot] = Args[A].Bits;
      }

      const uint64_t ThreadScratchBase =
          ScratchL2Base + ThreadLinear * PerThreadScratch;
      auto l2Access = [&](uint64_t Addr) {
        bool Hit = L2.access(Addr >= LocalBase
                                 ? ThreadScratchBase + (Addr - LocalBase)
                                 : Addr);
        Hit ? ++L2Hits : ++L2Misses;
      };

      uint64_t Steps = 0;
      uint64_t PC = 0;
      for (;;) {
        const DecodedInstr &I = Code[PC++];
        switch (I.Op) {
        case SimOp::Enter:
          ++Vis[I.Dst];
          Steps += static_cast<uint64_t>(I.Imm);
          if (Steps > MaxStepsPerThread) {
            Out.Error = "per-thread step limit exceeded in " + Kernel.Name;
            return Out;
          }
          break;
        case SimOp::MovRR:
          R[I.Dst] = R[I.Src1];
          break;
        case SimOp::MovImm:
          // Immediate materialization is folded into instruction encodings
          // (inline literals / constant banks) on both real ISAs: free.
          R[I.Dst] = static_cast<uint64_t>(I.Imm);
          break;
        case SimOp::Sel:
          R[I.Dst] = (R[I.Src1] & 1) ? R[I.Src2] : R[I.Src3];
          break;
        case SimOp::LdSpill:
          R[I.Dst] = Sp[I.Imm];
          break;
        case SimOp::StSpill:
          Sp[I.Imm] = R[I.Src1];
          break;
        case SimOp::ReadSpecial:
          R[I.Dst] = Geo[I.Aux];
          break;
        case SimOp::Br:
          PC = static_cast<uint64_t>(I.Imm);
          break;
        case SimOp::CondBr:
          PC = (R[I.Src1] & 1) ? static_cast<uint64_t>(I.Imm) : I.Src2;
          break;
        case SimOp::Ret:
          goto NextThread;

#define PROTEUS_SIM_BINARY(Op, T)                                              \
  case SimOp::Op##_##T:                                                        \
    R[I.Dst] = pir::sem::evalBinary(pir::ValueKind::Op, Type::Kind::T,         \
                                    R[I.Src1], R[I.Src2]);                     \
    break;
#define PROTEUS_SIM_BINARY_FAMILY(Op)                                          \
  PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_BINARY, Op)
          PROTEUS_SIM_BINARY_OPS(PROTEUS_SIM_BINARY_FAMILY)
#undef PROTEUS_SIM_BINARY_FAMILY
#undef PROTEUS_SIM_BINARY

#define PROTEUS_SIM_UNARY(Op, T)                                               \
  case SimOp::Op##_##T:                                                        \
    R[I.Dst] =                                                                 \
        pir::sem::evalUnary(pir::ValueKind::Op, Type::Kind::T, R[I.Src1]);     \
    break;
#define PROTEUS_SIM_UNARY_FAMILY(Op)                                           \
  PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_UNARY, Op)
          PROTEUS_SIM_UNARY_OPS(PROTEUS_SIM_UNARY_FAMILY)
#undef PROTEUS_SIM_UNARY_FAMILY
#undef PROTEUS_SIM_UNARY

#define PROTEUS_SIM_ICMP(P, T)                                                 \
  case SimOp::ICmp##P##_##T:                                                   \
    R[I.Dst] = pir::sem::evalICmp(pir::ICmpPred::P, Type::Kind::T, R[I.Src1],  \
                                  R[I.Src2]);                                  \
    break;
#define PROTEUS_SIM_ICMP_FAMILY(P) PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_ICMP, P)
          PROTEUS_SIM_ICMP_PREDS(PROTEUS_SIM_ICMP_FAMILY)
#undef PROTEUS_SIM_ICMP_FAMILY
#undef PROTEUS_SIM_ICMP

#define PROTEUS_SIM_FCMP(P, T)                                                 \
  case SimOp::FCmp##P##_##T:                                                   \
    R[I.Dst] = pir::sem::evalFCmp(pir::FCmpPred::P, Type::Kind::T, R[I.Src1],  \
                                  R[I.Src2]);                                  \
    break;
#define PROTEUS_SIM_FCMP_FAMILY(P) PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_FCMP, P)
          PROTEUS_SIM_FCMP_PREDS(PROTEUS_SIM_FCMP_FAMILY)
#undef PROTEUS_SIM_FCMP_FAMILY
#undef PROTEUS_SIM_FCMP

#define PROTEUS_SIM_CAST(Op)                                                   \
  case SimOp::Op:                                                              \
    R[I.Dst] = pir::sem::evalCast(pir::ValueKind::Op,                          \
                                  static_cast<Type::Kind>(I.Aux),              \
                                  static_cast<Type::Kind>(I.Aux2), R[I.Src1]); \
    break;
          PROTEUS_SIM_CAST_OPS(PROTEUS_SIM_CAST)
#undef PROTEUS_SIM_CAST

        // The address MAD wraps like the hardware's 64-bit integer unit.
#define PROTEUS_SIM_PTRADD(Op, T)                                              \
  case SimOp::PtrAdd_##T:                                                      \
    R[I.Dst] = R[I.Src1] + static_cast<uint64_t>(pir::sem::signExtend(         \
                               Type::Kind::T, R[I.Src2])) *                    \
                               static_cast<uint64_t>(I.Imm);                   \
    break;
          PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_PTRADD, PtrAdd)
#undef PROTEUS_SIM_PTRADD

#define PROTEUS_SIM_LD(Op, T)                                                  \
  case SimOp::Ld_##T: {                                                        \
    constexpr unsigned Size = typeSize(Type::Kind::T);                         \
    uint64_t Addr = R[I.Src1];                                                 \
    uint8_t *P = translate(Addr, Size);                                        \
    if (!P) {                                                                  \
      outOfBounds("load", Addr);                                               \
      return Out;                                                              \
    }                                                                          \
    uint64_t Bits = 0;                                                         \
    std::memcpy(&Bits, P, Size);                                               \
    R[I.Dst] = Bits;                                                           \
    l2Access(Addr);                                                            \
    break;                                                                     \
  }
          PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_LD, Ld)
#undef PROTEUS_SIM_LD

#define PROTEUS_SIM_ST(Op, T)                                                  \
  case SimOp::St_##T: {                                                        \
    constexpr unsigned Size = typeSize(Type::Kind::T);                         \
    uint64_t Addr = R[I.Src2];                                                 \
    uint8_t *P = translate(Addr, Size);                                        \
    if (!P) {                                                                  \
      outOfBounds("store", Addr);                                              \
      return Out;                                                              \
    }                                                                          \
    std::memcpy(P, &R[I.Src1], Size);                                          \
    l2Access(Addr);                                                            \
    break;                                                                     \
  }
          PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_ST, St)
#undef PROTEUS_SIM_ST

        // Atomics hit the L2 at their raw address, scratch or not.
#define PROTEUS_SIM_ATOMIC(Op, T)                                              \
  case SimOp::AtomicAdd_##T: {                                                 \
    constexpr Type::Kind K = Type::Kind::T;                                    \
    constexpr unsigned Size = typeSize(K);                                     \
    uint64_t Addr = R[I.Src1];                                                 \
    uint8_t *P = translate(Addr, Size);                                        \
    if (!P) {                                                                  \
      Out.Error = "atomic out of bounds in " + Kernel.Name;                    \
      return Out;                                                              \
    }                                                                          \
    uint64_t Old = 0;                                                          \
    std::memcpy(&Old, P, Size);                                                \
    uint64_t Sum = pir::sem::evalBinary(                                       \
        isFloatKind(K) ? pir::ValueKind::FAdd : pir::ValueKind::Add, K, Old,   \
        R[I.Src2]);                                                            \
    std::memcpy(P, &Sum, Size);                                                \
    R[I.Dst] = Old;                                                            \
    L2.access(Addr) ? ++L2Hits : ++L2Misses;                                   \
    break;                                                                     \
  }
          PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_ATOMIC, AtomicAdd)
#undef PROTEUS_SIM_ATOMIC
        }
      }
    NextThread:;
    }
  }

  for (size_t B = 0; B != Kernel.Blocks.size(); ++B)
    addBlockCounts(S, Kernel.Blocks[B], Vis[B]);
  S.L2Hits = L2Hits;
  S.L2Misses = L2Misses;

  // The executor computes the launch's cost but does not charge any stream
  // timeline: the Runtime.h wrappers decide which timeline pays (serial
  // barrier for gpuLaunchKernel, the target stream for the Async variant).
  applyPerfModel(Dev.target(), S);
  Dev.LastLaunch = S;
  auto It = Dev.Profile.find(S.Kernel);
  if (It == Dev.Profile.end()) {
    Dev.Profile[S.Kernel] = S;
  } else {
    It->second.accumulate(S);
  }
  Out.Ok = true;
  return Out;
}
