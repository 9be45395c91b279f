//===- Predecode.h - load-time decode and validation of kernels -*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable form of a loaded kernel and the load-time pass that
/// builds it. Device::loadKernel runs readObject, patches relocations and
/// then predecodes the MachineFunction once; the executor runs only this
/// form, never raw MachineInstrs.
///
/// Each DecodedInstr carries a dense handler id (SimOp) that already names
/// the machine opcode, its sub-opcode (ValueKind or predicate) and its
/// operand Type::Kind, so no type is looked up while a kernel runs. Branch
/// targets are PCs into the flat instruction array. Every basic block
/// starts with an Enter instruction and owns a static histogram of its
/// instruction classes: the executor counts block visits, and a launch's
/// counters are visits x histogram (only the L2 model stays dynamic).
///
/// Predecoding is also the validation of object bytes that come from
/// outside the process (cache files, the fleet daemon). readObject checks
/// only the framing and branch targets; the predecoder rejects every
/// register, spill slot, sub-opcode, geometry register and block shape the
/// executor could not run safely, so a well-framed hostile object fails to
/// load instead of indexing out of bounds.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_PREDECODE_H
#define PROTEUS_GPU_PREDECODE_H

#include "codegen/MachineIR.h"
#include "codegen/Target.h"

#include <cstdint>
#include <string>
#include <vector>

namespace proteus {
namespace gpu {

/// Thread-private scratch (allocas) lives at addresses at or above this;
/// [0, memory size) is device global memory.
constexpr uint64_t LocalBase = 1ull << 40;

/// Load-time caps on a kernel's per-thread state. Real kernels stay far
/// below them (the targets address at most 256 registers); they bound the
/// per-launch allocations a hostile object could ask for.
constexpr uint32_t MaxKernelRegs = 1u << 16;
constexpr uint32_t MaxKernelSpillSlots = 1u << 16;
constexpr uint32_t MaxKernelLocalBytes = 1u << 20;

// Handler families. Typed families are expanded once per Type::Kind, in
// Type::Kind order, so a handler id is family base + kind.
#define PROTEUS_SIM_TYPE_KINDS(X, Op)                                          \
  X(Op, Void) X(Op, I1) X(Op, I32) X(Op, I64) X(Op, F32) X(Op, F64) X(Op, Ptr)
#define PROTEUS_SIM_BINARY_OPS(X)                                              \
  X(Add) X(Sub) X(Mul) X(SDiv) X(UDiv) X(SRem) X(URem) X(And) X(Or) X(Xor)    \
  X(Shl) X(LShr) X(AShr) X(FAdd) X(FSub) X(FMul) X(FDiv) X(Pow) X(FMin)       \
  X(FMax) X(SMin) X(SMax)
#define PROTEUS_SIM_UNARY_OPS(X)                                               \
  X(FNeg) X(Sqrt) X(Exp) X(Log) X(Sin) X(Cos) X(Fabs) X(Floor)
#define PROTEUS_SIM_CAST_OPS(X)                                                \
  X(Trunc) X(ZExt) X(SExt) X(FPExt) X(FPTrunc) X(SIToFP) X(UIToFP) X(FPToSI)  \
  X(IntToPtr) X(PtrToInt)
#define PROTEUS_SIM_ICMP_PREDS(X)                                              \
  X(EQ) X(NE) X(SLT) X(SLE) X(SGT) X(SGE) X(ULT) X(ULE) X(UGT) X(UGE)
#define PROTEUS_SIM_FCMP_PREDS(X) X(OEQ) X(ONE) X(OLT) X(OLE) X(OGT) X(OGE)
// Typed memory and address families: Ld, St, AtomicAdd, PtrAdd.
#define PROTEUS_SIM_TYPED_OPS(X) X(Ld) X(St) X(AtomicAdd) X(PtrAdd)

/// Dense handler id of a decoded instruction. Operand fields used, besides
/// the Dst/Src registers named in MachineIR.h:
///   Enter       Dst = block index, Imm = machine instructions in the block
///   MovImm      Imm = value (also Alloca, with LocalBase folded in)
///   LdSpill/StSpill  Imm = spill slot
///   ReadSpecial Aux = SpecialReg
///   <cast>      Aux = source Type::Kind, Aux2 = destination Type::Kind
///   PtrAdd_*    Imm = element size
///   Br          Imm = target PC
///   CondBr      Imm = taken PC, Src2 = not-taken PC
enum class SimOp : uint16_t {
  Enter,
  MovRR,
  MovImm,
  Sel,
  LdSpill,
  StSpill,
  ReadSpecial,
  Br,
  CondBr,
  Ret,
#define PROTEUS_SIM_ENUM_TYPED(Op, T) Op##_##T,
#define PROTEUS_SIM_ENUM_FAMILY(Op)                                            \
  PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_ENUM_TYPED, Op)
#define PROTEUS_SIM_ENUM_ICMP(P, T) ICmp##P##_##T,
#define PROTEUS_SIM_ENUM_ICMP_FAMILY(P)                                        \
  PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_ENUM_ICMP, P)
#define PROTEUS_SIM_ENUM_FCMP(P, T) FCmp##P##_##T,
#define PROTEUS_SIM_ENUM_FCMP_FAMILY(P)                                        \
  PROTEUS_SIM_TYPE_KINDS(PROTEUS_SIM_ENUM_FCMP, P)
#define PROTEUS_SIM_ENUM_PLAIN(Op) Op,
  PROTEUS_SIM_BINARY_OPS(PROTEUS_SIM_ENUM_FAMILY)
  PROTEUS_SIM_UNARY_OPS(PROTEUS_SIM_ENUM_FAMILY)
  PROTEUS_SIM_TYPED_OPS(PROTEUS_SIM_ENUM_FAMILY)
  PROTEUS_SIM_ICMP_PREDS(PROTEUS_SIM_ENUM_ICMP_FAMILY)
  PROTEUS_SIM_FCMP_PREDS(PROTEUS_SIM_ENUM_FCMP_FAMILY)
  PROTEUS_SIM_CAST_OPS(PROTEUS_SIM_ENUM_PLAIN)
#undef PROTEUS_SIM_ENUM_TYPED
#undef PROTEUS_SIM_ENUM_FAMILY
#undef PROTEUS_SIM_ENUM_ICMP
#undef PROTEUS_SIM_ENUM_ICMP_FAMILY
#undef PROTEUS_SIM_ENUM_FCMP
#undef PROTEUS_SIM_ENUM_FCMP_FAMILY
#undef PROTEUS_SIM_ENUM_PLAIN
};

/// One predecoded instruction; operands are pre-checked at load.
struct DecodedInstr {
  SimOp Op = SimOp::Ret;
  uint8_t Aux = 0;
  uint8_t Aux2 = 0;
  uint32_t Dst = 0;
  uint32_t Src1 = 0;
  uint32_t Src2 = 0;
  uint32_t Src3 = 0;
  int64_t Imm = 0;
};

static_assert(sizeof(DecodedInstr) <= sizeof(mcode::MachineInstr),
              "decoding must not grow the instruction stream");

/// Static instruction-class histogram of one basic block; each counter
/// mirrors the LaunchStats field of the same name.
struct BlockCounts {
  uint32_t TotalInstrs = 0; // every instruction except MovImm
  uint32_t SALUInsts = 0;
  uint32_t VALUInsts = 0;
  uint32_t TranscendentalInsts = 0;
  uint32_t DivInsts = 0;
  uint32_t MemLoads = 0;
  uint32_t MemStores = 0;
  uint32_t Atomics = 0;
  uint32_t SpillLoads = 0;
  uint32_t SpillStores = 0;
  uint32_t Branches = 0;
  uint32_t Barriers = 0;
};

/// A kernel loaded onto a device, in the executor's form.
struct LoadedKernel {
  std::string Name;
  GpuArch Arch = GpuArch::AmdGcnSim;
  /// Where each launch argument goes (register or spill slot; validated).
  std::vector<mcode::MachineParam> Params;
  uint32_t NumRegs = 0;
  uint32_t NumSpillSlots = 0;
  uint32_t LocalBytes = 0;
  uint32_t LaunchBoundsThreads = 0;
  /// All blocks in layout order, each led by its Enter; PC 0 is the entry.
  std::vector<DecodedInstr> Code;
  /// Per-block histograms, indexed by the Enter's block index.
  std::vector<BlockCounts> Blocks;
};

/// Validates \p MF and decodes it into \p Out. On rejection returns false
/// and sets \p Error; \p Out is then unspecified.
bool predecodeKernel(const mcode::MachineFunction &MF, GpuArch Arch,
                     LoadedKernel &Out, std::string &Error);

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_PREDECODE_H
