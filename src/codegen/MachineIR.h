//===- MachineIR.h - simulated GPU machine IR -------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-level program representation shared by both simulated GPU
/// targets. Before register allocation operands are virtual registers; after
/// allocation they are physical registers plus spill slots. The GPU
/// simulator validates and predecodes this form once at module load
/// (gpu/Predecode.h); the perf model and hardware counters classify
/// instructions via the per-instruction flags computed here (uniform =>
/// scalar ALU on the AMD-like target, spill memory ops, etc.).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_CODEGEN_MACHINEIR_H
#define PROTEUS_CODEGEN_MACHINEIR_H

#include "ir/Type.h"
#include "ir/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace proteus {
namespace mcode {

/// Register number. Virtual before allocation, physical after.
using Reg = uint32_t;
constexpr Reg NoReg = ~0u;

/// Machine opcodes. Arithmetic/compare opcodes reuse the IR ValueKind
/// numbering through the Aux field where a sub-opcode is needed.
enum class MOp : uint8_t {
  Nop,
  MovRR,   // Dst = Src1
  MovImm,  // Dst = Imm (64-bit payload; also used for resolved globals)
  Binary,  // Dst = Src1 <Aux:ValueKind> Src2, operating width from TypeTag
  Unary,   // Dst = <Aux:ValueKind> Src1
  Cast,    // Dst = cast<Aux:ValueKind>(Src1), TypeTag = source type kind
  ICmp,    // Dst = Src1 <Aux:ICmpPred> Src2 (0/1)
  FCmp,    // Dst = Src1 <Aux:FCmpPred> Src2 (0/1)
  Sel,     // Dst = Src1 ? Src2 : Src3
  Ld,      // Dst = mem[Src1], width from TypeTag
  St,      // mem[Src2] = Src1, width from TypeTag
  PtrAdd,  // Dst = Src1 + sext(Src2) * Imm  (address MAD)
  AtomicAdd, // Dst = old mem[Src1]; mem[Src1] += Src2 (type from TypeTag)
  LdSpill, // Dst = scratch[Imm]
  StSpill, // scratch[Imm] = Src1
  ReadSpecial, // Dst = geometry register; Aux = SpecialReg
  Bar,     // block barrier
  Br,      // jump to block Imm
  CondBr,  // if (Src1 & 1) jump Imm else jump Imm2
  Ret,
  Alloca,  // Dst = thread-scratch address for local slot Imm (size Imm2)
};

/// Geometry registers readable via ReadSpecial: value = Aux/3 selects the
/// register, Aux%3 the dimension.
enum class SpecialReg : uint8_t {
  TidX = 0, TidY, TidZ,
  CtaidX, CtaidY, CtaidZ,
  NtidX, NtidY, NtidZ,
  NctaidX, NctaidY, NctaidZ,
};

/// One machine instruction. Fixed shape keeps the simulator's load-time
/// predecode trivial.
struct MachineInstr {
  MOp Op = MOp::Nop;
  /// Operating type (width + int/fp) for Binary/Unary/Ld/St/Cast/AtomicAdd.
  pir::Type::Kind TypeTag = pir::Type::Kind::I64;
  /// Sub-opcode: ValueKind for Binary/Unary/Cast, predicate for ICmp/FCmp,
  /// SpecialReg for ReadSpecial.
  uint16_t Aux = 0;
  /// True when the result is block-uniform (same for every lane): classified
  /// as scalar-ALU work on the AMD-like target.
  bool Uniform = false;
  Reg Dst = NoReg;
  Reg Src1 = NoReg;
  Reg Src2 = NoReg;
  Reg Src3 = NoReg;
  int64_t Imm = 0;
  int32_t Imm2 = 0;
};

/// A straight-line run of machine instructions (terminated by Br/CondBr/Ret).
struct MachineBlock {
  std::string Name;
  std::vector<MachineInstr> Instrs;
};

/// Parameter metadata needed to marshal launch arguments into registers.
/// Before allocation ArgReg is a virtual register; afterwards it is either a
/// physical register, or NoReg with SpillSlot >= 0 when the parameter lives
/// in scratch (the launcher initializes the slot).
struct MachineParam {
  pir::Type::Kind TypeKind;
  Reg ArgReg;
  int32_t SpillSlot = -1;
};

/// Relocation: instruction (block, index) whose MovImm payload must be
/// patched with the device address of a global symbol at module load time.
/// Produced only by AOT compilation; the JIT links globals before codegen.
struct Relocation {
  uint32_t Block;
  uint32_t InstrIndex;
  std::string Symbol;
};

/// A compiled kernel in machine form.
struct MachineFunction {
  std::string Name;
  std::vector<MachineParam> Params;
  std::vector<MachineBlock> Blocks;
  std::vector<Relocation> Relocs;

  /// Virtual register count before allocation; physical register count in
  /// use after allocation (includes reserved spill temporaries).
  uint32_t NumRegs = 0;

  /// Number of 8-byte spill slots after register allocation.
  uint32_t NumSpillSlots = 0;

  /// Bytes of thread-local scratch used by allocas.
  uint32_t LocalBytes = 0;

  /// Launch bounds the kernel was compiled under (0 = unbounded/default).
  uint32_t LaunchBoundsThreads = 0;
  uint32_t LaunchBoundsMinBlocks = 1;

  /// True once registers are physical.
  bool Allocated = false;

  size_t totalInstructions() const {
    size_t N = 0;
    for (const MachineBlock &B : Blocks)
      N += B.Instrs.size();
    return N;
  }
};

/// Mnemonic for one machine opcode (diagnostics and the PTX-like printer).
const char *mopName(MOp Op);

/// Disassembles \p MF to text (testing/debugging).
std::string printMachineFunction(const MachineFunction &MF);

} // namespace mcode
} // namespace proteus

#endif // PROTEUS_CODEGEN_MACHINEIR_H
