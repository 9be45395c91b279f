//===- Predecode.cpp - load-time decode and validation of kernels ---------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/Predecode.h"

#include "support/StringUtils.h"

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::mcode;
using pir::Type;
using pir::ValueKind;

namespace {

constexpr unsigned NumTypeKinds = 7;
static_assert(static_cast<unsigned>(Type::Kind::Void) == 0 &&
                  static_cast<unsigned>(Type::Kind::Ptr) == NumTypeKinds - 1,
              "typed handler families are laid out in Type::Kind order");
static_assert(static_cast<unsigned>(SimOp::Add_Ptr) ==
                  static_cast<unsigned>(SimOp::Add_Void) + NumTypeKinds - 1,
              "typed handler families are laid out in Type::Kind order");

/// The member of a typed family (named by its Void handler) for \p K.
SimOp typed(SimOp VoidHandler, Type::Kind K) {
  return static_cast<SimOp>(static_cast<unsigned>(VoidHandler) +
                            static_cast<unsigned>(K));
}

// Each resolver maps a MachineInstr's Aux sub-opcode to its handler and
// returns false when the value names no operation of that machine opcode
// (the cases OpSemantics would reach proteus_unreachable on).

bool binaryHandler(uint16_t Aux, Type::Kind K, SimOp &Out) {
  switch (Aux) {
#define PROTEUS_SIM_CASE(Op)                                                   \
  case static_cast<uint16_t>(ValueKind::Op):                                   \
    Out = typed(SimOp::Op##_Void, K);                                          \
    return true;
    PROTEUS_SIM_BINARY_OPS(PROTEUS_SIM_CASE)
#undef PROTEUS_SIM_CASE
  }
  return false;
}

bool unaryHandler(uint16_t Aux, Type::Kind K, SimOp &Out) {
  switch (Aux) {
#define PROTEUS_SIM_CASE(Op)                                                   \
  case static_cast<uint16_t>(ValueKind::Op):                                   \
    Out = typed(SimOp::Op##_Void, K);                                          \
    return true;
    PROTEUS_SIM_UNARY_OPS(PROTEUS_SIM_CASE)
#undef PROTEUS_SIM_CASE
  }
  return false;
}

bool castHandler(uint16_t Aux, SimOp &Out) {
  switch (Aux) {
#define PROTEUS_SIM_CASE(Op)                                                   \
  case static_cast<uint16_t>(ValueKind::Op):                                   \
    Out = SimOp::Op;                                                           \
    return true;
    PROTEUS_SIM_CAST_OPS(PROTEUS_SIM_CASE)
#undef PROTEUS_SIM_CASE
  }
  return false;
}

bool icmpHandler(uint16_t Aux, Type::Kind K, SimOp &Out) {
  switch (Aux) {
#define PROTEUS_SIM_CASE(P)                                                    \
  case static_cast<uint16_t>(pir::ICmpPred::P):                                \
    Out = typed(SimOp::ICmp##P##_Void, K);                                     \
    return true;
    PROTEUS_SIM_ICMP_PREDS(PROTEUS_SIM_CASE)
#undef PROTEUS_SIM_CASE
  }
  return false;
}

bool fcmpHandler(uint16_t Aux, Type::Kind K, SimOp &Out) {
  switch (Aux) {
#define PROTEUS_SIM_CASE(P)                                                    \
  case static_cast<uint16_t>(pir::FCmpPred::P):                                \
    Out = typed(SimOp::FCmp##P##_Void, K);                                     \
    return true;
    PROTEUS_SIM_FCMP_PREDS(PROTEUS_SIM_CASE)
#undef PROTEUS_SIM_CASE
  }
  return false;
}

/// Adds \p MI to its block's static histogram. Mirrors exactly what the
/// per-instruction executor used to count.
void countInstr(const MachineInstr &MI, BlockCounts &C) {
  if (MI.Op != MOp::MovImm)
    ++C.TotalInstrs;
  switch (MI.Op) {
  case MOp::Binary: {
    auto K = static_cast<ValueKind>(MI.Aux);
    if (K == ValueKind::Pow)
      ++C.TranscendentalInsts;
    else if (K == ValueKind::SDiv || K == ValueKind::UDiv ||
             K == ValueKind::SRem || K == ValueKind::URem ||
             K == ValueKind::FDiv)
      ++C.DivInsts;
    MI.Uniform ? ++C.SALUInsts : ++C.VALUInsts;
    break;
  }
  case MOp::Unary: {
    auto K = static_cast<ValueKind>(MI.Aux);
    if (K != ValueKind::FNeg && K != ValueKind::Fabs)
      ++C.TranscendentalInsts;
    MI.Uniform ? ++C.SALUInsts : ++C.VALUInsts;
    break;
  }
  case MOp::MovRR:
  case MOp::Cast:
  case MOp::ICmp:
  case MOp::FCmp:
  case MOp::Sel:
  case MOp::PtrAdd:
  case MOp::ReadSpecial:
  case MOp::Alloca:
    MI.Uniform ? ++C.SALUInsts : ++C.VALUInsts;
    break;
  case MOp::Ld:
    ++C.MemLoads;
    break;
  case MOp::St:
    ++C.MemStores;
    break;
  case MOp::AtomicAdd:
    ++C.Atomics;
    break;
  case MOp::LdSpill:
    ++C.SpillLoads;
    break;
  case MOp::StSpill:
    ++C.SpillStores;
    break;
  case MOp::Bar:
    ++C.Barriers;
    break;
  case MOp::Br:
  case MOp::CondBr:
    ++C.Branches;
    break;
  case MOp::Nop:
  case MOp::MovImm:
  case MOp::Ret:
    break;
  }
}

bool isTerminator(MOp Op) {
  return Op == MOp::Br || Op == MOp::CondBr || Op == MOp::Ret;
}

/// Nop and Bar have no functional effect in the thread-sequential
/// executor; they live on only in the block histogram and step count.
bool isDropped(MOp Op) { return Op == MOp::Nop || Op == MOp::Bar; }

} // namespace

bool proteus::gpu::predecodeKernel(const MachineFunction &MF, GpuArch Arch,
                                   LoadedKernel &Out, std::string &Error) {
  auto reject = [&](std::string Msg) {
    Error = "invalid kernel " + MF.Name + ": " + Msg;
    return false;
  };
  if (!MF.Allocated)
    return reject("not register-allocated");
  if (MF.NumRegs > MaxKernelRegs || MF.NumSpillSlots > MaxKernelSpillSlots ||
      MF.LocalBytes > MaxKernelLocalBytes)
    return reject(formatString(
        "per-thread state over the caps (%u registers, %u spill slots, %u "
        "local bytes)",
        MF.NumRegs, MF.NumSpillSlots, MF.LocalBytes));
  if (MF.Blocks.empty())
    return reject("no basic blocks");

  for (size_t P = 0; P != MF.Params.size(); ++P) {
    const MachineParam &Param = MF.Params[P];
    if (Param.ArgReg != NoReg && Param.ArgReg >= MF.NumRegs)
      return reject(formatString("parameter %zu register r%u out of range", P,
                                 Param.ArgReg));
    if (Param.SpillSlot != -1 &&
        (Param.SpillSlot < 0 ||
         static_cast<uint32_t>(Param.SpillSlot) >= MF.NumSpillSlots))
      return reject(formatString("parameter %zu spill slot %d out of range",
                                 P, Param.SpillSlot));
  }

  // First pass: the shape of every block, and where it starts in the
  // decoded stream (its Enter, then its kept instructions).
  const size_t NumBlocks = MF.Blocks.size();
  std::vector<uint32_t> BlockPC(NumBlocks);
  size_t PC = 0;
  for (size_t B = 0; B != NumBlocks; ++B) {
    const std::vector<MachineInstr> &Instrs = MF.Blocks[B].Instrs;
    if (Instrs.empty())
      return reject(formatString("block %zu is empty", B));
    for (size_t I = 0; I + 1 < Instrs.size(); ++I)
      if (isTerminator(Instrs[I].Op))
        return reject(formatString(
            "block %zu has a terminator before its end", B));
    if (!isTerminator(Instrs.back().Op))
      return reject(formatString("block %zu has no terminator", B));
    BlockPC[B] = static_cast<uint32_t>(PC);
    ++PC;
    for (const MachineInstr &MI : Instrs)
      PC += isDropped(MI.Op) ? 0 : 1;
  }
  if (PC > UINT32_MAX)
    return reject("too many instructions");

  Out.Name = MF.Name;
  Out.Arch = Arch;
  Out.Params = MF.Params;
  Out.NumRegs = MF.NumRegs;
  Out.NumSpillSlots = MF.NumSpillSlots;
  Out.LocalBytes = MF.LocalBytes;
  Out.LaunchBoundsThreads = MF.LaunchBoundsThreads;
  Out.Code.clear();
  Out.Code.reserve(PC);
  Out.Blocks.assign(NumBlocks, BlockCounts());

  for (size_t B = 0; B != NumBlocks; ++B) {
    const std::vector<MachineInstr> &Instrs = MF.Blocks[B].Instrs;
    DecodedInstr Enter;
    Enter.Op = SimOp::Enter;
    Enter.Dst = static_cast<uint32_t>(B);
    Enter.Imm = static_cast<int64_t>(Instrs.size());
    Out.Code.push_back(Enter);

    for (size_t Idx = 0; Idx != Instrs.size(); ++Idx) {
      const MachineInstr &MI = Instrs[Idx];
      auto bad = [&](const std::string &What) {
        return reject(formatString("block %zu instruction %zu (%s): %s", B,
                                   Idx, mopName(MI.Op), What.c_str()));
      };
      // Validates the register operands the opcode reads or writes.
      auto regs = [&](std::initializer_list<Reg> Rs) {
        for (Reg R : Rs)
          if (R >= MF.NumRegs)
            return false;
        return true;
      };
      auto slot = [&](int64_t S) {
        return S >= 0 && static_cast<uint64_t>(S) < MF.NumSpillSlots;
      };
      auto block = [&](int64_t Target) {
        return Target >= 0 && static_cast<uint64_t>(Target) < NumBlocks;
      };
      if (static_cast<unsigned>(MI.TypeTag) >= NumTypeKinds)
        return bad("bad type tag");

      countInstr(MI, Out.Blocks[B]);
      if (isDropped(MI.Op))
        continue;

      DecodedInstr D;
      D.Dst = MI.Dst;
      D.Src1 = MI.Src1;
      D.Src2 = MI.Src2;
      D.Src3 = MI.Src3;
      D.Imm = MI.Imm;
      bool RegsOk = true;
      switch (MI.Op) {
      case MOp::MovRR:
        D.Op = SimOp::MovRR;
        RegsOk = regs({MI.Dst, MI.Src1});
        break;
      case MOp::MovImm:
        D.Op = SimOp::MovImm;
        RegsOk = regs({MI.Dst});
        break;
      case MOp::Alloca:
        D.Op = SimOp::MovImm;
        D.Imm = static_cast<int64_t>(LocalBase + static_cast<uint64_t>(MI.Imm));
        RegsOk = regs({MI.Dst});
        break;
      case MOp::Binary:
        if (!binaryHandler(MI.Aux, MI.TypeTag, D.Op))
          return bad("bad binary operation");
        RegsOk = regs({MI.Dst, MI.Src1, MI.Src2});
        break;
      case MOp::Unary:
        if (!unaryHandler(MI.Aux, MI.TypeTag, D.Op))
          return bad("bad unary operation");
        RegsOk = regs({MI.Dst, MI.Src1});
        break;
      case MOp::Cast:
        if (!castHandler(MI.Aux, D.Op))
          return bad("bad cast operation");
        if (MI.Imm2 < 0 || static_cast<unsigned>(MI.Imm2) >= NumTypeKinds)
          return bad("bad cast destination type");
        D.Aux = static_cast<uint8_t>(MI.TypeTag);
        D.Aux2 = static_cast<uint8_t>(MI.Imm2);
        RegsOk = regs({MI.Dst, MI.Src1});
        break;
      case MOp::ICmp:
        if (!icmpHandler(MI.Aux, MI.TypeTag, D.Op))
          return bad("bad icmp predicate");
        RegsOk = regs({MI.Dst, MI.Src1, MI.Src2});
        break;
      case MOp::FCmp:
        if (!fcmpHandler(MI.Aux, MI.TypeTag, D.Op))
          return bad("bad fcmp predicate");
        RegsOk = regs({MI.Dst, MI.Src1, MI.Src2});
        break;
      case MOp::Sel:
        D.Op = SimOp::Sel;
        RegsOk = regs({MI.Dst, MI.Src1, MI.Src2, MI.Src3});
        break;
      case MOp::Ld:
        D.Op = typed(SimOp::Ld_Void, MI.TypeTag);
        RegsOk = regs({MI.Dst, MI.Src1});
        break;
      case MOp::St:
        D.Op = typed(SimOp::St_Void, MI.TypeTag);
        RegsOk = regs({MI.Src1, MI.Src2});
        break;
      case MOp::PtrAdd:
        D.Op = typed(SimOp::PtrAdd_Void, MI.TypeTag);
        RegsOk = regs({MI.Dst, MI.Src1, MI.Src2});
        break;
      case MOp::AtomicAdd:
        D.Op = typed(SimOp::AtomicAdd_Void, MI.TypeTag);
        RegsOk = regs({MI.Dst, MI.Src1, MI.Src2});
        break;
      case MOp::LdSpill:
        D.Op = SimOp::LdSpill;
        if (!slot(MI.Imm))
          return bad("spill slot out of range");
        RegsOk = regs({MI.Dst});
        break;
      case MOp::StSpill:
        D.Op = SimOp::StSpill;
        if (!slot(MI.Imm))
          return bad("spill slot out of range");
        RegsOk = regs({MI.Src1});
        break;
      case MOp::ReadSpecial:
        D.Op = SimOp::ReadSpecial;
        if (MI.Aux > static_cast<uint16_t>(SpecialReg::NctaidZ))
          return bad("bad special register");
        D.Aux = static_cast<uint8_t>(MI.Aux);
        RegsOk = regs({MI.Dst});
        break;
      case MOp::Br:
        D.Op = SimOp::Br;
        if (!block(MI.Imm))
          return bad("branch target out of range");
        D.Imm = BlockPC[static_cast<size_t>(MI.Imm)];
        break;
      case MOp::CondBr:
        D.Op = SimOp::CondBr;
        if (!block(MI.Imm) || !block(MI.Imm2))
          return bad("branch target out of range");
        D.Imm = BlockPC[static_cast<size_t>(MI.Imm)];
        D.Src2 = BlockPC[static_cast<size_t>(MI.Imm2)];
        RegsOk = regs({MI.Src1});
        break;
      case MOp::Ret:
        D.Op = SimOp::Ret;
        break;
      case MOp::Nop:
      case MOp::Bar:
        break; // dropped above
      }
      if (!RegsOk)
        return bad(formatString(
            "register operand out of range (kernel has %u registers)",
            MF.NumRegs));
      Out.Code.push_back(D);
    }
  }
  return true;
}
