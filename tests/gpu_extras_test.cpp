//===- gpu_extras_test.cpp - device model detail tests ----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Coverage of the simulator details not exercised by the main differential
// suites: multi-dimensional launch geometry, the L2 cache model, transfer
// timing, the profiler accumulation, barriers, failure paths, and the
// load-time validation of object bytes (per-field rejections plus a seeded
// byte-mutation sweep over every HeCBench-sim kernel).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/Compiler.h"
#include "codegen/ObjectFile.h"
#include "gpu/PerfModel.h"
#include "gpu/Runtime.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "jit/AotCompiler.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <stdexcept>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::mcode;
using namespace proteus_test;

namespace {

/// Kernel writing its full 3-D coordinates: out[linear] = encoded id.
Function *buildGeometryKernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = M.createFunction("geom", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tx = B.createThreadIdx(0);
  Value *TyV = B.createThreadIdx(1);
  Value *Tz = B.createThreadIdx(2);
  Value *Bx = B.createBlockIdx(0);
  Value *Dx = B.createBlockDim(0);
  Value *Dy = B.createBlockDim(1);
  Value *Dz = B.createBlockDim(2);
  Value *Gx = B.createGridDim(0);
  // linear thread = ((bx*dz + tz)*dy + ty)*dx + tx, then scale by gridDim
  // presence to touch every special register.
  Value *L1 = B.createAdd(B.createMul(Bx, Dz), Tz);
  Value *L2 = B.createAdd(B.createMul(L1, Dy), TyV);
  Value *L3 = B.createAdd(B.createMul(L2, Dx), Tx);
  Value *Code = B.createAdd(B.createMul(L3, B.getInt32(100)), Gx);
  Value *P = B.createGep(Ctx.getI32Ty(), F->getArg(0), L3);
  B.createStore(Code, P);
  B.createRet();
  return F;
}

TEST(GeometryTest, ThreeDimensionalBlocksCoverAllThreads) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildGeometryKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  DevicePtr Out = 0;
  constexpr uint32_t Gx = 3, Bx = 4, By = 2, Bz = 2;
  constexpr uint32_t Total = Gx * Bx * By * Bz;
  ASSERT_EQ(gpuMalloc(Dev, &Out, Total * 4), GpuError::Success);
  ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{Gx, 1, 1}, Dim3{Bx, By, Bz},
                            {{Out}}, &Err),
            GpuError::Success)
      << Err;
  std::vector<int32_t> Host(Total);
  gpuMemcpyDtoH(Dev, Host.data(), Out, Total * 4);
  for (uint32_t I = 0; I != Total; ++I)
    EXPECT_EQ(Host[I], static_cast<int32_t>(I * 100 + Gx)) << "thread " << I;
  EXPECT_EQ(Dev.LastLaunch.totalThreads(), Total);
}

TEST(L2CacheTest, HitsMissesAndEviction) {
  L2Cache C(/*SizeBytes=*/16 * 128 * 2, /*LineBytes=*/128, /*Ways=*/2);
  EXPECT_FALSE(C.access(0));    // cold miss
  EXPECT_TRUE(C.access(64));    // same line
  EXPECT_FALSE(C.access(4096)); // different set/line
  EXPECT_TRUE(C.access(0));
  // Fill one set beyond associativity: set count = 16, ways = 2.
  // Lines mapping to set S: line % 16 == S.
  uint64_t LineBytes = 128, Sets = 16;
  // line numbers are address/128 + 1; choose addresses so (line % 16) == 1.
  auto AddrForLine = [&](uint64_t K) {
    return (K * Sets + 0) * LineBytes; // lines K*16+1 -> set 1
  };
  C.access(AddrForLine(1));
  C.access(AddrForLine(2));
  C.access(AddrForLine(3)); // evicts the LRU of the set
  unsigned Hits = 0;
  for (uint64_t K = 1; K <= 3; ++K)
    Hits += C.access(AddrForLine(K)) ? 1 : 0;
  EXPECT_LT(Hits, 3u) << "a 2-way set cannot retain 3 lines";
  C.reset();
  EXPECT_FALSE(C.access(0)) << "reset must drop all lines";
}

TEST(TransferModelTest, TimeScalesWithSize) {
  const TargetInfo &TI = getAmdGcnSimTarget();
  double Small = transferSeconds(TI, 1024);
  double Large = transferSeconds(TI, 64 * 1024 * 1024);
  EXPECT_GT(Large, Small);
  EXPECT_GT(Small, 0.0);
  // Latency floor dominates tiny copies.
  EXPECT_NEAR(transferSeconds(TI, 1) , transferSeconds(TI, 512), 1e-6);
}

TEST(ProfilerTest, AccumulatesAcrossLaunches) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, 64 * 8);
  gpuMalloc(Dev, &Y, 64 * 8);
  std::vector<KernelArg> Args = {{sem::boxF64(1.0)}, {X}, {Y}, {64}};
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                              &Err),
              GpuError::Success);
  const LaunchStats &P = Dev.Profile.at("daxpy");
  EXPECT_EQ(P.MemStores, 3u * 64);
  EXPECT_EQ(P.Blocks, 3u * 2);
  // Durations vary slightly per launch (L2 warm-up): check accumulation.
  EXPECT_GT(P.DurationSec, 2.0 * Dev.LastLaunch.DurationSec);
  EXPECT_GT(Dev.kernelSeconds(), 0.0);
}

TEST(ExecutorTest, BarrierCountsAndRuns) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("bar", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tid = B.createThreadIdx(0);
  B.createBarrier();
  B.createStore(Tid, B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid));
  B.createBarrier();
  B.createRet();
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  DevicePtr Out = 0;
  gpuMalloc(Dev, &Out, 16 * 4);
  ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{16, 1, 1}, {{Out}},
                            &Err),
            GpuError::Success);
  EXPECT_EQ(Dev.LastLaunch.Barriers, 2u * 16);
}

TEST(ExecutorTest, WrongArgumentCountFails) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  EXPECT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{1, 1, 1},
                            {{1}, {2}}, &Err),
            GpuError::LaunchFailure);
  EXPECT_NE(Err.find("argument count"), std::string::npos);
}

MachineInstr makeInstr(MOp Op, Reg Dst, Reg Src1, Reg Src2, int64_t Imm) {
  MachineInstr MI;
  MI.Op = Op;
  MI.Dst = Dst;
  MI.Src1 = Src1;
  MI.Src2 = Src2;
  MI.Imm = Imm;
  return MI;
}

/// Hand-built allocated kernel: a loop that counts r0 from 0 to 3.
///   b0: r0 = 0; r1 = 1; r2 = 3; br b1                 (4 instructions)
///   b1: r0 = r0 + r1; r3 = r0 < r2; condbr r3 b1 b2  (3, runs 3 times)
///   b2: ret                                           (1)
MachineFunction countedLoopKernel() {
  MachineFunction MF;
  MF.Name = "counted";
  MF.NumRegs = 4;
  MF.Allocated = true;
  MachineInstr Add = makeInstr(MOp::Binary, 0, 0, 1, 0);
  Add.Aux = static_cast<uint16_t>(ValueKind::Add);
  MachineInstr Cmp = makeInstr(MOp::ICmp, 3, 0, 2, 0);
  Cmp.Aux = static_cast<uint16_t>(ICmpPred::SLT);
  MachineInstr Cond = makeInstr(MOp::CondBr, NoReg, 3, NoReg, 1);
  Cond.Imm2 = 2;
  MF.Blocks.push_back({"b0",
                       {makeInstr(MOp::MovImm, 0, NoReg, NoReg, 0),
                        makeInstr(MOp::MovImm, 1, NoReg, NoReg, 1),
                        makeInstr(MOp::MovImm, 2, NoReg, NoReg, 3),
                        makeInstr(MOp::Br, NoReg, NoReg, NoReg, 1)}});
  MF.Blocks.push_back({"b1", {Add, Cmp, Cond}});
  MF.Blocks.push_back({"b2", {makeInstr(MOp::Ret, NoReg, NoReg, NoReg, 0)}});
  return MF;
}

/// Instructions one thread of countedLoopKernel executes (MovImm and
/// terminators included: every instruction is a step).
uint64_t countedLoopSteps() { return 4 + 3 * 3 + 1; }

TEST(ExecutorTest, InfiniteLoopHitsStepLimit) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("spin", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Loop = F->createBlock("loop", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  B.createBr(Loop);
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  LaunchResult R = launchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{1, 1, 1}, {},
                                /*MaxStepsPerThread=*/1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);

  // Boundary: a counted loop whose thread executes exactly
  // countedLoopSteps() instructions. The step limit is charged per block
  // entry, so this pins that it fails neither early nor late.
  LoadedKernel *Counted = nullptr;
  ASSERT_EQ(gpuModuleLoad(Dev, &Counted,
                          writeObject(countedLoopKernel(), GpuArch::AmdGcnSim),
                          &Err),
            GpuError::Success)
      << Err;
  LaunchResult Exact = launchKernel(Dev, *Counted, Dim3{1, 1, 1},
                                    Dim3{1, 1, 1}, {}, countedLoopSteps());
  EXPECT_TRUE(Exact.Ok) << Exact.Error;
  LaunchResult OneShort = launchKernel(Dev, *Counted, Dim3{1, 1, 1},
                                       Dim3{1, 1, 1}, {},
                                       countedLoopSteps() - 1);
  EXPECT_FALSE(OneShort.Ok);
  EXPECT_NE(OneShort.Error.find("step limit"), std::string::npos);
}

TEST(MachineIRTest, DisassemblyIsReadable) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  mcode::MachineFunction MF = compileKernel(*F, getAmdGcnSimTarget());
  std::string Text = mcode::printMachineFunction(MF);
  EXPECT_NE(Text.find("daxpy"), std::string::npos);
  EXPECT_NE(Text.find("ld.global"), std::string::npos);
  EXPECT_NE(Text.find("st.global"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(PerfModelTest, ZeroInstructionLaunchPaysOnlyLaunchLatency) {
  // An empty kernel (or a body guarded off for every thread) retires no
  // instructions; the model must not divide by the zero counts and the
  // launch costs exactly the fixed launch latency.
  for (const TargetInfo *T :
       {&getAmdGcnSimTarget(), &getNvPtxSimTarget()}) {
    LaunchStats S;
    S.Kernel = "empty";
    S.Blocks = 4;
    S.ThreadsPerBlock = 64;
    S.RegsUsed = 8;
    applyPerfModel(*T, S);
    EXPECT_DOUBLE_EQ(S.DurationSec, 4e-6) << T->Name;
    EXPECT_EQ(S.IPC, 0.0) << T->Name;
    EXPECT_EQ(S.VALUBusyPct, 0.0) << T->Name;
    EXPECT_EQ(S.StallPct, 0.0) << T->Name;
    EXPECT_TRUE(std::isfinite(S.Occupancy)) << T->Name;
    EXPECT_GT(S.Occupancy, 0.0) << T->Name;
    EXPECT_LE(S.Occupancy, 1.0) << T->Name;
  }
}

TEST(DeviceTest, CrossArchObjectRejected) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getNvPtxSimTarget());
  Device Amd(getAmdGcnSimTarget(), 1 << 16);
  LoadedKernel *K = nullptr;
  std::string Err;
  EXPECT_EQ(gpuModuleLoad(Amd, &K, Obj, &Err), GpuError::InvalidValue);
  EXPECT_NE(Err.find("nvptx-sim"), std::string::npos);
}

// -- Load-time validation ---------------------------------------------------

uint64_t loadRejects() {
  return metrics::processRegistry().counter("gpu.load_rejects").value();
}

/// A valid allocated kernel that uses every operand field the validator
/// checks: both parameter homes, a spill slot, local scratch, and one
/// instruction of each sub-opcode-carrying machine opcode.
MachineFunction probeKernel() {
  MachineFunction MF;
  MF.Name = "probe";
  MF.NumRegs = 4;
  MF.NumSpillSlots = 1;
  MF.LocalBytes = 8;
  MF.Allocated = true;
  MF.Params = {{Type::Kind::I64, 0, -1}, {Type::Kind::I64, NoReg, 0}};
  auto sub = [](MOp Op, Reg Dst, Reg Src1, Reg Src2, Type::Kind T,
                uint16_t Aux) {
    MachineInstr MI = makeInstr(Op, Dst, Src1, Src2, 0);
    MI.TypeTag = T;
    MI.Aux = Aux;
    return MI;
  };
  MachineInstr Cast = sub(MOp::Cast, 2, 1, NoReg, Type::Kind::I32,
                          static_cast<uint16_t>(ValueKind::SExt));
  Cast.Imm2 = static_cast<int32_t>(Type::Kind::I64);
  MachineInstr Sel = makeInstr(MOp::Sel, 2, 3, 1, 0);
  Sel.Src3 = 2;
  MachineInstr Cond = makeInstr(MOp::CondBr, NoReg, 3, NoReg, 1);
  Cond.Imm2 = 1;
  MF.Blocks.push_back(
      {"entry",
       {sub(MOp::ReadSpecial, 1, NoReg, NoReg, Type::Kind::I32,
            static_cast<uint16_t>(SpecialReg::TidX)),
        sub(MOp::Binary, 2, 0, 1, Type::Kind::I64,
            static_cast<uint16_t>(ValueKind::Add)),
        sub(MOp::Unary, 2, 2, NoReg, Type::Kind::F64,
            static_cast<uint16_t>(ValueKind::FNeg)),
        Cast,
        sub(MOp::ICmp, 3, 1, 2, Type::Kind::I64,
            static_cast<uint16_t>(ICmpPred::EQ)),
        sub(MOp::FCmp, 3, 2, 2, Type::Kind::F64,
            static_cast<uint16_t>(FCmpPred::OLT)),
        Sel,
        makeInstr(MOp::LdSpill, 1, NoReg, NoReg, 0),
        makeInstr(MOp::StSpill, NoReg, 1, NoReg, 0),
        makeInstr(MOp::Alloca, 1, NoReg, NoReg, 0),
        Cond}});
  MF.Blocks.push_back({"exit", {makeInstr(MOp::Ret, NoReg, NoReg, NoReg, 0)}});
  return MF;
}

/// The first instruction of \p MF with opcode \p Op.
MachineInstr &firstOf(MachineFunction &MF, MOp Op) {
  for (MachineBlock &MB : MF.Blocks)
    for (MachineInstr &MI : MB.Instrs)
      if (MI.Op == Op)
        return MI;
  throw std::runtime_error("probe kernel lacks the opcode");
}

TEST(ObjectValidationTest, ProbeKernelLoadsAndRuns) {
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  LoadedKernel *K = nullptr;
  std::string Err;
  uint64_t Before = loadRejects();
  ASSERT_EQ(gpuModuleLoad(Dev, &K, writeObject(probeKernel(),
                                               GpuArch::AmdGcnSim),
                          &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(loadRejects(), Before);
  ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{4, 1, 1}, {{1}, {2}},
                            &Err),
            GpuError::Success)
      << Err;
}

TEST(ObjectValidationTest, EachMalformedFieldIsRejectedAndCounted) {
  struct Case {
    const char *Field;
    std::function<void(MachineFunction &)> Break;
  };
  const Case Cases[] = {
      // Crashed the per-instruction executor: a write far past Regs[].
      {"Dst",
       [](MachineFunction &MF) { firstOf(MF, MOp::Binary).Dst = 1u << 26; }},
      {"Src1", [](MachineFunction &MF) { firstOf(MF, MOp::Binary).Src1 = 4; }},
      {"Src2", [](MachineFunction &MF) { firstOf(MF, MOp::ICmp).Src2 = 4; }},
      {"Src3", [](MachineFunction &MF) { firstOf(MF, MOp::Sel).Src3 = 4; }},
      {"spill slot",
       [](MachineFunction &MF) { firstOf(MF, MOp::StSpill).Imm = 1; }},
      {"param ArgReg", [](MachineFunction &MF) { MF.Params[0].ArgReg = 4; }},
      {"param SpillSlot",
       [](MachineFunction &MF) { MF.Params[1].SpillSlot = 1; }},
      {"binary ValueKind",
       [](MachineFunction &MF) {
         firstOf(MF, MOp::Binary).Aux = static_cast<uint16_t>(ValueKind::FNeg);
       }},
      {"unary ValueKind",
       [](MachineFunction &MF) {
         firstOf(MF, MOp::Unary).Aux = static_cast<uint16_t>(ValueKind::Add);
       }},
      {"cast ValueKind",
       [](MachineFunction &MF) {
         firstOf(MF, MOp::Cast).Aux = static_cast<uint16_t>(ValueKind::Sqrt);
       }},
      {"icmp predicate",
       [](MachineFunction &MF) { firstOf(MF, MOp::ICmp).Aux = 10; }},
      {"fcmp predicate",
       [](MachineFunction &MF) { firstOf(MF, MOp::FCmp).Aux = 6; }},
      {"SpecialReg",
       [](MachineFunction &MF) { firstOf(MF, MOp::ReadSpecial).Aux = 12; }},
      {"cast destination type",
       [](MachineFunction &MF) { firstOf(MF, MOp::Cast).Imm2 = 7; }},
      {"empty block",
       [](MachineFunction &MF) { MF.Blocks.push_back({"empty", {}}); }},
      {"missing terminator",
       [](MachineFunction &MF) { MF.Blocks[0].Instrs.pop_back(); }},
      {"mid-block terminator",
       [](MachineFunction &MF) {
         auto &Instrs = MF.Blocks[0].Instrs;
         Instrs.insert(Instrs.begin(),
                       makeInstr(MOp::Ret, NoReg, NoReg, NoReg, 0));
       }},
      {"NumRegs cap",
       [](MachineFunction &MF) { MF.NumRegs = MaxKernelRegs + 1; }},
      {"NumSpillSlots cap",
       [](MachineFunction &MF) { MF.NumSpillSlots = MaxKernelSpillSlots + 1; }},
      {"LocalBytes cap",
       [](MachineFunction &MF) { MF.LocalBytes = MaxKernelLocalBytes + 1; }},
  };
  for (const Case &C : Cases) {
    MachineFunction MF = probeKernel();
    C.Break(MF);
    Device Dev(getAmdGcnSimTarget(), 1 << 16);
    LoadedKernel *K = nullptr;
    std::string Err;
    uint64_t Before = loadRejects();
    EXPECT_EQ(gpuModuleLoad(Dev, &K, writeObject(MF, GpuArch::AmdGcnSim),
                            &Err),
              GpuError::InvalidValue)
        << C.Field;
    EXPECT_FALSE(Err.empty()) << C.Field;
    EXPECT_EQ(loadRejects(), Before + 1) << C.Field;
  }
}

TEST(ObjectValidationTest, HecbenchObjectMutationSweep) {
  // Every mutant of every HeCBench-sim kernel object, on both arches, is
  // either rejected at load or launches (one thread, step-capped) without
  // crashing; what a mutant computes or whether its launch fails does not
  // matter.
  constexpr unsigned MutantsPerObject = 256;
  std::mt19937_64 Rng(0x5eed);
  unsigned Objects = 0, Rejected = 0, Launched = 0;
  for (const auto &B : hecbench::allBenchmarks()) {
    for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
      Context Ctx;
      auto M = B->buildModule(Ctx);
      AotOptions AO;
      AO.Arch = Arch;
      CompiledProgram P = aotCompile(*M, AO);
      Device Dev(getTarget(Arch), 1 << 22);
      for (const ImageGlobal &G : P.Image.Globals)
        Dev.registerGlobal(G.Name, G.Bytes, G.Init);
      DevicePtr Buf = 0;
      ASSERT_EQ(gpuMalloc(Dev, &Buf, 1 << 16), GpuError::Success);
      for (const auto &[Symbol, Object] : P.Image.KernelObjects) {
        ++Objects;
        for (unsigned I = 0; I != MutantsPerObject; ++I) {
          std::vector<uint8_t> Mutant = Object;
          unsigned Flips = 1 + static_cast<unsigned>(Rng() % 4);
          for (unsigned F = 0; F != Flips; ++F)
            Mutant[Rng() % Mutant.size()] = static_cast<uint8_t>(Rng());
          LoadedKernel *K = nullptr;
          std::string Err;
          if (gpuModuleLoad(Dev, &K, Mutant, &Err) != GpuError::Success) {
            ++Rejected;
            continue;
          }
          ++Launched;
          std::vector<KernelArg> Args(K->Params.size(), KernelArg{Buf});
          launchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{1, 1, 1}, Args,
                       /*MaxStepsPerThread=*/20000);
        }
      }
    }
  }
  EXPECT_GE(Objects, 12u);
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Launched, 0u);
}

} // namespace
