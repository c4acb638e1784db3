/**
 * @file
 * Differential tests of the pre-decoded micro-op dispatch path against
 * the legacy structural-ISA interpreter: every opcode is executed
 * through both paths in lockstep and the full architectural state
 * (register files, call stacks, rt-frame depth, SIMT-stack splits,
 * memory traffic) must stay bit-identical after every step. Also holds
 * the decode-count contract: the structural reference never decodes a
 * micro-op, the micro-op path decodes exactly one per dynamic
 * instruction (including across divergence/reconvergence splits), and
 * the timed model's decode total equals its issue attempts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "gpu/gpu.h"
#include "service/service.h"
#include "vptx/exec.h"
#include "vptx/rtstack.h"
#include "workloads/workload.h"

namespace vksim::vptx {
namespace {

// --- instruction builders -----------------------------------------------

Instr
ins(Opcode op, int dst = -1, int s0 = -1, int s1 = -1, int s2 = -1)
{
    Instr i;
    i.op = op;
    i.dst = static_cast<std::int16_t>(dst);
    i.src0 = static_cast<std::int16_t>(s0);
    i.src1 = static_cast<std::int16_t>(s1);
    i.src2 = static_cast<std::int16_t>(s2);
    return i;
}

/** Opcodes whose payload is the immediate (MovImm, LoadLaunchId, ...). */
Instr
immOp(Opcode op, int dst, std::uint64_t imm, int s0 = -1)
{
    Instr i = ins(op, dst, s0);
    i.imm = imm;
    return i;
}

Instr
memOp(Opcode op, int dst, int addr_reg, std::uint64_t offset,
      unsigned size, int val_reg = -1)
{
    Instr i = ins(op, dst, addr_reg, val_reg);
    i.imm = offset;
    i.size = static_cast<std::uint8_t>(size);
    return i;
}

Instr
braOp(Opcode op, int cond_reg, std::uint32_t target, std::uint32_t reconv)
{
    Instr i = ins(op, -1, cond_reg);
    i.target = target;
    i.reconv = reconv;
    return i;
}

Instr
jmpOp(std::uint32_t target)
{
    Instr i = ins(Opcode::Jmp);
    i.target = target;
    return i;
}

Instr
callOp(std::uint32_t target, std::uint64_t window)
{
    Instr i = ins(Opcode::Call);
    i.target = target;
    i.imm = window;
    return i;
}

std::uint64_t
fbits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

// --- lockstep harness ---------------------------------------------------

/** One independent executor world around a hand-built program. */
struct Side
{
    GlobalMemory gmem;
    Program program;
    LaunchContext ctx;
    Warp warp;
    std::unique_ptr<WarpExecutor> exec;

    void
    init(const std::vector<Instr> &code, unsigned num_regs,
         bool structural)
    {
        program.code = code;
        ShaderInfo raygen;
        raygen.name = "diff";
        raygen.stage = ShaderStage::RayGen;
        raygen.entryPc = 0;
        raygen.numRegs = static_cast<std::uint16_t>(num_regs);
        program.shaders.push_back(raygen);
        program.raygenShader = 0;

        ctx.program = &program;
        ctx.gmem = &gmem;
        ctx.launchSize[0] = kWarpSize;
        ctx.launchSize[1] = 1;
        ctx.rtStackBase =
            gmem.allocate(kWarpSize * kRtStackBytesPerThread, 64);
        ctx.scratchBase =
            gmem.allocate(kWarpSize * kRtScratchBytesPerThread, 64);

        ExecOptions opts;
        opts.structuralDispatch = structural;
        exec = std::make_unique<WarpExecutor>(ctx, opts);
        initWarp(warp, 0, ctx, WarpCflow::Mode::Stack);
    }
};

void
expectSameStep(const StepResult &a, const StepResult &b)
{
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.activeLanes, b.activeLanes);
    EXPECT_EQ(a.dstReg, b.dstReg);
    EXPECT_EQ(a.exited, b.exited);
    EXPECT_EQ(a.startedTraverse, b.startedTraverse);
    EXPECT_EQ(a.traverseSplitId, b.traverseSplitId);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
        EXPECT_EQ(a.accesses[i].lane, b.accesses[i].lane) << "access " << i;
        EXPECT_EQ(a.accesses[i].write, b.accesses[i].write)
            << "access " << i;
        EXPECT_EQ(a.accesses[i].size, b.accesses[i].size) << "access " << i;
        EXPECT_EQ(a.accesses[i].addr, b.accesses[i].addr) << "access " << i;
    }
}

void
expectSameWarp(const Warp &a, const Warp &b)
{
    // SIMT stack: same splits in the same table order.
    ASSERT_EQ(a.cflow.splitCount(), b.cflow.splitCount());
    EXPECT_EQ(a.cflow.runnableCount(), b.cflow.runnableCount());
    EXPECT_EQ(a.cflow.liveMask(), b.cflow.liveMask());
    EXPECT_EQ(a.cflow.finished(), b.cflow.finished());
    for (unsigned i = 0; i < a.cflow.splitCount(); ++i) {
        const WarpSplit &sa = a.cflow.split(static_cast<int>(i));
        const WarpSplit &sb = b.cflow.split(static_cast<int>(i));
        EXPECT_EQ(sa.pc, sb.pc) << "split " << i;
        EXPECT_EQ(sa.mask, sb.mask) << "split " << i;
        EXPECT_EQ(sa.blocked, sb.blocked) << "split " << i;
        EXPECT_EQ(sa.id, sb.id) << "split " << i;
        EXPECT_EQ(sa.reconv, sb.reconv) << "split " << i;
    }

    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        const ThreadState &ta = a.threads[lane];
        const ThreadState &tb = b.threads[lane];
        EXPECT_EQ(ta.windowBase, tb.windowBase) << "lane " << lane;
        EXPECT_EQ(ta.rtDepth, tb.rtDepth) << "lane " << lane;
        EXPECT_EQ(ta.exited, tb.exited) << "lane " << lane;
        ASSERT_EQ(ta.callStack.size(), tb.callStack.size())
            << "lane " << lane;
        for (std::size_t f = 0; f < ta.callStack.size(); ++f) {
            EXPECT_EQ(ta.callStack[f].retPc, tb.callStack[f].retPc)
                << "lane " << lane << " frame " << f;
            EXPECT_EQ(ta.callStack[f].savedWindow,
                      tb.callStack[f].savedWindow)
                << "lane " << lane << " frame " << f;
        }

        // Register file: identical logical sizes AND identical bits.
        ASSERT_EQ(a.regs.laneSize(lane), b.regs.laneSize(lane))
            << "lane " << lane;
        const std::uint64_t *ra = a.regs.row(lane);
        const std::uint64_t *rb = b.regs.row(lane);
        for (std::uint32_t r = 0; r < a.regs.laneSize(lane); ++r)
            EXPECT_EQ(ra[r], rb[r]) << "lane " << lane << " reg " << r;
    }
}

/**
 * Step `ref` (structural) and `uop` (micro-op) warps to completion in
 * lockstep, asserting bit-identical StepResults and warp state after
 * every dynamic instruction. Returns the dynamic instruction count.
 */
std::uint64_t
runWarpLockstep(WarpExecutor &ref_exec, Warp &ref_warp,
                WarpExecutor &uop_exec, Warp &uop_warp,
                std::set<Opcode> *coverage)
{
    std::uint64_t steps = 0;
    while (!ref_warp.finished()) {
        EXPECT_FALSE(uop_warp.finished()) << "micro-op path exited early";
        if (uop_warp.finished())
            break;
        int sr = ref_warp.cflow.runnableSplit(0);
        int su = uop_warp.cflow.runnableSplit(0);
        StepResult a = ref_exec.step(ref_warp, sr);
        StepResult b = uop_exec.step(uop_warp, su);
        ++steps;
        if (coverage)
            coverage->insert(a.op);
        expectSameStep(a, b);
        if (a.startedTraverse && b.startedTraverse) {
            ref_exec.runTraverseFunctional(ref_warp, a.traverseSplitId);
            uop_exec.runTraverseFunctional(uop_warp, b.traverseSplitId);
        }
        expectSameWarp(ref_warp, uop_warp);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "paths diverged at dynamic instruction "
                          << steps << " (op "
                          << static_cast<int>(a.op) << ")";
            return steps;
        }
        if (steps > 1'000'000ull) {
            ADD_FAILURE() << "lockstep runaway";
            return steps;
        }
    }
    EXPECT_TRUE(uop_warp.finished());
    return steps;
}

/** A named differential micro-program. */
struct DiffCase
{
    const char *name;
    std::vector<Instr> code;
    unsigned numRegs = 8;
    std::function<void(Side &)> setup;          ///< after init, per side
    std::function<void(Side &, Side &)> post;   ///< after lockstep
};

void
runCase(const DiffCase &c, std::set<Opcode> *coverage = nullptr)
{
    SCOPED_TRACE(c.name);
    Side ref, uop;
    ref.init(c.code, c.numRegs, /*structural=*/true);
    uop.init(c.code, c.numRegs, /*structural=*/false);
    if (c.setup) {
        c.setup(ref);
        c.setup(uop);
    }
    std::uint64_t steps = runWarpLockstep(*ref.exec, ref.warp, *uop.exec,
                                          uop.warp, coverage);
    // Decode-count contract at micro scale: the structural reference
    // never touches the micro-op stream; the micro-op path decodes
    // exactly once per dynamic instruction.
    EXPECT_EQ(ref.exec->decodeCount(), 0u) << c.name;
    EXPECT_EQ(uop.exec->decodeCount(), steps) << c.name;
    if (c.post)
        c.post(ref, uop);
}

// --- per-opcode micro-programs ------------------------------------------

DiffCase
aluCase()
{
    DiffCase c;
    c.name = "alu";
    c.code = {
        immOp(Opcode::LoadLaunchId, 0, 0),   // tid, lane-varying
        immOp(Opcode::LoadLaunchSize, 1, 0), // kWarpSize
        immOp(Opcode::MovImm, 2, 0xDEADBEEFCAFEBABEull),
        ins(Opcode::Mov, 3, 0),
        ins(Opcode::Add, 4, 0, 2),
        ins(Opcode::Sub, 5, 0, 2),
        ins(Opcode::Mul, 6, 0, 2),
        ins(Opcode::And, 7, 2, 0),
        ins(Opcode::Or, 8, 2, 0),
        ins(Opcode::Xor, 9, 2, 0),
        ins(Opcode::Shl, 10, 2, 0),
        ins(Opcode::Shr, 11, 2, 0),
        immOp(Opcode::MovImm, 12, 65), // shift amount masked to 1
        ins(Opcode::Shl, 13, 2, 12),
        ins(Opcode::Shr, 14, 2, 12),
        ins(Opcode::ISetEq, 15, 0, 3),
        ins(Opcode::ISetNe, 16, 0, 1),
        ins(Opcode::ISetLt, 17, 2, 0), // signed: 0xDEAD... is negative
        ins(Opcode::ISetGe, 18, 2, 0),
        ins(Opcode::U2F, 19, 0),
        immOp(Opcode::MovImm, 20, fbits(3.25f)),
        ins(Opcode::FAdd, 21, 19, 20),
        ins(Opcode::FSub, 22, 19, 20),
        ins(Opcode::FMul, 23, 19, 20),
        ins(Opcode::FDiv, 24, 19, 20),
        immOp(Opcode::MovImm, 25, fbits(0.0f)),
        ins(Opcode::FDiv, 26, 19, 25), // lane 0: 0/0 = NaN, rest inf
        ins(Opcode::FMin, 27, 26, 20), // NaN operand
        ins(Opcode::FMax, 28, 26, 20),
        ins(Opcode::FNeg, 29, 19),
        ins(Opcode::FAbs, 30, 29),
        ins(Opcode::FFloor, 31, 24),
        ins(Opcode::FSetLt, 32, 19, 20),
        ins(Opcode::FSetLe, 33, 19, 20),
        ins(Opcode::FSetGt, 34, 19, 20),
        ins(Opcode::FSetGe, 35, 19, 20),
        ins(Opcode::FSetEq, 36, 26, 26), // NaN != NaN on lane 0
        ins(Opcode::FSetNe, 37, 26, 26),
        immOp(Opcode::MovImm, 38, static_cast<std::uint64_t>(-5)),
        ins(Opcode::I2F, 39, 38),
        ins(Opcode::F2I, 40, 29), // negative float
        ins(Opcode::F2U, 41, 29), // negative float -> 0
        ins(Opcode::F2U, 42, 19),
        ins(Opcode::F2I, 43, 21),
        ins(Opcode::Select, 44, 15, 2, 0),
        ins(Opcode::Select, 45, 7, 2, 0), // lane-varying condition
        ins(Opcode::Nop),
        ins(Opcode::Exit),
    };
    return c;
}

DiffCase
sfuCase()
{
    DiffCase c;
    c.name = "sfu";
    c.code = {
        immOp(Opcode::LoadLaunchId, 0, 0),
        ins(Opcode::U2F, 1, 0),
        immOp(Opcode::MovImm, 2, fbits(0.5f)),
        ins(Opcode::FMul, 3, 1, 2),
        ins(Opcode::FSqrt, 4, 3),
        ins(Opcode::FRsqrt, 5, 3), // lane 0: rsqrt(0) = inf
        ins(Opcode::FSin, 6, 3),
        ins(Opcode::FCos, 7, 3),
        ins(Opcode::FNeg, 8, 3),
        ins(Opcode::FSqrt, 9, 8), // sqrt of negative -> NaN
        ins(Opcode::Exit),
    };
    return c;
}

DiffCase
memoryCase()
{
    DiffCase c;
    c.name = "memory";
    // Per-thread scratch (RtAllocMem) gives lane-varying addresses
    // without host-side coordination between the two sides.
    c.code = {
        immOp(Opcode::RtAllocMem, 1, 0),
        immOp(Opcode::MovImm, 2, 0x1122334455667788ull),
        immOp(Opcode::LoadLaunchId, 0, 0),
        ins(Opcode::Add, 3, 2, 0),
        memOp(Opcode::St, -1, 1, 0, 8, 3),
        memOp(Opcode::St, -1, 1, 8, 4, 3),
        memOp(Opcode::St, -1, 1, 17, 2, 3),
        memOp(Opcode::St, -1, 1, 24, 1, 3),
        memOp(Opcode::Ld, 4, 1, 0, 8),
        memOp(Opcode::Ld, 5, 1, 8, 4),
        memOp(Opcode::Ld, 6, 1, 17, 2),
        memOp(Opcode::Ld, 7, 1, 24, 1),
        ins(Opcode::Exit),
    };
    return c;
}

DiffCase
branchCase()
{
    DiffCase c;
    c.name = "branch";
    c.code = {
        /* 0*/ immOp(Opcode::LoadLaunchId, 0, 0),
        /* 1*/ immOp(Opcode::MovImm, 1, 1),
        /* 2*/ ins(Opcode::And, 2, 0, 1), // odd lanes taken
        /* 3*/ braOp(Opcode::Bra, 2, 6, 8),
        /* 4*/ immOp(Opcode::MovImm, 3, 111),
        /* 5*/ jmpOp(8),
        /* 6*/ immOp(Opcode::MovImm, 3, 222),
        /* 7*/ ins(Opcode::Nop),
        /* 8*/ ins(Opcode::Add, 4, 3, 0), // reconverged
        /* 9*/ braOp(Opcode::BraZ, 2, 12, 14),
        /*10*/ immOp(Opcode::MovImm, 5, 1),
        /*11*/ jmpOp(14),
        /*12*/ immOp(Opcode::MovImm, 5, 2),
        /*13*/ ins(Opcode::Nop),
        /*14*/ immOp(Opcode::MovImm, 6, 0),
        /*15*/ braOp(Opcode::BraZ, 6, 17, 17), // uniformly taken
        /*16*/ immOp(Opcode::MovImm, 7, 999),  // dead
        /*17*/ braOp(Opcode::Bra, 6, 20, 21),  // uniformly not taken
        /*18*/ immOp(Opcode::MovImm, 8, 5),
        /*19*/ jmpOp(21),
        /*20*/ immOp(Opcode::MovImm, 8, 6), // dead
        /*21*/ ins(Opcode::Exit),
    };
    return c;
}

DiffCase
callRetCase()
{
    DiffCase c;
    c.name = "call_ret";
    c.code = {
        /* 0*/ immOp(Opcode::MovImm, 0, 7),
        /* 1*/ callOp(5, 8), // window += 8
        /* 2*/ ins(Opcode::Mov, 1, 8), // callee's r0 is caller's r8
        /* 3*/ ins(Opcode::Add, 2, 1, 0),
        /* 4*/ ins(Opcode::Exit),
        /* 5*/ immOp(Opcode::MovImm, 0, 42),
        /* 6*/ callOp(9, 4), // nested, window += 4
        /* 7*/ ins(Opcode::Ret),
        /* 8*/ ins(Opcode::Nop), // unreachable
        /* 9*/ immOp(Opcode::MovImm, 0, 17),
        /*10*/ ins(Opcode::Ret),
    };
    return c;
}

DiffCase
rtFrameCase()
{
    DiffCase c;
    c.name = "rt_frames";
    c.code = {
        ins(Opcode::RtPushFrame),
        immOp(Opcode::RtFrameAddr, 1, 0),
        ins(Opcode::RtPushFrame),
        immOp(Opcode::RtFrameAddr, 2, 0),
        ins(Opcode::Sub, 3, 2, 1), // frame stride
        immOp(Opcode::RtAllocMem, 4, 16),
        immOp(Opcode::DescBase, 5, 0),
        immOp(Opcode::LoadLaunchSize, 6, 1),
        ins(Opcode::EndTraceRay),
        ins(Opcode::EndTraceRay),
        ins(Opcode::Exit),
    };
    c.setup = [](Side &s) { s.ctx.descBase[0] = 0x5000; };
    return c;
}

/** Fill every lane's depth-0 frame with a deferred candidate. */
void
fillFrames(Side &s)
{
    for (std::uint32_t tid = 0; tid < kWarpSize; ++tid) {
        Addr fb = s.ctx.frameBase(tid, 0);
        s.gmem.store<std::uint32_t>(fb + frame::kCurrentDeferred, 1);
        s.gmem.store<float>(fb + frame::kHitT,
                            (tid & 1) ? 0.35f : 1.0f);
        s.gmem.store<float>(fb + frame::kRayTmin, 0.5f);
        Addr entry = deferredEntryAddr(fb, 1);
        s.gmem.store<float>(entry + frame::kDefT,
                            0.25f + 0.05f * static_cast<float>(tid));
        s.gmem.store<std::int32_t>(entry + frame::kDefInstance,
                                   static_cast<std::int32_t>(tid));
        s.gmem.store<std::int32_t>(entry + frame::kDefPrim,
                                   static_cast<std::int32_t>(2 * tid + 1));
        s.gmem.store<std::int32_t>(entry + frame::kDefCustomIndex, 7);
        s.gmem.store<std::int32_t>(entry + frame::kDefSbtOffset, 3);
        s.gmem.store<float>(entry + frame::kDefU, 0.5f);
        s.gmem.store<float>(entry + frame::kDefV, 0.25f);
    }
}

/** Byte-compare every lane's depth-0 frame between the two sides. */
void
compareFrames(Side &a, Side &b)
{
    std::vector<std::uint8_t> fa(kRtFrameBytes), fb(kRtFrameBytes);
    for (std::uint32_t tid = 0; tid < kWarpSize; ++tid) {
        a.gmem.read(a.ctx.frameBase(tid, 0), fa.data(), kRtFrameBytes);
        b.gmem.read(b.ctx.frameBase(tid, 0), fb.data(), kRtFrameBytes);
        EXPECT_EQ(0, std::memcmp(fa.data(), fb.data(), kRtFrameBytes))
            << "frame bytes differ for tid " << tid;
    }
}

DiffCase
reportCommitCase()
{
    DiffCase c;
    c.name = "report_commit";
    c.code = {
        ins(Opcode::RtPushFrame),
        immOp(Opcode::LoadLaunchId, 0, 0),
        ins(Opcode::U2F, 1, 0),
        immOp(Opcode::MovImm, 2, fbits(0.1f)),
        ins(Opcode::FMul, 3, 1, 2),
        immOp(Opcode::MovImm, 4, fbits(0.3f)),
        ins(Opcode::FAdd, 5, 3, 4), // t = 0.3 + 0.1*tid
        ins(Opcode::ReportIntersection, 6, 5),
        ins(Opcode::CommitAnyHit, 7),
        ins(Opcode::EndTraceRay),
        ins(Opcode::Exit),
    };
    c.setup = fillFrames;
    c.post = compareFrames;
    return c;
}

DiffCase
fccCase()
{
    DiffCase c;
    c.name = "fcc";
    c.code = {
        ins(Opcode::RtPushFrame),
        immOp(Opcode::MovImm, 0, 0),
        ins(Opcode::GetNextCoalescedCall, 1, 0),
        immOp(Opcode::MovImm, 0, 1),
        ins(Opcode::GetNextCoalescedCall, 2, 0), // past last row -> -1
        ins(Opcode::EndTraceRay),
        ins(Opcode::Exit),
    };
    c.setup = [](Side &s) {
        CoalescedRow row;
        row.shaderId = 5;
        row.mask = 0x0000FF0Fu;
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            row.entryIdx[lane] = static_cast<std::uint16_t>(lane % 3);
        s.warp.fccRows.push_back(row);
    };
    c.post = compareFrames;
    return c;
}

std::vector<DiffCase>
microCases()
{
    return {aluCase(),    sfuCase(),     memoryCase(),       branchCase(),
            callRetCase(), rtFrameCase(), reportCommitCase(), fccCase()};
}

// --- one test per micro-program (failure isolation) ---------------------

TEST(VptxUopDiffTest, AluOpsBitIdentical) { runCase(aluCase()); }
TEST(VptxUopDiffTest, SfuOpsBitIdentical) { runCase(sfuCase()); }
TEST(VptxUopDiffTest, MemoryOpsBitIdentical) { runCase(memoryCase()); }
TEST(VptxUopDiffTest, BranchDivergenceBitIdentical)
{
    runCase(branchCase());
}
TEST(VptxUopDiffTest, CallRetWindowsBitIdentical)
{
    runCase(callRetCase());
}
TEST(VptxUopDiffTest, RtFrameOpsBitIdentical) { runCase(rtFrameCase()); }
TEST(VptxUopDiffTest, ReportAndCommitBitIdentical)
{
    runCase(reportCommitCase());
}
TEST(VptxUopDiffTest, CoalescedCallLookupBitIdentical)
{
    runCase(fccCase());
}

// --- end-to-end: a real ray-tracing launch in lockstep ------------------

/**
 * Drive every warp of two identical workload launches through the
 * structural and micro-op executors in lockstep (including parked
 * traverseAS splits), then byte-compare the rendered framebuffers.
 */
std::uint64_t
lockstepLaunch(const LaunchContext &ca, const LaunchContext &cb,
               std::set<Opcode> *coverage)
{
    ExecOptions structural;
    structural.structuralDispatch = true;
    WarpExecutor ea(ca, structural);
    WarpExecutor eb(cb);

    const std::uint32_t total = ca.totalThreads();
    const std::uint32_t num_warps = (total + kWarpSize - 1) / kWarpSize;
    std::uint64_t steps = 0;
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        Warp wa, wb;
        initWarp(wa, w, ca, WarpCflow::Mode::Stack);
        initWarp(wb, w, cb, WarpCflow::Mode::Stack);
        steps += runWarpLockstep(ea, wa, eb, wb, coverage);
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_EQ(ea.decodeCount(), 0u);
    EXPECT_EQ(eb.decodeCount(), steps);
    return steps;
}

TEST(VptxUopDiffTest, RayTracingWorkloadLockstep)
{
    wl::WorkloadParams p;
    p.width = 8;
    p.height = 8;
    wl::Workload a(wl::WorkloadId::REF, p);
    wl::Workload b(wl::WorkloadId::REF, p);

    std::set<Opcode> cov;
    lockstepLaunch(a.launch(), b.launch(), &cov);
    EXPECT_TRUE(cov.count(Opcode::TraverseAS))
        << "workload did not exercise traverseAS";

    // The two worlds rendered the same image, byte for byte.
    Addr fba = a.framebuffer();
    Addr fbb = b.framebuffer();
    for (unsigned i = 0; i < 8 * 8 * 3; ++i) {
        std::uint32_t va =
            a.device().memory().load<std::uint32_t>(fba + 4ull * i);
        std::uint32_t vb =
            b.device().memory().load<std::uint32_t>(fbb + 4ull * i);
        ASSERT_EQ(va, vb) << "pixel component " << i;
    }
}

// --- full-ISA coverage gate ---------------------------------------------

TEST(VptxUopDiffTest, EveryOpcodeCovered)
{
    std::set<Opcode> cov;
    for (const DiffCase &c : microCases())
        runCase(c, &cov);

    // traverseAS needs a real acceleration structure: cover it (and the
    // shader-library idiom of every other opcode) via the REF workload.
    wl::WorkloadParams p;
    p.width = 8;
    p.height = 8;
    wl::Workload a(wl::WorkloadId::REF, p);
    wl::Workload b(wl::WorkloadId::REF, p);
    lockstepLaunch(a.launch(), b.launch(), &cov);

    const auto last =
        static_cast<unsigned>(Opcode::GetNextCoalescedCall);
    for (unsigned op = 0; op <= last; ++op)
        EXPECT_TRUE(cov.count(static_cast<Opcode>(op)))
            << "opcode " << op
            << " never executed through the differential sweep";
}

// --- decode-count regressions (one decode per dynamic instruction) ------

TEST(DecodeCountTest, FunctionalRunnerDecodesOncePerInstruction)
{
    // Divergent control flow: the predecoded micro-op must be reused
    // across split/reconvergence, never decoded twice per dynamic
    // instruction.
    Side s;
    s.init(branchCase().code, 8, /*structural=*/false);
    FunctionalRunner runner(s.ctx);
    runner.run();
    EXPECT_GT(runner.decodeCount(), 0u);
    EXPECT_EQ(runner.decodeCount(), runner.stats().get("instructions"));
}

TEST(DecodeCountTest, FunctionalWorkloadDecodesOncePerInstruction)
{
    wl::WorkloadParams p;
    p.width = 8;
    p.height = 8;
    wl::Workload w(wl::WorkloadId::REF, p);
    FunctionalRunner runner(w.launch());
    runner.run();
    EXPECT_GT(runner.decodeCount(), 0u);
    EXPECT_EQ(runner.decodeCount(), runner.stats().get("instructions"));
}

TEST(DecodeCountTest, TimedDecodesEqualIssueAttempts)
{
    // The SM fetches exactly one micro-op per issue attempt: decodes ==
    // issued instructions + stalled attempts, nothing more.
    wl::WorkloadParams p;
    p.width = 16;
    p.height = 16;
    wl::Workload w(wl::WorkloadId::REF, p);
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 2;
    cfg.fabric.numPartitions = 2;
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    const MetricsRegistry &m = run.metrics;
    EXPECT_GT(m.get("gpu.core.issued"), 0u);
    EXPECT_EQ(run.uopDecodes,
              m.get("gpu.core.issued") + m.get("gpu.core.stall_scoreboard")
                  + m.get("gpu.core.stall_ldst_queue")
                  + m.get("gpu.core.stall_sfu")
                  + m.get("gpu.core.stall_rt_full"));
}

} // namespace
} // namespace vksim::vptx
