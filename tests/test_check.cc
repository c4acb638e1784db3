/**
 * @file
 * Validation-subsystem tests: level parsing, digest/trace primitives,
 * the collect-mode reporter, and end-to-end exercises of the harness on
 * real workloads — Full-level invariant sweeps must come back clean on
 * the serial and the threaded engine, the structural BVH checker must
 * accept every builder output, and an injected digest fault must be
 * localized to exactly the (cycle, unit) where it was planted (the
 * harness's own false-negative test).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "check/accelcheck.h"
#include "check/check.h"
#include "core/vulkansim.h"
#include "vptx/exec.h"
#include "vptx/rtstack.h"
#include "service/service.h"

namespace vksim {
namespace {

using wl::Workload;
using wl::WorkloadId;
using wl::WorkloadParams;

WorkloadParams
tiny(WorkloadId id)
{
    WorkloadParams p;
    p.width = 16;
    p.height = 16;
    p.extScale = 0.1f;
    p.rtv5Detail = 3;
    p.rtv6Prims = 300;
    return p;
}

GpuConfig
smallConfig(unsigned sms = 2)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = sms;
    cfg.fabric.numPartitions = 2;
    return cfg;
}

// --- level parsing -----------------------------------------------------

TEST(CheckLevelTest, ParsesNamesAndNumbers)
{
    check::CheckLevel lvl = check::CheckLevel::Off;
    EXPECT_TRUE(check::parseCheckLevel("basic", &lvl));
    EXPECT_EQ(lvl, check::CheckLevel::Basic);
    EXPECT_TRUE(check::parseCheckLevel("full", &lvl));
    EXPECT_EQ(lvl, check::CheckLevel::Full);
    EXPECT_TRUE(check::parseCheckLevel("off", &lvl));
    EXPECT_EQ(lvl, check::CheckLevel::Off);
    EXPECT_TRUE(check::parseCheckLevel("2", &lvl));
    EXPECT_EQ(lvl, check::CheckLevel::Full);
    EXPECT_TRUE(check::parseCheckLevel("0", &lvl));
    EXPECT_EQ(lvl, check::CheckLevel::Off);
}

TEST(CheckLevelTest, RejectsUnknownSpellings)
{
    check::CheckLevel lvl = check::CheckLevel::Full;
    EXPECT_FALSE(check::parseCheckLevel("extreme", &lvl));
    EXPECT_FALSE(check::parseCheckLevel("", &lvl));
    // An unparsable spelling must leave the output untouched.
    EXPECT_EQ(lvl, check::CheckLevel::Full);
}

TEST(CheckLevelTest, NamesRoundTrip)
{
    for (check::CheckLevel lvl :
         {check::CheckLevel::Off, check::CheckLevel::Basic,
          check::CheckLevel::Full}) {
        check::CheckLevel parsed = check::CheckLevel::Off;
        EXPECT_TRUE(
            check::parseCheckLevel(check::checkLevelName(lvl), &parsed));
        EXPECT_EQ(parsed, lvl);
    }
}

// --- digest primitives -------------------------------------------------

TEST(DigestTest, OrderSensitive)
{
    check::Digest a, b;
    a.mix(1);
    a.mix(2);
    b.mix(2);
    b.mix(1);
    EXPECT_NE(a.value(), b.value());
}

TEST(DigestTest, EqualInputsHashEqual)
{
    check::Digest a, b;
    for (std::uint64_t v : {3ull, 1ull, 4ull, 1ull, 5ull}) {
        a.mix(v);
        b.mix(v);
    }
    EXPECT_EQ(a.value(), b.value());
}

TEST(DigestTest, FloatMixIsBitExact)
{
    // The differential compares float state bit-exactly; the digest must
    // distinguish +0.0 from -0.0 (their bit patterns differ even though
    // they compare equal as floats).
    check::Digest pos, neg;
    pos.mixFloat(0.0f);
    neg.mixFloat(-0.0f);
    EXPECT_NE(pos.value(), neg.value());
}

// --- digest traces -----------------------------------------------------

check::DigestTrace
makeTrace(Cycle period, unsigned units, std::size_t samples)
{
    check::DigestTrace t;
    t.period = period;
    t.units = units;
    for (std::size_t s = 0; s < samples; ++s)
        for (unsigned u = 0; u < units; ++u)
            t.values.push_back(1000 + s * units + u);
    return t;
}

TEST(DigestTraceTest, IdenticalTracesDoNotDiverge)
{
    check::DigestTrace a = makeTrace(4, 3, 10);
    EXPECT_FALSE(a.firstDivergence(a).diverged);
}

TEST(DigestTraceTest, LocalizesFirstMismatch)
{
    check::DigestTrace a = makeTrace(4, 3, 10);
    check::DigestTrace b = a;
    b.values[7 * 3 + 2] ^= 1; // sample 7, unit 2
    b.values[9 * 3 + 0] ^= 1; // later corruption must not mask the first
    check::DigestTrace::Divergence d = a.firstDivergence(b);
    EXPECT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 7u * 4u);
    EXPECT_EQ(d.unit, 2u);
}

TEST(DigestTraceTest, LengthMismatchDiverges)
{
    check::DigestTrace a = makeTrace(1, 2, 5);
    check::DigestTrace b = makeTrace(1, 2, 4);
    check::DigestTrace::Divergence d = a.firstDivergence(b);
    EXPECT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 4u); // first sample present in only one trace
}

TEST(DigestTraceTest, ShapeMismatchDiverges)
{
    check::DigestTrace a = makeTrace(1, 2, 4);
    check::DigestTrace b = makeTrace(1, 3, 4);
    EXPECT_TRUE(a.firstDivergence(b).diverged);
}

// A two-frame trace: frame 1 runs 100 cycles at period 37 (samples at
// 0, 37, 74), so frame 2's samples sit at 100, 137, ... on the
// accumulated timeline, off frame 1's grid.
TEST(DigestTraceTest, ReportsAccumulatedCyclesPastTheFirstFrame)
{
    check::DigestTrace a = makeTrace(37, 2, 6);
    a.frames.push_back({3, 100});
    EXPECT_EQ(a.cycleOf(2), 74u);
    EXPECT_EQ(a.cycleOf(3), 100u);
    EXPECT_EQ(a.cycleOf(5), 174u);
    EXPECT_EQ(a.cycleOf(6), 211u); // one past the last sample

    check::DigestTrace b = a;
    b.values[4 * 2 + 1] ^= 1; // frame 2's second sample, unit 1
    check::DigestTrace::Divergence d = a.firstDivergence(b);
    EXPECT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 137u);
    EXPECT_EQ(d.unit, 1u);

    check::DigestTrace shorter = a;
    shorter.values.resize(5 * 2);
    d = a.firstDivergence(shorter);
    EXPECT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 174u);

    // Frame 1 ran longer in the other trace: its frame 2 starts later,
    // and the traces diverge where the first of the two starts.
    check::DigestTrace longer = a;
    longer.frames[0].cycleOffset = 111;
    d = a.firstDivergence(longer);
    EXPECT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 100u);
    EXPECT_FALSE(a.firstDivergence(a).diverged);
}

// --- reporter ----------------------------------------------------------

TEST(ReporterTest, CollectModeAccumulates)
{
    check::Reporter rep(/*collect=*/true);
    EXPECT_TRUE(rep.ok());
    rep.setCycle(42);
    rep.report("sm0.l1.mshrs", "too many");
    rep.report("fabric.p1", "queue overflow");
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.violations().size(), 2u);
    EXPECT_EQ(rep.violations()[0].path, "sm0.l1.mshrs");
    EXPECT_EQ(rep.violations()[0].cycle, 42u);
    rep.clear();
    EXPECT_TRUE(rep.ok());
}

// --- the ExecBackend seam ----------------------------------------------

// Both closest-hit backends — the functional reference tracer and the
// timing side's traversal replay — answer the same queries through the
// shared ExecBackend interface, and must agree bit-for-bit on rays with
// no deferred shader work (the only rays RefTraceDiff compares).
TEST(ExecBackendTest, BackendsAgreeThroughTheSeam)
{
    Workload w(WorkloadId::REF, tiny(WorkloadId::REF));
    const GlobalMemory &gmem = *w.launch().gmem;
    CpuTracer reference(w.scene(), gmem, w.accel());
    RtReplayBackend replay(gmem, w.accel().tlasRoot);
    EXPECT_STREQ(reference.name(), "reftrace");
    EXPECT_STREQ(replay.name(), "rtreplay");

    const ExecBackend *backends[2] = {&reference, &replay};
    unsigned compared = 0;
    for (unsigned y = 0; y < 16; y += 3) {
        for (unsigned x = 0; x < 16; x += 3) {
            Ray ray = w.scene().camera.generateRay(x, y, 16, 16);
            // Deferred intersection/any-hit work is resolved only by
            // the functional backend; compare the others' common ground.
            RayTraversal probe(gmem, w.accel().tlasRoot, ray,
                               kRayFlagNone);
            probe.run();
            if (!probe.deferred().empty())
                continue;
            ++compared;
            HitRecord hits[2];
            for (int b = 0; b < 2; ++b)
                hits[b] = backends[b]->trace(ray, kRayFlagNone);
            ASSERT_EQ(hits[0].valid(), hits[1].valid()) << x << "," << y;
            if (hits[0].valid()) {
                std::uint32_t bits[2];
                std::memcpy(&bits[0], &hits[0].t, sizeof(float));
                std::memcpy(&bits[1], &hits[1].t, sizeof(float));
                EXPECT_EQ(bits[0], bits[1]) << x << "," << y;
                EXPECT_EQ(hits[0].instanceIndex, hits[1].instanceIndex);
                EXPECT_EQ(hits[0].primitiveIndex, hits[1].primitiveIndex);
            }
        }
    }
    EXPECT_GT(compared, 0u) << "sweep compared no rays";
}

// --- end-to-end: checker on real workloads -----------------------------

TEST(CheckEndToEndTest, AccelCheckerAcceptsEveryBuilderOutput)
{
    for (WorkloadId id : wl::kAllWorkloads) {
        Workload w(id, tiny(id));
        check::Reporter rep(/*collect=*/true);
        EXPECT_TRUE(check::checkAccelStruct(*w.launch().gmem, w.accel(),
                                            &w.scene(), rep))
            << wl::workloadName(id) << ": "
            << (rep.ok() ? "" : rep.violations().front().path + ": "
                                    + rep.violations().front().message);
    }
}

// Full-level sweeps walk every cross-layer invariant at every cycle
// barrier and replay sampled rays through the reference tracer; a
// violation panics, so simply completing the run is the assertion. Both
// engines must survive it.
TEST(CheckEndToEndTest, FullCheckCleanOnSerialEngine)
{
    Workload w(WorkloadId::REF, tiny(WorkloadId::REF));
    GpuConfig cfg = smallConfig(2);
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 1;
    RunResult r = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(r.cycles, 0u);
}

TEST(CheckEndToEndTest, FullCheckCleanOnThreadedEngine)
{
    Workload w(WorkloadId::EXT, tiny(WorkloadId::EXT));
    GpuConfig cfg = smallConfig(2);
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 2;
    RunResult r = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(r.cycles, 0u);
}

// The multi-stage pipeline workloads bring their own invariants to the
// sweep: AHA holds lanes in InAnyHit across barriers (the any-hit
// conservation equation must balance while suspensions are in flight),
// and RQC keeps compute-owned ray-query frames live across the whole
// traverse (chunk accounting over frames no raygen stage allocated).
TEST(CheckEndToEndTest, FullCheckCleanWithAnyHitSuspensions)
{
    Workload w(WorkloadId::AHA, tiny(WorkloadId::AHA));
    GpuConfig cfg = smallConfig(2);
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 1;
    RunResult r = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(r.metrics.get("gpu.rt.anyhit_suspended"), 0u);
}

TEST(CheckEndToEndTest, FullCheckCleanWithRayQueryFrames)
{
    Workload w(WorkloadId::RQC, tiny(WorkloadId::RQC));
    GpuConfig cfg = smallConfig(2);
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 2;
    RunResult r = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(r.cycles, 0u);
}

TEST(CheckEndToEndTest, FullCheckCleanWithItsAndRtCache)
{
    Workload w(WorkloadId::EXT, tiny(WorkloadId::EXT));
    GpuConfig cfg = smallConfig(2);
    cfg.its = true;
    cfg.useRtCache = true;
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 1;
    RunResult r = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(r.cycles, 0u);
}

// Regression for the stale-writeback bug: a warp that retires with an
// SFU writeback still in flight (a dead register write right before
// Exit) used to leave the entry in the writeback pipe, where it could
// release the scoreboard register of whichever warp reused the slot.
// The "writeback targets a live slot with the register pending"
// invariant catches the stale entry at the first Full-level sweep after
// retirement, so pre-fix this test dies on the sweep's panic.
TEST(CheckEndToEndTest, RetiredWarpLeavesNoStaleWritebacks)
{
    using namespace vptx;
    Program program;
    float four = 4.0f;
    std::uint32_t four_bits;
    std::memcpy(&four_bits, &four, sizeof(four_bits));
    Instr mov;
    mov.op = Opcode::MovImm;
    mov.dst = 1;
    mov.imm = four_bits;
    Instr sqrt_dead; // result never read: the writeback outlives the warp
    sqrt_dead.op = Opcode::FSqrt;
    sqrt_dead.dst = 2;
    sqrt_dead.src0 = 1;
    Instr exit_i;
    exit_i.op = Opcode::Exit;
    program.code = {mov, sqrt_dead, exit_i};
    ShaderInfo raygen;
    raygen.name = "stale_wb";
    raygen.stage = ShaderStage::RayGen;
    raygen.entryPc = 0;
    raygen.numRegs = 8;
    program.shaders.push_back(raygen);
    program.raygenShader = 0;

    GlobalMemory gmem;
    LaunchContext ctx;
    ctx.program = &program;
    ctx.gmem = &gmem;
    ctx.launchSize[0] = kWarpSize;
    ctx.launchSize[1] = 2; // second warp reuses the retired slot
    ctx.rtStackBase =
        gmem.allocate(2 * kWarpSize * kRtStackBytesPerThread, 64);
    ctx.scratchBase =
        gmem.allocate(2 * kWarpSize * kRtScratchBytesPerThread, 64);

    GpuConfig cfg = smallConfig(1);
    cfg.maxWarpsPerSm = 1; // force slot reuse between the two warps
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 1;
    GpuSimulator sim(cfg, ctx);
    RunResult r = sim.run();
    EXPECT_GT(r.cycles, 0u);
}

// The harness's own false-negative check: plant a one-bit digest fault
// at a known (cycle, unit) and require the differential to localize
// exactly that sample — no earlier, no later, no other unit.
TEST(CheckEndToEndTest, InjectedDigestFaultIsLocalized)
{
    WorkloadParams p = tiny(WorkloadId::TRI);
    GpuConfig clean = smallConfig(2);
    clean.digestTrace = true;
    Workload w1(WorkloadId::TRI, p);
    RunResult ref = service::defaultService().submit(w1, clean).take().run;
    ASSERT_GT(ref.digests.samples(), 600u);

    GpuConfig faulty = clean;
    faulty.digestInjectCycle = 512;
    faulty.digestInjectUnit = 1;
    Workload w2(WorkloadId::TRI, p);
    RunResult fault = service::defaultService().submit(w2, faulty).take().run;

    check::DigestTrace::Divergence d =
        ref.digests.firstDivergence(fault.digests);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 512u);
    EXPECT_EQ(d.unit, 1u);

    // The injection only touches the trace, not the simulation.
    EXPECT_EQ(ref.cycles, fault.cycles);
}

// A multi-frame run records where each later frame begins, so a
// divergence past frame 1 is reported at its accumulated cycle even when
// frame 1's length is not a multiple of the sampling period.
TEST(CheckEndToEndTest, MultiFrameDigestTraceMapsFramesToCycles)
{
    WorkloadParams p = tiny(WorkloadId::ACC);
    GpuConfig cfg = smallConfig(2);
    cfg.digestTrace = true;
    cfg.digestPeriod = 37;
    Workload one(WorkloadId::ACC, p);
    const RunResult first =
        service::defaultService().submit(one, cfg).take().run;
    ASSERT_NE(first.cycles % 37, 0u) << "frame 1 ends on the grid";

    p.frames = 2;
    Workload two(WorkloadId::ACC, p);
    const RunResult both =
        service::defaultService().submit(two, cfg).take().run;
    ASSERT_EQ(both.digests.frames.size(), 1u);
    const check::DigestTrace::Frame frame2 = both.digests.frames[0];
    EXPECT_EQ(frame2.firstSample, first.digests.samples());
    EXPECT_EQ(frame2.cycleOffset, first.cycles);
    ASSERT_GT(both.digests.samples(), frame2.firstSample + 3);

    check::DigestTrace corrupt = both.digests;
    corrupt.values[(frame2.firstSample + 3) * corrupt.units + 1] ^= 1;
    check::DigestTrace::Divergence d =
        both.digests.firstDivergence(corrupt);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, first.cycles + 3 * 37);
    EXPECT_EQ(d.unit, 1u);
}

// --- idle-skip x invariant sweeps --------------------------------------

// The scheduler proves sleeping units frozen, so Full-level sweeps skip
// them. The run must be observably identical (stats, cycles) while the
// per-unit sweep count drops; with idle-skip off it must sweep
// everything and skip nothing. (That skipped units still *catch*
// violations once awake is covered by RetiredWarpLeavesNoStaleWritebacks
// above, which plants a real violation and runs with idle-skip at its
// default, on.)
TEST(CheckEndToEndTest, FullSweepsSkipSleepingUnits)
{
    WorkloadParams p = tiny(WorkloadId::TRI);
    p.width = 8;
    p.height = 8; // 2 warps on 4 SMs: half the machine sleeps all run
    GpuConfig cfg = smallConfig(4);
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 1;

    Workload w_skip(WorkloadId::TRI, p);
    RunResult skip = service::defaultService().submit(w_skip, cfg).take().run;

    GpuConfig lockstep = cfg;
    lockstep.idleSkip = false;
    Workload w_lock(WorkloadId::TRI, p);
    RunResult lock = service::defaultService().submit(w_lock, lockstep).take().run;

    // Identical observable behavior...
    EXPECT_EQ(skip.cycles, lock.cycles);
    std::ostringstream sj, lj;
    skip.metrics.writeJson(sj, 2);
    lock.metrics.writeJson(lj, 2);
    EXPECT_EQ(sj.str(), lj.str());

    // ...but far fewer unit sweeps: the warp-less SMs are asleep.
    EXPECT_EQ(lock.sweepUnitSkips, 0u);
    EXPECT_GT(skip.sweepUnitSkips, 0u);
    EXPECT_LT(skip.sweepUnitChecks, lock.sweepUnitChecks);
    EXPECT_GT(skip.smCyclesSkipped, 0u);
    EXPECT_EQ(lock.smCyclesSkipped, 0u);
}

// The probe pins down *when* a deferred unit is re-covered: in
// idle-skip-off mode a Full sweep touches every SM every cycle, so the
// probe fires exactly at the requested cycle; with idle-skip on, an SM
// that never receives a warp sleeps through the whole run and is only
// swept again by the final deep sweep over the woken machine.
TEST(CheckEndToEndTest, SleepingUnitSweepIsDeferredToWake)
{
    WorkloadParams p = tiny(WorkloadId::TRI);
    p.width = 8;
    p.height = 4; // one warp: SMs 1-3 never see work
    GpuConfig cfg = smallConfig(4);
    cfg.checkLevel = check::CheckLevel::Full;
    cfg.threads = 1;
    cfg.sweepProbeCycle = 64;
    cfg.sweepProbeUnit = 3;

    GpuConfig lockstep = cfg;
    lockstep.idleSkip = false;
    Workload w_lock(WorkloadId::TRI, p);
    RunResult lock = service::defaultService().submit(w_lock, lockstep).take().run;
    ASSERT_GT(lock.cycles, 64u);
    EXPECT_EQ(lock.sweepProbeHitCycle, 64u);

    Workload w_skip(WorkloadId::TRI, p);
    RunResult skip = service::defaultService().submit(w_skip, cfg).take().run;
    EXPECT_NE(skip.sweepProbeHitCycle, ~Cycle(0));
    EXPECT_GT(skip.sweepProbeHitCycle, 64u);
    // The final deep sweep (cycle == total cycles) is what re-covers it.
    EXPECT_EQ(skip.sweepProbeHitCycle, skip.cycles);
}

// Digest sampling every cycle and every 16th cycle must agree wherever
// both sample: the sparse trace is a strict subsequence.
TEST(CheckEndToEndTest, SparseDigestTraceIsASubsequence)
{
    WorkloadParams p = tiny(WorkloadId::TRI);
    GpuConfig dense = smallConfig(2);
    dense.digestTrace = true;
    Workload w1(WorkloadId::TRI, p);
    RunResult a = service::defaultService().submit(w1, dense).take().run;

    GpuConfig sparse = dense;
    sparse.digestPeriod = 16;
    Workload w2(WorkloadId::TRI, p);
    RunResult b = service::defaultService().submit(w2, sparse).take().run;

    ASSERT_EQ(a.digests.units, b.digests.units);
    for (std::size_t s = 0; s < b.digests.samples(); ++s)
        for (unsigned u = 0; u < b.digests.units; ++u)
            ASSERT_EQ(b.digests.at(s, u), a.digests.at(s * 16, u))
                << "sample " << s << " unit " << u;
}

} // namespace
} // namespace vksim
