/**
 * @file
 * Epoch-stepped engine acceptance (DESIGN.md, "Stepping contract"):
 * the relaxed-synchronization engine — SMs advancing through
 * multi-cycle epochs with staged traffic replayed at the barrier — is
 * clamped to the fabric response-latency skew bound and must therefore
 * be bit-identical to the same loop run with one-cycle epochs. This
 * suite pins the clamp
 * arithmetic, the oracle-certification path (diffrun-style digest
 * comparison localizing an injected fault to the exact cycle and unit
 * inside an epoch), and the engine-selection corner cases the
 * equivalence sweep in test_idleskip.cc does not reach.
 */

#include <gtest/gtest.h>

#include "core/vulkansim.h"
#include "service/service.h"

namespace vksim {
namespace {

using wl::Workload;
using wl::WorkloadId;
using wl::WorkloadParams;

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.width = 16;
    p.height = 16;
    return p;
}

GpuConfig
epochConfig(unsigned epoch_cycles)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 8;
    cfg.fabric.numPartitions = 2;
    cfg.digestTrace = true;
    cfg.epochCycles = epoch_cycles;
    return cfg;
}

TEST(EpochEngineTest, EpochLengthIsClampedToSkewBound)
{
    // The skew bound is the minimum fabric response latency: every
    // response path goes L2-latency + interconnect-latency, so an epoch
    // no longer than that can never deliver a response into a span the
    // SMs already ran.
    GpuConfig cfg = epochConfig(1'000'000);
    const unsigned bound = cfg.fabric.l2.latency + cfg.fabric.icntLatency;

    Workload w(WorkloadId::TRI, tinyParams());
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    EXPECT_EQ(run.epochCyclesUsed, bound);
}

TEST(EpochEngineTest, RequestedEpochBelowBoundIsUsedVerbatim)
{
    Workload w(WorkloadId::TRI, tinyParams());
    RunResult run = service::defaultService().submit(w, epochConfig(32)).take().run;
    EXPECT_EQ(run.epochCyclesUsed, 32u);
}

TEST(EpochEngineTest, FullCheckLevelForcesLockStep)
{
    // Full-level checking sweeps shallow invariants at every cycle, and
    // the engine sweeps only at barriers, so it must run one-cycle
    // epochs regardless of the request.
    GpuConfig cfg = epochConfig(64);
    cfg.checkLevel = check::CheckLevel::Full;
    Workload w(WorkloadId::TRI, tinyParams());
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    EXPECT_EQ(run.epochCyclesUsed, 1u);
}

TEST(EpochEngineTest, ZeroEpochCyclesIsRejected)
{
    GpuConfig cfg = epochConfig(0);
    EXPECT_THROW(
        {
            Workload w(WorkloadId::TRI, tinyParams());
            service::defaultService().submit(w, cfg).take().run;
        },
        std::invalid_argument);
}

/**
 * The oracle-certification path: an injected single-bit digest fault at
 * a cycle that falls mid-epoch must be localized by firstDivergence()
 * to exactly that cycle and unit. This is what makes diffrun's verdict
 * trustworthy for the relaxed engine — worker-recorded per-cycle
 * digests preserve full per-cycle localization granularity, not just
 * epoch granularity.
 */
TEST(EpochEngineTest, InjectedFaultIsLocalizedInsideAnEpoch)
{
    GpuConfig ref_cfg = epochConfig(64);

    GpuConfig faulty_cfg = ref_cfg;
    // Cycle 500 is mid-epoch for every 64-cycle epoch grid this run can
    // produce (500 is not a multiple of 64), and unit 3 is an SM whose
    // digest a worker thread records.
    faulty_cfg.digestInjectCycle = 500;
    faulty_cfg.digestInjectUnit = 3;

    Workload ref_wl(WorkloadId::TRI, tinyParams());
    RunResult ref = service::defaultService().submit(ref_wl, ref_cfg).take().run;
    Workload faulty_wl(WorkloadId::TRI, tinyParams());
    RunResult faulty = service::defaultService().submit(faulty_wl, faulty_cfg).take().run;

    auto div = ref.digests.firstDivergence(faulty.digests);
    ASSERT_TRUE(div.diverged);
    EXPECT_EQ(div.cycle, 500u);
    EXPECT_EQ(div.unit, 3u);
}

/**
 * Fault localization while any-hit suspensions are in flight: AHA keeps
 * RT-unit lanes parked in InAnyHit through the busy middle of the run,
 * and the lane suspension state (status, pending verdict, resume
 * deadline) is part of the per-cycle digest — so an injected fault
 * mid-run, mid-epoch must still be pinned to its exact cycle and unit.
 */
TEST(EpochEngineTest, InjectedFaultIsLocalizedDuringAnyHitSuspension)
{
    GpuConfig ref_cfg = epochConfig(64);
    Workload ref_wl(WorkloadId::AHA, tinyParams());
    RunResult ref = service::defaultService().submit(ref_wl, ref_cfg).take().run;
    ASSERT_GT(ref.metrics.get("gpu.rt.anyhit_suspended"), 0u);

    // Mid-run and mid-epoch (odd, so never a multiple of 64): with
    // hundreds of multi-cycle suspensions the middle of the run always
    // has lanes suspended in any-hit shaders.
    const Cycle inject = (ref.cycles / 2) | 1;
    GpuConfig faulty_cfg = ref_cfg;
    faulty_cfg.digestInjectCycle = inject;
    faulty_cfg.digestInjectUnit = 2;

    Workload faulty_wl(WorkloadId::AHA, tinyParams());
    RunResult faulty = service::defaultService().submit(faulty_wl, faulty_cfg).take().run;

    auto div = ref.digests.firstDivergence(faulty.digests);
    ASSERT_TRUE(div.diverged);
    EXPECT_EQ(div.cycle, inject);
    EXPECT_EQ(div.unit, 2u);
}

/**
 * Same fault, fabric unit: the fabric digest is recorded by the barrier
 * replay rather than an SM worker, so localize through that path too.
 */
TEST(EpochEngineTest, InjectedFabricFaultIsLocalizedInsideAnEpoch)
{
    GpuConfig ref_cfg = epochConfig(64);

    GpuConfig faulty_cfg = ref_cfg;
    faulty_cfg.digestInjectCycle = 501;
    faulty_cfg.digestInjectUnit = ref_cfg.numSms; // the fabric slot

    Workload ref_wl(WorkloadId::TRI, tinyParams());
    RunResult ref = service::defaultService().submit(ref_wl, ref_cfg).take().run;
    Workload faulty_wl(WorkloadId::TRI, tinyParams());
    RunResult faulty = service::defaultService().submit(faulty_wl, faulty_cfg).take().run;

    auto div = ref.digests.firstDivergence(faulty.digests);
    ASSERT_TRUE(div.diverged);
    EXPECT_EQ(div.cycle, 501u);
    EXPECT_EQ(div.unit, ref_cfg.numSms);
}

// Epoch stepping with idle-skip disabled must still match the
// double-oracle (one-cycle epochs, no idle-skip) run: the mid-epoch park
// heartbeat replay is the only machinery covering that combination.
TEST(EpochEngineTest, NoIdleSkipEpochMatchesLockStep)
{
    GpuConfig ref_cfg = epochConfig(1);
    ref_cfg.idleSkip = false;

    GpuConfig epoch_cfg = epochConfig(128);
    epoch_cfg.idleSkip = false;

    Workload ref_wl(WorkloadId::TRI, tinyParams());
    RunResult ref = service::defaultService().submit(ref_wl, ref_cfg).take().run;
    Workload epoch_wl(WorkloadId::TRI, tinyParams());
    RunResult epoch = service::defaultService().submit(epoch_wl, epoch_cfg).take().run;

    EXPECT_EQ(ref.cycles, epoch.cycles);
    EXPECT_EQ(ref.metrics.toJson(), epoch.metrics.toJson());
    EXPECT_EQ(epoch.smCyclesSkipped, 0u);
    EXPECT_FALSE(ref.digests.firstDivergence(epoch.digests).diverged);
}

} // namespace
} // namespace vksim
