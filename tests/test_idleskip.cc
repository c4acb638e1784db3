/**
 * @file
 * The stepping-equivalence acceptance suite (DESIGN.md, "Stepping
 * contract"): event-stepped clocking — sleeping quiescent SMs,
 * bulk-replaying their heartbeat on wake, fast-forwarding the fabric
 * through provably event-free cycles, and advancing SMs through
 * multi-cycle epochs between barriers — must be *unobservable*. For
 * every workload, a run with idle-skip enabled must match the run that
 * cycles every unit with one-cycle epochs bit for bit at every epoch
 * length: cycle count, every
 * stat group, the full metrics JSON, the digest trace, the occupancy
 * trace, and the rendered image — on the serial and the threaded
 * engine alike. The only permitted difference is the skip telemetry
 * itself (RunResult::smCyclesSkipped), which is kept out of the
 * metrics registry for exactly that reason.
 */

#include <gtest/gtest.h>

#include <string>

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
    p.extScale = 0.1f;
    p.rtv5Detail = 3;
    p.rtv6Prims = 400;
    return p;
}

GpuConfig
engineConfig(bool idle_skip, unsigned threads, unsigned epoch_cycles)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 8; // enough SMs that some go quiescent mid-run
    cfg.fabric.numPartitions = 2;
    cfg.maxCycles = 100'000'000;
    cfg.occupancySamplePeriod = 64;
    cfg.digestTrace = true;
    cfg.idleSkip = idle_skip;
    cfg.threads = threads;
    cfg.epochCycles = epoch_cycles;
    return cfg;
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.occupancyTrace, b.occupancyTrace);
    // Every counter, accumulator, histogram and gauge of the run.
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());

    // The digest trace hashes the complete architectural state of every
    // unit at every sample; equality here means skipped cycles left no
    // trace anywhere in the machine.
    ASSERT_EQ(a.digests.units, b.digests.units);
    ASSERT_EQ(a.digests.period, b.digests.period);
    ASSERT_EQ(a.digests.values.size(), b.digests.values.size());
    EXPECT_FALSE(a.digests.firstDivergence(b.digests).diverged);
}

class IdleSkipEquivalenceTest : public ::testing::TestWithParam<int>
{
};

TEST_P(IdleSkipEquivalenceTest, BitIdenticalToLockStep)
{
    auto id = static_cast<WorkloadId>(GetParam());

    // The reference: every unit cycled every cycle, one barrier per
    // cycle (epochCycles = 1, the finest stepping of the same loop).
    Workload ref_wl(id, tinyParams());
    RunResult ref = service::defaultService().submit(
        ref_wl, engineConfig(/*idle_skip=*/false, 1, /*epoch_cycles=*/1)).take().run;
    Image ref_img = ref_wl.readFramebuffer();
    EXPECT_EQ(ref.smCyclesSkipped, 0u);
    EXPECT_EQ(ref.epochCyclesUsed, 1u);

    for (unsigned epoch : {1u, 32u, 128u}) {
        for (unsigned threads : {1u, 4u}) {
            Workload skip_wl(id, tinyParams());
            RunResult skip = service::defaultService().submit(
                skip_wl, engineConfig(/*idle_skip=*/true, threads, epoch)).take().run;
            expectSameRun(ref, skip);
            EXPECT_EQ(ref_img.data(), skip_wl.readFramebuffer().data())
                << "framebuffer differs at " << threads << " threads, "
                << epoch << "-cycle epochs";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, IdleSkipEquivalenceTest,
    ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(
            wl::workloadName(static_cast<WorkloadId>(info.param)));
    });

// Multi-frame runs thread cross-frame state (the accumulation buffer,
// the rotated seed) through device memory between launches; the
// stepping contract must hold across that seam too.
TEST(IdleSkipTest, MultiFrameAccumulationIsBitIdentical)
{
    WorkloadParams p = tinyParams();
    p.frames = 2;

    Workload ref_wl(WorkloadId::ACC, p);
    RunResult ref = service::defaultService().submit(
        ref_wl, engineConfig(/*idle_skip=*/false, 1, 1)).take().run;
    Image ref_img = ref_wl.readFramebuffer();

    Workload skip_wl(WorkloadId::ACC, p);
    RunResult skip = service::defaultService().submit(
        skip_wl, engineConfig(/*idle_skip=*/true, 4, 64)).take().run;
    EXPECT_EQ(ref.cycles, skip.cycles);
    EXPECT_EQ(ref.metrics.toJson(), skip.metrics.toJson());
    EXPECT_EQ(ref_img.data(), skip_wl.readFramebuffer().data())
        << "accumulated framebuffer differs across engines";
}

// The scheduler must actually skip something on a workload with cold
// SMs, or the suite above is vacuous.
TEST(IdleSkipTest, ColdSmsAreSkipped)
{
    WorkloadParams p = tinyParams();
    p.width = 8;
    p.height = 4; // one warp on an 8-SM machine
    Workload w(WorkloadId::TRI, p);
    RunResult run = service::defaultService().submit(w, engineConfig(true, 1, 64)).take().run;
    // Seven SMs sleep essentially the whole run.
    EXPECT_GT(run.smCyclesSkipped, 6u * run.cycles);
}

} // namespace
} // namespace vksim
