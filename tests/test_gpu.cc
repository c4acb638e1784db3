/**
 * @file
 * GPU-core model tests: determinism, occupancy limits, scheduler
 * behaviour, scaling with SM count, issue accounting, and the
 * interaction between the SM and the RT unit under contention.
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
smallConfig(unsigned sms = 4)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = sms;
    cfg.fabric.numPartitions = 2;
    return cfg;
}

TEST(GpuTest, RunsAreDeterministic)
{
    Cycle first = 0;
    for (int run = 0; run < 3; ++run) {
        Workload w(WorkloadId::REF, tiny(WorkloadId::REF));
        RunResult r = service::defaultService().submit(w, smallConfig()).take().run;
        if (run == 0)
            first = r.cycles;
        else
            EXPECT_EQ(r.cycles, first) << "run " << run;
    }
}

TEST(GpuTest, MoreSmsNeverSlower)
{
    WorkloadParams p = tiny(WorkloadId::EXT);
    p.width = 32;
    p.height = 32;
    Workload w1(WorkloadId::EXT, p);
    Cycle one_sm = service::defaultService().submit(w1, smallConfig(1)).take().run.cycles;
    Workload w4(WorkloadId::EXT, p);
    Cycle four_sm = service::defaultService().submit(w4, smallConfig(4)).take().run.cycles;
    EXPECT_LT(four_sm, one_sm);
}

TEST(GpuTest, WarpLimitRespectsRegisterFile)
{
    // Shrink the register file: the per-SM warp limit must shrink too,
    // and the run must still complete correctly.
    WorkloadParams p = tiny(WorkloadId::REF);
    Workload w(WorkloadId::REF, p);
    GpuConfig cfg = smallConfig(2);
    cfg.regsPerSm = 8192; // few warps worth of registers
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(run.cycles, 0u);
    EXPECT_EQ(compareImages(w.readFramebuffer(), w.renderReferenceImage())
                  .differingPixels,
              0u);
}

TEST(GpuTest, HigherLatencyMemorySlowsExecution)
{
    WorkloadParams p = tiny(WorkloadId::EXT);
    Workload w1(WorkloadId::EXT, p);
    Cycle fast = service::defaultService().submit(w1, smallConfig()).take().run.cycles;
    GpuConfig slow_cfg = smallConfig();
    slow_cfg.l1.latency = 80;
    slow_cfg.fabric.l2.latency = 500;
    Workload w2(WorkloadId::EXT, p);
    Cycle slow = service::defaultService().submit(w2, slow_cfg).take().run.cycles;
    EXPECT_GT(slow, fast);
}

TEST(GpuTest, SmallerL1IncreasesMisses)
{
    WorkloadParams p = tiny(WorkloadId::EXT);
    auto misses = [&](Addr l1_size) {
        Workload w(WorkloadId::EXT, p);
        GpuConfig cfg = smallConfig();
        cfg.l1.sizeBytes = l1_size;
        RunResult r = service::defaultService().submit(w, cfg).take().run;
        const MetricsRegistry &m = r.metrics;
        return m.get("gpu.l1.miss_capacity_conflict.shader")
               + m.get("gpu.l1.miss_capacity_conflict.rtunit")
               + m.get("gpu.rtcache.miss_capacity_conflict.shader")
               + m.get("gpu.rtcache.miss_capacity_conflict.rtunit");
    };
    EXPECT_GT(misses(2 * 1024), misses(64 * 1024));
}

TEST(GpuTest, IssueWidthImprovesThroughput)
{
    // Compare issue widths with a perfect BVH so the measurement isolates
    // the issue stage: with real node-fetch latency this tiny workload is
    // RT-memory bound and the width-2 margin sits inside model noise (the
    // seed passed by 0.26 % of total cycles).
    WorkloadParams p = tiny(WorkloadId::REF);
    p.width = 32;
    p.height = 32;
    Workload w1(WorkloadId::REF, p);
    GpuConfig narrow = smallConfig(2);
    narrow.rt.perfectBvh = true;
    narrow.issueWidth = 1;
    Cycle one = service::defaultService().submit(w1, narrow).take().run.cycles;
    Workload w2(WorkloadId::REF, p);
    GpuConfig wide = smallConfig(2);
    wide.rt.perfectBvh = true;
    wide.issueWidth = 2;
    Cycle two = service::defaultService().submit(w2, wide).take().run.cycles;
    EXPECT_LT(two, one);
}

TEST(GpuTest, RtStallCounterFiresWhenUnitSaturated)
{
    WorkloadParams p = tiny(WorkloadId::EXT);
    p.width = 32;
    p.height = 32;
    Workload w(WorkloadId::EXT, p);
    GpuConfig cfg = smallConfig(1);
    cfg.rt.maxWarps = 1; // single RT slot: issue stalls expected
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(run.metrics.get("gpu.core.stall_rt_full"), 0u);
}

TEST(GpuTest, AllIssuedWorkIsAccounted)
{
    for (SchedPolicy sched : {SchedPolicy::GTO, SchedPolicy::LRR}) {
        Workload w(WorkloadId::RTV6, tiny(WorkloadId::RTV6));
        GpuConfig cfg = smallConfig();
        cfg.sched = sched;
        RunResult run = service::defaultService().submit(w, cfg).take().run;
        // Per-unit issue counts sum to the total.
        const MetricsRegistry &m = run.metrics;
        EXPECT_EQ(m.get("gpu.core.issued"),
                  m.get("gpu.core.issue_alu") + m.get("gpu.core.issue_sfu")
                      + m.get("gpu.core.issue_ldst")
                      + m.get("gpu.core.issue_rt")
                      + m.get("gpu.core.issue_ctrl"));
        // Each trace-ray issue corresponds to one RT-unit warp.
        EXPECT_EQ(m.get("gpu.core.issue_rt"),
                  m.get("gpu.rt.warps_submitted"));
    }
}

TEST(GpuTest, FunctionalAndTimedInstructionCountsMatch)
{
    // The timed model executes functionally at issue; its dynamic
    // instruction count must equal the functional runner's.
    WorkloadParams p = tiny(WorkloadId::REF);
    Workload wf(WorkloadId::REF, p);
    StatGroup fstats;
    wf.runFunctional(vptx::WarpCflow::Mode::Stack, &fstats);

    Workload wt(WorkloadId::REF, p);
    RunResult run = service::defaultService().submit(wt, smallConfig()).take().run;
    EXPECT_EQ(run.metrics.get("gpu.core.issued"), fstats.get("instructions"));
}

TEST(GpuTest, MobileConfigIsSlowerThanBaseline)
{
    WorkloadParams p = tiny(WorkloadId::EXT);
    p.width = 32;
    p.height = 32;
    Workload w1(WorkloadId::EXT, p);
    Cycle base = service::defaultService().submit(w1, baselineGpuConfig()).take().run.cycles;
    Workload w2(WorkloadId::EXT, p);
    Cycle mobile = service::defaultService().submit(w2, mobileGpuConfig()).take().run.cycles;
    EXPECT_GT(mobile, base) << "8 SMs with half bandwidth must be slower";
}

} // namespace
} // namespace vksim
