/**
 * @file
 * Integration tests of the timed GPU model: image correctness under
 * timing, stat sanity, configuration effects (memory variants, RT-unit
 * warp limits, schedulers, ITS, FCC), and the power model.
 */

#include <gtest/gtest.h>

#include "core/vulkansim.h"
#include "power/power.h"
#include "service/service.h"

namespace vksim {
namespace {

using wl::Workload;
using wl::WorkloadId;
using wl::WorkloadParams;

WorkloadParams
tinyParams(WorkloadId id)
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
fastConfig()
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 4;
    cfg.fabric.numPartitions = 2;
    cfg.maxCycles = 100'000'000;
    return cfg;
}

class TimedFidelityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TimedFidelityTest, TimedRunRendersReferenceImage)
{
    auto id = static_cast<WorkloadId>(GetParam());
    Workload workload(id, tinyParams(id));
    RunResult run = service::defaultService().submit(workload, fastConfig()).take().run;
    EXPECT_GT(run.cycles, 0u);
    Image sim = workload.readFramebuffer();
    Image ref = workload.renderReferenceImage();
    ImageDiff diff = compareImages(sim, ref);
    EXPECT_EQ(diff.differingPixels, 0u) << wl::workloadName(id);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimedFidelityTest, ::testing::Values(0, 1, 2, 3, 4),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(
            wl::workloadName(static_cast<WorkloadId>(info.param)));
    });

TEST(TimedStatsTest, CountersAreConsistent)
{
    Workload workload(WorkloadId::EXT, tinyParams(WorkloadId::EXT));
    RunResult run = service::defaultService().submit(workload, fastConfig()).take().run;

    const MetricsRegistry &m = run.metrics;

    // Issue mix sums to total issues.
    std::uint64_t mix = m.get("gpu.core.issue_alu")
                        + m.get("gpu.core.issue_sfu")
                        + m.get("gpu.core.issue_ldst")
                        + m.get("gpu.core.issue_rt")
                        + m.get("gpu.core.issue_ctrl");
    EXPECT_EQ(mix, m.get("gpu.core.issued"));

    // Every submitted RT warp completed.
    EXPECT_EQ(m.get("gpu.rt.warps_submitted"), m.get("gpu.rt.warps_completed"));
    EXPECT_GT(m.get("gpu.rt.warps_submitted"), 0u);

    // SIMT efficiencies are probabilities.
    EXPECT_GT(run.simtEfficiency(), 0.0);
    EXPECT_LE(run.simtEfficiency(), 1.0);
    EXPECT_GT(run.rtSimtEfficiency(), 0.0);
    EXPECT_LE(run.rtSimtEfficiency(), 1.0);
    EXPECT_LE(run.dramUtilization(), 1.0);
    EXPECT_LE(run.dramEfficiency(), 1.0001);

    // Caches saw both shader and RT-unit traffic.
    EXPECT_GT(m.get("gpu.l1.accesses.shader"), 0u);
    EXPECT_GT(m.get("gpu.l1.accesses.rtunit"), 0u);
}

TEST(TimedStatsTest, RtWarpLatencyHistogramFilled)
{
    Workload workload(WorkloadId::REF, tinyParams(WorkloadId::REF));
    RunResult run = service::defaultService().submit(workload, fastConfig()).take().run;
    const Histogram *h =
        run.metrics.findHistogram("gpu.rt.warp_latency_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->summary().count(), 0u);
    EXPECT_GT(h->summary().max(), 0.0);
}

TEST(MemoryVariantTest, PerfectVariantsAreFaster)
{
    WorkloadParams p = tinyParams(WorkloadId::EXT);
    auto run_variant = [&](MemoryVariant v) {
        Workload w(WorkloadId::EXT, p);
        return service::defaultService().submit(w, applyMemoryVariant(fastConfig(), v)).take().run
            .cycles;
    };
    Cycle base = run_variant(MemoryVariant::Baseline);
    Cycle perfect_bvh = run_variant(MemoryVariant::PerfectBvh);
    Cycle perfect_mem = run_variant(MemoryVariant::PerfectMem);
    EXPECT_LT(perfect_bvh, base);
    EXPECT_LT(perfect_mem, base);
}

TEST(MemoryVariantTest, ModernMemRendersCorrectlyAndCountsSectors)
{
    // The Modern preset (sectored 128 B lines, streaming reservation,
    // bank-grouped DRAM with refresh, XOR-folded interleave) is a pure
    // timing policy: the image must still match the reference exactly,
    // and the sector-level counters — never created in the default
    // configuration — must show up and balance.
    GpuConfig cfg = applyMemoryVariant(fastConfig(), MemoryVariant::Modern);
    ASSERT_TRUE(cfg.validate().empty());
    Workload w(WorkloadId::RTV5, tinyParams(WorkloadId::RTV5));
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(run.cycles, 0u);
    ImageDiff diff =
        compareImages(w.readFramebuffer(), w.renderReferenceImage());
    EXPECT_EQ(diff.differingPixels, 0u);

    // Every line miss is also a sector miss; refreshes fired.
    const MetricsRegistry &m = run.metrics;
    std::uint64_t sector_misses = m.get("gpu.l1.sector_miss.shader")
                                  + m.get("gpu.l1.sector_miss.rtunit");
    std::uint64_t line_misses = m.get("gpu.l1.line_miss.shader")
                                + m.get("gpu.l1.line_miss.rtunit");
    EXPECT_GT(sector_misses, 0u);
    EXPECT_GT(line_misses, 0u);
    EXPECT_LE(line_misses, sector_misses);
    EXPECT_GT(m.get("gpu.dram.refreshes"), 0u);
    // The streaming policy made an allocate/bypass decision per fill.
    EXPECT_GT(m.get("gpu.l1.streaming_alloc_fills")
                  + m.get("gpu.l1.streaming_bypass_fills"),
              0u);
}

TEST(MemoryVariantTest, ModernMemEpochThreadsIdleSkipStayBitIdentical)
{
    // The determinism contract with every modern policy ON: the
    // epoch-stepped multi-threaded engine and the no-idle-skip engine
    // must both match the serial one-cycle-epoch run digest-for-digest
    // and produce the identical metrics dump.
    GpuConfig base = applyMemoryVariant(fastConfig(), MemoryVariant::Modern);
    base.digestTrace = true;

    auto run = [&](unsigned threads, unsigned epoch, bool idle_skip) {
        GpuConfig cfg = base;
        cfg.threads = threads;
        cfg.epochCycles = epoch;
        cfg.idleSkip = idle_skip;
        Workload w(WorkloadId::TRI, tinyParams(WorkloadId::TRI));
        return service::defaultService().submit(w, cfg).take().run;
    };

    RunResult oracle = run(1, 1, true);
    RunResult epoch = run(4, 64, true);
    RunResult noskip = run(4, 1, false);
    EXPECT_EQ(oracle.cycles, epoch.cycles);
    EXPECT_EQ(oracle.cycles, noskip.cycles);
    EXPECT_FALSE(oracle.digests.firstDivergence(epoch.digests).diverged);
    EXPECT_FALSE(oracle.digests.firstDivergence(noskip.digests).diverged);
    EXPECT_EQ(oracle.metrics.toJson(), epoch.metrics.toJson());
    EXPECT_EQ(oracle.metrics.toJson(), noskip.metrics.toJson());
}

TEST(MemoryVariantTest, RtCacheIsolatesRtTraffic)
{
    WorkloadParams p = tinyParams(WorkloadId::EXT);
    Workload w(WorkloadId::EXT, p);
    GpuConfig cfg = applyMemoryVariant(fastConfig(), MemoryVariant::RtCache);
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    // With a dedicated RT cache, the L1 aggregation still sees rtunit
    // accesses (merged stats) but the run must complete correctly.
    Image sim = w.readFramebuffer();
    Image ref = w.renderReferenceImage();
    EXPECT_EQ(compareImages(sim, ref).differingPixels, 0u);
}

TEST(RtWarpLimitTest, MoreWarpsHelpOrMatch)
{
    WorkloadParams p = tinyParams(WorkloadId::EXT);
    auto run_with = [&](unsigned warps) {
        Workload w(WorkloadId::EXT, p);
        GpuConfig cfg = fastConfig();
        cfg.rt.maxWarps = warps;
        return service::defaultService().submit(w, cfg).take().run.cycles;
    };
    Cycle one = run_with(1);
    Cycle eight = run_with(8);
    // Paper Fig. 16: raising the limit from one warp improves latency
    // hiding substantially.
    EXPECT_LT(eight, one);
}

TEST(SchedulerTest, LrrAlsoRendersCorrectly)
{
    WorkloadParams p = tinyParams(WorkloadId::REF);
    Workload w(WorkloadId::REF, p);
    GpuConfig cfg = fastConfig();
    cfg.sched = SchedPolicy::LRR;
    service::defaultService().submit(w, cfg).take().run;
    EXPECT_EQ(compareImages(w.readFramebuffer(), w.renderReferenceImage())
                  .differingPixels,
              0u);
}

TEST(ItsTest, TimedItsRendersCorrectly)
{
    WorkloadParams p = tinyParams(WorkloadId::RTV6);
    Workload w(WorkloadId::RTV6, p);
    GpuConfig cfg = fastConfig();
    cfg.its = true;
    service::defaultService().submit(w, cfg).take().run;
    EXPECT_EQ(compareImages(w.readFramebuffer(), w.renderReferenceImage())
                  .differingPixels,
              0u);
}

TEST(FccTest, TimedFccRendersCorrectlyAndAddsRtLoads)
{
    WorkloadParams p = tinyParams(WorkloadId::RTV6);
    Workload base(WorkloadId::RTV6, p);
    RunResult rb = service::defaultService().submit(base, fastConfig()).take().run;
    p.fcc = true;
    Workload fcc(WorkloadId::RTV6, p);
    RunResult rf = service::defaultService().submit(fcc, fastConfig()).take().run;
    EXPECT_EQ(compareImages(fcc.readFramebuffer(),
                            fcc.renderReferenceImage())
                  .differingPixels,
              0u);
    // FCC adds coalescing-buffer loads in the RT unit (paper Sec. VI-E).
    EXPECT_GT(rf.metrics.get("gpu.rt.fcc_insert_loads")
                  + rf.metrics.get("gpu.rt.fcc_insert_stores"),
              0u);
    EXPECT_EQ(rb.metrics.get("gpu.rt.fcc_insert_loads"), 0u);
}

TEST(PowerTest, BreakdownMatchesPaperShape)
{
    Workload w(WorkloadId::EXT, tinyParams(WorkloadId::EXT));
    GpuConfig cfg = fastConfig();
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    PowerReport power = estimatePower(run, cfg.numSms);
    EXPECT_GT(power.totalJoules, 0.0);
    EXPECT_NEAR(power.fractionOf(power.constantJoules)
                    + power.fractionOf(power.staticJoules)
                    + power.fractionOf(power.coreDynamicJoules)
                    + power.fractionOf(power.cacheJoules)
                    + power.fractionOf(power.dramJoules)
                    + power.fractionOf(power.rtUnitJoules),
                1.0, 1e-9);
    // Paper Sec. VI-D: RT units < 1 % of GPU power.
    EXPECT_LT(power.fractionOf(power.rtUnitJoules), 0.01);
}

// The DRAM clock-domain ratio is now a first-class ClockDomain on the
// fabric: sweeping it must behave physically (a faster DRAM clock never
// slows the run down) and every crossing must survive a Full-level
// invariant sweep, including the non-integer ratio shipped in the
// baseline config (3500 MHz DRAM over 1365 MHz core).
TEST(ClockDomainTest, FasterDramClockIsMonotoneAndCheckerClean)
{
    WorkloadParams p = tinyParams(WorkloadId::EXT);
    auto run_ratio = [&](double ratio) {
        Workload w(WorkloadId::EXT, p);
        GpuConfig cfg = fastConfig();
        cfg.fabric.dramClockRatio = ratio;
        cfg.checkLevel = check::CheckLevel::Full;
        cfg.threads = 1;
        RunResult r = service::defaultService().submit(w, cfg).take().run;
        EXPECT_EQ(compareImages(w.readFramebuffer(),
                                w.renderReferenceImage())
                      .differingPixels,
                  0u)
            << "ratio " << ratio;
        return r.cycles;
    };
    // Ratios in ascending DRAM speed: 1.0 < 2.0 < 3500/1365 (~2.56).
    Cycle unit = run_ratio(1.0);
    Cycle doubled = run_ratio(2.0);
    Cycle paper = run_ratio(3500.0 / 1365.0);
    EXPECT_GE(unit, doubled);
    EXPECT_GE(doubled, paper);
    EXPECT_GT(unit, paper);
}

TEST(OccupancyTraceTest, SamplesWhenEnabled)
{
    Workload w(WorkloadId::REF, tinyParams(WorkloadId::REF));
    GpuConfig cfg = fastConfig();
    cfg.occupancySamplePeriod = 100;
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    EXPECT_GT(run.occupancyTrace.size(), 2u);
    bool any_nonzero = false;
    for (auto [cycle, rays] : run.occupancyTrace)
        if (rays > 0)
            any_nonzero = true;
    EXPECT_TRUE(any_nonzero);
}

} // namespace
} // namespace vksim
