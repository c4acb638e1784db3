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
 *
 * Event horizons settle the no-op cycles of awake SMs in closed form
 * (SmCore::settle), so the suite also covers Modern memory, ITS warps
 * whose splits rotate through stalls, runs without digests (where a
 * settle spans many cycles instead of stopping at every sample) and
 * snapshots taken while SMs wait on loads or the RT unit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/vulkansim.h"
#include "service/service.h"
#include "util/serial.h"

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

/** One idle-skipping engine setting checked against the oracle. */
struct Leg
{
    unsigned epoch;
    unsigned threads;
    bool digests; ///< off: settles span many cycles, not one sample
};

/**
 * Run `id` on the reference engine — every unit cycled every cycle, one
 * barrier per cycle (idle-skip off, epochCycles = 1, the finest
 * stepping of the same loop) — and on the idle-skipping engine at each
 * leg, on `base` otherwise, and require bit-identical runs and
 * framebuffers. A leg without digests compares everything else.
 */
void
expectLegsMatchOracle(WorkloadId id, const WorkloadParams &params,
                      GpuConfig base, const std::vector<Leg> &legs)
{
    auto config = [&](bool idle_skip, unsigned threads, unsigned epoch) {
        GpuConfig cfg = base;
        cfg.idleSkip = idle_skip;
        cfg.threads = threads;
        cfg.epochCycles = epoch;
        return cfg;
    };
    Workload ref_wl(id, params);
    RunResult ref = service::defaultService()
                        .submit(ref_wl, config(false, 1, 1))
                        .take()
                        .run;
    Image ref_img = ref_wl.readFramebuffer();
    EXPECT_EQ(ref.smCyclesSkipped, 0u);
    EXPECT_EQ(ref.epochCyclesUsed, 1u);

    for (const Leg &leg : legs) {
        SCOPED_TRACE(::testing::Message()
                     << leg.threads << " threads, " << leg.epoch
                     << "-cycle epochs, digests " << leg.digests);
        GpuConfig cfg = config(true, leg.threads, leg.epoch);
        cfg.digestTrace = leg.digests;
        Workload skip_wl(id, params);
        RunResult skip =
            service::defaultService().submit(skip_wl, cfg).take().run;
        if (leg.digests) {
            expectSameRun(ref, skip);
        } else {
            EXPECT_EQ(ref.cycles, skip.cycles);
            EXPECT_EQ(ref.occupancyTrace, skip.occupancyTrace);
            EXPECT_EQ(ref.metrics.toJson(), skip.metrics.toJson());
        }
        EXPECT_EQ(ref_img.data(), skip_wl.readFramebuffer().data())
            << "framebuffer differs";
    }
}

class IdleSkipEquivalenceTest : public ::testing::TestWithParam<int>
{
};

TEST_P(IdleSkipEquivalenceTest, BitIdenticalToLockStep)
{
    expectLegsMatchOracle(static_cast<WorkloadId>(GetParam()), tinyParams(),
                          engineConfig(false, 1, 1),
                          {{1, 1, true},
                           {1, 4, true},
                           {32, 1, true},
                           {32, 4, true},
                           {128, 1, true},
                           {128, 4, true},
                           {128, 1, false}});
}

// The same contract under the Modern memory preset: sectored caches and
// bank-grouped DRAM with refresh change every fill and response time an
// event horizon reads.
TEST_P(IdleSkipEquivalenceTest, ModernMemoryBitIdenticalToLockStep)
{
    expectLegsMatchOracle(
        static_cast<WorkloadId>(GetParam()), tinyParams(),
        applyMemoryVariant(engineConfig(false, 1, 1), MemoryVariant::Modern),
        {{32, 1, true}, {128, 4, true}, {128, 4, false}});
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

// Independent thread scheduling with a divergent raygen: warps hold
// several runnable splits, and with one warp slot per RT unit a split
// that wants the RT unit stalls there while its sibling waits on a
// load, so a settled span rotates nextSplit through splits that stall
// on different hazards.
TEST(IdleSkipTest, ItsSplitRotationIsBitIdentical)
{
    WorkloadParams p = tinyParams();
    p.divergentRaygen = true;
    GpuConfig base = engineConfig(false, 1, 1);
    base.its = true;
    base.rt.maxWarps = 1;
    expectLegsMatchOracle(WorkloadId::EXT, p, base,
                          {{128, 1, true}, {128, 4, false}});
}

/**
 * An engine snapshot's bytes with the scheduler section (sleep flags,
 * sleep starts, skipped-cycle telemetry) cut out, and that section's
 * sleep flags. Layout: GpuSimulator::run's capture().
 */
struct SnapshotParts
{
    std::vector<std::uint8_t> rest;
    std::vector<bool> awake;
};

SnapshotParts
splitSnapshot(const EngineSnapshot &snap)
{
    const std::vector<std::uint8_t> &bytes = snap.bytes;
    serial::Reader r(bytes);
    r.u64(); // heap break
    std::vector<std::uint8_t> page;
    for (std::uint64_t pages = r.u64(); pages > 0; --pages) {
        r.u64();
        page.resize(r.u64());
        r.bytes(page.data(), page.size());
    }
    r.u32(); // dispatch cursor: next warp
    r.u32(); // dispatch cursor: SM
    const std::size_t begin = bytes.size() - r.remaining();
    SnapshotParts parts;
    parts.awake.resize(r.u64());
    for (std::size_t i = 0; i < parts.awake.size(); ++i) {
        parts.awake[i] = r.b();
        r.u64(); // asleep since
    }
    r.u64(); // skipped SM-cycles
    const std::size_t end = bytes.size() - r.remaining();
    parts.rest.assign(bytes.begin(), bytes.begin() + begin);
    parts.rest.insert(parts.rest.end(), bytes.begin() + end, bytes.end());
    return parts;
}

/** Sixteen warps on four SMs: every SM stays awake for most of the run,
 *  its warps waiting on loads and the RT unit. */
WorkloadParams
busyParams()
{
    WorkloadParams p = tinyParams();
    p.width = 32;
    return p;
}

GpuConfig
busyConfig(bool idle_skip, unsigned threads, unsigned epoch_cycles)
{
    GpuConfig cfg = engineConfig(idle_skip, threads, epoch_cycles);
    cfg.numSms = 4;
    cfg.digestTrace = false;
    return cfg;
}

// A snapshot at an epoch barrier while warps wait on loads and the RT
// unit must hold what the every-cycle oracle holds at that cycle: the
// settled spans brought counters, split rotations and the SM clock to
// the barrier. With every SM awake only the scheduler section may
// differ.
TEST(IdleSkipTest, SnapshotInsideWaitMatchesOracleBytes)
{
    const GpuConfig base = busyConfig(true, 4, 128);
    Workload whole_wl(WorkloadId::EXT, busyParams());
    const Cycle total =
        service::defaultService().submit(whole_wl, base).take().run.cycles;

    for (Cycle at : {total / 5, total / 3}) {
        GpuConfig skip_cfg = base;
        skip_cfg.checkpoint.snapshotAt = at;
        Workload skip_wl(WorkloadId::EXT, busyParams());
        RunResult skip =
            service::defaultService().submit(skip_wl, skip_cfg).take().run;
        ASSERT_NE(skip.snapshot, nullptr);

        GpuConfig oracle_cfg = busyConfig(false, 1, 1);
        oracle_cfg.checkpoint.snapshotAt = skip.snapshot->cycle;
        oracle_cfg.checkpoint.exact = true;
        Workload oracle_wl(WorkloadId::EXT, busyParams());
        RunResult oracle = service::defaultService()
                               .submit(oracle_wl, oracle_cfg)
                               .take()
                               .run;
        ASSERT_NE(oracle.snapshot, nullptr);

        const SnapshotParts a = splitSnapshot(*skip.snapshot);
        const SnapshotParts b = splitSnapshot(*oracle.snapshot);
        EXPECT_EQ(a.awake, std::vector<bool>(4, true))
            << "an SM slept at cycle " << skip.snapshot->cycle;
        EXPECT_EQ(a.awake, b.awake);
        EXPECT_TRUE(a.rest == b.rest)
            << "snapshot bytes differ from the oracle at cycle "
            << skip.snapshot->cycle;
    }
}

// Event horizons must skip many cycles of SMs that are never idle. With
// resident warps on every SM for almost the whole run, sleep alone
// skips about 5% of the SM-cycles here; the rest of the skipped share
// is the no-op cycles of SMs whose warps wait on loads or the RT unit.
TEST(IdleSkipTest, HorizonsSkipCyclesOfBusySms)
{
    Workload w(WorkloadId::EXT, busyParams());
    GpuConfig cfg = busyConfig(true, 1, 64);
    RunResult run = service::defaultService().submit(w, cfg).take().run;
    const double share = static_cast<double>(run.smCyclesSkipped)
                         / static_cast<double>(run.cycles * cfg.numSms);
    EXPECT_GT(share, 0.3) << run.smCyclesSkipped << " of "
                          << run.cycles * cfg.numSms << " SM-cycles";
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
