/**
 * @file
 * Parallel simulation engine tests: the ThreadPool substrate itself, and
 * the determinism contract — a timed run, a reference render, and a BVH
 * build must produce bit-identical results for every thread count
 * (DESIGN.md, "Parallel engine & determinism contract").
 */

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "accel/build.h"
#include "core/vulkansim.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "service/service.h"

namespace vksim {
namespace {

using wl::Workload;
using wl::WorkloadId;
using wl::WorkloadParams;

// ---------------------------------------------------------------------
// ThreadPool substrate
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The pool must survive a failed job.
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 99u * 100u / 2u);
}

TEST(ThreadPoolTest, NestedParallelForOnSamePoolIsRejected)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(4,
                                  [&](std::size_t) {
                                      pool.parallelFor(
                                          2, [](std::size_t) {});
                                  }),
                 std::logic_error);
}

TEST(ThreadPoolTest, ResolveThreadCountPrecedence)
{
    EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3u);

    ::setenv("VKSIM_THREADS", "5", 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(0), 5u);
    EXPECT_EQ(ThreadPool::resolveThreadCount(2), 2u); // request wins
    ::unsetenv("VKSIM_THREADS");

    EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u); // never 0
}

// ---------------------------------------------------------------------
// Engine determinism: identical results for every thread count
// ---------------------------------------------------------------------

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
engineConfig(unsigned threads)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 4;
    cfg.fabric.numPartitions = 2;
    cfg.maxCycles = 100'000'000;
    cfg.occupancySamplePeriod = 64; // exercise the occupancy trace too
    cfg.threads = threads;
    return cfg;
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.occupancyTrace, b.occupancyTrace);

    // The run's statistics live in its metrics registry: the complete
    // dump — counters, gauges, accumulators, histograms (the RT warp
    // latency too), including double-valued derived metrics — must be
    // byte-identical.
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
}

class EngineDeterminismTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineDeterminismTest, IdenticalAcrossThreadCounts)
{
    auto id = static_cast<WorkloadId>(GetParam());

    // One full run (workload + framebuffer image) per thread count. The
    // host has whatever core count it has — oversubscription is fine, the
    // contract is bit-identical output regardless.
    RunResult serial;
    Image serial_img(1, 1);
    for (unsigned threads : {1u, 2u, 8u}) {
        Workload workload(id, tinyParams());
        RunResult run = service::defaultService().submit(workload, engineConfig(threads)).take().run;
        EXPECT_EQ(run.threadsUsed, std::min(threads, 4u)); // capped at SMs
        Image img = workload.readFramebuffer();
        if (threads == 1) {
            serial = std::move(run);
            serial_img = std::move(img);
            continue;
        }
        expectSameRun(serial, run);
        EXPECT_EQ(serial_img.data(), img.data())
            << "framebuffer differs at " << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineDeterminismTest,
    ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(
            wl::workloadName(static_cast<WorkloadId>(info.param)));
    });

// ---------------------------------------------------------------------
// Parallel reference renderer: tiles vs serial
// ---------------------------------------------------------------------

TEST(ParallelRendererTest, TiledRenderMatchesSerial)
{
    Workload workload(WorkloadId::EXT, tinyParams());

    TraceCounters serial_counters;
    Image serial = workload.renderReferenceImage(&serial_counters, 1);

    for (unsigned threads : {2u, 4u, 8u}) {
        TraceCounters counters;
        Image parallel = workload.renderReferenceImage(&counters, threads);
        EXPECT_EQ(serial.data(), parallel.data())
            << "image differs at " << threads << " threads";
        EXPECT_EQ(serial_counters.nodesVisited, counters.nodesVisited);
        EXPECT_EQ(serial_counters.boxTests, counters.boxTests);
        EXPECT_EQ(serial_counters.triangleTests, counters.triangleTests);
        EXPECT_EQ(serial_counters.transforms, counters.transforms);
        EXPECT_EQ(serial_counters.rays, counters.rays);
    }
}

// ---------------------------------------------------------------------
// Parallel BVH binning determinism
// ---------------------------------------------------------------------

TEST(ParallelBvhBuildTest, LargeBuildIsReproducible)
{
    // Ask the shared pool for several lanes even on small hosts so the
    // chunked binning path actually forks (best effort: if another test
    // created the shared pool first the env var is ignored, and the
    // build must *still* be reproducible).
    ::setenv("VKSIM_THREADS", "4", 0);

    // 20k prims clears kParallelBuildThreshold at the root and the first
    // few levels of the recursion.
    constexpr std::uint32_t kPrims = 20'000;
    std::vector<PrimRef> prims(kPrims);
    for (std::uint32_t i = 0; i < kPrims; ++i) {
        auto coord = [&](std::uint32_t salt) {
            return static_cast<float>(hashU32(i * 3u + salt) & 0xffff)
                   * (100.0f / 65535.0f);
        };
        Vec3 lo(coord(0), coord(1), coord(2));
        prims[i].bounds.extend(lo);
        prims[i].bounds.extend(lo + Vec3(0.5f, 0.25f, 0.75f));
        prims[i].index = i;
    }

    BinaryBvh first = buildBinaryBvh(prims);
    BinaryBvh second = buildBinaryBvh(prims);
    ASSERT_EQ(first.nodes.size(), second.nodes.size());
    ASSERT_EQ(first.nodes.size(), 2 * kPrims - 1); // binary, 1 prim/leaf
    for (std::size_t n = 0; n < first.nodes.size(); ++n) {
        const BinaryBvhNode &a = first.nodes[n];
        const BinaryBvhNode &b = second.nodes[n];
        EXPECT_EQ(a.left, b.left) << "node " << n;
        EXPECT_EQ(a.right, b.right) << "node " << n;
        EXPECT_EQ(a.primIndex, b.primIndex) << "node " << n;
        EXPECT_EQ(a.bounds.lo.x, b.bounds.lo.x) << "node " << n;
        EXPECT_EQ(a.bounds.lo.y, b.bounds.lo.y) << "node " << n;
        EXPECT_EQ(a.bounds.lo.z, b.bounds.lo.z) << "node " << n;
        EXPECT_EQ(a.bounds.hi.x, b.bounds.hi.x) << "node " << n;
        EXPECT_EQ(a.bounds.hi.y, b.bounds.hi.y) << "node " << n;
        EXPECT_EQ(a.bounds.hi.z, b.bounds.hi.z) << "node " << n;
    }
    ::unsetenv("VKSIM_THREADS");
}

} // namespace
} // namespace vksim
