/**
 * @file
 * Unit tests for the statistics package (counters, accumulators,
 * histograms, groups and counter slots) and a fuzz-style property test
 * running the full functional pipeline over randomly generated
 * procedural scenes, comparing every pixel against the CPU reference
 * renderer.
 */

#include <gtest/gtest.h>

#include <optional>

#include "util/stats.h"
#include "workloads/workload.h"

namespace vksim {
namespace {

TEST(CounterTest, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(AccumulatorTest, SummaryStatistics)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    for (double v : {3.0, 1.0, 2.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(HistogramTest, BucketsOverflowAndPercentiles)
{
    Histogram h(10.0, 4); // [0,10) [10,20) [20,30) [30,40) + overflow
    for (double v : {1.0, 5.0, 15.0, 25.0, 35.0, 99.0})
        h.sample(v);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.summary().count(), 6u);
    // Half the samples are below 20.
    EXPECT_LE(h.percentile(0.5), 20.0);
    EXPECT_GE(h.percentile(0.99), 30.0);
}

TEST(StatGroupTest, DumpAndGet)
{
    StatGroup g("grp");
    g.counter("hits").inc(3);
    g.accum("lat").sample(10.0);
    EXPECT_EQ(g.get("hits"), 3u);
    EXPECT_EQ(g.get("missing"), 0u);
    std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.hits = 3"), std::string::npos);
    EXPECT_NE(dump.find("grp.lat.mean = 10"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.get("hits"), 0u);
}

// --- Counter slots ----------------------------------------------------------

TEST(CounterSlotTest, UnusedSlotCreatesNoKey)
{
    StatGroup g("grp");
    CounterSlot unused("never");
    CounterSlot used("once");
    g.counter(used).inc(2);
    EXPECT_EQ(g.counters().size(), 1u);
    EXPECT_EQ(g.counters().count("never"), 0u);
    EXPECT_EQ(g.get("once"), 2u);
    // The slot and the string overload name the same counter.
    EXPECT_EQ(&g.counter(used), &g.counter("once"));
}

TEST(CounterSlotTest, ResetKeepsBinding)
{
    StatGroup g("grp");
    CounterSlot slot("hits");
    Counter *bound = &g.counter(slot);
    bound->inc(5);
    g.reset();
    EXPECT_EQ(g.get("hits"), 0u);
    EXPECT_EQ(&g.counter(slot), bound);
    g.counter(slot).inc();
    EXPECT_EQ(g.get("hits"), 1u);
}

TEST(CounterSlotTest, RebindsAfterLoadState)
{
    StatGroup saved("grp");
    saved.counter("hits").set(40);
    saved.counter("other").set(7);
    serial::Writer w;
    saved.saveState(w);

    StatGroup g("grp");
    CounterSlot slot("hits");
    g.counter(slot).inc(3);
    serial::Reader r(w.buffer());
    g.loadState(r); // frees the counter the slot was bound to
    g.counter(slot).inc();
    EXPECT_EQ(g.get("hits"), 41u);
    EXPECT_EQ(&g.counter(slot), &g.counter("hits"));
}

TEST(CounterSlotTest, RebindsAfterCopyAssign)
{
    StatGroup g("grp"), other("grp");
    other.counter("hits").set(10);
    CounterSlot slot("hits");
    g.counter(slot).inc(3);
    g = other;
    g.counter(slot).inc();
    EXPECT_EQ(g.get("hits"), 11u);
    EXPECT_EQ(other.get("hits"), 10u);

    // A copy is a new group: the slot follows whichever group it is
    // handed, never the one it was bound to.
    StatGroup copy(g);
    copy.counter(slot).inc(100);
    EXPECT_EQ(copy.get("hits"), 111u);
    EXPECT_EQ(g.get("hits"), 11u);
}

TEST(CounterSlotTest, RebindsAfterMove)
{
    StatGroup g("grp");
    CounterSlot slot("hits");
    g.counter(slot).inc(3);

    StatGroup moved(std::move(g));
    moved.counter(slot).inc();
    EXPECT_EQ(moved.get("hits"), 4u);
    // The moved-from group no longer owns that counter: using the slot
    // on it must create a fresh one, not reach into `moved`.
    g.counter(slot).inc(9);
    EXPECT_EQ(moved.get("hits"), 4u);
    EXPECT_EQ(g.get("hits"), 9u);

    StatGroup assigned("grp");
    assigned.counter(slot).inc(20);
    assigned = std::move(moved);
    assigned.counter(slot).inc();
    EXPECT_EQ(assigned.get("hits"), 5u);
    moved.counter(slot).inc(2);
    EXPECT_EQ(moved.get("hits"), 2u);
    EXPECT_EQ(assigned.get("hits"), 5u);
}

TEST(CounterSlotTest, SlotsOnTwoGroupsNeverCross)
{
    StatGroup a("a"), b("b");
    CounterSlot slot("hits");
    for (int i = 0; i < 3; ++i) {
        a.counter(slot).inc(1);
        b.counter(slot).inc(10);
    }
    EXPECT_EQ(a.get("hits"), 3u);
    EXPECT_EQ(b.get("hits"), 30u);

    // A group rebuilt in the storage of a destroyed one is a different
    // group: the slot must not reuse the freed counter.
    std::optional<StatGroup> reused;
    reused.emplace("r");
    reused->counter(slot).inc(5);
    reused.reset();
    reused.emplace("r");
    reused->counter(slot).inc();
    EXPECT_EQ(reused->get("hits"), 1u);
}

/**
 * Fuzz: random procedural scenes through the entire pipeline (scene ->
 * BVH -> shaders -> translator -> functional executor) vs the reference
 * renderer. Distinct seeds vary sphere/box mix, sizes and camera.
 */
class PipelineFuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineFuzzTest, RandomSceneMatchesReference)
{
    int seed = GetParam();
    wl::WorkloadParams params;
    params.width = 20;
    params.height = 20;
    params.rtv6Prims = 150 + 137 * static_cast<unsigned>(seed);
    params.shading.maxBounces = 2 + static_cast<unsigned>(seed % 3);
    params.shading.frameSeed = static_cast<std::uint32_t>(seed * 7919);

    wl::Workload workload(wl::WorkloadId::RTV6, params);
    Image sim = workload.runFunctional();
    Image ref = workload.renderReferenceImage();
    ImageDiff diff = compareImages(sim, ref, 1.0f / 255.0f);
    EXPECT_LT(diff.differingFraction(), 0.01)
        << "seed " << seed << ": " << diff.differingPixels << " pixels";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Range(0, 6));

} // namespace
} // namespace vksim
