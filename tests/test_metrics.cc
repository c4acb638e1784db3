/**
 * @file
 * Observability layer tests: MetricsRegistry semantics (path/kind
 * collisions, histogram geometry, StatGroup import, shard merge order),
 * deterministic JSON formatting, the bundled JSON parser, and
 * well-formedness of the Chrome-trace timeline sink — the emitted file
 * is parsed back and checked event by event.
 */

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/vulkansim.h"
#include "util/jsonio.h"
#include "util/metrics.h"
#include "util/timeline.h"
#include "service/service.h"

namespace vksim {
namespace {

// ---------------------------------------------------------------------
// Registry basics
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateIsStable)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("gpu.l1.hits");
    c.inc(3);
    EXPECT_EQ(&reg.counter("gpu.l1.hits"), &c);
    EXPECT_EQ(reg.get("gpu.l1.hits"), 3u);
    EXPECT_TRUE(reg.has("gpu.l1.hits"));
    EXPECT_FALSE(reg.has("gpu.l1.misses"));
    EXPECT_EQ(reg.get("gpu.l1.misses"), 0u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, KindCollisionThrows)
{
    MetricsRegistry reg;
    reg.counter("a.b");
    EXPECT_THROW(reg.gauge("a.b"), std::logic_error);
    EXPECT_THROW(reg.accum("a.b"), std::logic_error);
    EXPECT_THROW(reg.histogram("a.b"), std::logic_error);

    reg.gauge("g");
    EXPECT_THROW(reg.counter("g"), std::logic_error);

    // Cross-kind reads fail soft (documented: 0 / nullptr).
    EXPECT_EQ(reg.get("g"), 0u);
    EXPECT_EQ(reg.gaugeValue("a.b"), 0.0);
    EXPECT_EQ(reg.findHistogram("a.b"), nullptr);
}

TEST(MetricsRegistryTest, HistogramGeometryIsLockedAtCreation)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat", 10.0, 4);
    EXPECT_EQ(&reg.histogram("lat", 10.0, 4), &h); // same geometry: fine
    EXPECT_THROW(reg.histogram("lat", 20.0, 4), std::logic_error);
    EXPECT_THROW(reg.histogram("lat", 10.0, 8), std::logic_error);
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat", 10.0, 4); // [0,40) + overflow

    h.sample(0.0);   // bucket 0 (inclusive lower edge)
    h.sample(9.999); // bucket 0
    h.sample(10.0);  // bucket 1 (exclusive upper edge of bucket 0)
    h.sample(39.99); // bucket 3
    h.sample(40.0);  // overflow (top edge)
    h.sample(1e9);   // overflow

    const Histogram *found = reg.findHistogram("lat");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->buckets(),
              (std::vector<std::uint64_t>{2, 1, 0, 1}));
    EXPECT_EQ(found->overflow(), 2u);
    EXPECT_EQ(found->summary().count(), 6u);
    EXPECT_EQ(found->summary().min(), 0.0);
    EXPECT_EQ(found->summary().max(), 1e9);
}

TEST(MetricsRegistryTest, ImportGroupAddsUnderPrefix)
{
    StatGroup group("l1");
    group.counter("hits.shader").inc(7);
    group.accum("latency").sample(4.0);
    group.accum("latency").sample(6.0);

    MetricsRegistry reg;
    reg.importGroup("gpu.l1", group);
    reg.importGroup("gpu.l1", group); // second shard with equal stats

    EXPECT_EQ(reg.get("gpu.l1.hits.shader"), 14u);
    // Accumulators fold: 4 samples totalling 20.
    std::string json = reg.toJson();
    JsonValue doc;
    ASSERT_TRUE(parseJson(json, &doc));
    const JsonValue *acc =
        doc.member("accumulators")->member("gpu.l1.latency");
    ASSERT_NE(acc, nullptr);
    EXPECT_EQ(acc->member("count")->raw, "4");
    EXPECT_EQ(acc->member("sum")->number, 20.0);
    EXPECT_EQ(acc->member("min")->number, 4.0);
    EXPECT_EQ(acc->member("max")->number, 6.0);
}

TEST(MetricsRegistryTest, MergeFoldsShardsDeterministically)
{
    // Two per-SM shards with overlapping and disjoint paths.
    MetricsRegistry sm0, sm1;
    sm0.counter("core.issued").inc(10);
    sm1.counter("core.issued").inc(32);
    sm0.counter("core.only0").inc(1);
    sm1.counter("core.only1").inc(2);
    sm0.accum("rt.warp_latency").sample(100.0);
    sm1.accum("rt.warp_latency").sample(300.0);
    sm0.histogram("rt.hist", 50.0, 8).sample(75.0);
    sm1.histogram("rt.hist", 50.0, 8).sample(125.0);
    sm0.gauge("derived.eff").set(0.25);
    sm1.gauge("derived.eff").set(0.75);

    // Merging the same shards in the same fixed order twice must give
    // byte-identical dumps (the determinism contract's merge step).
    MetricsRegistry a, b;
    for (MetricsRegistry *dst : {&a, &b}) {
        dst->merge(sm0);
        dst->merge(sm1);
    }
    EXPECT_EQ(a.toJson(), b.toJson());

    EXPECT_EQ(a.get("core.issued"), 42u);
    EXPECT_EQ(a.get("core.only0"), 1u);
    EXPECT_EQ(a.get("core.only1"), 2u);
    EXPECT_EQ(a.gaugeValue("derived.eff"), 0.75); // last writer wins
    const Histogram *h = a.findHistogram("rt.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->buckets()[1], 1u);
    EXPECT_EQ(h->buckets()[2], 1u);
    EXPECT_EQ(h->summary().count(), 2u);
}

TEST(MetricsRegistryTest, MergeRejectsKindMismatch)
{
    MetricsRegistry a, b;
    a.counter("x");
    b.gauge("x");
    EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsPaths)
{
    MetricsRegistry reg;
    reg.counter("c").inc(5);
    reg.gauge("g").set(1.5);
    reg.accum("a").sample(2.0);
    reg.histogram("h", 1.0, 4).sample(2.5);
    reg.reset();
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.get("c"), 0u);
    EXPECT_EQ(reg.gaugeValue("g"), 0.0);
    EXPECT_EQ(reg.findHistogram("h")->summary().count(), 0u);
}

// ---------------------------------------------------------------------
// JSON formatting + parser round trip
// ---------------------------------------------------------------------

TEST(MetricsJsonTest, FormatJsonNumber)
{
    EXPECT_EQ(formatJsonNumber(0.0), "0");
    EXPECT_EQ(formatJsonNumber(0.5), "0.5");
    EXPECT_EQ(formatJsonNumber(-3.0), "-3");
    // Shortest round trip, not %f noise.
    EXPECT_EQ(formatJsonNumber(0.1), "0.1");
    // Non-finite values have no JSON spelling.
    EXPECT_EQ(formatJsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(formatJsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(MetricsJsonTest, DumpParsesBackWithExactCounters)
{
    MetricsRegistry reg;
    // Counter beyond 2^53: survives only if dumped as an integer literal
    // and compared via raw text, which is exactly what jsonio preserves.
    reg.counter("big").inc((1ull << 60) + 1);
    reg.counter("name with \"quotes\" and \\slash").inc(1);
    reg.gauge("ratio").set(0.375);
    reg.accum("acc").sample(1.0);
    reg.histogram("h", 2.0, 3).sample(5.0);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(reg.toJson(), &doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.member("counters")->member("big")->raw,
              "1152921504606846977");
    EXPECT_NE(doc.member("counters")
                  ->member("name with \"quotes\" and \\slash"),
              nullptr);
    EXPECT_EQ(doc.member("gauges")->member("ratio")->number, 0.375);
    const JsonValue *h = doc.member("histograms")->member("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->member("bucket_width")->number, 2.0);
    EXPECT_EQ(h->member("buckets")->array.size(), 3u);
    EXPECT_EQ(h->member("buckets")->array[2].raw, "1");

    // Indented form must parse to the same document.
    JsonValue indented;
    ASSERT_TRUE(parseJson(reg.toJson(4), &indented, &error)) << error;
    EXPECT_EQ(indented.member("counters")->member("big")->raw,
              doc.member("counters")->member("big")->raw);
}

TEST(JsonIoTest, ParserRejectsMalformedDocuments)
{
    JsonValue v;
    EXPECT_FALSE(parseJson("", &v));
    EXPECT_FALSE(parseJson("{", &v));
    EXPECT_FALSE(parseJson("{\"a\": 1,}", &v));
    EXPECT_FALSE(parseJson("[1, 2] trailing", &v));
    EXPECT_FALSE(parseJson("{\"a\": 1, \"a\": 2}", &v)); // dup key
    EXPECT_FALSE(parseJson("\"unterminated", &v));
    EXPECT_FALSE(parseJson("01", &v));

    std::string error;
    EXPECT_FALSE(parseJson("[1, ", &v, &error));
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
}

TEST(JsonIoTest, ParserHandlesEscapesAndNesting)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(
        R"({"s": "a\"b\\c\nA", "arr": [true, false, null, -1.5e2]})",
        &v));
    EXPECT_EQ(v.member("s")->str, "a\"b\\c\nA");
    ASSERT_EQ(v.member("arr")->array.size(), 4u);
    EXPECT_TRUE(v.member("arr")->array[0].boolean);
    EXPECT_TRUE(v.member("arr")->array[2].isNull());
    EXPECT_EQ(v.member("arr")->array[3].number, -150.0);
}

// ---------------------------------------------------------------------
// Timeline sink
// ---------------------------------------------------------------------

TEST(TimelineTest, EmittedFileIsWellFormedChromeTrace)
{
    TimelineConfig config;
    config.path = ::testing::TempDir() + "vksim_timeline_test.json";
    config.sampleInterval = 4;
    config.maxEvents = 1024;

    Timeline timeline(config, 2);
    timeline.setProcessName(0, "sm0");
    timeline.setProcessName(1, "fabric");
    timeline.shard(0)->complete("sched.slot0", "warp3", 10, 250);
    timeline.shard(0)->instant("rtunit", "stack_spill", 42);
    timeline.shard(1)->counter("part0.inbound", 64, 7.0);
    EXPECT_TRUE(timeline.shard(0)->sampleDue(8));
    EXPECT_FALSE(timeline.shard(0)->sampleDue(9));
    EXPECT_EQ(timeline.eventCount(), 3u);
    EXPECT_EQ(timeline.droppedCount(), 0u);

    std::string error;
    ASSERT_TRUE(timeline.writeFile(&error)) << error;

    std::string text;
    ASSERT_TRUE(readFile(config.path, &text, &error)) << error;
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, &doc, &error)) << error;

    const JsonValue *events = doc.member("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // 3 recorded events + 2 process_name metadata records.
    ASSERT_EQ(events->array.size(), 5u);

    unsigned seen_x = 0, seen_i = 0, seen_c = 0, seen_m = 0;
    for (const JsonValue &ev : events->array) {
        ASSERT_TRUE(ev.isObject());
        const JsonValue *ph = ev.member("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.member("pid"), nullptr);
        if (ph->str == "X") {
            ++seen_x;
            EXPECT_EQ(ev.member("name")->str, "warp3");
            EXPECT_EQ(ev.member("tid")->str, "sched.slot0");
            EXPECT_EQ(ev.member("ts")->raw, "10");
            EXPECT_EQ(ev.member("dur")->raw, "240");
        } else if (ph->str == "i") {
            ++seen_i;
            EXPECT_EQ(ev.member("name")->str, "stack_spill");
            EXPECT_EQ(ev.member("s")->str, "t");
        } else if (ph->str == "C") {
            ++seen_c;
            EXPECT_EQ(ev.member("args")->member("value")->number, 7.0);
            EXPECT_EQ(ev.member("pid")->raw, "1");
        } else if (ph->str == "M") {
            ++seen_m;
            EXPECT_EQ(ev.member("name")->str, "process_name");
        }
    }
    EXPECT_EQ(seen_x, 1u);
    EXPECT_EQ(seen_i, 1u);
    EXPECT_EQ(seen_c, 1u);
    EXPECT_EQ(seen_m, 2u);

    EXPECT_EQ(doc.member("otherData")->member("clock")->str, "sim_cycles");
    std::remove(config.path.c_str());
}

TEST(TimelineTest, EventBudgetIsPerShardAndDeterministic)
{
    TimelineConfig config;
    config.path = "unused.json";
    config.maxEvents = 8; // 4 per shard

    Timeline timeline(config, 2);
    for (Cycle t = 0; t < 10; ++t)
        timeline.shard(0)->instant("a", "e", t);
    // Shard 1 untouched: its budget must not rescue shard 0.
    EXPECT_EQ(timeline.shard(0)->eventCount(), 4u);
    EXPECT_EQ(timeline.shard(0)->dropped(), 6u);
    EXPECT_EQ(timeline.eventCount(), 4u);
    EXPECT_EQ(timeline.droppedCount(), 6u);
}

TEST(TimelineTest, FullRunTraceParsesBack)
{
    // End to end: a small timed simulation with the sink enabled must
    // leave a loadable Chrome-trace file with events from both an SM
    // shard and the fabric shard.
    wl::WorkloadParams params;
    params.width = 8;
    params.height = 8;
    GpuConfig config = baselineGpuConfig();
    config.numSms = 2;
    config.fabric.numPartitions = 1;
    config.threads = 1;
    config.timeline.path =
        ::testing::TempDir() + "vksim_timeline_run.json";
    config.timeline.sampleInterval = 32;

    wl::Workload workload(wl::WorkloadId::TRI, params);
    RunResult run = service::defaultService().submit(workload, config).take().run;
    EXPECT_GT(run.metrics.gaugeValue("timeline.events"), 0.0);

    std::string text, error;
    ASSERT_TRUE(readFile(config.timeline.path, &text, &error)) << error;
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
    const JsonValue *events = doc.member("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->array.size(), 2u);

    bool saw_sm = false, saw_fabric = false, saw_warp = false;
    for (const JsonValue &ev : events->array) {
        const JsonValue *pid = ev.member("pid");
        if (pid && pid->raw == "0")
            saw_sm = true;
        if (pid && pid->raw == "2") // numSms shards + 1 fabric shard
            saw_fabric = true;
        const JsonValue *tid = ev.member("tid");
        if (tid && tid->str.rfind("sched.slot", 0) == 0)
            saw_warp = true;
    }
    EXPECT_TRUE(saw_sm);
    EXPECT_TRUE(saw_fabric);
    EXPECT_TRUE(saw_warp);
    std::remove(config.timeline.path.c_str());
}

// ---------------------------------------------------------------------
// The per-run registry built by the engine
// ---------------------------------------------------------------------

GpuConfig
runConfig()
{
    GpuConfig config = baselineGpuConfig();
    config.numSms = 2;
    config.fabric.numPartitions = 1;
    config.threads = 1;
    return config;
}

/** The run gauges describe exactly the run's cycles and counters. */
void
expectRunGaugesMatchHelpers(const RunResult &run)
{
    const MetricsRegistry &m = run.metrics;
    EXPECT_EQ(m.gaugeValue("gpu.cycles"), static_cast<double>(run.cycles));
    EXPECT_EQ(m.gaugeValue("gpu.occupancy_samples"),
              static_cast<double>(run.occupancyTrace.size()));
    EXPECT_EQ(m.gaugeValue("gpu.derived.simt_efficiency"),
              run.simtEfficiency());
    EXPECT_EQ(m.gaugeValue("gpu.derived.rt_simt_efficiency"),
              run.rtSimtEfficiency());
    EXPECT_EQ(m.gaugeValue("gpu.derived.dram_utilization"),
              run.dramUtilization());
    EXPECT_EQ(m.gaugeValue("gpu.derived.dram_efficiency"),
              run.dramEfficiency());
    EXPECT_EQ(m.gaugeValue("gpu.derived.rt_active_fraction"),
              run.rtActiveFraction());
}

TEST(RunMetricsTest, RegistryMirrorsLegacyGroupsAndAddsDerived)
{
    wl::WorkloadParams params;
    params.width = 8;
    params.height = 8;
    GpuConfig config = runConfig();

    wl::Workload workload(wl::WorkloadId::TRI, params);
    RunResult run = service::defaultService().submit(workload, config).take().run;

    // Every subsystem's counters are folded in.
    const MetricsRegistry &m = run.metrics;
    EXPECT_GT(m.get("gpu.core.issued"), 0u);
    EXPECT_GT(m.get("gpu.rt.warps_submitted"), 0u);
    EXPECT_GT(m.get("gpu.l1.accesses.shader"), 0u);
    EXPECT_GT(m.get("gpu.dram.requests"), 0u);
    EXPECT_GT(m.get("gpu.l2.accesses.shader"), 0u);

    // Engine-level gauges, each derived gauge equal to its helper.
    expectRunGaugesMatchHelpers(run);
    EXPECT_GT(run.simtEfficiency(), 0.0);
    EXPECT_GT(m.gaugeValue("mem.heap_bytes"), 0.0);

    // The RT warp-latency histogram rides along with full geometry and
    // one sample per RT warp.
    const Histogram *h = m.findHistogram("gpu.rt.warp_latency_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bucketWidth(), kRtLatencyBucketWidth);
    EXPECT_EQ(h->buckets().size(), kRtLatencyBuckets);
    EXPECT_EQ(h->summary().count(), m.get("gpu.rt.warps_completed"));
}

TEST(RunMetricsTest, MultiFrameGaugesDescribeTheWholeRun)
{
    // Frames fold into one registry; the run gauges must then be
    // recomputed over all of them, not keep the last frame's values.
    wl::WorkloadParams params;
    params.width = 8;
    params.height = 8;
    params.frames = 2;
    GpuConfig config = runConfig();
    config.occupancySamplePeriod = 64;

    wl::Workload workload(wl::WorkloadId::ACC, params);
    RunResult run =
        service::defaultService().submit(workload, config).take().run;
    ASSERT_GT(run.occupancyTrace.size(), 0u);

    expectRunGaugesMatchHelpers(run);
    const Histogram *h =
        run.metrics.findHistogram("gpu.rt.warp_latency_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->summary().count(),
              run.metrics.get("gpu.rt.warps_completed"));
}

TEST(RunMetricsTest, MultiFrameTelemetrySumsTheFrames)
{
    // The engine telemetry kept outside the registry (micro-op decodes,
    // skipped SM-cycles, invariant-sweep counts) must describe a
    // multi-frame job's whole run: the sum of the same frames run one
    // at a time on one prepared workload.
    wl::WorkloadParams params;
    params.width = 8;
    params.height = 8;
    params.frames = 2;
    GpuConfig config = runConfig();
    config.checkLevel = check::CheckLevel::Basic;

    wl::Workload whole(wl::WorkloadId::ACC, params);
    const RunResult run = service::runPreparedWorkload(whole, config);

    params.frames = 1;
    wl::Workload stepped(wl::WorkloadId::ACC, params);
    const RunResult first = service::runPreparedWorkload(stepped, config);
    stepped.beginFrame(1);
    const RunResult second = service::runPreparedWorkload(stepped, config);

    ASSERT_EQ(run.cycles, first.cycles + second.cycles);
    EXPECT_GT(second.uopDecodes, 0u);
    EXPECT_GT(second.sweepUnitChecks, 0u);
    EXPECT_EQ(run.uopDecodes, first.uopDecodes + second.uopDecodes);
    EXPECT_EQ(run.smCyclesSkipped,
              first.smCyclesSkipped + second.smCyclesSkipped);
    EXPECT_EQ(run.sweepUnitChecks,
              first.sweepUnitChecks + second.sweepUnitChecks);
    EXPECT_EQ(run.sweepUnitSkips,
              first.sweepUnitSkips + second.sweepUnitSkips);
}

} // namespace
} // namespace vksim
