/**
 * @file
 * Golden-stats regression suite: every evaluation workload is simulated
 * at a small fixed configuration and its complete MetricsRegistry dump
 * is compared against a checked-in golden file. Event *counts* must
 * match exactly (raw integer literals); *derived* floating-point values
 * (gauges, accumulator means, bucket widths) get a relative tolerance so
 * a different libm/compiler cannot fail the suite.
 *
 * Any intended change to the performance model shifts these numbers. To
 * regenerate the goldens after such a change:
 *
 *     VKSIM_UPDATE_GOLDEN=1 ./test_golden_stats
 *
 * then review the diff of the tests/golden JSON like any other code —
 * the review IS the point: an unexplained counter shift is a bug.
 *
 * Each workload also has a frozen engine fingerprint: cycles plus 64-bit
 * folds of the digest and occupancy traces. They were recorded from the
 * one-cycle lock-step loop the engine had before one-cycle epochs became
 * ordinary epochs, so they keep an independent reference for the
 * stepping contract: every epoch length must reproduce them exactly.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/vulkansim.h"
#include "util/jsonio.h"
#include "service/service.h"

#ifndef VKSIM_GOLDEN_DIR
#error "VKSIM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace vksim {
namespace {

using wl::Workload;
using wl::WorkloadId;
using wl::WorkloadParams;

/** Relative tolerance for derived floating-point values. */
constexpr double kRelTol = 1e-9;

/** The pinned configuration: small but exercises 4 SMs, 2 partitions. */
GpuConfig
goldenConfig()
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 4;
    cfg.fabric.numPartitions = 2;
    cfg.maxCycles = 100'000'000;
    cfg.threads = 1;
    return cfg;
}

WorkloadParams
goldenParams(WorkloadId id)
{
    WorkloadParams p;
    p.width = 16;
    p.height = 16;
    p.extScale = 0.1f;
    p.rtv5Detail = 3;
    p.rtv6Prims = 400;
    // ACC's golden pins the multi-frame accumulate path, not just the
    // single-launch stats every other workload already covers.
    if (id == WorkloadId::ACC)
        p.frames = 2;
    return p;
}

bool
updatingGoldens()
{
    const char *update = std::getenv("VKSIM_UPDATE_GOLDEN");
    return update && update[0] == '1';
}

bool
nearlyEqual(double a, double b)
{
    if (a == b)
        return true;
    double scale = std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) <= kRelTol * scale;
}

/**
 * Recursive structural diff. `exact` means numbers must match as raw
 * literals (counter territory); otherwise numeric values get kRelTol.
 */
void
diffValue(const JsonValue &want, const JsonValue &got,
          const std::string &path, bool exact,
          std::vector<std::string> *errors)
{
    if (want.kind != got.kind) {
        errors->push_back(path + ": kind differs");
        return;
    }
    switch (want.kind) {
      case JsonValue::Kind::Number:
        if (want.raw == got.raw)
            return;
        if (exact)
            errors->push_back(path + ": " + want.raw + " != " + got.raw);
        else if (!nearlyEqual(want.number, got.number))
            errors->push_back(path + ": " + want.raw + " !~ " + got.raw);
        return;
      case JsonValue::Kind::String:
        if (want.str != got.str)
            errors->push_back(path + ": \"" + want.str + "\" != \""
                              + got.str + "\"");
        return;
      case JsonValue::Kind::Bool:
        if (want.boolean != got.boolean)
            errors->push_back(path + ": bool differs");
        return;
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Array:
        if (want.array.size() != got.array.size()) {
            errors->push_back(path + ": array size "
                              + std::to_string(want.array.size()) + " != "
                              + std::to_string(got.array.size()));
            return;
        }
        for (std::size_t i = 0; i < want.array.size(); ++i)
            diffValue(want.array[i], got.array[i],
                      path + "[" + std::to_string(i) + "]", exact, errors);
        return;
      case JsonValue::Kind::Object:
        for (const auto &[key, sub] : want.object) {
            const JsonValue *other = got.member(key);
            if (!other) {
                errors->push_back(path + "." + key + ": missing");
                continue;
            }
            // Histogram bucket contents and sample counts are event
            // counts; their floating-point summaries are derived.
            bool sub_exact = exact || key == "counters" || key == "buckets"
                             || key == "overflow" || key == "count"
                             || key == "num_buckets";
            // Accumulator/histogram min/max/sum/mean and every gauge are
            // double-valued: tolerance, even inside an exact subtree.
            if (key == "sum" || key == "min" || key == "max"
                || key == "mean" || key == "bucket_width"
                || key == "gauges" || key == "accumulators")
                sub_exact = false;
            diffValue(sub, *other, path + "." + key, sub_exact, errors);
        }
        for (const auto &[key, sub] : got.object) {
            (void)sub;
            if (!want.member(key))
                errors->push_back(path + "." + key
                                  + ": unexpected new metric");
        }
        return;
    }
}

class GoldenStatsTest : public ::testing::TestWithParam<int>
{
};

TEST_P(GoldenStatsTest, MatchesCheckedInGolden)
{
    auto id = static_cast<WorkloadId>(GetParam());
    Workload workload(id, goldenParams(id));
    RunResult run = service::defaultService().submit(workload, goldenConfig()).take().run;
    std::string current = run.metrics.toJson();
    current += "\n";

    const std::string golden_path = std::string(VKSIM_GOLDEN_DIR)
                                    + "/stats_" + workload.name()
                                    + ".json";

    if (updatingGoldens()) {
        std::ofstream os(golden_path);
        ASSERT_TRUE(os.good()) << "cannot write " << golden_path;
        os << current;
        GTEST_SKIP() << "golden regenerated: " << golden_path;
    }

    std::string text, error;
    ASSERT_TRUE(readFile(golden_path, &text, &error))
        << error << " — run with VKSIM_UPDATE_GOLDEN=1 to create it";

    // Fast path: byte-identical (the common case on one toolchain).
    if (text == current)
        return;

    JsonValue want, got;
    ASSERT_TRUE(parseJson(text, &want, &error)) << error;
    ASSERT_TRUE(parseJson(current, &got, &error)) << error;
    std::vector<std::string> errors;
    diffValue(want, got, "$", /*exact=*/false, &errors);
    for (const std::string &e : errors)
        ADD_FAILURE() << e;
    EXPECT_TRUE(errors.empty())
        << errors.size() << " metric(s) drifted from " << golden_path
        << "; if intended, regenerate with VKSIM_UPDATE_GOLDEN=1 and"
           " review the diff";
}

/** Sparse and off the epoch grid, so samples land inside epochs. */
constexpr Cycle kFingerprintPeriod = 37;

/**
 * One run's engine fingerprint as a line of JSON: cycles, sample counts
 * and FNV-1a folds of the digest trace and of the occupancy trace.
 */
std::string
engineFingerprint(WorkloadId id, unsigned epoch_cycles)
{
    GpuConfig cfg = goldenConfig();
    cfg.epochCycles = epoch_cycles;
    cfg.digestTrace = true;
    cfg.digestPeriod = kFingerprintPeriod;
    cfg.occupancySamplePeriod = kFingerprintPeriod;
    Workload workload(id, goldenParams(id));
    RunResult run =
        service::defaultService().submit(workload, cfg).take().run;

    check::Digest digests, occupancy;
    for (std::uint64_t v : run.digests.values)
        digests.mix(v);
    for (const auto &[cycle, rays] : run.occupancyTrace) {
        occupancy.mix(cycle);
        occupancy.mix(rays);
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"cycles\": %" PRIu64 ", \"digest_samples\": %zu, "
                  "\"digest_fold\": \"%016" PRIx64 "\", "
                  "\"occupancy_samples\": %zu, "
                  "\"occupancy_fold\": \"%016" PRIx64 "\"}\n",
                  static_cast<std::uint64_t>(run.cycles),
                  run.digests.samples(), digests.value(),
                  run.occupancyTrace.size(), occupancy.value());
    return line;
}

TEST_P(GoldenStatsTest, MatchesFrozenFingerprint)
{
    auto id = static_cast<WorkloadId>(GetParam());
    const std::string one = engineFingerprint(id, 1);
    const std::string dflt = engineFingerprint(id, GpuConfig{}.epochCycles);
    ASSERT_EQ(one, dflt) << "epoch length changed the simulated run";

    const std::string path = std::string(VKSIM_GOLDEN_DIR) + "/fingerprint_"
                             + wl::workloadName(id) + ".json";
    if (updatingGoldens()) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << one;
        GTEST_SKIP() << "fingerprint regenerated: " << path;
    }

    std::string text, error;
    ASSERT_TRUE(readFile(path, &text, &error))
        << error << " — run with VKSIM_UPDATE_GOLDEN=1 to create it";
    EXPECT_EQ(text, one) << "the engine drifted from the frozen fingerprint "
                         << path;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, GoldenStatsTest,
    ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(
            wl::workloadName(static_cast<WorkloadId>(info.param)));
    });

} // namespace
} // namespace vksim
