/**
 * @file
 * perfbench: the simulator's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload <suite_serial|sweep_4t|cold_validate>
 *             --seed N --seconds S --trace 0|1 [--workdir DIR]
 *             [--expected FILE] [--record FILE] [--spans FILE]
 *             [--passes N] [--tiny] [--inject-mismatch N]
 *             [--commit ID] [--source-digest HEX]
 *
 * One process runs the workload's pass at least twice, and again while
 * another pass should end within --seconds, checking every job; it prints
 * a metric table and, as its last line, one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * passes alternate traced/untraced, the layer probes run, spans go to
 * --spans, and the metrics are the per-layer ones. perfbench/run.py
 * builds this program and drives it; README.md defines every metric.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "hwproxy/hwproxy.h"
#include "util/metrics.h"

#ifndef VKSIM_BUILD_TYPE
#define VKSIM_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace vksim;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"image_match_frac", "frac"},
    {"hwproxy_r", "r"},
};

const MetricDef kPerLayer[] = {
    {"cache.l1_access_ns", "ns"},
    {"cache.l1_hit_rate", "frac"},
    {"cache.l2_hit_rate", "frac"},
    {"cache.mshr_stall_frac", "frac"},
    {"cache.l1_accesses", "count"},
    {"gpu.host_ns_per_sm_cycle", "ns"},
    {"gpu.host_ns_per_warp_instr", "ns"},
    {"gpu.epoch_barrier_s", "s"},
    {"gpu.speedup_4t", "x"},
    {"gpu.parallel_eff_4t", "frac"},
    {"gpu.epoch_cycles_used", "cycles"},
    {"gpu.sm_cycles_skipped_frac", "frac"},
    {"gpu.idle_skip_saved_s", "s"},
    {"dram.row_hit_rate", "frac"},
    {"dram.efficiency", "frac"},
    {"dram.utilization", "frac"},
    {"dram.requests", "count"},
    {"scene.gen_s", "s"},
    {"accel.bvh_build_s", "s"},
    {"xlate.translate_s", "s"},
    {"service.build_cold_s", "s"},
    {"service.build_warm_s", "s"},
    {"service.artifact_hit_frac", "frac"},
    {"service.diskstore_store_s", "s"},
    {"service.diskstore_load_s", "s"},
    {"vptx.functional_instr_per_s", "instr/s"},
    {"reftrace.rays_per_s", "rays/s"},
    {"check.basic_overhead_s", "s"},
    {"check.digest_overhead_s", "s"},
    {"checkpoint.write_s", "s"},
    {"checkpoint.read_s", "s"},
    {"checkpoint.snapshot_mb", "MiB"},
    {"checkpoint.resume_s", "s"},
    {"util.metrics_json_s", "s"},
    {"util.image_compare_s", "s"},
    {"hwproxy.profile_s", "s"},
    {"core.ipc", "instr/cycle"},
    {"core.simt_eff", "frac"},
    {"core.uop_decodes", "count"},
    {"rtunit.active_frac", "frac"},
    {"rtunit.node_tests", "count"},
    {"trace.coverage_frac", "frac"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value());
            } else if (arg == "--trace") {
                o.trace = std::stoi(value()) != 0;
            } else if (arg == "--passes") {
                o.passes = std::stoi(value());
            } else if (arg == "--workdir") {
                o.workdir = value();
            } else if (arg == "--expected") {
                o.expectedPath = value();
            } else if (arg == "--record") {
                o.recordPath = value();
            } else if (arg == "--spans") {
                o.spansPath = value();
            } else if (arg == "--commit") {
                o.commit = value();
            } else if (arg == "--source-digest") {
                o.sourceDigest = value();
            } else if (arg == "--inject-mismatch") {
                o.injectMismatch = std::stoi(value());
            } else if (arg == "--tiny") {
                o.tiny = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Sum of per-step medians over the steps of `kind` (all when null). */
double
medianSum(const std::map<std::string, StepSeries> &steps,
          const StepKind *kind, std::size_t *samples = nullptr)
{
    double total = 0.0;
    std::size_t n = ~std::size_t(0);
    for (const auto &[name, s] : steps)
        if (kind == nullptr || s.kind == *kind) {
            total += median(s.seconds);
            n = std::min(n, s.seconds.size());
        }
    if (samples)
        *samples = n == ~std::size_t(0) ? 0 : n;
    return total;
}

std::uint64_t
engineCycles(const std::map<std::string, StepSeries> &steps)
{
    std::uint64_t cycles = 0;
    for (const auto &[name, s] : steps)
        if (s.kind == StepKind::Engine)
            cycles += s.cycles;
    return cycles;
}

/**
 * Geometric mean over the Engine steps of each step's simulated cycles
 * per reference-host second (its median), as suite scores are usually
 * combined: every job weighs the same, so the frame seed's effect on
 * one scene's tail (RTV6 runs 135k-252k cycles across seeds for a few %
 * more instructions) moves the figure by a ninth as much as a pooled
 * ratio.
 */
double
cycleRateGeomean(const std::map<std::string, StepSeries> &steps,
                 std::size_t *samples)
{
    double log_sum = 0.0;
    std::size_t jobs = 0, n = ~std::size_t(0);
    for (const auto &[name, s] : steps)
        if (s.kind == StepKind::Engine && s.cycles > 0) {
            log_sum += std::log(static_cast<double>(s.cycles)
                                / median(s.seconds));
            ++jobs;
            n = std::min(n, s.seconds.size());
        }
    *samples = jobs == 0 ? 0 : n;
    return jobs == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(jobs));
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Pass-level observations of the traced run. */
struct TraceSummary
{
    std::vector<double> tracedWall, untracedWall, covered;
    std::map<std::string, std::vector<double>> selfTimes;
};

std::map<std::string, double>
endToEndMetrics(Bench &b, std::map<std::string, std::size_t> *samples)
{
    const auto &steps = b.untracedSteps();
    const StepKind setup = StepKind::Setup;
    std::map<std::string, double> m;
    std::size_t n = 0;
    m["wall_s"] = medianSum(steps, nullptr, &n);
    (*samples)["wall_s"] = n;
    m["setup_s"] = medianSum(steps, &setup, &n);
    (*samples)["setup_s"] = n;
    m["sim_cycles_per_s"] = cycleRateGeomean(steps, &n);
    (*samples)["sim_cycles_per_s"] = n;
    m["peak_rss_mb"] = peakRssMb();
    m["image_match_frac"] = b.imageMatchFrac();
    m["hwproxy_r"] = correlate(b.hwCycles, b.simCycles).coefficient;
    return m;
}

std::map<std::string, double>
perLayerMetrics(Bench &b, const TraceSummary &t)
{
    const SimTotals &s = b.sim;
    std::map<std::string, double> m = b.layer;
    const StepKind engine = StepKind::Engine;
    const double engine_s = medianSum(b.untracedSteps(), &engine);
    const double cycles = static_cast<double>(s.cycles);
    m["cache.l1_hit_rate"] = ratio(s.l1Hits, s.l1Accesses);
    m["cache.l2_hit_rate"] = ratio(s.l2Hits, s.l2Accesses);
    m["cache.mshr_stall_frac"] = ratio(s.l1Stalls, s.l1Accesses + s.l1Stalls);
    m["cache.l1_accesses"] = s.l1Accesses;
    m["gpu.host_ns_per_sm_cycle"] = ratio(engine_s * 1e9, s.smCycles);
    m["gpu.host_ns_per_warp_instr"] = ratio(engine_s * 1e9, s.issued);
    m["gpu.sm_cycles_skipped_frac"] = ratio(s.smCyclesSkipped, s.smCycles);
    m["dram.row_hit_rate"] = ratio(s.rowHits, s.rowHits + s.rowMisses);
    m["dram.efficiency"] = ratio(s.dramBusBusy, s.dramPendingCycles);
    m["dram.utilization"] = ratio(s.dramBusBusy, s.dramCycles);
    m["dram.requests"] = s.dramRequests;
    m["service.artifact_hit_frac"] =
        ratio(b.artifactReused, b.artifactLookups);
    m["core.ipc"] = ratio(s.issued, cycles);
    m["core.simt_eff"] = ratio(s.activeLanes, 32.0 * s.issued);
    m["core.uop_decodes"] = s.uopDecodes;
    m["rtunit.active_frac"] = ratio(s.rtBusyCycles, s.rtUnitCycles);
    m["rtunit.node_tests"] = s.nodeTests;
    auto self = [&t](const char *name) {
        auto it = t.selfTimes.find(name);
        return it == t.selfTimes.end() ? 0.0 : median(it->second);
    };
    m["util.metrics_json_s"] = self("util.metrics_json");
    m["util.image_compare_s"] = self("util.image_compare");
    std::vector<double> coverage, rest;
    for (std::size_t i = 0; i < t.tracedWall.size(); ++i) {
        coverage.push_back(ratio(t.covered[i], t.tracedWall[i]));
        rest.push_back(t.tracedWall[i] - t.covered[i]);
    }
    m["trace.coverage_frac"] = median(coverage);
    m["trace.unattributed_s"] = median(rest);
    m["trace.overhead_s"] = median(t.tracedWall) - median(t.untracedWall);
    return m;
}

void
printLayerTable(const TraceSummary &t)
{
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[name, v] : t.selfTimes)
        rows.emplace_back(median(v), name);
    std::sort(rows.rbegin(), rows.rend());
    std::printf("# span self time per traced pass (median of %zu):\n",
                t.tracedWall.size());
    for (const auto &[secs, name] : rows)
        if (secs >= 1e-4)
            std::printf("#   %-40s %10.4f s\n", name.c_str(), secs);
}

std::string
resultJson(const Bench &b, const MetricDef *defs, std::size_t count,
           const std::map<std::string, double> &values)
{
    std::ostringstream out;
    out << "{\"correct\": " << (b.failures().empty() ? "true" : "false")
        << ", \"attempted\": " << b.attempted()
        << ", \"failed\": " << b.failures().size() << ", \"metrics\": {";
    for (std::size_t i = 0; i < count; ++i) {
        double v = values.count(defs[i].name) ? values.at(defs[i].name)
                                              : 0.0;
        if (!std::isfinite(v))
            v = 0.0;
        out << (i ? ", " : "") << "\"" << defs[i].name
            << "\": {\"value\": " << formatJsonNumber(v)
            << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

bool
writeRecord(const Bench &b)
{
    std::ofstream out(b.opt().recordPath);
    out << "{";
    bool first = true;
    for (const auto &[job, digest] : b.firstDigests()) {
        out << (first ? "" : ", ") << "\"" << job << "\": \"" << digest
            << "\"";
        first = false;
    }
    out << "}\n";
    return static_cast<bool>(out);
}

int
runMain(int argc, char **argv)
{
    Bench b(parseArgs(argc, argv));
    const Options &opt = b.opt();
    std::unique_ptr<BenchWorkload> workload = makeWorkload(b);
    if (workload == nullptr)
        usage("unknown workload '" + opt.workload + "'");

    std::printf("# host: nproc=%ld cpu=\"%s\" build=%s commit=%s "
                "source=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                VKSIM_BUILD_TYPE, opt.commit.c_str(),
                opt.sourceDigest.c_str());
    std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
    std::fflush(stdout);

    const Clock::time_point prepare_start = Clock::now();
    workload->prepare(b);
    std::printf("# prepare: %.4f s\n", secondsSince(prepare_start));

    // At least two passes; after that, another only while it should end
    // within --seconds (judged by the slowest pass so far), so a run's
    // length stays bounded on a slow host. Traced runs alternate traced
    // and untraced passes, so the tracing overhead is measured in the
    // same process and host state.
    TraceSummary trace;
    const Clock::time_point start = Clock::now();
    double slowest = 0.0;
    for (int pass = 0;; ++pass) {
        const bool traced = opt.trace && pass % 2 == 0;
        b.tracer().setEnabled(traced);
        const std::size_t first_span = b.tracer().spans().size();
        const Clock::time_point pass_start = Clock::now();
        workload->pass(b, pass);
        const double wall = secondsSince(pass_start);
        std::printf("# pass %d%s: %.4f s\n", pass, traced ? " traced" : "",
                    wall);
        if (traced) {
            trace.tracedWall.push_back(wall);
            trace.covered.push_back(b.tracer().topLevelSeconds(first_span));
            for (const auto &[name, secs] : b.tracer().selfTimes(first_span))
                trace.selfTimes[name].push_back(secs);
        } else {
            trace.untracedWall.push_back(wall);
        }
        b.collectSim = false;
        slowest = std::max(slowest, wall);
        const int done = pass + 1;
        if (opt.passes > 0 ? done >= opt.passes
                           : done >= 2
                                 && secondsSince(start) + slowest
                                        > opt.seconds)
            break;
    }

    std::map<std::string, double> values;
    std::map<std::string, std::size_t> samples;
    const MetricDef *defs = kEndToEnd;
    std::size_t count = std::size(kEndToEnd);
    if (opt.trace) {
        b.tracer().setEnabled(true);
        runLayerProbes(b, workload->probeTargets(b));
        values = perLayerMetrics(b, trace);
        defs = kPerLayer;
        count = std::size(kPerLayer);
        printLayerTable(trace);
        if (!opt.spansPath.empty()
            && !b.tracer().writeChromeTrace(opt.spansPath))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.spansPath.c_str());
    } else {
        values = endToEndMetrics(b, &samples);
    }
    if (!opt.recordPath.empty() && !writeRecord(b))
        usage("cannot write " + opt.recordPath);

    std::printf("# simulated cycles per pass: %llu\n",
                static_cast<unsigned long long>(
                    engineCycles(b.untracedSteps())));
    std::printf("# host probe: median %.4f s of %zu (reference %.4f s)\n",
                median(b.probeSeconds()), b.probeSeconds().size(),
                kProbeReferenceSeconds);
    for (const auto &[name, series] : b.untracedSteps())
        std::printf("# step %-32s %10.4f s (host %.4f s)  median of %zu\n",
                    name.c_str(), median(series.seconds),
                    median(series.hostSeconds), series.seconds.size());
    for (std::size_t i = 0; i < count; ++i) {
        auto n = samples.find(defs[i].name);
        std::printf("# %-30s %16.6g %-12s %s\n", defs[i].name,
                    values[defs[i].name], defs[i].unit,
                    n == samples.end()
                        ? ""
                        : ("median of " + std::to_string(n->second)).c_str());
    }
    for (const std::string &f : b.failures())
        std::printf("# FAILED %s\n", f.c_str());
    std::printf("%s\n", resultJson(b, defs, count, values).c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
