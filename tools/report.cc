/**
 * @file
 * Paper-figure reporting harness: runs every evaluation workload on the
 * timed simulator and regenerates the evaluation's figure/table data as
 * CSV, plus a full per-scene metrics JSON — the machine-readable
 * counterpart of the `bench_fig*` pretty-printers.
 *
 * Every workload in wl::kAllWorkloads is submitted to one SimService
 * batch, so the scenes simulate concurrently (one job per service lane)
 * and share translated pipelines through the artifact cache; the
 * emitted files are byte-identical for any --threads value. Registering
 * a new workload automatically adds its rows to every CSV, including
 * the correlation fit.
 *
 * speedup_vs_reference.csv is the only host-timed output: its
 * sim_host_s, sim_cycles_per_s, ref_host_s and sim_slowdown_vs_ref
 * columns are wall-clock measurements and change from run to run.
 * Every other file is byte-identical across runs of the same build
 * (`diff -r -x speedup_vs_reference.csv` of two output directories is
 * clean; CI checks this).
 *
 * Outputs (under --outdir, default "report"):
 *   stats_<scene>.json        complete MetricsRegistry dump per scene
 *   fig13_warp_latency.csv    RT warp-latency histogram (paper Fig. 13)
 *   fig14_cache_breakdown.csv L1/L2 access breakdown by origin and miss
 *                             class (paper Fig. 14)
 *   fig16_dram.csv            DRAM utilization/efficiency/row locality
 *                             (paper Fig. 16 metrics)
 *   speedup_vs_reference.csv  simulator throughput vs the CPU reference
 *                             renderer (host seconds per frame)
 *   correlation.csv           per-scene simulated cycles against the
 *                             analytical hardware-proxy estimate, with
 *                             the batch Pearson r and fitted slope on a
 *                             trailing summary row (the Fig. 11/19-style
 *                             fidelity check; see EXPERIMENTS.md,
 *                             "Memory-fidelity correlation sweep")
 *
 * Usage: report [--size=32] [--mobile] [--modern-mem] [--outdir=report]
 *               [--threads=N] [--serial] [--timeline=trace.json]
 *
 * See EXPERIMENTS.md, "Machine-readable outputs".
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/vulkansim.h"
#include "hwproxy/hwproxy.h"
#include "service/service.h"
#include "util/cli.h"

namespace {

using namespace vksim;

struct SceneReport
{
    std::string name;
    /** The service-owned result (RunResult is move-only; the service
     *  keeps results alive for its lifetime). */
    const service::JobResult *job = nullptr;
    MetricsRegistry ref; ///< reference-renderer counters
    double refSeconds = 0.0;

    const RunResult &run() const { return job->run; }
};

/** One cache's breakdown row set (per origin). */
void
writeCacheRows(std::ofstream &os, const std::string &scene,
               const MetricsRegistry &m, const std::string &cache)
{
    for (const char *origin : {"shader", "rtunit"}) {
        const std::string p = "gpu." + cache + ".";
        const std::string o = origin;
        os << scene << "," << cache << "," << origin << ","
           << m.get(p + "accesses." + o) << ","
           << m.get(p + "hits." + o) << ","
           << m.get(p + "miss_compulsory." + o) << ","
           << m.get(p + "miss_capacity_conflict." + o) << ","
           << m.get(p + "write_miss." + o) << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("report [flags]",
            "Regenerate the paper-figure CSVs and per-scene metrics "
            "dumps (all workloads, one SimService batch).");
    cli.option("size", "px", "32", "launch width and height per scene")
        .flag("mobile", "use the mobile Table III configuration")
        .flag("modern-mem",
              "apply the Modern memory variant (sectored caches, "
              "streaming reservation, bank-grouped DRAM with refresh)")
        .option("outdir", "dir", "report", "output directory");
    addSimFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.helpRequested() ? 0 : 1;

    unsigned size = static_cast<unsigned>(cli.getInt("size"));
    std::string outdir = cli.get("outdir");
    GpuConfig config =
        cli.getBool("mobile") ? mobileGpuConfig() : baselineGpuConfig();
    if (cli.getBool("modern-mem"))
        config = applyMemoryVariant(config, MemoryVariant::Modern);
    const unsigned threads = cli.threadCount();
    if (!applySimFlags(cli, &config))
        return 1;
    const std::string timeline_path = cli.get("timeline");

    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", outdir.c_str(),
                     ec.message().c_str());
        return 1;
    }

    // Submit every registered scene as one batch: the service runs them
    // in parallel lanes and shares artifacts across them.
    service::SimService svc({threads});
    std::vector<service::JobTicket> tickets;
    for (wl::WorkloadId id : wl::kAllWorkloads) {
        service::JobSpec spec;
        spec.name = wl::workloadName(id);
        spec.workload = id;
        spec.params.width = size;
        spec.params.height = size;
        spec.params.extScale = 0.25f;
        spec.params.rtv5Detail = 5;
        spec.config = config;
        // Parallelism lives at the service level here: each job's engine
        // stays on auto (forced serial inside a multi-job batch).
        spec.config.threads = 0;
        if (!timeline_path.empty())
            spec.config.timeline.path =
                outdir + "/timeline_" + spec.name + ".json";
        tickets.push_back(svc.submit(spec));
    }
    std::printf("report: simulating %zu scenes at %ux%u on %u service "
                "thread(s)...\n",
                tickets.size(), size, size, svc.threadCount());
    svc.flush();

    std::vector<SceneReport> reports;
    for (service::JobTicket &ticket : tickets) {
        const service::JobResult &result = ticket.get();
        SceneReport rep;
        rep.name = result.name;
        rep.job = &result;

        // Reference renderer: wall-clock and traversal counters for the
        // speedup table.
        TraceCounters counters;
        auto ref_start = std::chrono::steady_clock::now();
        result.workload->renderReferenceImage(&counters, threads);
        rep.refSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - ref_start)
                             .count();
        counters.exportTo(rep.ref, "reftrace");

        std::ofstream stats(outdir + "/stats_" + rep.name + ".json");
        rep.run().metrics.writeJson(stats);
        stats << "\n";
        reports.push_back(std::move(rep));
    }

    // Fig. 13: RT-unit warp latency histogram.
    {
        std::ofstream os(outdir + "/fig13_warp_latency.csv");
        os << "scene,bucket_lo_cycles,bucket_hi_cycles,warps\n";
        for (const SceneReport &rep : reports) {
            const Histogram &h =
                *rep.run().metrics.findHistogram("gpu.rt.warp_latency_hist");
            for (std::size_t b = 0; b < h.buckets().size(); ++b) {
                if (h.buckets()[b] == 0)
                    continue;
                os << rep.name << ","
                   << static_cast<std::uint64_t>(b * h.bucketWidth())
                   << ","
                   << static_cast<std::uint64_t>((b + 1)
                                                 * h.bucketWidth())
                   << "," << h.buckets()[b] << "\n";
            }
            if (h.overflow())
                os << rep.name << ","
                   << static_cast<std::uint64_t>(h.buckets().size()
                                                 * h.bucketWidth())
                   << ",inf," << h.overflow() << "\n";
        }
    }

    // Fig. 14: cache access breakdown by origin and miss class.
    {
        std::ofstream os(outdir + "/fig14_cache_breakdown.csv");
        os << "scene,cache,origin,accesses,hits,miss_compulsory,"
              "miss_capacity_conflict,write_miss\n";
        for (const SceneReport &rep : reports) {
            writeCacheRows(os, rep.name, rep.run().metrics, "l1");
            if (rep.run().metrics.get("gpu.rtcache.accesses.rtunit"))
                writeCacheRows(os, rep.name, rep.run().metrics, "rtcache");
            writeCacheRows(os, rep.name, rep.run().metrics, "l2");
        }
    }

    // Fig. 16 metrics: DRAM utilization / efficiency / locality.
    {
        std::ofstream os(outdir + "/fig16_dram.csv");
        os << "scene,requests,row_hits,row_misses,utilization,"
              "efficiency,row_hit_rate,avg_blp\n";
        for (const SceneReport &rep : reports) {
            const MetricsRegistry &m = rep.run().metrics;
            double hits =
                static_cast<double>(m.get("gpu.dram.row_hits"));
            double misses =
                static_cast<double>(m.get("gpu.dram.row_misses"));
            double blp_samples =
                static_cast<double>(m.get("gpu.dram.blp_samples"));
            os << rep.name << "," << m.get("gpu.dram.requests") << ","
               << m.get("gpu.dram.row_hits") << ","
               << m.get("gpu.dram.row_misses") << ","
               << formatJsonNumber(rep.run().dramUtilization()) << ","
               << formatJsonNumber(rep.run().dramEfficiency()) << ","
               << formatJsonNumber(hits + misses > 0
                                       ? hits / (hits + misses)
                                       : 0.0)
               << ","
               << formatJsonNumber(
                      blp_samples > 0
                          ? m.get("gpu.dram.blp_sum") / blp_samples
                          : 0.0)
               << "\n";
        }
    }

    // Simulator throughput vs the reference renderer.
    {
        std::ofstream os(outdir + "/speedup_vs_reference.csv");
        os << "scene,sim_cycles,sim_host_s,sim_cycles_per_s,ref_host_s,"
              "ref_rays,sim_slowdown_vs_ref\n";
        for (const SceneReport &rep : reports) {
            os << rep.name << "," << rep.run().cycles << ","
               << formatJsonNumber(rep.run().hostSeconds) << ","
               << formatJsonNumber(rep.run().cyclesPerHostSecond()) << ","
               << formatJsonNumber(rep.refSeconds) << ","
               << rep.ref.get("reftrace.rays") << ","
               << formatJsonNumber(rep.refSeconds > 0
                                       ? rep.run().hostSeconds
                                             / rep.refSeconds
                                       : 0.0)
               << "\n";
        }
    }

    // Correlation against the analytical hardware proxy: the closed
    // fidelity loop for memory-model changes. Each scene contributes a
    // (proxy cycles, simulated cycles) point; the trailing summary row
    // carries the Pearson r and the least-squares slope through the
    // origin over the whole batch.
    {
        std::ofstream os(outdir + "/correlation.csv");
        os << "scene,hwproxy_cycles,sim_cycles,sim_over_proxy\n";
        std::vector<double> hw, sim;
        for (const SceneReport &rep : reports) {
            WorkloadProfile profile = profileWorkload(*rep.job->workload);
            double proxy =
                estimateHardwareCycles(profile, serializedRtProxy());
            double cycles = static_cast<double>(rep.run().cycles);
            hw.push_back(proxy);
            sim.push_back(cycles);
            os << rep.name << "," << formatJsonNumber(proxy) << ","
               << rep.run().cycles << ","
               << formatJsonNumber(proxy > 0 ? cycles / proxy : 0.0)
               << "\n";
        }
        Correlation corr = correlate(hw, sim);
        os << "SUMMARY," << formatJsonNumber(corr.coefficient) << ","
           << formatJsonNumber(corr.slope) << ",\n";
        std::printf("report: hwproxy correlation r=%.4f slope=%.4f over "
                    "%zu scenes\n",
                    corr.coefficient, corr.slope, reports.size());
    }

    std::printf("report: wrote %zu scene dumps and 5 CSVs to %s/\n",
                reports.size(), outdir.c_str());
    return 0;
}
