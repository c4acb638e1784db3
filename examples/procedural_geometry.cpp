/**
 * @file
 * The RTV6 workload: path tracing over procedural spheres *and* cubes,
 * each with its own intersection shader — the scene the paper built to
 * evaluate Function Call Coalescing (Sec. IV-A / VI-E). Submits baseline
 * and FCC as one service batch (they share the BVH through the artifact
 * cache; the pipelines differ, so those are built twice) and reports the
 * trade-off: SIMT efficiency up, RT-unit memory traffic up, net
 * slowdown.
 *
 * Usage: procedural_geometry [--width=48] [--height=48] [--prims=2000]
 *                            [--bounces=4] [--mobile] [--out=rtv6.ppm]
 *                            [--threads=N] [--serial] [--perf]
 */

#include <cstdio>

#include "core/vulkansim.h"
#include "service/service.h"
#include "util/cli.h"
#include "vptx/isa.h"

int
main(int argc, char **argv)
{
    using namespace vksim;
    Cli cli("procedural_geometry [flags]",
            "Run RTV6 baseline vs Function Call Coalescing as one "
            "service batch and report the trade-off.");
    cli.option("width", "px", "48", "launch width")
        .option("height", "px", "48", "launch height")
        .option("prims", "N", "2000", "procedural primitive count")
        .option("bounces", "N", "4", "path-tracing bounce limit")
        .flag("mobile", "use the mobile Table III configuration")
        .option("out", "file", "rtv6.ppm", "output PPM path");
    addSimFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.helpRequested() ? 0 : 1;

    wl::WorkloadParams params;
    params.width = static_cast<unsigned>(cli.getInt("width"));
    params.height = static_cast<unsigned>(cli.getInt("height"));
    params.rtv6Prims = static_cast<unsigned>(cli.getInt("prims"));
    params.shading.maxBounces =
        static_cast<unsigned>(cli.getInt("bounces"));

    GpuConfig config =
        cli.getBool("mobile") ? mobileGpuConfig() : baselineGpuConfig();
    if (!applySimFlags(cli, &config))
        return 1;
    config.threads = 0; // parallelism lives at the service level

    std::printf("RTV6: %u procedural primitives, %u bounces\n",
                params.rtv6Prims, params.shading.maxBounces);

    // One batch of two jobs: baseline (Algorithm 1, per-thread
    // intersection table) and FCC (Algorithm 3, getNextCoalescedCall).
    // Same scene, so the BVH is built once and shared.
    service::SimService svc({cli.threadCount()});

    service::JobSpec base_spec;
    base_spec.name = "baseline";
    base_spec.workload = wl::WorkloadId::RTV6;
    base_spec.params = params;
    base_spec.config = config;
    service::JobTicket base_job = svc.submit(base_spec);

    service::JobSpec fcc_spec = base_spec;
    fcc_spec.name = "fcc";
    fcc_spec.params.fcc = true;
    service::JobTicket fcc_job = svc.submit(fcc_spec);

    svc.flush();
    const service::JobResult &base = base_job.get();
    const service::JobResult &fcc = fcc_job.get();
    const RunResult &base_run = base.run;
    const RunResult &fcc_run = fcc.run;

    std::printf("pipeline shaders:\n");
    for (const auto &shader : base.workload->pipeline().program().shaders)
        std::printf("  [%s] %s (%u regs)\n",
                    vptx::shaderStageName(shader.stage),
                    shader.name.c_str(), shader.numRegs);

    const service::ArtifactCounters &cache = svc.artifacts().counters();
    std::printf("artifact cache: BVH built %llu time(s) for 2 jobs "
                "(%llu hit), pipelines built %llu time(s)\n",
                static_cast<unsigned long long>(cache.bvhBuilds),
                static_cast<unsigned long long>(cache.bvhHits),
                static_cast<unsigned long long>(cache.pipelineBuilds));

    std::printf("\n%-22s %14s %14s\n", "", "baseline", "fcc");
    std::printf("%-22s %14llu %14llu\n", "cycles",
                static_cast<unsigned long long>(base_run.cycles),
                static_cast<unsigned long long>(fcc_run.cycles));
    std::printf("%-22s %13.1f%% %13.1f%%\n", "SIMT efficiency",
                100.0 * base_run.simtEfficiency(),
                100.0 * fcc_run.simtEfficiency());
    std::printf("%-22s %14llu %14llu\n", "RT-unit mem requests",
                static_cast<unsigned long long>(
                    base_run.metrics.get("gpu.rt.mem_requests")),
                static_cast<unsigned long long>(
                    fcc_run.metrics.get("gpu.rt.mem_requests")
                    + fcc_run.metrics.get("gpu.rt.fcc_insert_loads")
                    + fcc_run.metrics.get("gpu.rt.fcc_insert_stores")));
    std::printf("%-22s %14.3f\n", "FCC speedup",
                static_cast<double>(base_run.cycles) / fcc_run.cycles);

    ImageDiff diff = compareImages(base.image, fcc.image, 0.f);
    std::printf("functional check: FCC image identical to baseline: %s\n",
                diff.differingPixels == 0 ? "yes" : "NO");

    std::string out = cli.get("out");
    if (fcc.image.writePpm(out))
        std::printf("wrote %s\n", out.c_str());
    return 0;
}
