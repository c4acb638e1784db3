/**
 * @file
 * The EXT workload (synthetic atrium, the paper's Sponza stand-in):
 * ambient occlusion + hard shadows over a couple hundred thousand
 * triangles, rendered on the cycle-level simulator with a configurable
 * GPU (baseline or mobile, memory-system variants of Fig. 15).
 *
 * Usage: sponza_atrium [--width=64] [--height=64] [--scale=0.25]
 *                      [--mobile] [--variant=baseline|rtcache|
 *                       perfectbvh|perfectmem] [--out=atrium.ppm]
 *                      [--threads=N] [--serial] [--perf]
 */

#include <cstdio>
#include <string>

#include "core/vulkansim.h"
#include "power/power.h"
#include "service/service.h"
#include "util/cli.h"

int
main(int argc, char **argv)
{
    using namespace vksim;
    Cli cli("sponza_atrium [flags]",
            "Simulate the EXT atrium workload on a configurable GPU "
            "(memory-system variants of paper Fig. 15).");
    cli.option("width", "px", "64", "launch width")
        .option("height", "px", "64", "launch height")
        .option("scale", "f", "0.25", "tessellation fraction")
        .flag("mobile", "use the mobile Table III configuration")
        .option("variant", "name", "baseline",
                "baseline|rtcache|perfectbvh|perfectmem")
        .option("out", "file", "atrium.ppm", "output PPM path");
    addSimFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.helpRequested() ? 0 : 1;

    wl::WorkloadParams params;
    params.width = static_cast<unsigned>(cli.getInt("width"));
    params.height = static_cast<unsigned>(cli.getInt("height"));
    params.extScale = static_cast<float>(cli.getFloat("scale"));

    std::printf("Generating the atrium at scale %.2f...\n",
                params.extScale);
    wl::Workload workload(wl::WorkloadId::EXT, params);
    std::printf("  %zu triangles, BVH depth %u, %.1f KiB of BVH\n",
                workload.scene().totalPrimitives(),
                workload.accel().stats.treeDepth(),
                workload.accel().stats.totalBytes / 1024.0);

    GpuConfig config =
        cli.getBool("mobile") ? mobileGpuConfig() : baselineGpuConfig();
    if (!applySimFlags(cli, &config))
        return 1;
    std::string variant = cli.get("variant");
    if (variant == "rtcache")
        config = applyMemoryVariant(config, MemoryVariant::RtCache);
    else if (variant == "perfectbvh")
        config = applyMemoryVariant(config, MemoryVariant::PerfectBvh);
    else if (variant == "perfectmem")
        config = applyMemoryVariant(config, MemoryVariant::PerfectMem);
    else if (variant != "baseline") {
        std::fprintf(stderr, "unknown --variant=%s (use baseline, "
                             "rtcache, perfectbvh, or perfectmem)\n",
                     variant.c_str());
        return 1;
    }

    std::printf("Simulating on %u SMs (%s, %s)...\n", config.numSms,
                cli.getBool("mobile") ? "mobile" : "baseline",
                variant.c_str());
    service::SimService svc;
    const service::JobResult &result =
        svc.submit(workload, config, "atrium").get();
    const RunResult &run = result.run;

    std::printf("cycles: %llu\n",
                static_cast<unsigned long long>(run.cycles));
    std::printf("SIMT efficiency: %.1f%% (GPU), %.1f%% (RT unit)\n",
                100.0 * run.simtEfficiency(),
                100.0 * run.rtSimtEfficiency());
    std::printf("RT units busy %.1f%% of cycles\n",
                100.0 * run.rtActiveFraction());
    std::printf("L1: %llu shader accesses, %llu RT-unit accesses\n",
                static_cast<unsigned long long>(
                    run.metrics.get("gpu.l1.accesses.shader")),
                static_cast<unsigned long long>(
                    run.metrics.get("gpu.l1.accesses.rtunit")));
    std::printf("DRAM: %.1f%% utilization, %.1f%% efficiency\n",
                100.0 * run.dramUtilization(),
                100.0 * run.dramEfficiency());

    PowerReport power = estimatePower(run, config.numSms);
    std::printf("power: %.1f W average (DRAM %.1f%%, RT units %.2f%%, "
                "constant+static %.1f%%)\n",
                power.averageWatts,
                100.0 * power.fractionOf(power.dramJoules),
                100.0 * power.fractionOf(power.rtUnitJoules),
                100.0
                    * (power.fractionOf(power.constantJoules)
                       + power.fractionOf(power.staticJoules)));

    ImageDiff diff =
        compareImages(result.image, workload.renderReferenceImage());
    std::printf("image check: %.4f%% pixels differ from the reference "
                "renderer\n",
                100.0 * diff.differingFraction());

    std::string out = cli.get("out");
    if (result.image.writePpm(out))
        std::printf("wrote %s\n", out.c_str());
    return 0;
}
