/**
 * @file
 * Section VI-B of the paper: SIMT efficiency in the GPU and in the RT
 * units. TRI/REF are near-fully efficient; EXT/RTV diverge heavily
 * (secondary rays); RT-unit SIMT efficiency averages 35 % with RTV5 as
 * low as 7 %, driven by early-terminating rays plus long tails.
 */

#include "bench/common.h"
#include "service/service.h"

int
main()
{
    using namespace vksim;
    bench::header("Section VI-B", "SIMT efficiency (GPU and RT unit)",
                  "paper: TRI/REF near full; RT-unit average 35 %, RTV5 "
                  "as low as 7 %");

    std::printf("%-8s %14s %16s %18s\n", "Scene", "GPU SIMT %",
                "RT-unit SIMT %", "avg rays/RT warp");
    double rt_sum = 0;
    unsigned n = 0;
    for (wl::WorkloadId id : wl::kAllWorkloads) {
        wl::Workload workload(id, bench::benchParams(id));
        RunResult run = service::defaultService().submit(workload, baselineGpuConfig()).take().run;
        double rt_eff = 100.0 * run.rtSimtEfficiency();
        const MetricsRegistry &m = run.metrics;
        double rays_per_warp =
            m.get("gpu.rt.warps_submitted")
                ? static_cast<double>(m.get("gpu.rt.active_ray_cycles"))
                      / m.get("gpu.rt.busy_cycles")
                : 0.0;
        std::printf("%-8s %13.1f%% %15.1f%% %18.1f\n", workload.name(),
                    100.0 * run.simtEfficiency(), rt_eff, rays_per_warp);
        rt_sum += rt_eff;
        ++n;
    }
    std::printf("%-8s %30.1f%%\n", "average", rt_sum / n);
    return 0;
}
