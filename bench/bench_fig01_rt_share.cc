/**
 * @file
 * Figure 1 of the paper profiles commercial RTX games and finds ray
 * tracing takes ~28 % of frame time on average. We cannot run commercial
 * games (see DESIGN.md substitutions); this harness reports the same
 * metric — the share of frame time attributable to ray tracing — for the
 * five workloads, measured two ways: the fraction of cycles with RT
 * units busy, and the fraction of issued instructions that are memory /
 * RT work triggered by trace rays.
 */

#include "bench/common.h"
#include "service/service.h"

int
main()
{
    using namespace vksim;
    bench::header("Figure 1", "Ray tracing share of frame time",
                  "paper (games on RTX 2080 Ti): RT ~28 % of frame time "
                  "on average");

    std::printf("%-8s %12s %18s %18s\n", "Scene", "cycles",
                "RT-unit busy %", "trace instr %");
    double sum_busy = 0;
    unsigned n = 0;
    for (wl::WorkloadId id : wl::kAllWorkloads) {
        wl::Workload workload(id, bench::benchParams(id));
        RunResult run = service::defaultService().submit(workload, baselineGpuConfig()).take().run;
        double busy = 100.0 * run.rtActiveFraction();
        double trace_share =
            100.0 * run.metrics.get("gpu.core.issue_rt")
            / std::max<std::uint64_t>(1,
                                      run.metrics.get("gpu.core.issued"));
        std::printf("%-8s %12llu %17.1f%% %17.2f%%\n", workload.name(),
                    static_cast<unsigned long long>(run.cycles), busy,
                    trace_share);
        sum_busy += busy;
        ++n;
    }
    std::printf("%-8s %12s %17.1f%%\n", "average", "", sum_busy / n);
    return 0;
}
