/**
 * @file
 * Figure 12 of the paper: a roofline for the RT unit. Operations are
 * intersection tests and ray transforms; operational intensity is
 * operations per cache block fetched; performance is operations per
 * cycle. The memory bound is one cache block per cycle per RT unit; the
 * compute bound is the operation-unit issue rate. The paper's takeaway:
 * all workloads sit under the memory bound and far from both bounds,
 * with EXT/RTV closest to the memory roof (more so on mobile).
 */

#include "bench/common.h"
#include "service/service.h"

namespace {

void
runConfig(const char *label, const vksim::GpuConfig &config)
{
    using namespace vksim;
    double mem_bound_slope =
        static_cast<double>(config.numSms) * config.rt.issuePerCycle;
    double compute_bound =
        static_cast<double>(config.numSms) * config.rt.opsPerCycle;
    std::printf("\n[%s] compute bound = %.0f ops/cycle, memory bound = "
                "%.0f blocks/cycle x intensity\n",
                label, compute_bound, mem_bound_slope);
    std::printf("%-8s %16s %14s %18s %12s\n", "Scene", "ops",
                "intensity", "perf (ops/cyc)", "of mem roof");
    for (wl::WorkloadId id : wl::kAllWorkloads) {
        wl::Workload workload(id, bench::benchParams(id));
        RunResult run = service::defaultService().submit(workload, config).take().run;
        const MetricsRegistry &m = run.metrics;
        double ops = static_cast<double>(m.get("gpu.rt.ops_box")
                                         + m.get("gpu.rt.ops_triangle")
                                         + m.get("gpu.rt.ops_transform"));
        double blocks = static_cast<double>(
            std::max<std::uint64_t>(1, m.get("gpu.rt.mem_requests")));
        double intensity = ops / blocks;
        double perf = ops / static_cast<double>(run.cycles);
        double roof = std::min(compute_bound, intensity * mem_bound_slope);
        std::printf("%-8s %16.0f %14.3f %18.3f %11.1f%%\n",
                    workload.name(), ops, intensity, perf,
                    100.0 * perf / roof);
    }
}

} // namespace

int
main()
{
    using namespace vksim;
    bench::header("Figure 12", "Roofline plot for the RT unit",
                  "paper: all workloads memory-bound and under-utilized; "
                  "EXT/RTV closest to the roof, more so on mobile");
    runConfig("baseline", baselineGpuConfig());
    runConfig("mobile", mobileGpuConfig());
    return 0;
}
