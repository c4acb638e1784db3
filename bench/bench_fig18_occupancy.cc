/**
 * @file
 * Figure 18 of the paper: combined RT-unit ray occupancy over time for
 * stack-based reconvergence vs ITS on the divergence-injected EXT
 * workload. The paper observes that ITS does not significantly raise
 * occupancy (the RT units are already near their warp limit) but it
 * reorders scheduling, improving cache hits while lengthening the tail.
 */

#include "bench/common.h"
#include "service/service.h"

namespace {

vksim::RunResult
runMode(bool its)
{
    using namespace vksim;
    wl::WorkloadParams params = bench::benchParams(wl::WorkloadId::EXT);
    params.width = 48;
    params.height = 48;
    params.divergentRaygen = true;
    wl::Workload workload(wl::WorkloadId::EXT, params);
    GpuConfig config = baselineGpuConfig();
    config.numSms = 4;
    config.fabric.numPartitions = 2;
    config.its = its;
    config.occupancySamplePeriod = 500;
    return service::defaultService().submit(workload, config).take().run;
}

} // namespace

int
main()
{
    using namespace vksim;
    bench::header("Figure 18",
                  "RT-unit ray occupancy over time: stack vs ITS",
                  "EXT with injected divergence; samples every 500 "
                  "cycles");

    RunResult stack = runMode(false);
    RunResult its = runMode(true);

    auto mean_occ = [](const RunResult &r) {
        double sum = 0;
        for (auto [cycle, rays] : r.occupancyTrace)
            sum += rays;
        return r.occupancyTrace.empty() ? 0.0
                                        : sum / r.occupancyTrace.size();
    };
    std::printf("cycles: stack %llu, ITS %llu\n",
                static_cast<unsigned long long>(stack.cycles),
                static_cast<unsigned long long>(its.cycles));
    std::printf("mean combined RT occupancy: stack %.1f rays, ITS %.1f "
                "rays\n",
                mean_occ(stack), mean_occ(its));
    auto l1_hits = [](const RunResult &r) {
        const MetricsRegistry &m = r.metrics;
        return static_cast<unsigned long long>(
            m.get("gpu.l1.hits.shader") + m.get("gpu.l1.hits.rtunit")
            + m.get("gpu.rtcache.hits.shader")
            + m.get("gpu.rtcache.hits.rtunit"));
    };
    std::printf("L1 hits: stack %llu, ITS %llu (paper: ITS improves "
                "cache hits)\n",
                l1_hits(stack), l1_hits(its));

    std::printf("\n%12s %14s %14s\n", "cycle", "stack rays", "its rays");
    std::size_t n = std::max(stack.occupancyTrace.size(),
                             its.occupancyTrace.size());
    // Print up to 40 evenly spaced samples of each series.
    std::size_t step = std::max<std::size_t>(1, n / 40);
    for (std::size_t i = 0; i < n; i += step) {
        long stack_rays =
            i < stack.occupancyTrace.size()
                ? static_cast<long>(stack.occupancyTrace[i].second)
                : -1;
        long its_rays = i < its.occupancyTrace.size()
                            ? static_cast<long>(its.occupancyTrace[i].second)
                            : -1;
        std::printf("%12zu %14ld %14ld\n", i * 500, stack_rays, its_rays);
    }
    return 0;
}
