/**
 * @file
 * Figure 13 of the paper: the distribution of warp latency in the RT
 * units for EXT — most warps finish quickly (log-normal-like body) but a
 * few trailing warps take ~4x the 95th percentile, demonstrating the
 * long-tail effect that limits ray tracing performance (Sec. VI-B).
 */

#include "bench/common.h"
#include "service/service.h"

int
main()
{
    using namespace vksim;
    bench::header("Figure 13", "RT-unit warp latency distribution (EXT)",
                  "paper: 95 % of warps < 50k cycles; tail warps ~4x "
                  "longer");

    wl::WorkloadParams params = bench::benchParams(wl::WorkloadId::EXT);
    params.width = 64;
    params.height = 64;
    params.extScale = 0.3f;
    wl::Workload workload(wl::WorkloadId::EXT, params);
    GpuConfig config = baselineGpuConfig();
    config.numSms = 8;
    config.fabric.numPartitions = 2;
    RunResult run = service::defaultService().submit(workload, config).take().run;

    const Histogram &h =
        *run.metrics.findHistogram("gpu.rt.warp_latency_hist");
    std::printf("RT warps: %llu, mean latency %.0f cycles, max %.0f\n",
                static_cast<unsigned long long>(h.summary().count()),
                h.summary().mean(), h.summary().max());
    double p50 = h.percentile(0.50);
    double p95 = h.percentile(0.95);
    std::printf("p50 = %.0f  p95 = %.0f  max/p95 = %.1fx (paper: ~4x)\n",
                p50, p95, h.summary().max() / std::max(1.0, p95));

    // Print the histogram as rows (bucket, count, bar).
    std::printf("\n%-18s %8s\n", "latency (cycles)", "warps");
    const auto &buckets = h.buckets();
    std::uint64_t peak = 1;
    for (std::uint64_t b : buckets)
        peak = std::max(peak, b);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        std::string bar(
            static_cast<std::size_t>(40.0 * buckets[i] / peak), '#');
        std::printf("%8.0f-%-8.0f %8llu %s\n", i * h.bucketWidth(),
                    (i + 1) * h.bucketWidth(),
                    static_cast<unsigned long long>(buckets[i]),
                    bar.c_str());
    }
    if (h.overflow())
        std::printf("%17s %8llu (tail overflow bucket)\n", ">max",
                    static_cast<unsigned long long>(h.overflow()));
    return 0;
}
