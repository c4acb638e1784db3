/**
 * @file
 * Figure 17 of the paper: the two case studies.
 *  - FCC on RTV6 (mobile configuration): SIMT efficiency improves but
 *    the coalescing-buffer memory overhead (+11 % RT-unit loads) makes
 *    it a net ~6 % slowdown.
 *  - ITS: <= 1-2 % speedup on the regular workloads (warps rarely split
 *    around traceRayEXT) but ~6 % on the divergence-injected EXT
 *    microbenchmark (both branch arms trace rays, Fig. 10 right).
 */

#include "bench/common.h"
#include "service/service.h"

namespace {

/**
 * Reduced SM count so bench-scale launches keep the SMs occupied like
 * the paper's full-resolution runs (ITS gains vanish only when baseline
 * thread-level parallelism already hides latency).
 */
vksim::GpuConfig
contendedConfig()
{
    vksim::GpuConfig cfg = vksim::baselineGpuConfig();
    cfg.numSms = 4;
    cfg.fabric.numPartitions = 2;
    cfg.fabric.l2.sizeBytes = 3 * 1024 * 1024 / 2;
    return cfg;
}

} // namespace

int
main()
{
    using namespace vksim;
    bench::header("Figure 17", "FCC and ITS case studies",
                  "ITS runs use a 4-SM contended configuration so SMs "
                  "are occupied as in the paper's full-size runs");

    // --- FCC on RTV6, mobile configuration (paper Sec. VI-E) ---------
    {
        GpuConfig mobile = mobileGpuConfig();
        wl::WorkloadParams params = bench::benchParams(wl::WorkloadId::RTV6);
        wl::Workload base(wl::WorkloadId::RTV6, params);
        RunResult rb = service::defaultService().submit(base, mobile).take().run;
        params.fcc = true;
        wl::Workload fcc(wl::WorkloadId::RTV6, params);
        RunResult rf = service::defaultService().submit(fcc, mobile).take().run;

        double speedup = static_cast<double>(rb.cycles) / rf.cycles;
        std::uint64_t base_rt_loads = rb.metrics.get("gpu.rt.mem_requests");
        std::uint64_t fcc_rt_loads =
            rf.metrics.get("gpu.rt.mem_requests")
            + rf.metrics.get("gpu.rt.fcc_insert_loads")
            + rf.metrics.get("gpu.rt.fcc_insert_stores");
        std::printf("FCC on RTV6 (mobile):\n");
        std::printf("  cycles: baseline %llu, FCC %llu -> speedup %.3f "
                    "(paper: ~0.94, a 6%% slowdown)\n",
                    static_cast<unsigned long long>(rb.cycles),
                    static_cast<unsigned long long>(rf.cycles), speedup);
        std::printf("  SIMT efficiency: %.1f%% -> %.1f%% (paper: +9%%)\n",
                    100.0 * rb.simtEfficiency(),
                    100.0 * rf.simtEfficiency());
        std::printf("  RT-unit memory requests: %llu -> %llu (+%.1f%%, "
                    "paper: +11%%)\n",
                    static_cast<unsigned long long>(base_rt_loads),
                    static_cast<unsigned long long>(fcc_rt_loads),
                    100.0 * (static_cast<double>(fcc_rt_loads)
                             / base_rt_loads - 1.0));
    }

    // --- ITS on every workload (paper Sec. VI-F) ----------------------
    std::printf("\nITS speedups (stack-based reconvergence = 1.0):\n");
    std::printf("%-10s %14s %12s %10s\n", "Scene", "stack", "ITS",
                "speedup");
    for (wl::WorkloadId id : wl::kAllWorkloads) {
        wl::WorkloadParams params = bench::benchParams(id);
        params.width = 48;
        params.height = 48;
        wl::Workload w1(id, params);
        RunResult rs = service::defaultService().submit(w1, contendedConfig()).take().run;
        GpuConfig its = contendedConfig();
        its.its = true;
        wl::Workload w2(id, params);
        RunResult ri = service::defaultService().submit(w2, its).take().run;
        std::printf("%-10s %14llu %12llu %10.3f\n", wl::workloadName(id),
                    static_cast<unsigned long long>(rs.cycles),
                    static_cast<unsigned long long>(ri.cycles),
                    static_cast<double>(rs.cycles) / ri.cycles);
    }

    // Divergence-injected EXT microbenchmark.
    {
        wl::WorkloadParams params = bench::benchParams(wl::WorkloadId::EXT);
        params.width = 48;
        params.height = 48;
        params.divergentRaygen = true;
        wl::Workload w1(wl::WorkloadId::EXT, params);
        RunResult rs = service::defaultService().submit(w1, contendedConfig()).take().run;
        GpuConfig its = contendedConfig();
        its.its = true;
        wl::Workload w2(wl::WorkloadId::EXT, params);
        RunResult ri = service::defaultService().submit(w2, its).take().run;
        std::printf("%-10s %14llu %12llu %10.3f  (paper: ~1.06)\n",
                    "EXT-div",
                    static_cast<unsigned long long>(rs.cycles),
                    static_cast<unsigned long long>(ri.cycles),
                    static_cast<double>(rs.cycles) / ri.cycles);
    }
    return 0;
}
