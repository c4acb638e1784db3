/**
 * @file
 * Figure 16 of the paper: DRAM efficiency and utilization as the
 * maximum number of concurrent warps per RT unit sweeps from 1 to 20,
 * for the baseline and mobile configurations. The paper's shape:
 * performance gains flatten around eight warps; DRAM efficiency stays
 * mediocre (~46 % baseline) and is higher on mobile (~77 %) where
 * bandwidth is scarcer.
 */

#include "bench/common.h"
#include "service/service.h"

namespace {

void
sweep(const char *label, const vksim::GpuConfig &base_config,
      vksim::wl::WorkloadId id)
{
    using namespace vksim;
    std::printf("\n[%s / %s]\n", label, wl::workloadName(id));
    std::printf("%8s %12s %12s %12s %10s %8s\n", "rtWarps", "cycles",
                "dram util", "dram eff", "rowhit %", "BLP");
    for (unsigned warps : {1u, 2u, 4u, 8u, 12u, 16u, 20u}) {
        wl::Workload workload(id, bench::benchParams(id));
        GpuConfig config = base_config;
        config.rt.maxWarps = warps;
        RunResult run = service::defaultService().submit(workload, config).take().run;
        const MetricsRegistry &m = run.metrics;
        double rh = static_cast<double>(m.get("gpu.dram.row_hits"));
        double rm = static_cast<double>(m.get("gpu.dram.row_misses"));
        double row_pct = rh + rm > 0 ? 100.0 * rh / (rh + rm) : 0.0;
        double blp = m.get("gpu.dram.blp_samples")
                         ? static_cast<double>(m.get("gpu.dram.blp_sum"))
                               / m.get("gpu.dram.blp_samples")
                         : 0.0;
        std::printf("%8u %12llu %11.1f%% %11.1f%% %9.1f%% %8.2f\n", warps,
                    static_cast<unsigned long long>(run.cycles),
                    100.0 * run.dramUtilization(),
                    100.0 * run.dramEfficiency(), row_pct, blp);
    }
}

} // namespace

int
main()
{
    using namespace vksim;
    bench::header("Figure 16",
                  "DRAM behaviour vs max warps per RT unit (1..20)",
                  "paper: gains flatten around 8 warps; mobile shows "
                  "higher DRAM efficiency/utilization");
    // Reduced SM counts keep each RT unit contended at bench-scale
    // launches (the paper's full-resolution runs populate all 30 SMs).
    GpuConfig base = baselineGpuConfig();
    base.numSms = 4;
    base.fabric.numPartitions = 2;
    base.fabric.l2.sizeBytes = 3 * 1024 * 1024 / 2;
    GpuConfig mobile = mobileGpuConfig();
    mobile.numSms = 2;
    sweep("baseline-contended", base, wl::WorkloadId::EXT);
    sweep("baseline-contended", base, wl::WorkloadId::RTV6);
    sweep("mobile-contended", mobile, wl::WorkloadId::EXT);
    return 0;
}
