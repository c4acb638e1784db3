/**
 * @file
 * Section VI (intro) of the paper: instruction-type breakdown across the
 * workloads — roughly 60 % ALU, 25 % memory, ~1 % trace-ray — and the RT
 * units active for 92 % of cycles on EXT.
 */

#include "bench/common.h"
#include "service/service.h"

int
main()
{
    using namespace vksim;
    bench::header("Section VI", "Instruction mix and RT-unit activity",
                  "paper: ~60 % ALU, ~25 % memory, ~1 % trace ray; RT "
                  "units active 92 % of cycles on EXT");

    std::printf("%-8s %9s %9s %9s %9s %9s %14s\n", "Scene", "ALU %",
                "mem %", "ctrl %", "SFU %", "trace %", "RT busy %");
    double alu_sum = 0, mem_sum = 0, trace_sum = 0;
    unsigned n = 0;
    for (wl::WorkloadId id : wl::kAllWorkloads) {
        wl::Workload workload(id, bench::benchParams(id));
        RunResult run = service::defaultService().submit(workload, baselineGpuConfig()).take().run;
        double total =
            static_cast<double>(std::max<std::uint64_t>(
                1, run.metrics.get("gpu.core.issued")));
        double alu = 100.0 * run.metrics.get("gpu.core.issue_alu") / total;
        double mem = 100.0 * run.metrics.get("gpu.core.issue_ldst") / total;
        double ctrl = 100.0 * run.metrics.get("gpu.core.issue_ctrl") / total;
        double sfu = 100.0 * run.metrics.get("gpu.core.issue_sfu") / total;
        double trace = 100.0 * run.metrics.get("gpu.core.issue_rt") / total;
        std::printf("%-8s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.2f%% %13.1f%%\n",
                    workload.name(), alu, mem, ctrl, sfu, trace,
                    100.0 * run.rtActiveFraction());
        alu_sum += alu;
        mem_sum += mem;
        trace_sum += trace;
        ++n;
    }
    std::printf("%-8s %8.1f%% %8.1f%% %19s %9.2f%%\n", "average",
                alu_sum / n, mem_sum / n, "", trace_sum / n);
    return 0;
}
