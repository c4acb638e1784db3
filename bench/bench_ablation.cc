/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, beyond the
 * paper's own case studies:
 *  - warp scheduler: greedy-then-oldest (baseline) vs loose round robin;
 *  - short-stack depth: spill traffic and cycles as the per-ray stack
 *    shrinks below the paper's 8 entries (Aila-style spilling);
 *  - RT-unit operation latencies: sensitivity of end-to-end cycles.
 */

#include "bench/common.h"
#include "service/service.h"

int
main()
{
    using namespace vksim;
    bench::header("Ablations", "scheduler / short stack / op latency");

    // --- GTO vs LRR -----------------------------------------------------
    std::printf("[warp scheduler]\n%-8s %12s %12s %10s\n", "Scene", "GTO",
                "LRR", "GTO/LRR");
    for (wl::WorkloadId id :
         {wl::WorkloadId::REF, wl::WorkloadId::EXT, wl::WorkloadId::RTV6}) {
        wl::Workload w1(id, bench::benchParams(id));
        GpuConfig gto = baselineGpuConfig();
        RunResult rg = service::defaultService().submit(w1, gto).take().run;
        wl::Workload w2(id, bench::benchParams(id));
        GpuConfig lrr = baselineGpuConfig();
        lrr.sched = SchedPolicy::LRR;
        RunResult rl = service::defaultService().submit(w2, lrr).take().run;
        std::printf("%-8s %12llu %12llu %10.3f\n", wl::workloadName(id),
                    static_cast<unsigned long long>(rg.cycles),
                    static_cast<unsigned long long>(rl.cycles),
                    static_cast<double>(rg.cycles) / rl.cycles);
    }

    // --- short-stack depth ----------------------------------------------
    std::printf("\n[short-stack depth, EXT] (paper uses 8 entries)\n");
    std::printf("%8s %12s %14s\n", "entries", "cycles", "stack spills");
    for (unsigned entries : {2u, 4u, 8u, 16u}) {
        wl::Workload w(wl::WorkloadId::EXT,
                       bench::benchParams(wl::WorkloadId::EXT));
        GpuConfig cfg = baselineGpuConfig();
        cfg.rt.shortStackEntries = entries;
        RunResult run = service::defaultService().submit(w, cfg).take().run;
        std::printf("%8u %12llu %14llu\n", entries,
                    static_cast<unsigned long long>(run.cycles),
                    static_cast<unsigned long long>(
                        run.metrics.get("gpu.rt.stack_spills")));
    }

    // --- RT operation-unit latency ---------------------------------------
    std::printf("\n[RT op-unit latency scale, EXT]\n");
    std::printf("%8s %12s\n", "scale", "cycles");
    for (unsigned scale : {1u, 2u, 4u}) {
        wl::Workload w(wl::WorkloadId::EXT,
                       bench::benchParams(wl::WorkloadId::EXT));
        GpuConfig cfg = baselineGpuConfig();
        cfg.rt.boxLatency *= scale;
        cfg.rt.triLatency *= scale;
        cfg.rt.transformLatency *= scale;
        RunResult run = service::defaultService().submit(w, cfg).take().run;
        std::printf("%7ux %12llu\n", scale,
                    static_cast<unsigned long long>(run.cycles));
    }
    std::printf("\npaper Sec. V: \"the number of intersection units has "
                "less of an impact since memory is the main bottleneck\" — "
                "cycles should move sub-linearly with op latency.\n");
    return 0;
}
