/**
 * @file
 * Figure 14 of the paper: L1D and L2 access breakdown — hits vs misses,
 * split by request origin (shader loads vs RT unit) and miss class
 * (compulsory vs capacity/conflict). The paper's findings: most misses
 * come from shader loads and are largely compulsory; RT-unit loads show
 * capacity/conflict thrashing.
 */

#include <initializer_list>
#include <string>

#include "bench/common.h"
#include "service/service.h"

namespace {

/**
 * One cache level's row; `groups` are the registry groups (under "gpu.")
 * whose counters the level sums.
 */
void
printBreakdown(const char *level, const vksim::MetricsRegistry &m,
               std::initializer_list<const char *> groups)
{
    using std::uint64_t;
    auto get = [&](const char *k) {
        uint64_t v = 0;
        for (const char *g : groups)
            v += m.get(std::string("gpu.") + g + "." + k);
        return v;
    };
    uint64_t total = get("accesses.shader") + get("accesses.rtunit");
    if (total == 0)
        return;
    auto pct = [&](uint64_t v) { return 100.0 * v / total; };
    std::printf("  %-4s sh.hit %5.1f%%  sh.compulsory %5.1f%%  "
                "sh.cap/conf %5.1f%%  rt.hit %5.1f%%  rt.compulsory "
                "%5.1f%%  rt.cap/conf %5.1f%%\n",
                level, pct(get("hits.shader")),
                pct(get("miss_compulsory.shader")),
                pct(get("miss_capacity_conflict.shader")),
                pct(get("hits.rtunit")),
                pct(get("miss_compulsory.rtunit")),
                pct(get("miss_capacity_conflict.rtunit")));
}

} // namespace

int
main()
{
    using namespace vksim;
    bench::header("Figure 14", "L1D and L2 cache access breakdown",
                  "paper: misses dominated by shader loads, mostly "
                  "compulsory; RT loads show capacity/conflict misses");

    for (wl::WorkloadId id : wl::kAllWorkloads) {
        wl::Workload workload(id, bench::benchParams(id));
        RunResult run = service::defaultService().submit(workload, baselineGpuConfig()).take().run;
        std::printf("%s:\n", workload.name());
        printBreakdown("L1D", run.metrics, {"l1", "rtcache"});
        printBreakdown("L2", run.metrics, {"l2"});
    }
    return 0;
}
