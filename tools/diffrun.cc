/**
 * @file
 * Differential engine runner: runs the same workload launch twice — once
 * on the serial engine, once on the N-thread engine — with per-cycle
 * state digests enabled, and reports the first (cycle, unit) where the
 * two traces disagree. A clean run demonstrates the determinism contract
 * (DESIGN.md); any divergence is localized to the SM (or the fabric)
 * and the barrier cycle where the engines first disagreed.
 *
 * Both runs are service jobs in one batch: the workloads are built
 * against the service's artifact cache (one BVH build, one pipeline
 * translation for the pair) and the explicit per-job engine thread
 * counts are honored — comparing engine thread counts is the point.
 *
 *   diffrun --workload=REF [--width=64 --height=64] [--threads=8]
 *           [--check=basic|full] [--period=1] [--mobile]
 *
 * Harness self-test: `--inject-cycle=C [--inject-unit=U]` XORs one bit
 * into the threaded run's digest of unit U at cycle C (the simulation
 * itself is untouched) and the tool must localize exactly that sample:
 *
 *   diffrun --workload=TRI --inject-cycle=1000 --inject-unit=2
 *   => first divergence: cycle 1000, unit 2 (sm2)
 */

#include <cstdio>
#include <string>

#include "core/vulkansim.h"
#include "service/service.h"
#include "util/cli.h"

namespace {

std::string
workloadNameList()
{
    std::string names;
    for (vksim::wl::WorkloadId id : vksim::wl::kAllWorkloads) {
        if (!names.empty())
            names += "/";
        names += vksim::wl::workloadName(id);
    }
    return names;
}

vksim::wl::WorkloadId
workloadByName(const std::string &name)
{
    using vksim::wl::WorkloadId;
    for (WorkloadId id : vksim::wl::kAllWorkloads)
        if (name == vksim::wl::workloadName(id))
            return id;
    std::fprintf(stderr, "unknown workload %s (use %s)\n", name.c_str(),
                 workloadNameList().c_str());
    std::exit(1);
}

std::string
unitName(unsigned unit, unsigned num_sms)
{
    if (unit == num_sms)
        return "fabric";
    return "sm" + std::to_string(unit);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vksim;
    Cli cli("diffrun [flags]",
            "Digest-compare the serial engine against the N-thread "
            "engine on one workload launch.");
    cli.option("workload", "name", "TRI", workloadNameList().c_str())
        .option("width", "px", "64", "launch width")
        .option("height", "px", "64", "launch height")
        .option("scale", "f", "0.2", "EXT tessellation fraction")
        .option("detail", "n", "4", "RTV5 statue subdivision")
        .flag("mobile", "use the mobile Table III configuration")
        .option("period", "cycles", "1", "digest sampling period")
        .option("inject-cycle", "C", "",
                "self-test: corrupt the threaded digest at cycle C")
        .option("inject-unit", "U", "0",
                "self-test: unit whose digest is corrupted");
    addSimFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.helpRequested() ? 0 : 1;

    wl::WorkloadParams params;
    params.width = static_cast<unsigned>(cli.getInt("width"));
    params.height = static_cast<unsigned>(cli.getInt("height"));
    params.extScale = static_cast<float>(cli.getFloat("scale"));
    params.rtv5Detail = static_cast<unsigned>(cli.getInt("detail"));
    wl::WorkloadId id = workloadByName(cli.get("workload"));

    GpuConfig config =
        cli.getBool("mobile") ? mobileGpuConfig() : baselineGpuConfig();
    if (!applySimFlags(cli, &config))
        return 1;
    config.digestTrace = true;
    config.digestPeriod = static_cast<Cycle>(cli.getInt("period"));

    const unsigned threads = cli.threadCount();

    GpuConfig serial = config;
    serial.threads = 1;
    serial.epochCycles = 1; // reference run: a barrier every cycle
    serial.digestInjectCycle = ~Cycle(0); // reference run: never inject

    GpuConfig parallel = config;
    parallel.threads = threads; // 0 = auto (hardware concurrency)
    if (cli.has("inject-cycle")) {
        parallel.digestInjectCycle =
            static_cast<Cycle>(cli.getInt("inject-cycle"));
        parallel.digestInjectUnit =
            static_cast<unsigned>(cli.getInt("inject-unit"));
    }
    if (parallel.threads == 0) {
        // An auto engine request must survive batching (the service
        // would serialize it); pin it to the resolved count instead.
        parallel.threads = ThreadPool::resolveThreadCount(0);
    }

    std::printf("diffrun: %s %ux%u, check=%s, digest period %llu\n",
                wl::workloadName(id), params.width, params.height,
                check::checkLevelName(config.checkLevel),
                static_cast<unsigned long long>(config.digestPeriod));

    // Two externally built workloads (shared artifacts), one batch.
    service::SimService svc;
    wl::Workload w1(id, params, &svc.artifacts());
    wl::Workload w2(id, params, &svc.artifacts());
    service::JobTicket serial_job = svc.submit(w1, serial, "serial");
    service::JobTicket threaded_job = svc.submit(w2, parallel, "threaded");
    svc.flush();

    const RunResult &ref = serial_job.get().run;
    std::printf("  serial:   %llu cycles, %zu digest samples x %u units\n",
                static_cast<unsigned long long>(ref.cycles),
                ref.digests.samples(), ref.digests.units);

    const RunResult &par = threaded_job.get().run;
    std::printf("  threaded: %llu cycles (%u engine threads)\n",
                static_cast<unsigned long long>(par.cycles),
                par.threadsUsed);

    check::DigestTrace::Divergence div =
        ref.digests.firstDivergence(par.digests);
    if (!div.diverged) {
        std::printf("OK: traces identical over %zu samples "
                    "(serial vs %u threads)\n",
                    ref.digests.samples(), par.threadsUsed);
        return 0;
    }
    std::printf("DIVERGED: first mismatch at cycle %llu, unit %u (%s)\n",
                static_cast<unsigned long long>(div.cycle), div.unit,
                unitName(div.unit, config.numSms).c_str());
    return 1;
}
