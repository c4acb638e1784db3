#include "core/vulkansim.h"

#include <cstdio>

namespace vksim {

GpuConfig
applyMemoryVariant(GpuConfig config, MemoryVariant variant)
{
    switch (variant) {
      case MemoryVariant::Baseline:
        break;
      case MemoryVariant::RtCache:
        config.useRtCache = true;
        break;
      case MemoryVariant::PerfectBvh:
        config.rt.perfectBvh = true;
        break;
      case MemoryVariant::PerfectMem:
        config.fabric.perfectMem = true;
        break;
      case MemoryVariant::Modern:
        // Line-tagged sectored caches: 128-byte lines over the 32-byte
        // sectors, sector-fill, with fill-time streaming reservation in
        // the L1 (a fill allocates a tag only when the miss gathered at
        // least two coalesced targets; single-use streams bypass).
        config.l1.lineBytes = 128;
        config.l1.streamingThreshold = 2;
        config.fabric.l2.lineBytes = 128;
        // HBM-style channel timing: 4 bank groups with long/short
        // column-to-column spacing, activate-to-activate spacing, and
        // periodic all-bank refresh (tREFI/tRFC in DRAM cycles).
        config.fabric.dram.bankGroups = 4;
        config.fabric.dram.tCcdL = 6;
        config.fabric.dram.tCcdS = 4;
        config.fabric.dram.tRrd = 8;
        config.fabric.dram.tRefi = 3900;
        config.fabric.dram.tRfc = 160;
        config.fabric.interleave = L2Interleave::XorFold;
        break;
    }
    return config;
}

GpuConfig
rtxMatchedConfig(int step)
{
    // RTX 2080 SUPER public parameters: 48 SMs, 1815 MHz boost core,
    // 15.5 Gbps GDDR6 on a 256-bit bus, 4 MB L2.
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 48;
    cfg.coreClockMhz = 1815.0;
    cfg.fabric.numPartitions = 8;
    cfg.fabric.l2 = CacheConfig{"l2", 4 * 1024 * 1024 / 8, 16, 160, 128, 16};
    cfg.fabric.dramClockRatio = 1937.5 / 1815.0 * 2.0;
    cfg.rt.maxWarps = 4;

    if (step >= 1) {
        // Khairy et al. / Dalmia et al. latencies.
        cfg.l1.latency = 33;
        cfg.fabric.l2.latency = 213;
        cfg.fabric.dram.tRcd = 34;
        cfg.fabric.dram.tRp = 34;
        cfg.fabric.dram.tCas = 34;
        cfg.rt.maxWarps = 2;
    }
    if (step >= 2)
        cfg.rt.maxWarps = 1;
    return cfg;
}

void
addSimFlags(Cli &cli)
{
    cli.option("threads", "N", "0",
               "engine worker threads (0 = auto via VKSIM_THREADS / "
               "hardware)")
        .flag("serial", "run the serial engine (same as --threads=1)")
        .flag("no-idle-skip",
              "cycle every SM every cycle instead of sleeping quiescent "
              "SMs and jumping waiting ones to their next event (SMs "
              "only: DRAM channels still tick lazily; idle-skip is "
              "behavior-neutral; this is the debugging / cross-check "
              "escape hatch)")
        .option("epoch-cycles", "N", "",
                "cycles each SM advances between barriers, clamped to "
                "the fabric response-latency skew bound (1 = a barrier "
                "every cycle, the finest stepping; default 64)")
        .flag("perf", "print a host-performance summary per run")
        .option("check", "off|basic|full", "",
                "self-validation level (default from VKSIM_CHECK)")
        .option("stats-json", "file", "",
                "dump the full metrics registry as JSON")
        .option("timeline", "file", "",
                "write a Chrome-trace timeline of the run")
        .option("timeline-sample", "cycles", "64",
                "timeline sampling interval in cycles")
        .option("timeline-max-events", "N", "1048576",
                "cap on buffered timeline events");
}

bool
applySimFlags(const Cli &cli, GpuConfig *config)
{
    config->threads = cli.threadCount();
    if (cli.getBool("no-idle-skip"))
        config->idleSkip = false;
    if (cli.has("epoch-cycles")) {
        int epochs = cli.getInt("epoch-cycles");
        if (epochs < 1) {
            std::fprintf(stderr,
                         "bad --epoch-cycles '%d' (must be >= 1)\n",
                         epochs);
            return false;
        }
        config->epochCycles = static_cast<unsigned>(epochs);
    }
    if (cli.getBool("perf"))
        config->printPerfSummary = true;
    if (cli.has("check")
        && !check::parseCheckLevel(cli.get("check"),
                                   &config->checkLevel)) {
        std::fprintf(stderr, "bad --check level '%s' (off/basic/full)\n",
                     cli.get("check").c_str());
        return false;
    }
    config->timeline.path = cli.get("timeline");
    config->timeline.sampleInterval =
        static_cast<Cycle>(cli.getInt("timeline-sample"));
    config->timeline.maxEvents =
        static_cast<std::uint64_t>(cli.getInt("timeline-max-events"));
    return true;
}

} // namespace vksim
