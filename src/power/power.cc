#include "power/power.h"

namespace vksim {

PowerReport
estimatePower(const RunResult &run, unsigned num_sms,
              const PowerConfig &config)
{
    PowerReport report;
    report.seconds =
        static_cast<double>(run.cycles) / (config.coreClockMhz * 1e6);

    constexpr double kPjToJ = 1e-12;
    const MetricsRegistry &m = run.metrics;
    report.coreDynamicJoules =
        (m.get("gpu.core.issue_alu") * config.aluOpPj
         + m.get("gpu.core.issue_sfu") * config.sfuOpPj
         + m.get("gpu.core.issue_ldst") * config.ldstOpPj)
        * kWarpSize * kPjToJ;

    // The dedicated RT cache (when configured) is L1-class storage.
    double l1_accesses =
        m.get("gpu.l1.accesses.shader") + m.get("gpu.l1.accesses.rtunit")
        + m.get("gpu.rtcache.accesses.shader")
        + m.get("gpu.rtcache.accesses.rtunit");
    double l2_accesses =
        m.get("gpu.l2.accesses.shader") + m.get("gpu.l2.accesses.rtunit");
    report.cacheJoules = (l1_accesses * config.l1AccessPj
                          + l2_accesses * config.l2AccessPj)
                         * kPjToJ;

    report.dramJoules =
        m.get("gpu.dram.requests") * config.dramAccessPj * kPjToJ;

    report.rtUnitJoules =
        (m.get("gpu.rt.ops_box") * config.rtBoxOpPj
         + m.get("gpu.rt.ops_triangle") * config.rtTriOpPj
         + m.get("gpu.rt.ops_transform") * config.rtTransformOpPj)
        * kPjToJ;

    report.constantJoules = config.constantWatts * report.seconds;
    report.staticJoules =
        config.staticWattsPerSm * num_sms * report.seconds;

    report.totalJoules = report.coreDynamicJoules + report.cacheJoules
                         + report.dramJoules + report.rtUnitJoules
                         + report.constantJoules + report.staticJoules;
    report.averageWatts =
        report.seconds > 0 ? report.totalJoules / report.seconds : 0;
    return report;
}

} // namespace vksim
