/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the paper's
 * tables and figures. Each binary prints the same rows/series the paper
 * reports, at reduced launch resolutions so the whole suite runs in
 * minutes (the paper's full-resolution runs take days; see DESIGN.md).
 */

#ifndef VKSIM_BENCH_COMMON_H
#define VKSIM_BENCH_COMMON_H

#include <cstdio>

#include "core/vulkansim.h"

namespace vksim::bench {

/** Standard reduced-scale parameters per workload. */
inline wl::WorkloadParams
benchParams(wl::WorkloadId id)
{
    wl::WorkloadParams p;
    switch (id) {
      case wl::WorkloadId::TRI:
      case wl::WorkloadId::REF:
        p.width = 48;
        p.height = 48;
        break;
      case wl::WorkloadId::EXT:
        p.width = 40;
        p.height = 40;
        p.extScale = 0.2f;
        break;
      case wl::WorkloadId::RTV5:
        p.width = 32;
        p.height = 32;
        p.rtv5Detail = 4;
        break;
      case wl::WorkloadId::RTV6:
        p.width = 32;
        p.height = 32;
        p.rtv6Prims = 2000;
        break;
      case wl::WorkloadId::HYB:
      case wl::WorkloadId::RQC:
      case wl::WorkloadId::AHA:
      case wl::WorkloadId::ACC:
        p.width = 32;
        p.height = 32;
        break;
    }
    return p;
}

/** Print the standard experiment banner. */
inline void
header(const char *experiment, const char *title, const char *notes = "")
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", experiment, title);
    if (notes[0])
        std::printf("%s\n", notes);
    std::printf("==============================================================\n");
}

} // namespace vksim::bench

#endif // VKSIM_BENCH_COMMON_H
