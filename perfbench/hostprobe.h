/**
 * @file
 * Host-speed probe: a fixed CPU kernel whose run time tracks how fast
 * the shared host is running the benchmark at the moment.
 *
 * On a few vCPUs of a shared host the simulator's speed drifts by
 * 15-30 % over minutes as other tenants load the machine. Step times are
 * divided by the probe time measured just before them and multiplied by
 * kProbeReferenceSeconds, which turns host seconds into seconds on a host
 * running at the reference speed. The probe is benchmark code, so no
 * change to the simulator moves it.
 */

#ifndef PERFBENCH_HOSTPROBE_H
#define PERFBENCH_HOSTPROBE_H

namespace perfbench {

/**
 * Probe time of the reference host speed: about the median on the
 * 4-vCPU Xeon guest the benchmark was tuned on. Changing it rescales
 * every timing metric, so it stays fixed.
 */
inline constexpr double kProbeReferenceSeconds = 0.030;

/**
 * Run the probe kernel once and return its host seconds. The kernel
 * mixes the simulator's kinds of host work: data-dependent branches
 * over a 64 KiB table, a switch-dispatched register interpreter, and
 * eight independent integer chains.
 */
double hostProbeSeconds();

} // namespace perfbench

#endif // PERFBENCH_HOSTPROBE_H
