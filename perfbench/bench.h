/**
 * @file
 * Shared state of one benchmark run: options, step timings, the
 * correctness tally, simulated-count totals and the span tracer.
 *
 * A run executes one workload's pass (its job list) repeatedly. Every
 * pass is a fixed sequence of named steps; each step is timed on every
 * pass, scaled to the reference host speed (hostprobe.h), and a metric
 * is built from per-step medians, so a host hiccup that slows one step
 * of one pass does not move the result.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/vulkansim.h"
#include "hostprobe.h"
#include "spans.h"
#include "workloads/workload.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    /** Tiny scene and launch sizes (self-test). */
    bool tiny = false;
    /** Exact pass count; 0 = pass until --seconds have elapsed. */
    int passes = 0;
    /** Scratch directory for DiskStore and snapshot files. */
    std::string workdir = ".";
    std::string expectedPath; ///< recorded digests to check against
    std::string recordPath;   ///< write first-pass digests here
    std::string spansPath;    ///< traced run: Chrome-trace output
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    /** Self-test: corrupt the framebuffer of this many timed jobs. */
    int injectMismatch = 0;
};

/** One timed simulation: a workload built with params, run on config. */
struct JobSpec
{
    std::string name;
    vksim::wl::WorkloadId id = vksim::wl::WorkloadId::TRI;
    vksim::wl::WorkloadParams params;
    vksim::GpuConfig config;
    /**
     * Counts toward hwproxy_r: the job runs the Table III baseline, the
     * configuration the hardware proxy's estimate is compared against.
     */
    bool proxyPoint = true;
};

enum class StepKind
{
    Setup,  ///< building workloads: scene, BVH, translation, caches, disk
    Engine, ///< timed-engine runs (counted in sim_cycles_per_s)
    Other   ///< functional runs, references, validation, snapshot I/O
};

struct StepSeries
{
    StepKind kind = StepKind::Other;
    /** One sample per pass (or set-up rep), in reference-host seconds. */
    std::vector<double> seconds;
    std::vector<double> hostSeconds; ///< the same samples, unscaled
    std::uint64_t cycles = 0;        ///< Engine steps: simulated cycles
};

/**
 * Simulated statistics summed over the timed jobs of one pass. Every
 * job is deterministic, so these are exact and identical per pass.
 */
struct SimTotals
{
    std::uint64_t cycles = 0;
    std::uint64_t smCycles = 0; ///< cycles x SM count
    std::uint64_t smCyclesSkipped = 0;
    std::uint64_t issued = 0;
    std::uint64_t activeLanes = 0;
    std::uint64_t uopDecodes = 0;
    std::uint64_t l1Accesses = 0, l1Hits = 0, l1Stalls = 0;
    std::uint64_t l2Accesses = 0, l2Hits = 0;
    std::uint64_t rowHits = 0, rowMisses = 0, dramRequests = 0;
    std::uint64_t nodeTests = 0;
    std::uint64_t rtBusyCycles = 0, rtUnitCycles = 0;
    std::uint64_t dramBusBusy = 0, dramCycles = 0, dramPendingCycles = 0;

    void add(const vksim::RunResult &r, unsigned num_sms);
};

/** Everything one run shares. */
class Bench
{
  public:
    explicit Bench(Options options);

    const Options &opt() const { return opt_; }
    Tracer &tracer() { return tracer_; }
    bool tiny() const { return opt_.tiny; }

    /**
     * Time `fn` as step `name` of the current pass (inside a span of
     * the same name when tracing). Samples go to the traced or the
     * untraced table depending on the tracer state. The sample is
     * scaled to the reference host speed by the host probe, which runs
     * first when its last measurement is older than kProbeInterval.
     */
    template <typename Fn>
    void
    step(const std::string &name, StepKind kind, int job, Fn &&fn)
    {
        if (probeSeconds_.empty()
            || secondsSince(lastProbe_) > kProbeInterval)
            probeHost();
        Clock::time_point start = Clock::now();
        {
            Span span(tracer_, name, job);
            fn();
        }
        double secs = secondsSince(start);
        StepSeries &s = steps()[name];
        s.kind = kind;
        s.seconds.push_back(secs * kProbeReferenceSeconds
                            / probeSeconds_.back());
        s.hostSeconds.push_back(secs);
    }

    /** Every host-probe time of the run, in order. */
    const std::vector<double> &probeSeconds() const { return probeSeconds_; }

    /** Record the simulated cycles of an Engine step. */
    void setCycles(const std::string &step, std::uint64_t cycles);

    /** Untraced table when tracing is off, traced table when on. */
    std::map<std::string, StepSeries> &
    steps()
    {
        return tracer_.enabled() ? tracedSteps_ : untracedSteps_;
    }
    const std::map<std::string, StepSeries> &untracedSteps() const
    {
        return untracedSteps_;
    }

    // ---- correctness tally ----
    void attempt() { ++attempted_; }
    void fail(const std::string &job, const std::string &why);
    /**
     * Count one image check against the reference renderer (the repo's
     * fidelity tolerance); a mismatch fails `job`. The self-test's
     * --inject-mismatch corrupts the first N images checked.
     */
    void checkImage(const std::string &job, const vksim::Image &got,
                    const vksim::Image &want);
    /**
     * Check a job's metrics digest against the recorded value for this
     * seed (or, for a seed with no recording, against the first pass).
     */
    void checkDigest(const std::string &job, const std::string &digest);

    std::uint64_t attempted() const { return attempted_; }
    const std::vector<std::string> &failures() const { return failures_; }
    double imageMatchFrac() const;
    const std::map<std::string, std::string> &firstDigests() const
    {
        return firstDigests_;
    }

    /** Totals of the first pass (filled while `collectSim` is set). */
    SimTotals sim;
    bool collectSim = true;

    /** (hardware-proxy estimate, simulated cycles) of each timed job. */
    std::vector<double> hwCycles, simCycles;

    /** Artifact-cache lookups of the first pass, and those that skipped
     *  a build (memory hit or DiskStore load). */
    std::uint64_t artifactLookups = 0, artifactReused = 0;

    /** Per-layer values measured outside passes (probes, set-up). */
    std::map<std::string, double> layer;

  private:
    /**
     * A step starts at most this long after the probe that scales it:
     * long steps (every engine run) get a fresh probe each, while a run
     * of short set-up steps shares one.
     */
    static constexpr double kProbeInterval = 0.2;

    void probeHost();

    Options opt_;
    Tracer tracer_;
    std::map<std::string, StepSeries> untracedSteps_;
    std::map<std::string, StepSeries> tracedSteps_;
    std::uint64_t attempted_ = 0;
    std::uint64_t imagesChecked_ = 0;
    std::uint64_t imagesMatched_ = 0;
    int injectLeft_ = 0;
    std::vector<std::string> failures_;
    std::vector<double> probeSeconds_;
    Clock::time_point lastProbe_;
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> firstDigests_;
};

// ---- helpers shared by the workloads and probes ----

double median(std::vector<double> v);
std::string fnv1aHex(const std::string &bytes);

/** Digest of a run's complete metrics dump (excludes host time). */
std::string metricsDigest(Bench &b, const vksim::RunResult &r);

/** Launch params of a scene at `size` x `size`, seed folded in. */
vksim::wl::WorkloadParams sceneParams(const Bench &b, unsigned size);

/**
 * Digest-trace sampling period of the checked runs: one sample per
 * default epoch. Per-cycle digests (diffrun's default) cost more than the
 * simulation itself and would swamp every other layer of cold_validate.
 */
inline constexpr vksim::Cycle kDigestPeriod = 64;

/** Config with the execution knobs pinned (env-independent). */
vksim::GpuConfig engineConfig(vksim::GpuConfig base, unsigned threads);

/** The workload's scene alone (scene-module call, no BVH). */
vksim::Scene generateScene(vksim::wl::WorkloadId id,
                           const vksim::wl::WorkloadParams &params);

/** Job order of a pass: a seed-determined permutation of [0, n). */
std::vector<std::size_t> jobOrder(const Bench &b, std::size_t n);

/** Per-layer probes shared by every workload (probes.cc). */
struct ProbeTargets
{
    /** Distinct scene builds of the workload. */
    std::vector<JobSpec> scenes;
    /** Small job the behaviour-neutral knob differentials run on. */
    JobSpec knobJob;
};
void runLayerProbes(Bench &b, const ProbeTargets &targets);

/** One benchmark workload: a job list run pass after pass. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;
    /** Once per run, untimed: references, hwproxy profiles, hints. */
    virtual void prepare(Bench &b) = 0;
    /** One pass over the job list; `pass` counts from 0. */
    virtual void pass(Bench &b, int pass) = 0;
    /** What the traced run's layer probes exercise. */
    virtual ProbeTargets probeTargets(const Bench &b) const = 0;
};

/** The workload named by --workload; null when the name is unknown. */
std::unique_ptr<BenchWorkload> makeWorkload(const Bench &b);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
