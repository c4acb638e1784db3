/**
 * @file
 * The benchmark's three workloads (README.md gives the reasons):
 *
 *  - suite_serial: all 9 scenes on the Table III baseline, serial engine.
 *  - sweep_4t: EXT/HYB/REF x four memory configs, 4 engine threads, one
 *    artifact cache shared by the pass.
 *  - cold_validate: paper-scale builds through a cold cache into a fresh
 *    DiskStore and back, functional + reference renders, and checked,
 *    digest-traced timed runs that snapshot mid-run and resume.
 */

#include <filesystem>
#include <optional>

#include "bench.h"
#include "gpu/checkpoint.h"
#include "hwproxy/hwproxy.h"
#include "service/artifacts.h"
#include "service/diskstore.h"
#include "service/service.h"
#include "util/simerror.h"

namespace perfbench {
namespace {

using namespace vksim;
using wl::WorkloadId;

/** Proxy estimate of a job's scene (functional profile, Fig. 11 model). */
double
hardwareEstimate(Bench &b, const JobSpec &job)
{
    wl::Workload w(job.id, job.params);
    Clock::time_point start = Clock::now();
    WorkloadProfile profile;
    {
        Span span(b.tracer(), "hwproxy.profile");
        profile = profileWorkload(w);
    }
    b.layer["hwproxy.profile_s"] += secondsSince(start);
    return estimateHardwareCycles(profile);
}

void
recordArtifactTraffic(Bench &b, const service::ArtifactCache &cache,
                      const service::DiskStore *store)
{
    service::ArtifactCounters c = cache.counters();
    b.artifactLookups +=
        c.bvhBuilds + c.bvhHits + c.pipelineBuilds + c.pipelineHits;
    b.artifactReused += c.bvhHits + c.pipelineHits
                        + (store != nullptr ? store->counters().loads : 0);
}

/**
 * suite_serial and sweep_4t: each job is built through the pass's
 * artifact cache, run once on the timed engine, and checked (image
 * against the reference renderer, stats digest against the record).
 */
class JobListWorkload : public BenchWorkload
{
  public:
    JobListWorkload(std::vector<JobSpec> jobs, ProbeTargets probes)
        : jobs_(std::move(jobs)), probes_(std::move(probes))
    {
    }

    void
    prepare(Bench &b) override
    {
        order_ = jobOrder(b, jobs_.size());
        // One reference and proxy estimate per scene; configs of a
        // sweep share them.
        std::map<WorkloadId, double> hw;
        for (const JobSpec &job : jobs_) {
            if (refs_.count(job.id))
                continue;
            wl::Workload w(job.id, job.params);
            refs_[job.id] = w.renderReferenceImage(nullptr, 1);
            hw[job.id] = hardwareEstimate(b, job);
        }
        for (const JobSpec &job : jobs_)
            hw_.push_back(hw[job.id]);
        // Building is cheap next to running here, so repeat the pass's
        // set-up alone a few times: setup_s then rests on enough samples.
        for (int rep = 0; rep < (b.tiny() ? 1 : 20); ++rep) {
            service::ArtifactCache cache;
            for (std::size_t i : order_)
                b.step(jobs_[i].name + ".build", StepKind::Setup, -1, [&] {
                    Span span(b.tracer(), "service.workload_build");
                    wl::Workload w(jobs_[i].id, jobs_[i].params, &cache);
                });
        }
    }

    void
    pass(Bench &b, int pass) override
    {
        service::ArtifactCache cache;
        for (std::size_t i : order_) {
            const JobSpec &job = jobs_[i];
            const int id = pass * 100 + static_cast<int>(i);
            b.attempt();
            std::unique_ptr<wl::Workload> w;
            b.step(job.name + ".build", StepKind::Setup, id, [&] {
                Span span(b.tracer(), "service.workload_build");
                w = std::make_unique<wl::Workload>(job.id, job.params,
                                                   &cache);
            });
            RunResult r;
            bool ran = false;
            b.step(job.name + ".engine", StepKind::Engine, id, [&] {
                Span span(b.tracer(), "gpu.run");
                try {
                    r = service::runPreparedWorkload(*w, job.config);
                    ran = true;
                } catch (const SimError &e) {
                    b.fail(job.name, std::string("SimError: ") + e.what());
                }
            });
            if (!ran)
                continue;
            b.setCycles(job.name + ".engine", r.cycles);
            b.step(job.name + ".validate", StepKind::Other, id, [&] {
                Image img;
                {
                    Span span(b.tracer(), "wl.read_framebuffer");
                    img = w->readFramebuffer();
                }
                b.checkImage(job.name, img, refs_.at(job.id));
                b.checkDigest(job.name, metricsDigest(b, r));
                Span span(b.tracer(), "wl.release");
                w.reset();
            });
            if (b.collectSim) {
                b.sim.add(r, job.config.numSms);
                if (job.proxyPoint) {
                    b.simCycles.push_back(static_cast<double>(r.cycles));
                    b.hwCycles.push_back(hw_[i]);
                }
            }
        }
        if (b.collectSim)
            recordArtifactTraffic(b, cache, nullptr);
    }

    ProbeTargets probeTargets(const Bench &) const override
    {
        return probes_;
    }

  private:
    std::vector<JobSpec> jobs_;
    ProbeTargets probes_;
    std::vector<std::size_t> order_;
    std::map<WorkloadId, Image> refs_;
    std::vector<double> hw_; ///< proxy estimate per job index
};

std::unique_ptr<BenchWorkload>
makeSuiteSerial(const Bench &b)
{
    const unsigned size = b.tiny() ? 8 : 32;
    std::vector<JobSpec> jobs;
    ProbeTargets probes;
    for (WorkloadId id : wl::kAllWorkloads) {
        JobSpec job;
        job.name = wl::workloadName(id);
        job.id = id;
        job.params = sceneParams(b, size);
        job.config = engineConfig(baselineGpuConfig(), 1);
        jobs.push_back(job);
        if (id == WorkloadId::EXT) {
            probes.knobJob = job;
            probes.knobJob.params = sceneParams(b, b.tiny() ? 8 : 16);
        }
    }
    probes.scenes = jobs;
    return std::make_unique<JobListWorkload>(std::move(jobs),
                                             std::move(probes));
}

std::unique_ptr<BenchWorkload>
makeSweep4t(const Bench &b)
{
    const unsigned size = b.tiny() ? 8 : 32;
    const GpuConfig base = baselineGpuConfig();
    const std::pair<const char *, GpuConfig> configs[] = {
        {"baseline", base},
        {"modern", applyMemoryVariant(base, MemoryVariant::Modern)},
        {"mobile_modern",
         applyMemoryVariant(mobileGpuConfig(), MemoryVariant::Modern)},
        {"rtcache", applyMemoryVariant(base, MemoryVariant::RtCache)},
    };
    std::vector<JobSpec> jobs;
    ProbeTargets probes;
    for (WorkloadId id : {WorkloadId::EXT, WorkloadId::HYB, WorkloadId::REF}) {
        for (const auto &[name, config] : configs) {
            JobSpec job;
            job.name = std::string(wl::workloadName(id)) + "/" + name;
            job.id = id;
            job.params = sceneParams(b, size);
            job.config = engineConfig(config, 4);
            job.proxyPoint = name == std::string("baseline");
            jobs.push_back(job);
        }
        probes.scenes.push_back(jobs.back());
    }
    // The knob differentials start from a serial engine; their 4-thread
    // leg is the sweep's own configuration.
    probes.knobJob = jobs[1]; // EXT/modern
    probes.knobJob.params = sceneParams(b, b.tiny() ? 8 : 16);
    probes.knobJob.config.threads = 1;
    return std::make_unique<JobListWorkload>(std::move(jobs),
                                             std::move(probes));
}

/** Run frames [0, frames) of a prepared workload, the last on `last`. */
std::vector<RunResult>
runFrames(wl::Workload &w, const GpuConfig &cfg, const GpuConfig &last,
          unsigned frames)
{
    std::vector<RunResult> out;
    for (unsigned f = 0; f < frames; ++f) {
        if (f > 0)
            w.beginFrame(f);
        GpuSimulator sim(f + 1 == frames ? last : cfg, w.launch());
        out.push_back(sim.run());
    }
    return out;
}

/**
 * cold_validate: the set-up and validation path of a study. Scenes are
 * built cold into a fresh DiskStore, rebuilt from it, rendered on the
 * functional interpreter and the reference renderer; two small timed
 * jobs run with invariant checks and digest traces, snapshot mid-run
 * through a file, and resume in a fresh engine.
 */
class ColdValidate : public BenchWorkload
{
  public:
    explicit ColdValidate(const Bench &b)
    {
        const bool tiny = b.tiny();
        for (WorkloadId id : {WorkloadId::EXT, WorkloadId::RTV5,
                              WorkloadId::ACC, WorkloadId::AHA}) {
            JobSpec s;
            s.name = wl::workloadName(id);
            s.id = id;
            s.params = sceneParams(b, tiny ? 16 : 128);
            if (!tiny && (id == WorkloadId::EXT || id == WorkloadId::RTV5)) {
                const wl::WorkloadParams paper = wl::paperScaleParams(id);
                s.params.extScale = paper.extScale;
                s.params.rtv5Detail = paper.rtv5Detail;
            }
            scenes_.push_back(s);
        }
        GpuConfig checked = engineConfig(baselineGpuConfig(), 1);
        checked.checkLevel = check::CheckLevel::Basic;
        checked.digestTrace = true;
        checked.digestPeriod = kDigestPeriod;
        for (WorkloadId id : {WorkloadId::ACC, WorkloadId::AHA}) {
            Timed t;
            t.job.name = wl::workloadName(id);
            t.job.id = id;
            t.job.params = sceneParams(b, tiny ? 8 : 32);
            t.job.params.frames = id == WorkloadId::ACC ? 2 : 1;
            t.job.config = checked;
            timed_.push_back(t);
        }
    }

    void
    prepare(Bench &b) override
    {
        sceneOrder_ = jobOrder(b, scenes_.size());
        timedOrder_ = jobOrder(b, timed_.size());
        for (Timed &t : timed_) {
            wl::Workload w(t.job.id, t.job.params);
            t.ref = w.renderReferenceImage(nullptr, 1);
            // Snapshot halfway through the last frame, at half the length
            // of frame 0 (an unchecked run of it): every frame of a job
            // renders the same scene, so the cycle falls inside it.
            wl::WorkloadParams one = t.job.params;
            one.frames = 1;
            wl::Workload probe(t.job.id, one);
            GpuSimulator sim(engineConfig(t.job.config, 1), probe.launch());
            t.snapshotAt = sim.run().cycles / 2;
            t.hw = hardwareEstimate(b, t.job);
        }
    }

    void
    pass(Bench &b, int pass) override
    {
        namespace fs = std::filesystem;
        const std::string dir =
            b.opt().workdir + "/store-" + std::to_string(pass);
        fs::remove_all(dir);
        {
            service::DiskStore store(dir);
            {
                service::ArtifactCache cold;
                cold.setDiskStore(&store);
                for (std::size_t i : sceneOrder_) {
                    const JobSpec &s = scenes_[i];
                    b.step(s.name + ".build_cold", StepKind::Setup, -1, [&] {
                        Span span(b.tracer(), "service.workload_build");
                        wl::Workload w(s.id, s.params, &cold);
                    });
                }
                if (b.collectSim)
                    recordArtifactTraffic(b, cold, nullptr);
            }
            service::ArtifactCache warm;
            warm.setDiskStore(&store);
            std::vector<std::unique_ptr<wl::Workload>> built(scenes_.size());
            for (std::size_t i : sceneOrder_) {
                const JobSpec &s = scenes_[i];
                b.step(s.name + ".build_disk", StepKind::Setup, -1, [&] {
                    Span span(b.tracer(), "service.workload_build");
                    built[i] = std::make_unique<wl::Workload>(s.id, s.params,
                                                              &warm);
                });
            }
            for (std::size_t i : sceneOrder_)
                validateFunctional(b, pass, scenes_[i], built[i]);
            for (std::size_t i : timedOrder_)
                runTimed(b, pass, timed_[i], warm);
            if (b.collectSim)
                recordArtifactTraffic(b, warm, &store);
        }
        b.step("store.remove", StepKind::Other, -1, [&] {
            Span span(b.tracer(), "service.diskstore_remove");
            fs::remove_all(dir);
        });
    }

    ProbeTargets
    probeTargets(const Bench &b) const override
    {
        ProbeTargets p;
        p.scenes = scenes_;
        p.knobJob = timed_[1].job; // AHA, one frame
        p.knobJob.config = engineConfig(p.knobJob.config, 1);
        return p;
    }

  private:
    struct Timed
    {
        JobSpec job;
        Image ref;
        Cycle snapshotAt = 0;
        double hw = 0.0;
    };

    void
    validateFunctional(Bench &b, int pass, const JobSpec &s,
                       std::unique_ptr<wl::Workload> &w)
    {
        const int id = pass * 100 + static_cast<int>(s.id);
        b.attempt();
        Image img, ref;
        b.step(s.name + ".functional", StepKind::Other, id, [&] {
            Span span(b.tracer(), "vptx.functional");
            img = w->runFunctional();
        });
        b.step(s.name + ".reference", StepKind::Other, id, [&] {
            Span span(b.tracer(), "reftrace.render");
            ref = w->renderReferenceImage(nullptr, 1);
        });
        b.step(s.name + ".compare", StepKind::Other, id, [&] {
            b.checkImage(s.name + "/functional", img, ref);
            Span span(b.tracer(), "wl.release");
            w.reset();
        });
    }

    void
    runTimed(Bench &b, int pass, const Timed &t,
             service::ArtifactCache &cache)
    {
        const JobSpec &job = t.job;
        const int id = pass * 100 + 50 + static_cast<int>(job.id);
        const std::string path = b.opt().workdir + "/snapshot-"
                                 + std::to_string(pass) + ".bin";
        b.attempt();
        std::unique_ptr<wl::Workload> w, resumedWl;
        b.step(job.name + ".build", StepKind::Setup, id, [&] {
            Span span(b.tracer(), "service.workload_build");
            w = std::make_unique<wl::Workload>(job.id, job.params, &cache);
        });
        GpuConfig snap = job.config;
        snap.checkpoint.snapshotAt = t.snapshotAt;
        std::vector<RunResult> oracle;
        b.step(job.name + ".timed", StepKind::Engine, id, [&] {
            Span span(b.tracer(), "gpu.run");
            try {
                oracle = runFrames(*w, job.config, snap, job.params.frames);
            } catch (const SimError &e) {
                b.fail(job.name, std::string("SimError: ") + e.what());
            }
        });
        if (oracle.empty())
            return;
        std::uint64_t cycles = 0;
        for (const RunResult &r : oracle)
            cycles += r.cycles;
        b.setCycles(job.name + ".timed", cycles);
        const RunResult &last = oracle.back();
        if (last.snapshot == nullptr) {
            b.fail(job.name, "no snapshot taken at the requested cycle");
            return;
        }
        auto restored = std::make_shared<EngineSnapshot>();
        b.step(job.name + ".snapshot_write", StepKind::Other, id, [&] {
            Span span(b.tracer(), "checkpoint.write");
            writeSnapshotFile(path, *last.snapshot);
        });
        b.step(job.name + ".snapshot_read", StepKind::Other, id, [&] {
            Span span(b.tracer(), "checkpoint.read");
            *restored = readSnapshotFile(path);
        });
        // A fresh workload that never ran the earlier frames: their
        // device state (accumulation buffer, frame seed) comes back only
        // through the snapshot's memory image.
        b.step(job.name + ".resume_build", StepKind::Setup, id, [&] {
            Span span(b.tracer(), "service.workload_build");
            resumedWl =
                std::make_unique<wl::Workload>(job.id, job.params, &cache);
        });
        GpuConfig resume = job.config;
        resume.checkpoint.resume = restored;
        std::optional<RunResult> resumed;
        b.step(job.name + ".resume", StepKind::Engine, id, [&] {
            Span span(b.tracer(), "gpu.run");
            try {
                resumed = GpuSimulator(resume, resumedWl->launch()).run();
            } catch (const SimError &e) {
                b.fail(job.name + "/resume",
                       std::string("SimError: ") + e.what());
            }
        });
        b.setCycles(job.name + ".resume", last.cycles - restored->cycle);
        b.step(job.name + ".validate", StepKind::Other, id, [&] {
            validateTimed(b, t, oracle, resumed, *w, *resumedWl);
            std::filesystem::remove(path);
        });
        if (b.collectSim) {
            for (const RunResult &r : oracle)
                b.sim.add(r, job.config.numSms);
            b.simCycles.push_back(static_cast<double>(cycles));
            b.hwCycles.push_back(t.hw);
        }
    }

    /**
     * Oracle image vs reference, stats digest, and the resumed last frame
     * against the uninterrupted one.
     */
    static void
    validateTimed(Bench &b, const Timed &t,
                  const std::vector<RunResult> &oracle,
                  const std::optional<RunResult> &resumed, wl::Workload &w,
                  wl::Workload &resumedWl)
    {
        const std::string &name = t.job.name;
        const Image img = w.readFramebuffer();
        b.checkImage(name, img, t.ref);
        std::string digests;
        for (const RunResult &r : oracle)
            digests += metricsDigest(b, r);
        b.checkDigest(name, oracle.size() == 1 ? digests : fnv1aHex(digests));
        if (!resumed)
            return;
        const RunResult &last = oracle.back();
        if (resumed->cycles != last.cycles
            || metricsDigest(b, *resumed) != metricsDigest(b, last))
            b.fail(name + "/resume",
                   "stats differ from the uninterrupted run");
        if (last.digests.firstDivergence(resumed->digests).diverged)
            b.fail(name + "/resume", "digest trace diverges");
        if (resumedWl.readFramebuffer().data() != img.data())
            b.fail(name + "/resume",
                   "image differs from the uninterrupted run");
    }

    std::vector<JobSpec> scenes_;
    std::vector<Timed> timed_;
    std::vector<std::size_t> sceneOrder_, timedOrder_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeWorkload(const Bench &b)
{
    const std::string &name = b.opt().workload;
    if (name == "suite_serial")
        return makeSuiteSerial(b);
    if (name == "sweep_4t")
        return makeSweep4t(b);
    if (name == "cold_validate")
        return std::make_unique<ColdValidate>(b);
    return nullptr;
}

} // namespace perfbench
