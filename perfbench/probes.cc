/**
 * @file
 * Per-layer probes of the traced run. Each probe times calls into one
 * module's public functions from outside, on the workload's own scenes
 * (or its small knob job), repeats them and keeps the median:
 *
 *  - set-up layers: scene generation, BVH build, translation, cold and
 *    warm artifact-cache builds;
 *  - DiskStore store/load of the scenes' BVH and pipeline artifacts;
 *  - functional interpreter and reference tracer throughput;
 *  - behaviour-neutral engine knobs (threads, epoch length, idle-skip,
 *    check level, digest trace) and a snapshot/resume round trip, each
 *    of which must leave the stats digest unchanged;
 *  - the baseline L1 tag array driven with a fixed access stream.
 */

#include <filesystem>
#include <random>
#include <stdexcept>

#include "bench.h"
#include "cache/cache.h"
#include "gpu/checkpoint.h"
#include "service/artifacts.h"
#include "service/diskstore.h"
#include "service/service.h"
#include "util/simerror.h"

namespace perfbench {
namespace {

using namespace vksim;

template <typename Fn>
double
timed(Bench &b, const char *span, Fn &&fn)
{
    Clock::time_point start = Clock::now();
    {
        Span s(b.tracer(), span);
        fn();
    }
    return secondsSince(start);
}

AccelImage
mustBeCached()
{
    throw std::logic_error("BVH artifact expected in the cache");
}

/**
 * Pipeline translation of a scene's workload, from outside: a build
 * through a cache that holds the BVH but not the pipeline, less a fully
 * warm build. The pipeline depends on the shader set only, so both
 * builds use the smallest scene of the workload, keeping the
 * difference clear of scene-size noise.
 */
double
translateSeconds(Bench &b, const JobSpec &s)
{
    wl::WorkloadParams small = s.params;
    small.width = small.height = 8;
    small.extScale = 0.05f;
    small.rtv5Detail = 3;
    service::ArtifactCache cache;
    std::uint64_t key = wl::Workload(s.id, small, &cache).bvhKey();
    std::shared_ptr<const AccelImage> image = cache.bvh(key, mustBeCached);
    std::vector<double> diffs;
    for (int rep = 0; rep < 5; ++rep) {
        service::ArtifactCache bvhOnly;
        bvhOnly.bvh(key, [&] { return *image; });
        const double with_translate =
            timed(b, "service.build_translate",
                  [&] { wl::Workload built(s.id, small, &bvhOnly); });
        diffs.push_back(with_translate
                        - timed(b, "service.build_warm", [&] {
                              wl::Workload built(s.id, small, &cache);
                          }));
    }
    return median(diffs);
}

void
setupProbe(Bench &b, const std::vector<JobSpec> &scenes, int reps)
{
    std::vector<double> gen, bvh, cold, warm, xlate;
    for (int rep = 0; rep < reps; ++rep) {
        double g = 0, v = 0, c = 0, w = 0, x = 0;
        for (const JobSpec &s : scenes) {
            Scene scene;
            g += timed(b, "scene.generate",
                       [&] { scene = generateScene(s.id, s.params); });
            v += timed(b, "accel.build", [&] {
                Device device;
                device.buildAccelerationStructure(scene);
            });
            service::ArtifactCache cache;
            c += timed(b, "service.build_cold", [&] {
                wl::Workload built(s.id, s.params, &cache);
            });
            w += timed(b, "service.build_warm", [&] {
                wl::Workload built(s.id, s.params, &cache);
            });
            x += translateSeconds(b, s);
        }
        gen.push_back(g);
        bvh.push_back(v);
        cold.push_back(c);
        warm.push_back(w);
        xlate.push_back(x);
    }
    b.layer["scene.gen_s"] = median(gen);
    b.layer["accel.bvh_build_s"] = median(bvh);
    b.layer["service.build_cold_s"] = median(cold);
    b.layer["service.build_warm_s"] = median(warm);
    b.layer["xlate.translate_s"] = median(xlate);
}

void
diskStoreProbe(Bench &b, const std::vector<JobSpec> &scenes, int reps)
{
    struct Payload
    {
        std::uint64_t bvhKey, pipelineKey;
        std::vector<std::uint8_t> bvh, pipeline;
    };
    std::vector<Payload> payloads;
    for (const JobSpec &s : scenes) {
        service::ArtifactCache cache;
        wl::Workload w(s.id, s.params, &cache);
        serial::Writer bvh, pipeline;
        service::encodeAccelImage(bvh, *cache.bvh(w.bvhKey(), mustBeCached));
        service::encodePipeline(pipeline, *w.pipeline().compiled);
        payloads.push_back(
            {w.bvhKey(), w.pipelineKey(), bvh.take(), pipeline.take()});
    }
    using Kind = service::DiskStore::Kind;
    const std::string dir = b.opt().workdir + "/probe-store";
    std::vector<double> store_s, load_s;
    for (int rep = 0; rep < reps; ++rep) {
        std::filesystem::remove_all(dir);
        service::DiskStore store(dir);
        double st = 0, ld = 0;
        for (const Payload &p : payloads) {
            st += timed(b, "service.diskstore_put", [&] {
                store.put(Kind::Bvh, p.bvhKey, p.bvh);
                store.put(Kind::Pipeline, p.pipelineKey, p.pipeline);
            });
            ld += timed(b, "service.diskstore_get", [&] {
                auto bvh = store.get(Kind::Bvh, p.bvhKey);
                auto pipe = store.get(Kind::Pipeline, p.pipelineKey);
                if (!bvh || !pipe)
                    throw SimError("DiskStore lost a stored artifact");
                serial::Reader rb(*bvh), rp(*pipe);
                service::decodeAccelImage(rb);
                service::decodePipeline(rp);
            });
        }
        store_s.push_back(st);
        load_s.push_back(ld);
    }
    std::filesystem::remove_all(dir);
    b.layer["service.diskstore_store_s"] = median(store_s);
    b.layer["service.diskstore_load_s"] = median(load_s);
}

void
functionalProbe(Bench &b, const std::vector<JobSpec> &scenes, int reps)
{
    service::ArtifactCache cache;
    std::vector<double> instr_rate, ray_rate;
    for (int rep = 0; rep < reps; ++rep) {
        double instr = 0, f_s = 0, rays = 0, r_s = 0;
        for (const JobSpec &s : scenes) {
            wl::Workload w(s.id, s.params, &cache);
            StatGroup stats;
            f_s += timed(b, "vptx.functional", [&] {
                w.runFunctional(vptx::WarpCflow::Mode::Stack, &stats);
            });
            instr += static_cast<double>(stats.get("instructions"));
            TraceCounters counters;
            r_s += timed(b, "reftrace.render", [&] {
                w.renderReferenceImage(&counters, 1);
            });
            rays += static_cast<double>(counters.rays);
        }
        instr_rate.push_back(instr / f_s);
        ray_rate.push_back(rays / r_s);
    }
    b.layer["vptx.functional_instr_per_s"] = median(instr_rate);
    b.layer["reftrace.rays_per_s"] = median(ray_rate);
}

/**
 * Behaviour-neutral knob differentials on one small job. Every variant
 * must reproduce the serial run's stats digest; the time differences
 * attribute engine time to each mechanism from outside.
 */
void
knobProbe(Bench &b, const JobSpec &job, int reps)
{
    const GpuConfig base = job.config; // serial, epoch 64, idle-skip on
    std::vector<std::pair<std::string, GpuConfig>> variants;
    variants.emplace_back("serial", base);
    GpuConfig v = base;
    v.threads = 4;
    variants.emplace_back("threads4", v);
    v = base;
    v.epochCycles = 1;
    variants.emplace_back("epoch1", v);
    v = base;
    v.idleSkip = false;
    variants.emplace_back("no_idle_skip", v);
    v = base;
    v.checkLevel = check::CheckLevel::Basic;
    variants.emplace_back("check_basic", v);
    v = base;
    v.digestTrace = true;
    v.digestPeriod = kDigestPeriod;
    variants.emplace_back("digest", v);

    service::ArtifactCache cache;
    std::map<std::string, std::vector<double>> secs;
    std::vector<double> write_s, read_s, resume_s, snap_mb;
    std::string reference;
    Cycle cycles = 0;
    auto run = [&](const std::string &label, const GpuConfig &cfg,
                   wl::Workload &w, RunResult *out) {
        b.attempt();
        const double s = timed(b, "gpu.run", [&] {
            try {
                *out = service::runPreparedWorkload(w, cfg);
            } catch (const SimError &e) {
                b.fail(job.name + "/" + label,
                       std::string("SimError: ") + e.what());
            }
        });
        const std::string digest = metricsDigest(b, *out);
        if (reference.empty())
            reference = digest;
        else if (digest != reference)
            b.fail(job.name + "/" + label,
                   "stats differ from the serial engine run");
        return s;
    };
    for (int rep = 0; rep < reps; ++rep) {
        for (const auto &[label, cfg] : variants) {
            wl::Workload w(job.id, job.params, &cache);
            RunResult r;
            secs[label].push_back(run(label, cfg, w, &r));
            cycles = r.cycles;
            if (label == "serial")
                b.layer["gpu.epoch_cycles_used"] = r.epochCyclesUsed;
        }
        // Snapshot halfway, through a file, into a fresh engine.
        GpuConfig snap_cfg = base;
        snap_cfg.checkpoint.snapshotAt = cycles / 2;
        wl::Workload w(job.id, job.params, &cache);
        RunResult r;
        run("snapshot", snap_cfg, w, &r);
        if (r.snapshot == nullptr) {
            b.fail(job.name + "/snapshot", "no snapshot taken");
            continue;
        }
        const std::string path = b.opt().workdir + "/probe-snapshot.bin";
        write_s.push_back(timed(b, "checkpoint.write", [&] {
            writeSnapshotFile(path, *r.snapshot);
        }));
        snap_mb.push_back(std::filesystem::file_size(path) / 1048576.0);
        auto restored = std::make_shared<EngineSnapshot>();
        read_s.push_back(timed(b, "checkpoint.read",
                               [&] { *restored = readSnapshotFile(path); }));
        std::filesystem::remove(path);
        GpuConfig res_cfg = base;
        res_cfg.checkpoint.resume = restored;
        wl::Workload resumed(job.id, job.params, &cache);
        RunResult rr;
        resume_s.push_back(run("resume", res_cfg, resumed, &rr));
    }
    const double serial = median(secs["serial"]);
    b.layer["gpu.speedup_4t"] = serial / median(secs["threads4"]);
    b.layer["gpu.parallel_eff_4t"] = b.layer["gpu.speedup_4t"] / 4.0;
    b.layer["gpu.epoch_barrier_s"] = median(secs["epoch1"]) - serial;
    b.layer["gpu.idle_skip_saved_s"] = median(secs["no_idle_skip"]) - serial;
    b.layer["check.basic_overhead_s"] = median(secs["check_basic"]) - serial;
    b.layer["check.digest_overhead_s"] = median(secs["digest"]) - serial;
    b.layer["checkpoint.write_s"] = median(write_s);
    b.layer["checkpoint.read_s"] = median(read_s);
    b.layer["checkpoint.snapshot_mb"] = median(snap_mb);
    b.layer["checkpoint.resume_s"] = median(resume_s);
}

/**
 * Cache::access/fill on the baseline L1 geometry: a hot set that fits
 * plus a cold tail, misses filled at once (no MSHR pressure), so the
 * figure is tag-array cost per access.
 */
void
cacheProbe(Bench &b, int reps)
{
    const CacheConfig cfg = baselineGpuConfig().l1;
    const std::size_t n = b.tiny() ? 20000 : 100000;
    const Addr sectors = cfg.sizeBytes / kSectorBytes;
    std::mt19937_64 rng(b.opt().seed ^ 0x5eedca5eull);
    std::vector<Addr> stream(n);
    for (Addr &a : stream) {
        const bool hot = rng() % 100 < 85;
        a = (hot ? rng() % (sectors * 3 / 4) : rng() % (sectors * 8))
            * kSectorBytes;
    }
    std::vector<double> ns;
    for (int rep = 0; rep < reps; ++rep) {
        Cache l1(cfg);
        ns.push_back(timed(b, "cache.access", [&] {
            for (std::size_t i = 0; i < n; ++i)
                if (l1.access(stream[i], false, AccessOrigin::Shader, i, i)
                    == CacheOutcome::MissNew)
                    l1.fill(stream[i], i);
        }) * 1e9 / static_cast<double>(n));
    }
    b.layer["cache.l1_access_ns"] = median(ns);
}

} // namespace

void
runLayerProbes(Bench &b, const ProbeTargets &targets)
{
    const int reps = b.tiny() ? 1 : 3;
    setupProbe(b, targets.scenes, reps);
    diskStoreProbe(b, targets.scenes, reps);
    functionalProbe(b, targets.scenes, reps);
    knobProbe(b, targets.knobJob, reps);
    cacheProbe(b, reps);
}

} // namespace perfbench
