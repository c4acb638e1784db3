#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "check/accelcheck.h"
#include "check/diffhook.h"
#include "reftrace/tracer.h"
#include "util/log.h"

namespace vksim::service {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - start)
        .count();
}

/**
 * Fold frame `r` of a multi-frame run into `total`: cycles and
 * wall-clock add, metrics merge in frame order and the run gauges are
 * then recomputed over the whole run, occupancy samples are rebased
 * onto the accumulated timeline so the trace stays monotonic, and the
 * frame's digest samples are appended with a record of where the frame
 * begins (see RunResult::digests).
 */
void
accumulateFrame(RunResult &total, const RunResult &r)
{
    for (const auto &[cycle, occ] : r.occupancyTrace)
        total.occupancyTrace.emplace_back(total.cycles + cycle, occ);
    if (r.digests.units != 0)
        total.digests.frames.push_back(
            {total.digests.samples(), total.cycles + r.digests.start});
    total.digests.values.insert(total.digests.values.end(),
                                r.digests.values.begin(),
                                r.digests.values.end());
    total.cycles += r.cycles;
    total.metrics.merge(r.metrics);
    total.writeRunGauges();
    total.hostSeconds += r.hostSeconds;
    total.smCyclesSkipped += r.smCyclesSkipped;
    total.sweepUnitChecks += r.sweepUnitChecks;
    total.sweepUnitSkips += r.sweepUnitSkips;
    total.uopDecodes += r.uopDecodes;
    total.threadsUsed = r.threadsUsed;
    total.epochCyclesUsed = r.epochCyclesUsed;
}

/** One frame on the timed model (the pre-multi-frame run body). */
RunResult
runFrame(wl::Workload &workload, const GpuConfig &cfg)
{
    if (cfg.checkLevel == check::CheckLevel::Full) {
        // Static leg: validate the serialized BVH before simulating on
        // it (layout round-trip, child-AABB containment, leaf backrefs).
        check::Reporter rep;
        checkAccelStruct(*workload.launch().gmem, workload.accel(),
                         &workload.scene(), rep);
        // Dynamic leg: replay sampled finished rays through the CPU
        // reference tracer as the timed run completes them. The tracer
        // must mirror the pipeline's stage modes (immediate any-hit),
        // or the replay would resolve suspensions differently.
        CpuTracer tracer(workload.scene(), *workload.launch().gmem,
                         workload.accel());
        workload.configureTracer(&tracer);
        check::RefTraceDiff diff(tracer, *workload.launch().gmem, &rep);
        check::ScopedTraverseHook hook(
            [&diff](Addr frame_base, const RayTraversal &trav) {
                diff.onTraverseDone(frame_base, trav);
            });
        GpuSimulator sim(cfg, workload.launch());
        return sim.run();
    }
    GpuSimulator sim(cfg, workload.launch());
    return sim.run();
}

} // namespace

RunResult
runPreparedWorkload(wl::Workload &workload, const GpuConfig &config)
{
    GpuConfig cfg = config;
    cfg.fccEnabled = workload.params().fcc;
    cfg.rt.fccEnabled = workload.params().fcc;
    if (cfg.fccEnabled && cfg.its)
        vksim_fatal("FCC and ITS cannot be combined: the per-warp "
                    "coalescing buffer assumes serialized traverses");
    const unsigned frames = std::max(1u, workload.params().frames);
    RunResult total = runFrame(workload, cfg);
    for (unsigned f = 1; f < frames; ++f) {
        // Cross-frame state (the accumulation buffer, the rotated
        // frame seed) persists in the workload's device memory; each
        // frame is a fresh launch of the same prepared context.
        workload.beginFrame(f);
        accumulateFrame(total, runFrame(workload, cfg));
    }
    return total;
}

const JobResult &
JobTicket::get()
{
    vksim_assert(state_ != nullptr);
    if (!state_->done)
        service_->flush();
    vksim_assert(state_->done);
    if (state_->failed)
        throw SimError("job '" + state_->result.name
                           + "' failed: " + state_->error,
                       state_->errorCycle);
    return state_->result;
}

JobResult
JobTicket::take()
{
    get();
    JobResult result = std::move(state_->result);
    state_.reset();
    return result;
}

SimService::SimService(const Config &config) : config_(config) {}

SimService::~SimService()
{
    // Pending jobs whose tickets were dropped without get() are simply
    // discarded; running them here could fire check hooks mid-teardown.
}

GpuConfig
SimService::validatedConfig(const GpuConfig &config, bool fcc) const
{
    GpuConfig effective = config;
    effective.fccEnabled = fcc;
    effective.rt.fccEnabled = fcc;
    std::vector<std::string> problems = effective.validate();
    if (!problems.empty()) {
        std::string message = "invalid GpuConfig:";
        for (const std::string &p : problems)
            message += "\n  - " + p;
        throw std::invalid_argument(message);
    }
    return effective;
}

JobTicket
SimService::submit(const JobSpec &spec)
{
    Job job;
    job.spec = spec;
    if (job.spec.name.empty())
        job.spec.name = "job" + std::to_string(submitted_);
    job.effective = validatedConfig(spec.config, spec.params.fcc);
    job.state = std::make_shared<JobTicket::State>();
    job.state->result.name = job.spec.name;
    job.submitIndex = submitted_;
    pending_.push_back(std::move(job));
    ++submitted_;
    return JobTicket(this, pending_.back().state);
}

JobTicket
SimService::submit(wl::Workload &workload, const GpuConfig &config,
                   const std::string &name)
{
    Job job;
    job.spec.name = name.empty() ? "job" + std::to_string(submitted_)
                                 : name;
    job.spec.workload = workload.id();
    job.spec.params = workload.params();
    job.external = &workload;
    job.effective = validatedConfig(config, workload.params().fcc);
    job.state = std::make_shared<JobTicket::State>();
    job.state->result.name = job.spec.name;
    job.submitIndex = submitted_;
    pending_.push_back(std::move(job));
    ++submitted_;
    return JobTicket(this, pending_.back().state);
}

bool
SimService::cancel(const JobTicket &ticket)
{
    if (ticket.state_ == nullptr || ticket.state_->done)
        return false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].state != ticket.state_)
            continue;
        // Park a "cancelled" failure on the ticket — get() throws it —
        // and keep the state alive like any finished job's.
        ticket.state_->failed = true;
        ticket.state_->error = "cancelled before execution";
        ticket.state_->done = true;
        completed_.push_back(pending_[i].state);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
    }
    return false;
}

std::vector<std::string>
SimService::executionOrder() const
{
    std::vector<const Job *> order;
    order.reserve(pending_.size());
    for (const Job &job : pending_)
        order.push_back(&job);
    std::stable_sort(order.begin(), order.end(),
                     [](const Job *a, const Job *b) {
                         return a->spec.priority > b->spec.priority;
                     });
    std::vector<std::string> names;
    names.reserve(order.size());
    for (const Job *job : order)
        names.push_back(job->spec.name);
    return names;
}

unsigned
SimService::threadCount() const
{
    return ThreadPool::resolveThreadCount(config_.threads);
}

void
SimService::runJob(Job &job, bool force_serial_engine)
{
    JobResult &result = job.state->result;
    GpuConfig cfg = job.effective;
    if (force_serial_engine && cfg.threads == 0)
        cfg.threads = 1; // auto: whole-job parallelism replaces SM lanes

    wl::Workload *workload = job.external;
    if (workload == nullptr) {
        auto start = std::chrono::steady_clock::now();
        result.workload = std::make_shared<wl::Workload>(
            job.spec.workload, job.spec.params, &artifacts_);
        result.buildSeconds = secondsSince(start);
        workload = result.workload.get();
        result.bvhCacheHit = workload->bvhCacheHit();
        result.pipelineCacheHit = workload->pipelineCacheHit();
    }
    // A SimError (cycle watchdog, other per-run failures) is parked on
    // the ticket instead of propagating: job bodies run on the service
    // pool, where an escaping exception would abort the whole batch.
    // JobTicket::get() rethrows it to the caller of *this* job only.
    try {
        result.run = runPreparedWorkload(*workload, cfg);
        result.image = workload->readFramebuffer();
        // The durable-queue hook: persist this job the moment it
        // finishes, not after the whole batch — a crash between two
        // jobs must not lose the first one. A hook failure (disk full)
        // fails this ticket like an engine error would.
        if (config_.onJobComplete)
            config_.onJobComplete(result);
    } catch (const SimError &e) {
        job.state->failed = true;
        job.state->error = e.what();
        job.state->errorCycle = e.cycle();
    }
    job.state->done = true;
}

void
SimService::flush()
{
    if (pending_.empty())
        return;
    std::vector<Job> batch;
    batch.swap(pending_);
    // Priority order (descending, stable): higher-priority jobs start
    // first — serially this is strict ordering, in parallel it decides
    // which jobs claim the first lanes. Results are unaffected.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Job &a, const Job &b) {
                         return a.spec.priority > b.spec.priority;
                     });

    if (batch.size() == 1) {
        // A lone job keeps its intra-run SM parallelism (threads as
        // configured), making the deprecated shims behave exactly like
        // the pre-service direct calls.
        runJob(batch.front(), /*force_serial_engine=*/false);
    } else {
        // Full-check jobs install the process-global traverse hook, so
        // they cannot overlap anything; run them after the parallel
        // wave.
        std::vector<std::size_t> parallel_jobs;
        std::vector<std::size_t> full_jobs;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch[i].effective.checkLevel == check::CheckLevel::Full)
                full_jobs.push_back(i);
            else
                parallel_jobs.push_back(i);
        }

        if (!parallel_jobs.empty()) {
            if (pool_ == nullptr)
                pool_ = std::make_unique<ThreadPool>(config_.threads);
            pool_->parallelFor(parallel_jobs.size(), [&](std::size_t i) {
                runJob(batch[parallel_jobs[i]],
                       /*force_serial_engine=*/true);
            });
        }
        for (std::size_t i : full_jobs)
            runJob(batch[i], /*force_serial_engine=*/true);
    }

    // Keep the result states alive for the service's lifetime: get()
    // hands out references, and callers may have dropped the ticket
    // (`svc.submit(...).get()` on a temporary).
    for (Job &job : batch)
        completed_.push_back(std::move(job.state));
}

SimService &
defaultService()
{
    static SimService service;
    return service;
}

} // namespace vksim::service
