#include "gpu/gpu.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "gpu/scheduler.h"
#include "util/log.h"
#include "util/simerror.h"
#include "util/threadpool.h"

namespace vksim {

namespace {

/** The first multiple of `period` at or after `c`; kNoPendingEvent when
 *  period is 0 (that sample track is off). */
Cycle
nextSampleCycle(Cycle c, Cycle period)
{
    return period ? (c + period - 1) / period * period : kNoPendingEvent;
}

/** How many of the sample cycles first, first + period, ... lie below
 *  `end`. */
std::size_t
samplesBefore(Cycle first, Cycle end, Cycle period)
{
    return first < end ? (end - 1 - first) / period + 1 : 0;
}

} // namespace

GpuConfig
baselineGpuConfig()
{
    GpuConfig cfg;
    cfg.numSms = 30;
    cfg.regsPerSm = 65536;
    cfg.l1 = CacheConfig{"l1", 64 * 1024, 0, 20, 64, 16};
    cfg.fabric.numPartitions = 6;
    cfg.fabric.l2 =
        CacheConfig{"l2", 3 * 1024 * 1024 / 6, 16, 160, 128, 16};
    cfg.fabric.dram.banks = 16;
    cfg.fabric.dramClockRatio = 3500.0 / 1365.0;
    cfg.rt.maxWarps = 8;
    return cfg;
}

GpuConfig
mobileGpuConfig()
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 8;
    cfg.regsPerSm = 32768;
    cfg.fabric.numPartitions = 2;
    cfg.fabric.l2 =
        CacheConfig{"l2", 1 * 1024 * 1024 / 2, 16, 160, 128, 16};
    cfg.fabric.dram.burstCycles = 4; // half the DRAM bandwidth
    return cfg;
}

std::vector<std::string>
GpuConfig::validate() const
{
    std::vector<std::string> problems;
    auto require = [&](bool ok, const std::string &message) {
        if (!ok)
            problems.push_back(message);
    };
    auto check_cache = [&](const CacheConfig &c, const std::string &who) {
        require(c.sizeBytes != 0,
                who + ".sizeBytes must be >= 1 (a zero-byte cache has no "
                      "lines to hit)");
        require(c.numMshrs != 0,
                who + ".numMshrs must be >= 1 (every miss needs an MSHR; "
                      "0 stalls all misses forever)");
        require(c.mshrTargets != 0,
                who + ".mshrTargets must be >= 1 (an MSHR must accept at "
                      "least its own request)");
        require(c.lineBytes >= kSectorBytes,
                who + ".lineBytes must be >= 32 (a line holds at least "
                      "one 32-byte sector)");
        require(c.lineBytes % kSectorBytes == 0,
                who + ".lineBytes must be a multiple of 32 (lines are "
                      "tiled from 32-byte sectors)");
        require((c.lineBytes & (c.lineBytes - 1)) == 0,
                who + ".lineBytes must be a power of two (set indexing "
                      "shifts by the line size)");
        require(c.lineBytes <= 32 * kSectorBytes,
                who + ".lineBytes must be <= 1024 (per-sector valid and "
                      "dirty state is a 32-bit mask)");
        require(c.lineBytes == 0 || c.sizeBytes % c.lineBytes == 0,
                who + ".sizeBytes must be a multiple of lineBytes (the "
                      "cache is a whole number of lines)");
        const Addr ways = c.assoc != 0
                              ? c.assoc
                              : c.sizeBytes / std::max(c.lineBytes, Addr(1));
        require(ways <= kMaxCacheWays,
                who + " has " + std::to_string(ways)
                    + " ways per set; the tag index addresses at most "
                    + std::to_string(kMaxCacheWays)
                    + " (lower assoc, or for a fully associative cache "
                      "raise lineBytes or lower sizeBytes)");
    };

    require(numSms != 0, "numSms must be >= 1 (0 SMs cannot run any warp)");
    require(maxWarpsPerSm != 0,
            "maxWarpsPerSm must be >= 1 (no warp could ever be admitted)");
    require(regsPerSm != 0,
            "regsPerSm must be >= 1 (the register file bounds occupancy)");
    require(issueWidth != 0,
            "issueWidth must be >= 1 (0 issues no instruction per cycle)");
    require(ldstQueueSize != 0,
            "ldstQueueSize must be >= 1 (memory instructions could never "
            "leave the pipeline)");
    require(sfuIssueInterval != 0,
            "sfuIssueInterval must be >= 1 (SFU throughput divider)");
    check_cache(l1, "l1");
    if (useRtCache)
        check_cache(rtCache, "rtCache");
    check_cache(fabric.l2, "fabric.l2");
    require(fabric.numPartitions != 0,
            "fabric.numPartitions must be >= 1 (addresses have no home "
            "L2 slice otherwise)");
    require(fabric.dram.banks != 0,
            "fabric.dram.banks must be >= 1");
    require(fabric.dram.rowBytes != 0,
            "fabric.dram.rowBytes must be >= 1");
    require(fabric.dram.burstCycles != 0,
            "fabric.dram.burstCycles must be >= 1 (a transfer must occupy "
            "the data bus)");
    require(fabric.dram.queueSize != 0,
            "fabric.dram.queueSize must be >= 1 (the channel could never "
            "accept a request)");
    require(fabric.dramClockRatio > 0.0,
            "fabric.dramClockRatio must be > 0 (DRAM would never tick)");
    require(fabric.dram.bankGroups == 0
                || fabric.dram.banks % fabric.dram.bankGroups == 0,
            "fabric.dram.bankGroups must divide banks (groups are "
            "bank % bankGroups, so ragged groups would be lopsided)");
    require(fabric.dram.tCcdL == 0 || fabric.dram.bankGroups != 0,
            "fabric.dram.tCcdL needs bankGroups >= 1 (the long CCD "
            "spacing applies within a bank group)");
    require(fabric.dram.tCcdL == 0 || fabric.dram.tCcdS == 0
                || fabric.dram.tCcdL >= fabric.dram.tCcdS,
            "fabric.dram.tCcdL must be >= tCcdS (same-group "
            "column-to-column spacing cannot be shorter than "
            "cross-group)");
    require(fabric.dram.tRefi == 0 || fabric.dram.tRfc != 0,
            "fabric.dram.tRfc must be >= 1 when tRefi is set (a refresh "
            "that takes zero cycles would be unobservable)");
    require(rt.maxWarps != 0,
            "rt.maxWarps must be >= 1 (0 warps per RT unit means "
            "traverseAS never completes)");
    require(rt.memQueueSize != 0,
            "rt.memQueueSize must be >= 1 (the RT unit stages node "
            "fetches through the Memory Access Queue)");
    require(rt.issuePerCycle != 0,
            "rt.issuePerCycle must be >= 1 (queued RT fetches would "
            "never reach the cache)");
    require(rt.opsPerCycle != 0,
            "rt.opsPerCycle must be >= 1 (the Response FIFO would never "
            "drain)");
    require(rt.shortStackEntries != 0,
            "rt.shortStackEntries must be >= 1 (traversal needs at least "
            "one short-stack slot)");
    require(epochCycles != 0,
            "epochCycles must be >= 1 (1 = a barrier every cycle; the "
            "engine clamps larger values to the fabric response-latency "
            "skew bound)");
    require(coreClockMhz > 0.0, "coreClockMhz must be > 0");
    require(maxCycles != 0,
            "maxCycles must be >= 1 (the watchdog would fire at cycle 0)");
    if (fccEnabled && its)
        problems.push_back(
            "FCC and ITS cannot be combined: the per-warp coalescing "
            "buffer assumes serialized traverses (disable one of them)");
    if (checkpoint.enabled() && timeline.enabled())
        problems.push_back(
            "checkpointing and the timeline sink cannot be combined: a "
            "resumed run cannot reconstruct the pre-snapshot timeline "
            "events, so the trace would be silently incomplete (disable "
            "one of them)");
    if (checkpoint.every != 0 && checkpoint.path.empty())
        problems.push_back(
            "checkpoint.every is set but checkpoint.path is empty: "
            "auto-snapshots need a file to land in");
    return problems;
}

double
RunResult::simtEfficiency() const
{
    double issued = static_cast<double>(metrics.get("gpu.core.issued"));
    return issued > 0 ? metrics.get("gpu.core.issue_active_lanes")
                            / (issued * kWarpSize)
                      : 0.0;
}

double
RunResult::rtSimtEfficiency() const
{
    double slots = static_cast<double>(metrics.get("gpu.rt.slot_ray_cycles"));
    return slots > 0 ? metrics.get("gpu.rt.active_ray_cycles") / slots : 0.0;
}

double
RunResult::dramUtilization() const
{
    double total = static_cast<double>(metrics.get("gpu.dram.cycles"));
    return total > 0 ? metrics.get("gpu.dram.data_bus_busy") / total : 0.0;
}

double
RunResult::dramEfficiency() const
{
    double pending =
        static_cast<double>(metrics.get("gpu.dram.cycles_with_pending"));
    return pending > 0 ? metrics.get("gpu.dram.data_bus_busy") / pending
                       : 0.0;
}

double
RunResult::rtActiveFraction() const
{
    double denom = static_cast<double>(metrics.get("gpu.rt.unit_cycles"));
    return denom > 0 ? metrics.get("gpu.rt.busy_cycles") / denom : 0.0;
}

void
RunResult::writeRunGauges()
{
    metrics.gauge("gpu.cycles").set(static_cast<double>(cycles));
    metrics.gauge("gpu.occupancy_samples")
        .set(static_cast<double>(occupancyTrace.size()));
    metrics.gauge("gpu.derived.simt_efficiency").set(simtEfficiency());
    metrics.gauge("gpu.derived.rt_simt_efficiency").set(rtSimtEfficiency());
    metrics.gauge("gpu.derived.dram_utilization").set(dramUtilization());
    metrics.gauge("gpu.derived.dram_efficiency").set(dramEfficiency());
    metrics.gauge("gpu.derived.rt_active_fraction").set(rtActiveFraction());
}

// --- GpuSimulator -----------------------------------------------------------

GpuSimulator::GpuSimulator(const GpuConfig &config,
                           const vptx::LaunchContext &ctx)
    : config_(config), ctx_(ctx)
{
}

RunResult
GpuSimulator::run()
{
    const auto host_start = std::chrono::steady_clock::now();

    RunResult result;

    MemFabric fabric(config_.fabric, config_.numSms);
    std::vector<std::unique_ptr<SmCore>> sms;
    for (unsigned s = 0; s < config_.numSms; ++s)
        sms.push_back(std::make_unique<SmCore>(s, config_, ctx_, &fabric));

    // Timeline sink: one single-writer shard per SM plus one for the
    // shared fabric (written only at the cycle barrier), merged in shard
    // order at the end — deterministic for any thread count.
    std::unique_ptr<Timeline> timeline;
    if (config_.timeline.enabled()) {
        timeline = std::make_unique<Timeline>(config_.timeline,
                                              config_.numSms + 1);
        for (unsigned s = 0; s < config_.numSms; ++s) {
            timeline->setProcessName(s, "sm" + std::to_string(s));
            sms[s]->setTimeline(timeline->shard(s));
        }
        timeline->setProcessName(config_.numSms, "fabric");
        fabric.setTimeline(timeline->shard(config_.numSms));
    }

    // Parallel engine: SM cores cycle concurrently on a worker pool, with
    // all SM→fabric traffic staged per SM and drained in fixed SM order
    // at the cycle barrier, so results are bit-identical for any thread
    // count (DESIGN.md, "Parallel engine & determinism contract").
    // threads == 1 is the serial escape hatch.
    const unsigned threads = std::min<unsigned>(
        ThreadPool::resolveThreadCount(config_.threads),
        std::max(1u, config_.numSms));
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
    result.threadsUsed = threads;

    const std::uint32_t total_warps =
        (ctx_.totalThreads() + kWarpSize - 1) / kWarpSize;
    std::uint32_t next_warp = 0;
    unsigned rr_sm = 0;

    // Idle-skip active set (DESIGN.md, "Stepping contract"): quiescent
    // SMs sleep, wake on dispatch or response delivery, and have their
    // skipped spans replayed in bulk — bit-identical either way.
    EngineScheduler sched(sms, config_.idleSkip);

    // Self-validation and differential-harness plumbing. Invariants are
    // swept at the cycle barrier, where no SM worker is running and all
    // cross-unit bookkeeping must balance; a violation panics with its
    // path and cycle. Digests land in fixed (sample, unit) slots, so
    // they are bit-identical for any thread count.
    const check::CheckLevel level = config_.checkLevel;
    check::Reporter checker;
    const bool digests_on = config_.digestTrace;
    if (digests_on) {
        result.digests.period = std::max<Cycle>(1, config_.digestPeriod);
        result.digests.units = config_.numSms + 1;
    }
    // A unit is swept only while awake: a sleeping SM's state (hence its
    // invariants) is frozen by construction, and a fabric that just took
    // a provably event-free cycle likewise cannot have broken anything a
    // shallow sweep would catch. Deferred units are re-covered on wake
    // and by the final deep sweep. The probe instrumentation lets tests
    // observe the deferral (see GpuConfig::sweepProbeCycle).
    auto probe_unit = [&](unsigned unit, Cycle cycle) {
        if (result.sweepProbeHitCycle == ~Cycle(0)
            && unit == config_.sweepProbeUnit
            && cycle >= config_.sweepProbeCycle)
            result.sweepProbeHitCycle = cycle;
    };
    auto sweep = [&](Cycle cycle, bool deep, bool fabric_quiet) {
        checker.setCycle(cycle);
        for (unsigned s = 0; s < config_.numSms; ++s) {
            if (sched.asleep(s)) {
                ++result.sweepUnitSkips;
                continue;
            }
            sms[s]->checkInvariants(checker, cycle, deep);
            ++result.sweepUnitChecks;
            probe_unit(s, cycle);
        }
        if (fabric_quiet && !deep) {
            ++result.sweepUnitSkips;
        } else {
            fabric.checkInvariants(checker, deep);
            ++result.sweepUnitChecks;
            probe_unit(config_.numSms, cycle);
        }
    };

    // Effective epoch length (DESIGN.md, "Stepping contract"): the
    // requested epoch is clamped to the architectural skew bound — the
    // minimum fabric response latency. Both response paths (L2 hit and
    // DRAM fill) go through MemFabric::respond() with the L2 hit
    // latency added, then the interconnect latency, so a response the
    // fabric produces at cycle c becomes deliverable no earlier than
    // c + l2.latency + icntLatency. An epoch no longer than that bound
    // can never produce a response inside the span the SMs have already
    // run, which is what makes epoch stepping bit-identical to the
    // one-cycle run. Full-level checking sweeps shallow invariants at
    // every cycle, so it runs one-cycle epochs: a barrier per cycle.
    const Cycle skew_bound = std::max<Cycle>(
        1, config_.fabric.l2.latency + config_.fabric.icntLatency);
    Cycle epoch_len =
        std::min<Cycle>(std::max(1u, config_.epochCycles), skew_bound);
    if (level == check::CheckLevel::Full)
        epoch_len = 1;
    result.epochCyclesUsed = static_cast<unsigned>(epoch_len);

    // Warp dispatch: round robin over SMs with free slots. A sleeping SM
    // is woken *before* the dispatch attempt so its skipped span replays
    // against the still-frozen state.
    auto dispatch_warps = [&](Cycle cycle) {
        for (unsigned attempt = 0;
             attempt < config_.numSms && next_warp < total_warps;
             ++attempt) {
            unsigned s = (rr_sm + attempt) % config_.numSms;
            if (sched.asleep(s))
                sched.wake(s, cycle);
            if (sms[s]->tryAddWarp(next_warp, cycle)) {
                ++next_warp;
                rr_sm = s + 1;
            }
        }
    };
    auto watchdog = [&](Cycle cycle) {
        if (cycle >= config_.maxCycles)
            throw SimError(
                "GPU simulation exceeded the cycle watchdog ("
                    + std::to_string(config_.maxCycles)
                    + " cycles): the workload is runaway or the "
                      "configuration cannot drain; raise maxCycles if "
                      "the run is legitimately this long",
                cycle);
    };

    // Checkpoint plumbing (DESIGN.md, "Persistence & recovery
    // contract"). Snapshots are captured only here, at the loop top: the
    // staged SM→fabric queues are empty, the fabric
    // has cycled through now - 1, and dispatch for `now` has not run —
    // exactly the state the per-barrier digests certify. The config
    // digest covers only structural fields, so a snapshot moves freely
    // across thread counts, idle-skip settings, and epoch lengths.
    const CheckpointConfig &ckpt = config_.checkpoint;
    const std::uint64_t cfg_digest = gpuConfigDigest(config_);
    bool oneshot_pending = ckpt.snapshotAt != ~Cycle(0);
    Cycle next_auto_ckpt = ckpt.every ? ckpt.every : ~Cycle(0);
    auto capture = [&](Cycle at) {
        serial::Writer w;
        w.u64(ctx_.gmem->brk());
        const auto pages = ctx_.gmem->snapshotPages();
        w.u64(pages.size());
        for (const auto &[pg, data] : pages) {
            w.u64(pg);
            w.u64(data->size());
            w.bytes(data->data(), data->size());
        }
        w.u32(next_warp);
        w.u32(rr_sm);
        sched.saveState(w);
        for (const auto &sm : sms)
            sm->saveState(w);
        fabric.saveState(w);
        w.u64(result.occupancyTrace.size());
        for (const auto &[c, rays] : result.occupancyTrace) {
            w.u64(c);
            w.u32(rays);
        }
        auto snap = std::make_shared<EngineSnapshot>();
        snap->cycle = at;
        snap->configDigest = cfg_digest;
        snap->bytes = w.take();
        return snap;
    };
    auto maybe_snapshot = [&](Cycle at) {
        if (oneshot_pending && at >= ckpt.snapshotAt) {
            if (ckpt.exact && at != ckpt.snapshotAt)
                throw SimError(
                    "exact snapshot cycle "
                        + std::to_string(ckpt.snapshotAt)
                        + " is not an epoch barrier of this engine "
                          "(nearest barrier: cycle " + std::to_string(at)
                        + "): snapshots are only defined at barriers — "
                          "run with epochCycles=1 or drop the exact "
                          "requirement",
                    at);
            result.snapshot = capture(at);
            oneshot_pending = false;
        }
        if (ckpt.every && at >= next_auto_ckpt) {
            writeSnapshotFile(ckpt.path, *capture(at));
            next_auto_ckpt = (at / ckpt.every + 1) * ckpt.every;
        }
    };

    Cycle now = 0;
    if (ckpt.resume) {
        const EngineSnapshot &snap = *ckpt.resume;
        if (snap.configDigest != cfg_digest)
            throw SimError(
                "engine snapshot was captured under a different "
                "structural GPU configuration (config digest mismatch): "
                "restore with the same SM/cache/DRAM/RT geometry the "
                "snapshot was taken under");
        serial::Reader r(snap.bytes);
        auto malformed = [&](const std::string &what) {
            return SimError("engine snapshot is malformed: " + what
                                + " — the snapshot bytes are corrupt or "
                                  "were not written by this engine",
                            snap.cycle);
        };
        // The snapshot's page set is a superset of the freshly built
        // image (pages only materialize, never vanish), so overwriting
        // page by page reproduces the exact memory state. Every count is
        // bounded by the bytes left before anything is allocated.
        constexpr Addr kPageSize = GlobalMemory::kPageSize;
        constexpr Addr kMaxPage = ~Addr(0) >> GlobalMemory::kPageBits;
        const Addr brk = r.u64();
        const std::uint64_t num_pages = r.u64();
        if (num_pages > r.remaining() / (16 + kPageSize))
            throw malformed(std::to_string(num_pages)
                            + " memory pages cannot fit in the "
                            + std::to_string(r.remaining())
                            + " bytes left");
        std::vector<std::uint8_t> page(kPageSize);
        for (std::uint64_t i = 0; i < num_pages; ++i) {
            const Addr pg = r.u64();
            const std::uint64_t len = r.u64();
            if (pg > kMaxPage || len != kPageSize)
                throw malformed("memory page " + std::to_string(pg)
                                + " of " + std::to_string(len)
                                + " bytes is not a page of the address "
                                  "space");
            r.bytes(page.data(), page.size());
            ctx_.gmem->write(pg << GlobalMemory::kPageBits, page.data(),
                             page.size());
        }
        ctx_.gmem->setBrk(brk);
        next_warp = r.u32();
        rr_sm = r.u32();
        if (next_warp > total_warps || rr_sm >= config_.numSms)
            throw malformed("dispatch cursor (warp "
                            + std::to_string(next_warp) + " of "
                            + std::to_string(total_warps) + ", SM "
                            + std::to_string(rr_sm) + " of "
                            + std::to_string(config_.numSms)
                            + ") is out of range");
        sched.loadState(r, snap.cycle);
        for (const auto &sm : sms)
            sm->loadState(r);
        fabric.loadState(r);
        const std::uint64_t num_occ = r.u64();
        if (num_occ > r.remaining() / 12)
            throw malformed(std::to_string(num_occ)
                            + " occupancy samples cannot fit in the "
                            + std::to_string(r.remaining())
                            + " bytes left");
        result.occupancyTrace.reserve(num_occ);
        for (std::uint64_t i = 0; i < num_occ; ++i) {
            const Cycle c = r.u64();
            const unsigned rays = r.u32();
            result.occupancyTrace.emplace_back(c, rays);
        }
        if (!r.done())
            throw malformed(std::to_string(r.remaining())
                            + " trailing bytes after the engine state");
        now = snap.cycle;
        // The resumed trace's first sample is the first period multiple
        // the loop will reach; record it so start-aligned comparison
        // against an uninterrupted oracle lines up.
        if (digests_on)
            result.digests.start = ((now + result.digests.period - 1)
                                    / result.digests.period)
                                   * result.digests.period;
    }

    // --- Epoch-stepped engine ------------------------------------------
    // Workers advance each active SM through the whole span
    // [now, epoch_end) between barriers. During the span an SM touches
    // the shared fabric only to drain its own response queue — which the
    // fabric, idle between barriers, cannot grow — and stages all
    // outbound traffic per cycle. The barrier then replays the fabric
    // through the same span, injecting each cycle's staged requests in
    // ascending SM order first. The epoch clamp above guarantees no
    // replayed cycle creates a response an SM should already have
    // drained, so every epoch length reproduces the one-cycle run.
    const Cycle occ_period = config_.occupancySamplePeriod;
    const Cycle dig_period = digests_on ? result.digests.period : 0;
    const unsigned units = config_.numSms + 1;

    // parked[s]: first cycle of the span the worker did NOT execute
    // (== epoch end when the SM ran the whole span). A worker parks as
    // soon as sleepable() holds — the predicate reconcile() applies at
    // the barrier. `active` is the epoch's copy of the scheduler's
    // active set, which sleepAt() edits; every buffer here is reused
    // across barriers.
    std::vector<Cycle> parked(config_.numSms, 0);
    std::vector<unsigned> active;
    active.reserve(config_.numSms);
    std::vector<unsigned> occ_scratch;

    while (true) {
        maybe_snapshot(now);
        dispatch_warps(now);

        // Epoch span: one cycle while dispatch is in progress (the round
        // robin must observe per-cycle occupancy), the full epoch after.
        // Deep sweeps fire at kBasicSweepPeriod multiples; chop the span
        // so such a cycle is always its epoch's *last* — the one cycle at
        // which every SM's live state is barrier-synchronized.
        const Cycle e_start = now;
        Cycle epoch_end =
            e_start + (next_warp < total_warps ? 1 : epoch_len);
        if (level != check::CheckLevel::Off) {
            const Cycle p = check::kBasicSweepPeriod;
            Cycle next_sweep = ((e_start + p - 1) / p) * p;
            epoch_end = std::min(epoch_end, next_sweep + 1);
        }

        // Preallocate this epoch's digest samples (sample-major). Workers
        // fill their own SM's slots for the cycles they execute plus the
        // frozen tail after parking; sleeping SMs' columns and the fabric
        // column are filled serially at the barrier.
        const std::size_t dig_base = result.digests.values.size();
        const Cycle dig_first = nextSampleCycle(e_start, dig_period);
        const Cycle occ_first = nextSampleCycle(e_start, occ_period);
        result.digests.values.resize(
            dig_base + samplesBefore(dig_first, epoch_end, dig_period) * units);
        occ_scratch.assign(
            samplesBefore(occ_first, epoch_end, occ_period) * config_.numSms,
            0);
        auto digest_at = [&](Cycle c, unsigned unit, std::uint64_t dg) {
            if (c == config_.digestInjectCycle
                && unit == config_.digestInjectUnit)
                dg ^= 1; // fault injection: perturb only the trace
            std::size_t sample = (c - dig_first) / dig_period;
            result.digests.values[dig_base + sample * units + unit] = dg;
        };
        auto occ_at = [&](Cycle c, unsigned sm, unsigned rays) {
            std::size_t sample = (c - occ_first) / occ_period;
            occ_scratch[sample * config_.numSms + sm] = rays;
        };
        auto next_sample = [&](Cycle c) {
            return std::min(nextSampleCycle(c, dig_period),
                            nextSampleCycle(c, occ_period));
        };

        // Fork: each lane runs one SM over the span, touching only that
        // SM and its disjoint sample slots.
        active.assign(sched.active().begin(), sched.active().end());
        auto run_sm = [&](unsigned s) {
            SmCore &sm = *sms[s];
            // A sample due at t records the state after cycle t.
            auto sample = [&](Cycle t) {
                if (dig_period && t % dig_period == 0)
                    digest_at(t, s, sm.stateDigest());
                if (occ_period && t % occ_period == 0)
                    occ_at(t, s, sm.rtUnit().activeRays());
            };
            Cycle c = e_start;
            while (c < epoch_end && !sm.sleepable()) {
                sm.cycle(c);
                sample(c++);
                // Event horizon (idle-skip only): settle the cycles up to
                // the SM's next event, in pieces ending at due samples.
                const Cycle to = config_.idleSkip && !sm.sleepable()
                                     ? std::min(sm.nextEventCycle(),
                                                epoch_end)
                                     : c;
                for (Cycle from = c; c < to; from = c) {
                    c = std::min(to - 1, next_sample(c)) + 1;
                    sm.settle(from, c);
                    sample(c - 1);
                }
            }
            // parked[s] <= epoch_end: first span cycle not executed
            // because the SM went sleepable there. The sentinel
            // epoch_end + 1 means the SM ran the whole span and is NOT
            // sleepable at its end — it must block termination and stay
            // active.
            parked[s] =
                c == epoch_end && !sm.sleepable() ? epoch_end + 1 : c;
            // Frozen tail: a parked SM's architectural state (hence its
            // samples) cannot change for the rest of the span.
            for (Cycle t = next_sample(c); t < epoch_end;
                 t = next_sample(t + 1))
                sample(t);
        };
        if (pool && active.size() > 1)
            pool->parallelFor(active.size(), [&](std::size_t i) {
                run_sm(active[i]);
            });
        else
            for (unsigned s : active)
                run_sm(s);

        // Barrier: replay the fabric through the span. A cycle may take
        // the counter-only fast path only if no SM executed it and no
        // traffic lands in it.
        bool terminated = false;
        bool fabric_fast = false; // the last replayed cycle took it
        for (Cycle c = e_start; c < epoch_end; ++c) {
            bool injected = false;
            for (unsigned s : active)
                injected = sms[s]->flushStagedCycle(c) || injected;

            bool no_sm_ran = true;
            for (unsigned s : active)
                no_sm_ran = no_sm_ran && parked[s] <= c;
            fabric_fast =
                !injected && no_sm_ran && fabric.quiescentCycle(c);
            if (!fabric_fast)
                fabric.cycle(c);

            if (dig_period && c % dig_period == 0)
                digest_at(c, config_.numSms, fabric.stateDigest(c));

            watchdog(c + 1);

            // Termination, to the exact cycle: the run ends at c + 1
            // when the fabric drained and every SM is asleep or parked
            // by then. An unparked SM still had work at c + 1 (it was
            // not sleepable there).
            if (next_warp >= total_warps && fabric.idle()) {
                bool all_done = true;
                for (unsigned s : active)
                    all_done = all_done && parked[s] <= c + 1;
                if (all_done) {
                    now = c + 1;
                    terminated = true;
                    break;
                }
            }
        }
        if (!terminated)
            now = epoch_end;

        // Drop preallocated samples past the committed span (early
        // termination only), then fill the sleeping SMs' frozen columns
        // for the samples that remain.
        if (dig_period) {
            result.digests.values.resize(
                dig_base + samplesBefore(dig_first, now, dig_period) * units);
            for (unsigned s = 0; s < config_.numSms; ++s) {
                if (!sched.asleep(s))
                    continue;
                std::uint64_t dg = sched.digest(s);
                for (Cycle t = dig_first; t < now; t += dig_period)
                    digest_at(t, s, dg);
            }
        }
        if (occ_period) {
            for (Cycle t = occ_first; t < now; t += occ_period) {
                std::size_t sample = (t - occ_first) / occ_period;
                unsigned rays = 0;
                for (unsigned s = 0; s < config_.numSms; ++s)
                    rays += sched.asleep(s)
                                ? sms[s]->rtUnit().activeRays()
                                : occ_scratch[sample * config_.numSms + s];
                result.occupancyTrace.emplace_back(t, rays);
            }
        }

        for (unsigned s : active)
            sms[s]->clearStaged();

        // Mid-epoch parks become sleeps: with idle-skip on the scheduler
        // takes over the parked span (replayed at wake, counted as
        // skipped); with it off the heartbeat replay happens here and
        // the SM stays active — exactly what cycling a quiescent core
        // records.
        for (unsigned s : active) {
            if (parked[s] >= now)
                continue;
            if (sched.enabled())
                sched.sleepAt(s, parked[s]);
            else
                sms[s]->settle(parked[s], now);
        }

        // Deliverable response for a sleeping SM → wake it for the next
        // span. Unreachable under the current sleep gate (a sleepable SM
        // has no outstanding reads), but early wakes are always correct,
        // so this stays as the safety net the wake-condition contract
        // promises.
        if (sched.enabled())
            for (unsigned s = 0; s < config_.numSms; ++s)
                if (sched.asleep(s) && fabric.hasResponse(s))
                    sched.wake(s, now);

        // Invariant sweep at the last committed cycle, the only one of
        // the span at which every SM's live state is
        // barrier-synchronized: deep at kBasicSweepPeriod multiples (the
        // span was chopped to end there), and under Full shallow at
        // every other barrier — every cycle, as Full runs one-cycle
        // epochs. The fabric is skipped only when it just took the
        // provably event-free fast path with every SM asleep.
        if (level != check::CheckLevel::Off) {
            const Cycle at = now - 1;
            const bool deep = at % check::kBasicSweepPeriod == 0;
            if (level == check::CheckLevel::Full || deep)
                sweep(at, deep, fabric_fast && sched.allAsleep());
        }

        if (terminated)
            break;
        sched.reconcile(now);
    }

    // A one-shot snapshot request past the end of the run is a caller
    // error, not a silent no-op: the returned RunResult would otherwise
    // carry a null snapshot the caller has no way to distinguish from
    // "forgot to ask".
    if (oneshot_pending)
        throw SimError("snapshot cycle " + std::to_string(ckpt.snapshotAt)
                           + " was never reached at a barrier: the run "
                             "ended at cycle " + std::to_string(now)
                           + " — request a snapshot inside the run's "
                             "cycle span",
                       now);

    // Replay still-sleeping SMs to the end of the run, then the final
    // deep sweep covers the fully caught-up machine.
    sched.finish(now);
    result.smCyclesSkipped = sched.skippedSmCycles();

    // Final deep sweep: the drained machine must balance exactly.
    if (level != check::CheckLevel::Off)
        sweep(now, true, false);

    result.cycles = now;

    // Fold every per-SM shard into the registry in fixed SM order
    // (determinism: the fold order never depends on the thread count),
    // then the shared fabric, then the run gauges. Host wall-clock and
    // thread count are deliberately excluded so the dump is
    // bit-identical for every thread count.
    MetricsRegistry &m = result.metrics;
    for (auto &sm : sms) {
        m.importGroup("gpu.core", sm->stats());
        m.importGroup("gpu.rt", sm->rtStats());
        m.importGroup("gpu.l1", sm->l1().stats());
        if (sm->rtCache())
            m.importGroup("gpu.rtcache", sm->rtCache()->stats());
        m.histogram("gpu.rt.warp_latency_hist", kRtLatencyBucketWidth,
                    kRtLatencyBuckets)
            .merge(sm->rtLatency());
        result.uopDecodes += sm->uopDecodes();
        result.smCyclesSkipped += sm->horizonSkips();
    }
    m.importGroup("gpu.dram", fabric.dramStats());
    for (unsigned p = 0; p < fabric.numPartitions(); ++p)
        m.importGroup("gpu.l2", fabric.l2Stats(p));
    result.writeRunGauges();
    if (ctx_.gmem) {
        m.gauge("mem.heap_bytes")
            .set(static_cast<double>(ctx_.gmem->brk()));
        m.gauge("mem.resident_bytes")
            .set(static_cast<double>(ctx_.gmem->residentBytes()));
    }
    if (timeline) {
        m.gauge("timeline.events")
            .set(static_cast<double>(timeline->eventCount()));
        m.gauge("timeline.dropped_events")
            .set(static_cast<double>(timeline->droppedCount()));
        std::string err;
        if (!timeline->writeFile(&err))
            warnStr("timeline: " + err);
    }

    result.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - host_start)
            .count();
    if (config_.printPerfSummary)
        std::fprintf(stderr,
                     "[vksim] perf: %.3f s host, %llu sim cycles, "
                     "%.0f cycles/s, %u thread%s, %u-cycle epochs, "
                     "%llu SM-cycles skipped\n",
                     result.hostSeconds,
                     static_cast<unsigned long long>(result.cycles),
                     result.cyclesPerHostSecond(), threads,
                     threads == 1 ? "" : "s", result.epochCyclesUsed,
                     static_cast<unsigned long long>(
                         result.smCyclesSkipped));
    return result;
}

} // namespace vksim
