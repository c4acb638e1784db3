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

/** Tag bit distinguishing RT unit requests from LDST requests. */
constexpr std::uint64_t kRtTagBit = 1ull << 63;

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
            "epochCycles must be >= 1 (1 = lock-step; the engine clamps "
            "larger values to the fabric response-latency skew bound)");
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
    double issued = static_cast<double>(core.get("issued"));
    return issued > 0
               ? core.get("issue_active_lanes") / (issued * kWarpSize)
               : 0.0;
}

double
RunResult::rtSimtEfficiency() const
{
    double slots = static_cast<double>(rt.get("slot_ray_cycles"));
    return slots > 0 ? rt.get("active_ray_cycles") / slots : 0.0;
}

double
RunResult::dramUtilization() const
{
    double total = static_cast<double>(dram.get("cycles"));
    return total > 0 ? dram.get("data_bus_busy") / total : 0.0;
}

double
RunResult::dramEfficiency() const
{
    double pending = static_cast<double>(dram.get("cycles_with_pending"));
    return pending > 0 ? dram.get("data_bus_busy") / pending : 0.0;
}

double
RunResult::rtActiveFraction() const
{
    double denom = static_cast<double>(rt.get("unit_cycles"));
    return denom > 0 ? rt.get("busy_cycles") / denom : 0.0;
}

// --- SmCore ---------------------------------------------------------------

SmCore::SmCore(unsigned sm_id, const GpuConfig &config,
               const vptx::LaunchContext &ctx, MemFabric *fabric)
    : smId_(sm_id), config_(config), ctx_(ctx), fabric_(fabric),
      executor_(ctx,
                vptx::ExecOptions{config.fccEnabled,
                                  config.rt.shortStackEntries}),
      stats_("sm" + std::to_string(sm_id)), l1_(config.l1),
      rtUnit_(config.rt, &ctx, &rtStats_)
{
    if (config_.useRtCache)
        rtCache_ = std::make_unique<Cache>(config_.rtCache);
    rtUnit_.setMemPort(this);
    rtUnit_.setLatencyHistogram(&rtLatency_);

    // Per-thread register demand: the raygen window plus the largest
    // callee window (shader calls bump the register window).
    const vptx::ShaderInfo &raygen =
        ctx_.program->shaders[static_cast<std::size_t>(
            ctx_.program->raygenShader)];
    unsigned max_callee = 0;
    for (const vptx::ShaderInfo &s : ctx_.program->shaders)
        if (&s != &ctx_.program->shaders[static_cast<std::size_t>(
                ctx_.program->raygenShader)])
            max_callee = std::max<unsigned>(max_callee, s.numRegs);
    unsigned regs_per_warp =
        std::max<unsigned>(1, raygen.numRegs + max_callee) * kWarpSize;
    warpLimit_ = std::min<unsigned>(config_.maxWarpsPerSm,
                                    config_.regsPerSm / regs_per_warp);
    warpLimit_ = std::max(warpLimit_, 1u);
}

void
SmCore::setTimeline(TimelineShard *shard)
{
    timeline_ = shard;
    rtUnit_.setTimeline(shard);
}

bool
SmCore::tryAddWarp(std::uint32_t warp_id, Cycle now)
{
    unsigned resident = 0;
    for (const WarpSlot &slot : warps_)
        if (slot.warp)
            ++resident;
    if (resident >= warpLimit_)
        return false;
    WarpSlot slot;
    slot.warp = std::make_unique<vptx::Warp>();
    slot.warpId = warp_id;
    slot.dispatchedAt = now;
    vptx::initWarp(*slot.warp, warp_id, ctx_,
                   config_.its ? vptx::WarpCflow::Mode::Its
                               : vptx::WarpCflow::Mode::Stack);
    // Reuse a free slot to keep indices stable for in-flight references.
    for (WarpSlot &existing : warps_)
        if (!existing.warp) {
            existing = std::move(slot);
            return true;
        }
    warps_.push_back(std::move(slot));
    return true;
}

bool
SmCore::idle() const
{
    for (const WarpSlot &ws : warps_)
        if (ws.warp)
            return false;
    return !rtUnit_.busy() && ldstOps_.empty() && l1Queue_.empty()
           && tagReady_.empty() && stagedRequests_.empty();
}

bool
SmCore::sleepable() const
{
    // idle() plus the two residues it tolerates: in-flight ALU/SFU
    // writebacks (which retire on their own clock) and RT-unit write
    // queues. With all of these empty, cycle() provably reduces to the
    // counter replay catchUpIdleCycles() performs.
    return idle() && writebacks_.empty() && rtUnit_.quiescent();
}

void
SmCore::catchUpIdleCycles(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    // What cycle() does on a sleepable SM, n times over: the RT unit
    // heartbeat, the empty-issue counter, and any due timeline counter
    // samples (whose values are frozen while asleep).
    const Cycle n = to - from;
    rtStats_.counter(slots_.unitCycles).inc(n);
    stats_.counter(slots_.idleIssueCycles).inc(n);
    if (timeline_ && timeline_->sampleInterval() != 0) {
        const Cycle interval = timeline_->sampleInterval();
        for (Cycle t = ((from + interval - 1) / interval) * interval;
             t < to; t += interval) {
            timeline_->counter("sched.resident_warps", t,
                               residentWarps());
            timeline_->counter("l1.mshrs", t, l1_.mshrsInUse());
            if (rtCache_)
                timeline_->counter("rtcache.mshrs", t,
                                   rtCache_->mshrsInUse());
            timeline_->counter("rtunit.active_rays", t,
                               rtUnit_.activeRays());
        }
    }
}

void
SmCore::stageRequest(const MemRequest &req)
{
    // now_ is the cycle of the running cycle() call; the RT-unit port
    // callbacks land here too, so every staged request is tagged with
    // the cycle it was issued in.
    stagedRequests_.push_back(StagedRequest{now_, req});
}

void
SmCore::flushStagedRequests(Cycle now)
{
    for (const StagedRequest &sr : stagedRequests_)
        fabric_->inject(sr.req, now);
    stagedRequests_.clear();
    stagedCursor_ = 0;
}

bool
SmCore::flushStagedCycle(Cycle c)
{
    bool injected = false;
    while (stagedCursor_ < stagedRequests_.size()
           && stagedRequests_[stagedCursor_].at == c) {
        fabric_->inject(stagedRequests_[stagedCursor_].req, c);
        ++stagedCursor_;
        injected = true;
    }
    return injected;
}

void
SmCore::clearStaged()
{
    vksim_assert(stagedCursor_ == stagedRequests_.size());
    stagedRequests_.clear();
    stagedCursor_ = 0;
}

void
SmCore::scheduleTag(Cycle at, std::uint64_t tag)
{
    tagReady_.push(TagEvent{at, tagSeq_++, tag});
}

unsigned
SmCore::residentWarps() const
{
    unsigned n = 0;
    for (const WarpSlot &ws : warps_)
        if (ws.warp)
            ++n;
    return n;
}

bool
SmCore::rtIssueRead(Addr sector, std::uint64_t tag)
{
    Cache &cache = rtCache_ ? *rtCache_ : l1_;
    std::uint64_t full_tag = tag | kRtTagBit;
    // `now` approximated by the cycle recorded at the last SM cycle();
    // hit latency is added when the tag retires.
    CacheOutcome outcome =
        cache.access(sector, false, AccessOrigin::RtUnit, full_tag, now_);
    switch (outcome) {
      case CacheOutcome::Hit:
        scheduleTag(now_ + cache.config().latency, full_tag);
        return true;
      case CacheOutcome::MissNew: {
        MemRequest req;
        req.addr = sectorAlign(sector);
        req.write = false;
        req.origin = AccessOrigin::RtUnit;
        req.smId = smId_;
        stageRequest(req);
        return true;
      }
      case CacheOutcome::MissMerged:
        return true;
      case CacheOutcome::Stall:
        return false;
    }
    return false;
}

bool
SmCore::rtIssueWrite(Addr sector)
{
    Cache &cache = rtCache_ ? *rtCache_ : l1_;
    cache.access(sector, true, AccessOrigin::RtUnit, 0, now_);
    MemRequest req;
    req.addr = sectorAlign(sector);
    req.write = true;
    req.origin = AccessOrigin::RtUnit;
    req.smId = smId_;
    stageRequest(req);
    return true;
}

void
SmCore::handleMemInstr(unsigned slot, const vptx::StepResult &res,
                       Cycle now)
{
    // Coalesce lane accesses into unique 32 B sectors (separately for
    // loads and stores).
    std::vector<Addr> load_sectors;
    std::vector<Addr> store_sectors;
    for (const vptx::MemAccess &a : res.accesses) {
        Addr first = sectorAlign(a.addr);
        Addr last = sectorAlign(a.addr + a.size - 1);
        for (Addr s = first; s <= last; s += kSectorBytes) {
            auto &vec = a.write ? store_sectors : load_sectors;
            if (std::find(vec.begin(), vec.end(), s) == vec.end())
                vec.push_back(s);
        }
    }
    stats_.counter(slots_.ldstSectors).inc(load_sectors.size()
                                       + store_sectors.size());

    if (!load_sectors.empty()) {
        std::uint64_t op_tag = nextLdstTag_++;
        LdstOp op;
        op.slot = slot;
        op.dstReg = res.dstReg;
        op.sectorsLeft = static_cast<unsigned>(load_sectors.size());
        ldstOps_.emplace(op_tag, op);
        if (res.dstReg >= 0)
            warps_[slot].pendingRegs.insert(res.dstReg);
        ++warps_[slot].pendingLoads;
        for (Addr s : load_sectors)
            l1Queue_.push_back({s, false, AccessOrigin::Shader, op_tag});
    } else if (res.dstReg >= 0) {
        // Address-only instruction: plain ALU-latency writeback.
        warps_[slot].pendingRegs.insert(res.dstReg);
        writebacks_.push_back(
            {now + config_.aluLatency, slot, res.dstReg, false});
    }
    for (Addr s : store_sectors)
        l1Queue_.push_back({s, true, AccessOrigin::Shader, 0});
}

bool
SmCore::issueFromWarp(unsigned slot, Cycle now)
{
    WarpSlot &ws = warps_[slot];
    vptx::Warp &warp = *ws.warp;
    if (warp.finished() || warp.cflow.runnableCount() == 0)
        return false;

    // Pick a split (rotate under ITS so co-resident splits interleave).
    unsigned runnable = warp.cflow.runnableCount();
    int split_idx =
        warp.cflow.runnableSplit(ws.nextSplit % runnable);
    ws.nextSplit++;

    // Single decode per issue attempt: scoreboard, structural-hazard
    // checks and the functional step all consume this micro-op.
    const vptx::WarpSplit &split = warp.cflow.split(split_idx);
    const vptx::MicroOp &uop = executor_.fetch(split.pc);

    // Scoreboard: stall on pending source or destination registers.
    for (int reg : {static_cast<int>(uop.dst), static_cast<int>(uop.src0),
                    static_cast<int>(uop.src1), static_cast<int>(uop.src2)})
        if (reg >= 0 && ws.pendingRegs.count(reg)) {
            stats_.counter(slots_.stallScoreboard).inc();
            return false;
        }

    // Structural hazards.
    vptx::ExecUnit unit = uop.unit;
    switch (unit) {
      case vptx::ExecUnit::LDST:
        if (l1Queue_.size() >= config_.ldstQueueSize) {
            stats_.counter(slots_.stallLdstQueue).inc();
            return false;
        }
        break;
      case vptx::ExecUnit::SFU:
        if (sfuReadyAt_ > now) {
            stats_.counter(slots_.stallSfu).inc();
            return false;
        }
        break;
      case vptx::ExecUnit::RT:
        if (!rtUnit_.canAccept()) {
            stats_.counter(slots_.stallRtFull).inc();
            return false;
        }
        break;
      default:
        break;
    }

    // Functional execution at issue (re-using the fetched micro-op).
    vptx::StepResult res = executor_.step(warp, split_idx, uop);
    stats_.counter(slots_.issued).inc();
    stats_.counter(slots_.issueActiveLanes).inc(res.activeLanes);
    switch (res.unit) {
      case vptx::ExecUnit::ALU:
        stats_.counter(slots_.issueAlu).inc();
        break;
      case vptx::ExecUnit::SFU:
        stats_.counter(slots_.issueSfu).inc();
        break;
      case vptx::ExecUnit::LDST:
        stats_.counter(slots_.issueLdst).inc();
        break;
      case vptx::ExecUnit::RT:
        stats_.counter(slots_.issueRt).inc();
        break;
      case vptx::ExecUnit::CTRL:
        stats_.counter(slots_.issueCtrl).inc();
        break;
    }

    switch (res.unit) {
      case vptx::ExecUnit::ALU:
      case vptx::ExecUnit::CTRL:
        if (res.dstReg >= 0) {
            ws.pendingRegs.insert(res.dstReg);
            writebacks_.push_back(
                {now + config_.aluLatency, slot, res.dstReg, false});
        }
        break;
      case vptx::ExecUnit::SFU:
        sfuReadyAt_ = now + config_.sfuIssueInterval;
        if (res.dstReg >= 0) {
            ws.pendingRegs.insert(res.dstReg);
            writebacks_.push_back(
                {now + config_.sfuLatency, slot, res.dstReg, false});
        }
        break;
      case vptx::ExecUnit::LDST:
        handleMemInstr(slot, res, now);
        break;
      case vptx::ExecUnit::RT:
        vksim_assert(res.startedTraverse);
        rtUnit_.submit(&warp, res.traverseSplitId, now);
        break;
    }
    return true;
}

bool
SmCore::tryIssue(Cycle now, std::set<unsigned> &issued_slots)
{
    // Candidate order: GTO keeps the greedy warp first, then oldest
    // (lowest warp id); LRR rotates.
    std::vector<unsigned> order;
    for (unsigned i = 0; i < warps_.size(); ++i)
        if (warps_[i].warp)
            order.push_back(i);
    if (order.empty())
        return false;
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return warps_[a].warpId < warps_[b].warpId;
    });
    if (config_.sched == SchedPolicy::GTO) {
        if (greedyWarp_ >= 0) {
            auto it = std::find(order.begin(), order.end(),
                                static_cast<unsigned>(greedyWarp_));
            if (it != order.end()) {
                order.erase(it);
                order.insert(order.begin(),
                             static_cast<unsigned>(greedyWarp_));
            }
        }
    } else {
        std::rotate(order.begin(),
                    order.begin() + (rrCursor_ % order.size()),
                    order.end());
    }

    for (unsigned slot : order) {
        if (issued_slots.count(slot))
            continue;
        if (issueFromWarp(slot, now)) {
            issued_slots.insert(slot);
            if (config_.sched == SchedPolicy::GTO)
                greedyWarp_ = static_cast<int>(slot);
            else
                ++rrCursor_;
            return true;
        }
    }
    if (config_.sched == SchedPolicy::GTO)
        greedyWarp_ = -1;
    return false;
}

void
SmCore::pumpL1(Cycle now)
{
    // L1 has a handful of ports per cycle.
    constexpr unsigned kL1PortsPerCycle = 4;
    for (unsigned i = 0; i < kL1PortsPerCycle && !l1Queue_.empty(); ++i) {
        L1Req req = l1Queue_.front();
        CacheOutcome outcome =
            l1_.access(req.sector, req.write, req.origin, req.tag, now);
        bool consumed = true;
        switch (outcome) {
          case CacheOutcome::Hit:
            if (req.write) {
                MemRequest wr;
                wr.addr = req.sector;
                wr.write = true;
                wr.origin = req.origin;
                wr.smId = smId_;
                stageRequest(wr);
            } else {
                scheduleTag(now + l1_.config().latency, req.tag);
            }
            break;
          case CacheOutcome::MissNew: {
            MemRequest mr;
            mr.addr = req.sector;
            mr.write = req.write;
            mr.origin = req.origin;
            mr.smId = smId_;
            stageRequest(mr);
            break;
          }
          case CacheOutcome::MissMerged:
            break;
          case CacheOutcome::Stall:
            consumed = false;
            break;
        }
        if (!consumed)
            break;
        l1Queue_.pop_front();
    }
}

void
SmCore::drainFabric(Cycle now)
{
    for (const MemRequest &resp : fabric_->drainResponses(smId_, now)) {
        if (resp.write)
            continue;
        Cache &cache = (resp.origin == AccessOrigin::RtUnit && rtCache_)
                           ? *rtCache_
                           : l1_;
        for (std::uint64_t tag : cache.fill(resp.addr, now))
            scheduleTag(now + cache.config().latency, tag);
    }
}

void
SmCore::retireWritebacks(Cycle now)
{
    // ALU/SFU writebacks.
    for (std::size_t i = 0; i < writebacks_.size();) {
        if (writebacks_[i].at <= now) {
            WarpSlot &ws = warps_[writebacks_[i].slot];
            if (ws.warp)
                ws.pendingRegs.erase(writebacks_[i].reg);
            writebacks_[i] = writebacks_.back();
            writebacks_.pop_back();
        } else {
            ++i;
        }
    }

    // Memory tags (L1 hit latency elapsed or fill arrived): pop only the
    // due heap entries instead of re-queueing the whole deque every cycle.
    while (!tagReady_.empty() && tagReady_.top().at <= now) {
        std::uint64_t tag = tagReady_.top().tag;
        tagReady_.pop();
        if (tag & kRtTagBit) {
            rtUnit_.onResponse(tag & ~kRtTagBit, now);
            continue;
        }
        auto it = ldstOps_.find(tag);
        if (it == ldstOps_.end())
            continue;
        LdstOp &op = it->second;
        if (--op.sectorsLeft == 0) {
            WarpSlot &ws = warps_[op.slot];
            if (ws.warp) {
                if (op.dstReg >= 0)
                    ws.pendingRegs.erase(op.dstReg);
                if (ws.pendingLoads > 0)
                    --ws.pendingLoads;
            }
            ldstOps_.erase(it);
        }
    }
}

void
SmCore::cycle(Cycle now)
{
    now_ = now;
    drainFabric(now);
    retireWritebacks(now);

    rtUnit_.cycle(now);
    rtStats_.counter(slots_.unitCycles).inc();
    for (const RtUnit::Completion &done : rtUnit_.drainCompletions())
        executor_.completeTraverse(*done.warp, done.splitId);

    std::set<unsigned> issued_slots;
    for (unsigned i = 0; i < config_.issueWidth; ++i)
        if (!tryIssue(now, issued_slots))
            break;
    if (issued_slots.empty())
        stats_.counter(slots_.idleIssueCycles).inc();

    pumpL1(now);

    // Retire finished warps (slots are reused, never erased, so indices
    // held by in-flight writebacks stay valid).
    for (std::size_t s = 0; s < warps_.size(); ++s) {
        WarpSlot &ws = warps_[s];
        if (ws.warp && ws.warp->finished() && ws.pendingLoads == 0
            && !ws.warp->inRtUnit()) {
            if (timeline_)
                timeline_->complete("sched.slot" + std::to_string(s),
                                    "warp" + std::to_string(ws.warpId),
                                    ws.dispatchedAt, now);
            ws.warp.reset();
            ws.pendingRegs.clear();
            // Drop the retired warp's in-flight ALU/SFU writebacks: the
            // slot can be reused next cycle, and a stale entry would
            // release the new warp's scoreboard register early.
            writebacks_.erase(
                std::remove_if(writebacks_.begin(), writebacks_.end(),
                               [s](const PendingWriteback &wb) {
                                   return wb.slot == s;
                               }),
                writebacks_.end());
        }
    }

    // Sampled counter tracks: scheduler occupancy, L1 (+ RT cache)
    // MSHR pressure, RT-unit ray occupancy.
    if (timeline_ && timeline_->sampleDue(now)) {
        timeline_->counter("sched.resident_warps", now, residentWarps());
        timeline_->counter("l1.mshrs", now, l1_.mshrsInUse());
        if (rtCache_)
            timeline_->counter("rtcache.mshrs", now,
                               rtCache_->mshrsInUse());
        timeline_->counter("rtunit.active_rays", now,
                           rtUnit_.activeRays());
    }
}

void
SmCore::checkInvariants(check::Reporter &rep, Cycle now, bool deep) const
{
    const std::string path = "sm" + std::to_string(smId_);

    if (!stagedRequests_.empty())
        rep.report(path + ".staged",
                   std::to_string(stagedRequests_.size())
                       + " staged requests left after the barrier flush");

    // LDST ops: referential integrity and per-slot load accounting.
    std::vector<unsigned> loads(warps_.size(), 0);
    std::vector<std::set<int>> covered(warps_.size());
    for (const auto &[tag, op] : ldstOps_) {
        if (op.slot >= warps_.size() || !warps_[op.slot].warp) {
            rep.report(path + ".ldst",
                       "outstanding load targets dead warp slot "
                           + std::to_string(op.slot));
            continue;
        }
        if (op.sectorsLeft == 0)
            rep.report(path + ".ldst",
                       "outstanding load with zero sectors left");
        ++loads[op.slot];
        if (op.dstReg >= 0)
            covered[op.slot].insert(op.dstReg);
    }

    // Writebacks always target a live slot with the register still
    // pending (retire purges a dead warp's entries; a stale one would
    // release the successor warp's scoreboard early).
    for (const PendingWriteback &wb : writebacks_) {
        if (wb.slot >= warps_.size() || !warps_[wb.slot].warp) {
            rep.report(path + ".writeback",
                       "writeback targets dead warp slot "
                           + std::to_string(wb.slot));
            continue;
        }
        if (wb.at <= now)
            rep.report(path + ".writeback",
                       "writeback due at cycle " + std::to_string(wb.at)
                           + " not retired");
        if (!warps_[wb.slot].pendingRegs.count(wb.reg))
            rep.report(path + ".writeback",
                       "writeback for slot " + std::to_string(wb.slot)
                           + " register " + std::to_string(wb.reg)
                           + " which is not scoreboard-pending");
        covered[wb.slot].insert(wb.reg);
    }

    for (unsigned s = 0; s < warps_.size(); ++s) {
        const WarpSlot &ws = warps_[s];
        const std::string slot_path = path + ".slot" + std::to_string(s);
        if (!ws.warp) {
            if (!ws.pendingRegs.empty())
                rep.report(slot_path,
                           "dead slot with pending scoreboard registers");
            if (loads[s] != 0)
                rep.report(slot_path, "dead slot with outstanding loads");
            continue;
        }
        if (ws.pendingLoads != loads[s])
            rep.report(slot_path,
                       "pendingLoads=" + std::to_string(ws.pendingLoads)
                           + " but " + std::to_string(loads[s])
                           + " LDST ops are outstanding");
        // Every scoreboard-pending register needs a completion source
        // (an in-flight writeback or load), or issue stalls forever.
        for (int reg : ws.pendingRegs)
            if (!covered[s].count(reg))
                rep.report(slot_path,
                           "pending register " + std::to_string(reg)
                               + " has no in-flight writeback or load");
        ws.warp->cflow.checkWellFormed(rep, slot_path + ".cflow");
    }

    l1_.checkInvariants(rep, path + ".l1", deep);
    if (rtCache_)
        rtCache_->checkInvariants(rep, path + ".rtcache", deep);
    rtUnit_.checkInvariants(rep, path + ".rtunit", now);
}

std::uint64_t
SmCore::stateDigest() const
{
    check::Digest d;
    for (const WarpSlot &ws : warps_) {
        d.mix(ws.warp != nullptr);
        if (!ws.warp)
            continue;
        d.mix(ws.warpId);
        d.mix(ws.pendingLoads);
        d.mix(ws.nextSplit);
        d.mix(ws.dispatchedAt);
        for (int reg : ws.pendingRegs)
            d.mix(static_cast<std::uint64_t>(reg));
        d.mix(ws.pendingRegs.size());
        d.mix(ws.warp->cflow.stateDigest());
    }
    d.mix(warps_.size());
    for (const L1Req &r : l1Queue_) {
        d.mix(r.sector);
        d.mix(r.write);
        d.mix(static_cast<std::uint64_t>(r.origin));
        d.mix(r.tag);
    }
    d.mix(l1Queue_.size());
    // ldstOps_ (hash map) and writebacks_ (swap-removed vector) have
    // history-dependent iteration order: fold order-insensitively.
    std::uint64_t fold = 0;
    for (const auto &[tag, op] : ldstOps_) {
        check::Digest e;
        e.mix(tag);
        e.mix(op.slot);
        e.mix(static_cast<std::uint64_t>(op.dstReg));
        e.mix(op.sectorsLeft);
        fold ^= e.value();
    }
    d.mix(fold);
    d.mix(ldstOps_.size());
    fold = 0;
    for (const PendingWriteback &wb : writebacks_) {
        check::Digest e;
        e.mix(wb.at);
        e.mix(wb.slot);
        e.mix(static_cast<std::uint64_t>(wb.reg));
        e.mix(wb.isLoad);
        fold ^= e.value();
    }
    d.mix(fold);
    d.mix(writebacks_.size());
    // The tag heap pops in a deterministic order: drain a copy.
    auto heap = tagReady_;
    while (!heap.empty()) {
        d.mix(heap.top().at);
        d.mix(heap.top().seq);
        d.mix(heap.top().tag);
        heap.pop();
    }
    d.mix(tagSeq_);
    d.mix(nextLdstTag_);
    d.mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(greedyWarp_)));
    d.mix(rrCursor_);
    d.mix(sfuReadyAt_);
    d.mix(l1_.stateDigest());
    if (rtCache_)
        d.mix(rtCache_->stateDigest());
    d.mix(rtUnit_.stateDigest());
    return d.value();
}

namespace {

void
saveWarp(serial::Writer &w, const vptx::Warp &warp)
{
    w.u32(warp.warpId);
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        const vptx::ThreadState &t = warp.threads[lane];
        const std::uint32_t nregs = warp.regs.laneSize(lane);
        const std::uint64_t *row = warp.regs.row(lane);
        w.u64(nregs);
        for (std::uint32_t i = 0; i < nregs; ++i)
            w.u64(row[i]);
        w.u32(t.windowBase);
        w.u64(t.callStack.size());
        for (const auto &f : t.callStack) {
            w.u32(f.retPc);
            w.u32(f.savedWindow);
        }
        w.u32(t.rtDepth);
        for (int i = 0; i < 3; ++i)
            w.u32(t.launchId[i]);
        w.u32(t.tid);
        w.b(t.exited);
    }
    warp.cflow.saveState(w);
    w.u64(warp.fccRows.size());
    for (const vptx::CoalescedRow &row : warp.fccRows) {
        w.i32(row.shaderId);
        w.u32(row.mask);
        for (std::uint16_t e : row.entryIdx)
            w.u32(e);
    }
    // pendingTraverses is a hash map: write sorted by split id.
    std::vector<int> splits;
    splits.reserve(warp.pendingTraverses.size());
    for (const auto &[id, st] : warp.pendingTraverses)
        splits.push_back(id);
    std::sort(splits.begin(), splits.end());
    w.u64(splits.size());
    for (int id : splits) {
        const vptx::TraverseState &st = warp.pendingTraverses.at(id);
        w.i32(id);
        w.u32(st.mask);
        // Legacy wire format: a full-width per-lane table.
        w.u64(kWarpSize);
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            const RayTraversal *trav = st.ray(lane);
            w.u64(st.frameBase(lane));
            w.b(trav != nullptr);
            if (trav)
                trav->saveState(w);
        }
    }
}

void
loadWarp(serial::Reader &r, vptx::Warp &warp, const GlobalMemory &gmem)
{
    warp.warpId = r.u32();
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        vptx::ThreadState &t = warp.threads[lane];
        t.rf = &warp.regs;
        t.lane = static_cast<std::uint8_t>(lane);
        const auto nregs = static_cast<std::uint32_t>(r.u64());
        warp.regs.setLaneSize(lane, nregs);
        std::uint64_t *row = warp.regs.row(lane);
        for (std::uint32_t i = 0; i < nregs; ++i)
            row[i] = r.u64();
        t.windowBase = r.u32();
        t.callStack.resize(r.u64());
        for (auto &f : t.callStack) {
            f.retPc = r.u32();
            f.savedWindow = r.u32();
        }
        t.rtDepth = r.u32();
        for (int i = 0; i < 3; ++i)
            t.launchId[i] = r.u32();
        t.tid = r.u32();
        t.exited = r.b();
    }
    warp.cflow.loadState(r);
    warp.fccRows.resize(r.u64());
    for (vptx::CoalescedRow &row : warp.fccRows) {
        row.shaderId = r.i32();
        row.mask = r.u32();
        for (std::uint16_t &e : row.entryIdx)
            e = static_cast<std::uint16_t>(r.u32());
    }
    warp.pendingTraverses.clear();
    std::uint64_t num_splits = r.u64();
    for (std::uint64_t i = 0; i < num_splits; ++i) {
        int id = r.i32();
        vptx::TraverseState &st = warp.pendingTraverses[id];
        const vptx::Mask mask = r.u32();
        st.reset(mask);
        const std::uint64_t num_lanes = r.u64();
        vksim_assert(num_lanes == kWarpSize);
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            Addr fb = r.u64();
            if (r.b())
                st.addRay(lane, fb, RayTraversal(gmem, r));
            else
                st.setFrameBase(lane, fb);
        }
    }
}

} // namespace

void
SmCore::saveState(serial::Writer &w) const
{
    vksim_assert(stagedRequests_.empty());
    w.u64(warps_.size());
    for (const WarpSlot &ws : warps_) {
        w.b(ws.warp != nullptr);
        if (!ws.warp)
            continue;
        w.u32(ws.warpId);
        w.u32(ws.pendingLoads);
        w.u32(ws.nextSplit);
        w.u64(ws.dispatchedAt);
        w.u64(ws.pendingRegs.size());
        for (int reg : ws.pendingRegs)
            w.i32(reg);
        saveWarp(w, *ws.warp);
    }
    w.u64(l1Queue_.size());
    for (const L1Req &q : l1Queue_) {
        w.u64(q.sector);
        w.b(q.write);
        w.u8(static_cast<std::uint8_t>(q.origin));
        w.u64(q.tag);
    }
    // ldstOps_ is a hash map: write sorted by tag.
    std::vector<std::uint64_t> tags;
    tags.reserve(ldstOps_.size());
    for (const auto &[tag, op] : ldstOps_)
        tags.push_back(tag);
    std::sort(tags.begin(), tags.end());
    w.u64(tags.size());
    for (std::uint64_t tag : tags) {
        const LdstOp &op = ldstOps_.at(tag);
        w.u64(tag);
        w.u32(op.slot);
        w.i32(op.dstReg);
        w.u32(op.sectorsLeft);
    }
    w.u64(nextLdstTag_);
    // writebacks_ uses swap-remove, so its container order is behavior-
    // relevant (the retire scan walks it front to back): write verbatim.
    w.u64(writebacks_.size());
    for (const PendingWriteback &wb : writebacks_) {
        w.u64(wb.at);
        w.u32(wb.slot);
        w.i32(wb.reg);
        w.b(wb.isLoad);
    }
    // The tag heap pops in a deterministic order: drain a copy.
    auto heap = tagReady_;
    w.u64(heap.size());
    while (!heap.empty()) {
        w.u64(heap.top().at);
        w.u64(heap.top().seq);
        w.u64(heap.top().tag);
        heap.pop();
    }
    w.u64(tagSeq_);
    w.i32(greedyWarp_);
    w.u32(rrCursor_);
    w.u64(sfuReadyAt_);
    w.u64(now_);
    stats_.saveState(w);
    rtStats_.saveState(w);
    rtLatency_.saveState(w);
    l1_.saveState(w);
    if (rtCache_)
        rtCache_->saveState(w);
    auto slot_of = [this](const vptx::Warp *warp) -> std::uint32_t {
        for (std::uint32_t s = 0; s < warps_.size(); ++s)
            if (warps_[s].warp.get() == warp)
                return s;
        vksim_panic("RT unit holds a warp not resident in any slot");
        return 0;
    };
    rtUnit_.saveState(w, slot_of);
}

void
SmCore::loadState(serial::Reader &r)
{
    vksim_assert(stagedRequests_.empty());
    std::uint64_t num_slots = r.u64();
    warps_.clear();
    warps_.resize(num_slots);
    for (WarpSlot &ws : warps_) {
        if (!r.b())
            continue;
        ws.warpId = r.u32();
        ws.pendingLoads = r.u32();
        ws.nextSplit = r.u32();
        ws.dispatchedAt = r.u64();
        std::uint64_t num_regs = r.u64();
        for (std::uint64_t i = 0; i < num_regs; ++i)
            ws.pendingRegs.insert(r.i32());
        ws.warp = std::make_unique<vptx::Warp>();
        loadWarp(r, *ws.warp, *ctx_.gmem);
    }
    l1Queue_.clear();
    std::uint64_t num_l1 = r.u64();
    for (std::uint64_t i = 0; i < num_l1; ++i) {
        L1Req q;
        q.sector = r.u64();
        q.write = r.b();
        q.origin = decodeOrigin(r.u8());
        q.tag = r.u64();
        l1Queue_.push_back(q);
    }
    ldstOps_.clear();
    std::uint64_t num_ops = r.u64();
    for (std::uint64_t i = 0; i < num_ops; ++i) {
        std::uint64_t tag = r.u64();
        LdstOp op;
        op.slot = r.u32();
        op.dstReg = r.i32();
        op.sectorsLeft = r.u32();
        ldstOps_.emplace(tag, op);
    }
    nextLdstTag_ = r.u64();
    writebacks_.clear();
    std::uint64_t num_wb = r.u64();
    for (std::uint64_t i = 0; i < num_wb; ++i) {
        PendingWriteback wb;
        wb.at = r.u64();
        wb.slot = r.u32();
        wb.reg = r.i32();
        wb.isLoad = r.b();
        writebacks_.push_back(wb);
    }
    tagReady_ = {};
    std::uint64_t num_tags = r.u64();
    for (std::uint64_t i = 0; i < num_tags; ++i) {
        TagEvent ev;
        ev.at = r.u64();
        ev.seq = r.u64();
        ev.tag = r.u64();
        tagReady_.push(ev);
    }
    tagSeq_ = r.u64();
    greedyWarp_ = r.i32();
    rrCursor_ = r.u32();
    sfuReadyAt_ = r.u64();
    now_ = r.u64();
    stats_.loadState(r);
    rtStats_.loadState(r);
    rtLatency_.loadState(r);
    l1_.loadState(r);
    if (rtCache_)
        rtCache_->loadState(r);
    rtUnit_.loadState(r, [this](std::uint32_t slot) {
        vksim_assert(slot < warps_.size() && warps_[slot].warp);
        return warps_[slot].warp.get();
    });
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
    result.rtWarpLatency =
        Histogram(kRtLatencyBucketWidth, kRtLatencyBuckets);

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
    // path and cycle. Digests are likewise collected at the barrier so
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
    auto collect_digests = [&](Cycle cycle) {
        for (unsigned u = 0; u <= config_.numSms; ++u) {
            std::uint64_t dg = u < config_.numSms
                                   ? sched.digest(u)
                                   : fabric.stateDigest(cycle);
            if (cycle == config_.digestInjectCycle
                && u == config_.digestInjectUnit)
                dg ^= 1; // fault injection: perturb only the trace
            result.digests.values.push_back(dg);
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
    // lock-step oracle. Full-level checking sweeps shallow invariants
    // at every cycle barrier — a barrier only lock-step has.
    const Cycle skew_bound = std::max<Cycle>(
        1, config_.fabric.l2.latency + config_.fabric.icntLatency);
    Cycle epoch_len =
        std::min<Cycle>(std::max(1u, config_.epochCycles), skew_bound);
    if (level == check::CheckLevel::Full)
        epoch_len = 1;
    result.epochCyclesUsed = static_cast<unsigned>(epoch_len);

    // Warp dispatch, shared by both engines: round robin over SMs with
    // free slots. A sleeping SM is woken *before* the dispatch attempt
    // so its skipped span replays against the still-frozen state.
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
    // contract"). Snapshots are captured only here, at the loop top of
    // either engine: the staged SM→fabric queues are empty, the fabric
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
        // The snapshot's page set is a superset of the freshly built
        // image (pages only materialize, never vanish), so overwriting
        // page by page reproduces the exact memory state.
        const Addr brk = r.u64();
        const std::uint64_t num_pages = r.u64();
        std::vector<std::uint8_t> page;
        for (std::uint64_t i = 0; i < num_pages; ++i) {
            const Addr pg = r.u64();
            page.resize(r.u64());
            r.bytes(page.data(), page.size());
            ctx_.gmem->write(pg << GlobalMemory::kPageBits, page.data(),
                             page.size());
        }
        ctx_.gmem->setBrk(brk);
        next_warp = r.u32();
        rr_sm = r.u32();
        sched.loadState(r);
        for (const auto &sm : sms)
            sm->loadState(r);
        fabric.loadState(r);
        const std::uint64_t num_occ = r.u64();
        result.occupancyTrace.reserve(num_occ);
        for (std::uint64_t i = 0; i < num_occ; ++i) {
            const Cycle c = r.u64();
            const unsigned rays = r.u32();
            result.occupancyTrace.emplace_back(c, rays);
        }
        vksim_assert(r.done());
        now = snap.cycle;
        // The resumed trace's first sample is the first period multiple
        // the loop will reach; record it so start-aligned comparison
        // against an uninterrupted oracle lines up.
        if (digests_on)
            result.digests.start = ((now + result.digests.period - 1)
                                    / result.digests.period)
                                   * result.digests.period;
    }

    if (epoch_len == 1) {
        // --- Lock-step oracle: one barrier per cycle -------------------
        while (true) {
            maybe_snapshot(now);
            dispatch_warps(now);

            const std::vector<unsigned> &active = sched.active();
            if (pool && active.size() > 1)
                pool->parallelFor(active.size(), [&](std::size_t i) {
                    sms[active[i]]->cycle(now);
                });
            else
                for (unsigned s : active)
                    sms[s]->cycle(now);

            // Cycle barrier: drain staged SM traffic in fixed
            // (ascending) SM order — sleeping SMs stage nothing — then
            // advance the shared fabric. When every SM sleeps, the
            // fabric may take the counter-only fast path through a
            // provably event-free cycle.
            for (unsigned s : active)
                sms[s]->flushStagedRequests(now);

            const bool fabric_quiet =
                sched.allAsleep() && fabric.quiescentCycle(now);
            if (!fabric_quiet)
                fabric.cycle(now);

            // Deliverable response for a sleeping SM → wake it for the
            // next cycle. Unreachable under the current sleep gate
            // (sleeping SMs have no outstanding reads), but early wakes
            // are always correct, so this stays as the safety net the
            // wake-condition contract promises.
            if (sched.enabled())
                for (unsigned s = 0; s < config_.numSms; ++s)
                    if (sched.asleep(s) && fabric.hasResponse(s))
                        sched.wake(s, now + 1);

            if (level != check::CheckLevel::Off) {
                bool deep = now % check::kBasicSweepPeriod == 0;
                if (level == check::CheckLevel::Full || deep)
                    sweep(now, deep, fabric_quiet);
            }
            if (digests_on && now % result.digests.period == 0)
                collect_digests(now);

            if (config_.occupancySamplePeriod
                && now % config_.occupancySamplePeriod == 0) {
                unsigned rays = 0;
                for (auto &sm : sms)
                    rays += sm->rtUnit().activeRays();
                result.occupancyTrace.emplace_back(now, rays);
            }

            ++now;
            watchdog(now);

            if (next_warp >= total_warps) {
                bool all_idle = fabric.idle();
                for (unsigned s = 0; s < config_.numSms && all_idle; ++s)
                    all_idle = sched.asleep(s) || sms[s]->idle();
                if (all_idle)
                    break;
            }

            // Sleep transitions happen last: an SM that just went
            // quiescent has executed cycle(now); the first cycle it
            // skips is now + 1.
            sched.reconcile(now);
        }
    } else {
        // --- Epoch-stepped engine --------------------------------------
        // Workers advance each active SM through the whole span
        // [now, epoch_end) between barriers. During the span an SM
        // touches the shared fabric only to drain its own response
        // queue — which the fabric, idle between barriers, cannot grow
        // — and stages all outbound traffic per cycle. The barrier then
        // replays the fabric through the same span, injecting each
        // cycle's staged requests in ascending SM order first: the
        // exact injection sequence the lock-step barrier produces. The
        // epoch clamp above guarantees no replayed cycle creates a
        // response an SM should already have drained.
        const Cycle occ_period = config_.occupancySamplePeriod;
        const Cycle dig_period = digests_on ? result.digests.period : 0;
        const unsigned units = config_.numSms + 1;

        // parked[s]: first cycle of the span the worker did NOT execute
        // (== epoch end when the SM ran the whole span). A worker parks
        // as soon as sleepable() holds — the same predicate, at the
        // same point in the cycle stream, that reconcile() applies at a
        // lock-step barrier.
        std::vector<Cycle> parked(config_.numSms, 0);
        std::vector<unsigned> occ_scratch;

        while (true) {
            maybe_snapshot(now);
            dispatch_warps(now);

            // Epoch span: one cycle while dispatch is in progress (the
            // round robin must observe per-cycle occupancy), the full
            // epoch after. Basic-level sweeps only fire at
            // kBasicSweepPeriod multiples; chop the span so such a
            // cycle is always its epoch's *last* — the one cycle at
            // which every SM's live state is barrier-synchronized.
            const Cycle e_start = now;
            Cycle epoch_end =
                e_start + (next_warp < total_warps ? 1 : epoch_len);
            if (level == check::CheckLevel::Basic) {
                const Cycle p = check::kBasicSweepPeriod;
                Cycle next_sweep = ((e_start + p - 1) / p) * p;
                epoch_end = std::min(epoch_end, next_sweep + 1);
            }

            // Preallocate this epoch's digest samples (sample-major,
            // matching the lock-step trace layout). Workers fill their
            // own SM's slots for the cycles they execute plus the
            // frozen tail after parking; sleeping SMs' columns and the
            // fabric column are filled serially at the barrier.
            const std::size_t dig_base = result.digests.values.size();
            Cycle dig_first = 0;
            if (dig_period) {
                dig_first =
                    ((e_start + dig_period - 1) / dig_period) * dig_period;
                std::size_t count =
                    dig_first < epoch_end
                        ? (epoch_end - 1 - dig_first) / dig_period + 1
                        : 0;
                result.digests.values.resize(dig_base + count * units);
            }
            Cycle occ_first = 0;
            if (occ_period) {
                occ_first =
                    ((e_start + occ_period - 1) / occ_period) * occ_period;
                std::size_t count =
                    occ_first < epoch_end
                        ? (epoch_end - 1 - occ_first) / occ_period + 1
                        : 0;
                occ_scratch.assign(count * config_.numSms, 0);
            }
            auto digest_at = [&](Cycle c, unsigned unit, std::uint64_t dg) {
                if (c == config_.digestInjectCycle
                    && unit == config_.digestInjectUnit)
                    dg ^= 1; // fault injection: perturb only the trace
                std::size_t sample = (c - dig_first) / dig_period;
                result.digests.values[dig_base + sample * units + unit] =
                    dg;
            };
            auto occ_at = [&](Cycle c, unsigned sm, unsigned rays) {
                std::size_t sample = (c - occ_first) / occ_period;
                occ_scratch[sample * config_.numSms + sm] = rays;
            };

            // Fork: each lane runs one SM over the span, touching only
            // that SM and its disjoint sample slots.
            const std::vector<unsigned> active = sched.active();
            auto run_sm = [&](unsigned s) {
                SmCore &sm = *sms[s];
                Cycle c = e_start;
                for (; c < epoch_end && !sm.sleepable(); ++c) {
                    sm.cycle(c);
                    if (dig_period && c % dig_period == 0)
                        digest_at(c, s, sm.stateDigest());
                    if (occ_period && c % occ_period == 0)
                        occ_at(c, s, sm.rtUnit().activeRays());
                }
                // parked[s] <= epoch_end: first span cycle not executed
                // because the SM went sleepable there. The sentinel
                // epoch_end + 1 means the SM ran the whole span and is
                // NOT sleepable at its end — it must block termination
                // and stay active, exactly like an SM that lock-step's
                // reconcile() would keep awake.
                parked[s] =
                    c == epoch_end && !sm.sleepable() ? epoch_end + 1 : c;
                if (c == epoch_end)
                    return;
                // Frozen tail: a parked SM's architectural state (hence
                // its digest and ray occupancy) cannot change for the
                // rest of the span.
                if (dig_period) {
                    std::uint64_t frozen = sm.stateDigest();
                    for (Cycle t =
                             ((c + dig_period - 1) / dig_period)
                             * dig_period;
                         t < epoch_end; t += dig_period)
                        digest_at(t, s, frozen);
                }
                if (occ_period) {
                    unsigned rays = sm.rtUnit().activeRays();
                    for (Cycle t =
                             ((c + occ_period - 1) / occ_period)
                             * occ_period;
                         t < epoch_end; t += occ_period)
                        occ_at(t, s, rays);
                }
            };
            if (pool && active.size() > 1)
                pool->parallelFor(active.size(), [&](std::size_t i) {
                    run_sm(active[i]);
                });
            else
                for (unsigned s : active)
                    run_sm(s);

            // Barrier: replay the fabric through the span. A cycle may
            // take the counter-only fast path only if no SM executed it
            // and no traffic lands in it — the epoch-mode equivalent of
            // the lock-step all-asleep gate.
            bool terminated = false;
            for (Cycle c = e_start; c < epoch_end; ++c) {
                bool injected = false;
                for (unsigned s : active)
                    injected = sms[s]->flushStagedCycle(c) || injected;

                bool no_sm_ran = true;
                for (unsigned s : active)
                    no_sm_ran = no_sm_ran && parked[s] <= c;
                if (injected || !no_sm_ran || !fabric.quiescentCycle(c))
                    fabric.cycle(c);

                if (dig_period && c % dig_period == 0)
                    digest_at(c, config_.numSms, fabric.stateDigest(c));

                watchdog(c + 1);

                // Termination, to the exact lock-step cycle: the run
                // ends at c + 1 when the fabric drained and every SM is
                // asleep or parked by then. An unparked SM still had
                // work at c + 1 (it was not sleepable there), so
                // lock-step would not have stopped either.
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
            // termination only), then fill the sleeping SMs' frozen
            // columns for the samples that remain.
            if (dig_period) {
                std::size_t kept =
                    dig_first < now
                        ? (now - 1 - dig_first) / dig_period + 1
                        : 0;
                result.digests.values.resize(dig_base + kept * units);
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
                                    : occ_scratch[sample * config_.numSms
                                                  + s];
                    result.occupancyTrace.emplace_back(t, rays);
                }
            }

            for (unsigned s : active)
                sms[s]->clearStaged();

            // Mid-epoch parks become sleeps: with idle-skip on the
            // scheduler takes over the parked span (replayed at wake,
            // counted as skipped); with it off the heartbeat replay
            // happens here and the SM stays active — exactly what a
            // lock-step engine cycling a quiescent core records.
            for (unsigned s : active) {
                if (parked[s] >= now)
                    continue;
                if (sched.enabled())
                    sched.sleepAt(s, parked[s]);
                else
                    sms[s]->catchUpIdleCycles(parked[s], now);
            }

            // Response-wake safety net, as in lock-step (unreachable by
            // construction: a sleepable SM has no outstanding reads).
            if (sched.enabled())
                for (unsigned s = 0; s < config_.numSms; ++s)
                    if (sched.asleep(s) && fabric.hasResponse(s))
                        sched.wake(s, now);

            // Basic-level sweep at the chopped boundary: the last
            // committed cycle is the only one of the span at which
            // every SM's live state equals its lock-step barrier state.
            if (level == check::CheckLevel::Basic
                && (now - 1) % check::kBasicSweepPeriod == 0)
                sweep(now - 1, true, false);

            if (terminated)
                break;
            sched.reconcile(now);
        }
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

    // Aggregate per-SM statistics in fixed SM order (determinism: the
    // merge order never depends on the thread count).
    auto merge = [](StatGroup &dst, const StatGroup &src) {
        for (const auto &[name, counter] : src.counters())
            dst.counter(name).inc(counter.value());
    };
    for (auto &sm : sms) {
        merge(result.core, sm->stats());
        merge(result.rt, sm->rtStats());
        result.rtWarpLatency.merge(sm->rtLatency());
        merge(result.l1, sm->l1().stats());
        if (sm->rtCache())
            merge(result.l1, sm->rtCache()->stats());
        result.uopDecodes += sm->uopDecodes();
    }
    merge(result.dram, fabric.dramStats());
    for (unsigned p = 0; p < fabric.numPartitions(); ++p)
        merge(result.l2, fabric.l2Stats(p));

    // Unified metrics registry: fold every per-SM shard in fixed SM
    // order (full fidelity — counters *and* accumulators), then the
    // shared fabric, then derived ratios. Host wall-clock and thread
    // count are deliberately excluded so the dump is bit-identical for
    // every thread count.
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
    }
    m.importGroup("gpu.dram", fabric.dramStats());
    for (unsigned p = 0; p < fabric.numPartitions(); ++p)
        m.importGroup("gpu.l2", fabric.l2Stats(p));
    m.gauge("gpu.cycles").set(static_cast<double>(now));
    m.gauge("gpu.occupancy_samples")
        .set(static_cast<double>(result.occupancyTrace.size()));
    m.gauge("gpu.derived.simt_efficiency").set(result.simtEfficiency());
    m.gauge("gpu.derived.rt_simt_efficiency")
        .set(result.rtSimtEfficiency());
    m.gauge("gpu.derived.dram_utilization").set(result.dramUtilization());
    m.gauge("gpu.derived.dram_efficiency").set(result.dramEfficiency());
    m.gauge("gpu.derived.rt_active_fraction")
        .set(result.rtActiveFraction());
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
