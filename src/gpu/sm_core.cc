#include "gpu/gpu.h"

#include <algorithm>
#include <set>

#include "util/log.h"
#include "util/simerror.h"

namespace vksim {

namespace {

/** Tag bit distinguishing RT unit requests from LDST requests. */
constexpr std::uint64_t kRtTagBit = 1ull << 63;

} // namespace

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
    issuedSlots_.reserve(config_.issueWidth);
    const vptx::MicroProgram &uops = executor_.uops();
    for (std::uint32_t pc = 0; pc < uops.size(); ++pc)
        scoreboardRegs_ =
            std::max<unsigned>(scoreboardRegs_, uops.at(pc).maxReg);
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
    // Reuse a free slot to keep indices stable for in-flight references
    // (a retired slot's scoreboard is already clear).
    unsigned index = 0;
    while (index < warps_.size() && warps_[index].warp)
        ++index;
    if (index == warps_.size()) {
        warps_.emplace_back();
        warps_.back().pendingRegs.resize(scoreboardRegs_);
    }
    WarpSlot &slot = warps_[index];
    slot.warp = std::make_unique<vptx::Warp>();
    slot.pendingLoads = 0;
    slot.warpId = warp_id;
    slot.nextSplit = 0;
    slot.dispatchedAt = now;
    vptx::initWarp(*slot.warp, warp_id, ctx_,
                   config_.its ? vptx::WarpCflow::Mode::Its
                               : vptx::WarpCflow::Mode::Stack);
    warpOrder_.insert(
        std::upper_bound(warpOrder_.begin(), warpOrder_.end(), warp_id,
                         [this](std::uint32_t id, unsigned s) {
                             return id < warps_[s].warpId;
                         }),
        index);
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
    // counter replay settle() performs.
    return idle() && writebacks_.empty() && rtUnit_.quiescent();
}

Cycle
SmCore::nextEventCycle() const
{
    if (sleepable())
        return kNoPendingEvent;
    // Work that moves every cycle. A non-empty L1 queue retries its
    // head each cycle even while the MSHRs are full.
    const Cycle next_cycle = now_ + 1;
    if (!issuedSlots_.empty() || !l1Queue_.empty())
        return next_cycle;
    Cycle next = std::min(rtUnit_.nextEventCycle(),
                          fabric_->nextResponseCycle(smId_));
    if (!tagReady_.empty())
        next = std::min(next, tagReady_.top().at);
    for (const PendingWriteback &wb : writebacks_)
        next = std::min(next, wb.at);
    if (next <= next_cycle)
        return next_cycle;
    // Any split that would issue makes the next cycle an event; one
    // that waits only on the SFU can issue once the SFU is ready.
    for (unsigned slot : warpOrder_) {
        const WarpSlot &ws = warps_[slot];
        if (ws.warp->finished())
            continue;
        const vptx::WarpCflow &cflow = ws.warp->cflow;
        for (unsigned i = 0, n = cflow.runnableCount(); i < n; ++i) {
            const vptx::MicroOp &uop =
                executor_.uops().at(cflow.split(cflow.runnableSplit(i)).pc);
            CounterSlot Slots::*stall = stallOf(ws, uop, next_cycle);
            if (stall == nullptr)
                return next_cycle;
            if (stall == &Slots::stallSfu)
                next = std::min(next, sfuReadyAt_);
        }
    }
    return next;
}

void
SmCore::settle(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    const Cycle n = to - from;
    rtStats_.counter(slots_.unitCycles).inc(n);
    stats_.counter(slots_.idleIssueCycles).inc(n);
    rtUnit_.settle(n);
    // Each cycle probes every resident warp once (GTO's greedy slot was
    // dropped by the cycle that issued nothing before the span). Probe
    // j of a warp picks runnable split (nextSplit + j) % runnable,
    // decodes it, and stalls: the state that decides the stall is
    // frozen, and the SFU stays busy past the span.
    for (unsigned slot : warpOrder_) {
        WarpSlot &ws = warps_[slot];
        const vptx::WarpCflow &cflow = ws.warp->cflow;
        const unsigned runnable = cflow.runnableCount();
        if (ws.warp->finished() || runnable == 0)
            continue;
        for (unsigned i = 0; i < runnable; ++i) {
            const unsigned first =
                (i + runnable - ws.nextSplit % runnable) % runnable;
            const Cycle probes =
                n / runnable + (first < n % runnable ? 1 : 0);
            if (probes == 0)
                continue;
            const vptx::MicroOp &uop =
                executor_.uops().at(cflow.split(cflow.runnableSplit(i)).pc);
            CounterSlot Slots::*stall = stallOf(ws, uop, from);
            vksim_assert(stall != nullptr);
            stats_.counter(slots_.*stall).inc(probes);
        }
        ws.nextSplit += static_cast<unsigned>(n);
        executor_.countFetches(n);
    }
    // A sleepable SM is parked, not cycled, under every stepping mode:
    // its now_ keeps the cycle of its last real cycle(), and the
    // scheduler counts its skipped cycles. An awake SM's span ends at
    // an event horizon.
    if (!sleepable()) {
        now_ = to - 1;
        horizonSkips_ += n;
    }
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
    loadSectors_.clear();
    storeSectors_.clear();
    for (const vptx::MemAccess &a : res.accesses) {
        Addr first = sectorAlign(a.addr);
        Addr last = sectorAlign(a.addr + a.size - 1);
        for (Addr s = first; s <= last; s += kSectorBytes) {
            auto &vec = a.write ? storeSectors_ : loadSectors_;
            if (std::find(vec.begin(), vec.end(), s) == vec.end())
                vec.push_back(s);
        }
    }
    stats_.counter(slots_.ldstSectors).inc(loadSectors_.size()
                                       + storeSectors_.size());

    if (!loadSectors_.empty()) {
        std::uint64_t op_tag = nextLdstTag_++;
        LdstOp op;
        op.slot = slot;
        op.dstReg = res.dstReg;
        op.sectorsLeft = static_cast<unsigned>(loadSectors_.size());
        ldstOps_.emplace(op_tag, op);
        if (res.dstReg >= 0)
            warps_[slot].pendingRegs.set(res.dstReg);
        ++warps_[slot].pendingLoads;
        for (Addr s : loadSectors_)
            l1Queue_.push_back({s, false, AccessOrigin::Shader, op_tag});
    } else if (res.dstReg >= 0) {
        // Address-only instruction: plain ALU-latency writeback.
        warps_[slot].pendingRegs.set(res.dstReg);
        writebacks_.push_back(
            {now + config_.aluLatency, slot, res.dstReg, false});
    }
    for (Addr s : storeSectors_)
        l1Queue_.push_back({s, true, AccessOrigin::Shader, 0});
}

CounterSlot SmCore::Slots::*
SmCore::stallOf(const WarpSlot &ws, const vptx::MicroOp &uop,
                Cycle now) const
{
    // Scoreboard: stall on pending source or destination registers.
    for (int reg : {static_cast<int>(uop.dst), static_cast<int>(uop.src0),
                    static_cast<int>(uop.src1), static_cast<int>(uop.src2)})
        if (reg >= 0 && ws.pendingRegs.test(reg))
            return &Slots::stallScoreboard;

    // Structural hazards.
    switch (uop.unit) {
      case vptx::ExecUnit::LDST:
        return l1Queue_.size() >= config_.ldstQueueSize
                   ? &Slots::stallLdstQueue
                   : nullptr;
      case vptx::ExecUnit::SFU:
        return sfuReadyAt_ > now ? &Slots::stallSfu : nullptr;
      case vptx::ExecUnit::RT:
        return rtUnit_.canAccept() ? nullptr : &Slots::stallRtFull;
      default:
        return nullptr;
    }
}

bool
SmCore::issueFromWarp(unsigned slot, Cycle now)
{
    WarpSlot &ws = warps_[slot];
    vptx::Warp &warp = *ws.warp;
    if (warp.finished())
        return false;
    const unsigned runnable = warp.cflow.runnableCount();
    if (runnable == 0)
        return false;

    // Pick a split (rotate under ITS so co-resident splits interleave).
    int split_idx =
        warp.cflow.runnableSplit(ws.nextSplit % runnable);
    ws.nextSplit++;

    // Single decode per issue attempt: scoreboard, structural-hazard
    // checks and the functional step all consume this micro-op.
    const vptx::WarpSplit &split = warp.cflow.split(split_idx);
    const vptx::MicroOp &uop = executor_.fetch(split.pc);
    if (CounterSlot Slots::*stall = stallOf(ws, uop, now)) {
        stats_.counter(slots_.*stall).inc();
        return false;
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
            ws.pendingRegs.set(res.dstReg);
            writebacks_.push_back(
                {now + config_.aluLatency, slot, res.dstReg, false});
        }
        break;
      case vptx::ExecUnit::SFU:
        sfuReadyAt_ = now + config_.sfuIssueInterval;
        if (res.dstReg >= 0) {
            ws.pendingRegs.set(res.dstReg);
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
SmCore::tryIssue(Cycle now)
{
    // Candidate order: GTO keeps the greedy warp first, then oldest
    // (lowest warp id); LRR rotates. Both walk warpOrder_ in place.
    const std::size_t n = warpOrder_.size();
    if (n == 0)
        return false;
    auto issue = [&](unsigned slot) {
        if (std::find(issuedSlots_.begin(), issuedSlots_.end(), slot)
                != issuedSlots_.end()
            || !issueFromWarp(slot, now))
            return false;
        issuedSlots_.push_back(slot);
        if (config_.sched == SchedPolicy::GTO)
            greedyWarp_ = static_cast<int>(slot);
        else
            ++rrCursor_;
        return true;
    };
    if (config_.sched == SchedPolicy::GTO) {
        const int greedy =
            greedyWarp_ >= 0
                    && static_cast<std::size_t>(greedyWarp_) < warps_.size()
                    && warps_[static_cast<std::size_t>(greedyWarp_)].warp
                ? greedyWarp_
                : -1;
        if (greedy >= 0 && issue(static_cast<unsigned>(greedy)))
            return true;
        for (unsigned slot : warpOrder_)
            if (static_cast<int>(slot) != greedy && issue(slot))
                return true;
        greedyWarp_ = -1;
        return false;
    }
    const std::size_t first = rrCursor_ % n;
    for (std::size_t i = 0; i < n; ++i)
        if (issue(warpOrder_[(first + i) % n]))
            return true;
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
    fabric_->drainResponses(smId_, now, responses_);
    for (const MemRequest &resp : responses_) {
        if (resp.write)
            continue;
        Cache &cache = (resp.origin == AccessOrigin::RtUnit && rtCache_)
                           ? *rtCache_
                           : l1_;
        cache.fill(resp.addr, now, fillTargets_);
        for (std::uint64_t tag : fillTargets_)
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
                ws.pendingRegs.reset(writebacks_[i].reg);
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
                    ws.pendingRegs.reset(op.dstReg);
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

    issuedSlots_.clear();
    for (unsigned i = 0; i < config_.issueWidth; ++i)
        if (!tryIssue(now))
            break;
    if (issuedSlots_.empty())
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
            warpOrder_.erase(std::find(warpOrder_.begin(),
                                       warpOrder_.end(),
                                       static_cast<unsigned>(s)));
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
        if (!warps_[wb.slot].pendingRegs.test(wb.reg))
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
        ws.pendingRegs.forEach([&](int reg) {
            if (!covered[s].count(reg))
                rep.report(slot_path,
                           "pending register " + std::to_string(reg)
                               + " has no in-flight writeback or load");
        });
        ws.warp->cflow.checkWellFormed(rep, slot_path + ".cflow");
    }

    // The issue order must hold exactly the resident slots, oldest first.
    std::size_t resident = 0;
    for (const WarpSlot &ws : warps_)
        resident += ws.warp ? 1 : 0;
    bool order_ok = warpOrder_.size() == resident;
    for (std::size_t i = 0; order_ok && i < warpOrder_.size(); ++i)
        order_ok = warpOrder_[i] < warps_.size()
                   && warps_[warpOrder_[i]].warp
                   && (i == 0
                       || warps_[warpOrder_[i - 1]].warpId
                              < warps_[warpOrder_[i]].warpId);
    if (!order_ok)
        rep.report(path + ".warp_order",
                   "issue order does not list the "
                       + std::to_string(resident)
                       + " resident slots by ascending warp id");

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
        ws.pendingRegs.forEach(
            [&](int reg) { d.mix(static_cast<std::uint64_t>(reg)); });
        d.mix(ws.pendingRegs.count());
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
loadWarp(serial::Reader &r, vptx::Warp &warp, const GlobalMemory &gmem,
         unsigned short_stack_entries)
{
    warp.warpId = r.u32();
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        vptx::ThreadState &t = warp.threads[lane];
        t.rf = &warp.regs;
        t.lane = static_cast<std::uint8_t>(lane);
        const auto nregs =
            static_cast<std::uint32_t>(r.count(8, "registers"));
        warp.regs.setLaneSize(lane, nregs);
        std::uint64_t *row = warp.regs.row(lane);
        for (std::uint32_t i = 0; i < nregs; ++i)
            row[i] = r.u64();
        t.windowBase = r.u32();
        t.callStack.resize(r.count(8, "call frames"));
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
    warp.fccRows.resize(r.count(8, "FCC rows"));
    for (vptx::CoalescedRow &row : warp.fccRows) {
        row.shaderId = r.i32();
        row.mask = r.u32();
        for (std::uint16_t &e : row.entryIdx)
            e = static_cast<std::uint16_t>(r.u32());
    }
    warp.pendingTraverses.clear();
    std::uint64_t num_splits = r.count(16, "parked traverses");
    for (std::uint64_t i = 0; i < num_splits; ++i) {
        int id = r.i32();
        vptx::TraverseState &st = warp.pendingTraverses[id];
        const vptx::Mask mask = r.u32();
        st.reset(mask);
        const std::uint64_t num_lanes = r.u64();
        if (num_lanes != kWarpSize)
            throw SimError("SM snapshot: a parked traverse of "
                           + std::to_string(num_lanes) + " lanes");
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            Addr fb = r.u64();
            if (r.b())
                st.addRay(lane, fb,
                          RayTraversal(gmem, r, short_stack_entries));
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
        w.u64(ws.pendingRegs.count());
        ws.pendingRegs.forEach([&](int reg) { w.i32(reg); });
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
    auto reject = [](const std::string &why) {
        throw SimError("SM snapshot: " + why);
    };
    auto resident = [this](std::uint32_t slot) {
        return slot < warps_.size() && warps_[slot].warp;
    };
    // A register index must fall inside the scoreboard; a load may have
    // no destination (-1).
    auto reg = [&](int index, bool none_ok, const char *what) {
        if (index < (none_ok ? -1 : 0)
            || index >= static_cast<int>(scoreboardRegs_))
            reject(std::string(what) + " register " + std::to_string(index)
                   + " outside the " + std::to_string(scoreboardRegs_)
                   + "-register window");
        return index;
    };

    // The slot vector only grows, one slot per concurrently resident warp.
    std::uint64_t num_slots = r.u64();
    if (num_slots > warpLimit_)
        reject(std::to_string(num_slots) + " warp slots, the SM holds "
               + std::to_string(warpLimit_) + " warps");
    warps_.clear();
    warps_.resize(num_slots);
    for (WarpSlot &ws : warps_) {
        ws.pendingRegs.resize(scoreboardRegs_);
        if (!r.b())
            continue;
        ws.warpId = r.u32();
        ws.pendingLoads = r.u32();
        ws.nextSplit = r.u32();
        ws.dispatchedAt = r.u64();
        std::uint64_t num_regs = r.count(4, "pending registers");
        for (std::uint64_t i = 0; i < num_regs; ++i)
            ws.pendingRegs.set(reg(r.i32(), false, "pending"));
        ws.warp = std::make_unique<vptx::Warp>();
        loadWarp(r, *ws.warp, *ctx_.gmem, config_.rt.shortStackEntries);
    }
    warpOrder_.clear();
    for (unsigned s = 0; s < warps_.size(); ++s)
        if (warps_[s].warp)
            warpOrder_.push_back(s);
    std::sort(warpOrder_.begin(), warpOrder_.end(),
              [this](unsigned a, unsigned b) {
                  return warps_[a].warpId < warps_[b].warpId;
              });
    l1Queue_.clear();
    std::uint64_t num_l1 = r.count(18, "queued L1 requests");
    for (std::uint64_t i = 0; i < num_l1; ++i) {
        L1Req q;
        q.sector = r.u64();
        q.write = r.b();
        q.origin = decodeOrigin(r.u8());
        q.tag = r.u64();
        l1Queue_.push_back(q);
    }
    ldstOps_.clear();
    std::uint64_t num_ops = r.count(20, "LDST ops");
    for (std::uint64_t i = 0; i < num_ops; ++i) {
        std::uint64_t tag = r.u64();
        LdstOp op;
        op.slot = r.u32();
        if (!resident(op.slot))
            reject("LDST op for warp slot " + std::to_string(op.slot)
                   + ", which is not resident");
        op.dstReg = reg(r.i32(), true, "LDST destination");
        op.sectorsLeft = r.u32();
        ldstOps_.emplace(tag, op);
    }
    nextLdstTag_ = r.u64();
    writebacks_.clear();
    std::uint64_t num_wb = r.count(17, "writebacks");
    for (std::uint64_t i = 0; i < num_wb; ++i) {
        PendingWriteback wb;
        wb.at = r.u64();
        wb.slot = r.u32();
        if (!resident(wb.slot))
            reject("writeback for warp slot " + std::to_string(wb.slot)
                   + ", which is not resident");
        wb.reg = reg(r.i32(), false, "writeback");
        wb.isLoad = r.b();
        writebacks_.push_back(wb);
    }
    tagReady_ = {};
    std::uint64_t num_tags = r.count(24, "tag events");
    for (std::uint64_t i = 0; i < num_tags; ++i) {
        TagEvent ev;
        ev.at = r.u64();
        ev.seq = r.u64();
        ev.tag = r.u64();
        tagReady_.push(ev);
    }
    tagSeq_ = r.u64();
    // The greedy warp may name a slot retired since (tryIssue checks);
    // the round-robin cursor is free-running (used modulo the resident
    // count), so every value of it is valid.
    greedyWarp_ = r.i32();
    if (greedyWarp_ < -1 || greedyWarp_ >= static_cast<int>(num_slots))
        reject("greedy warp slot " + std::to_string(greedyWarp_) + " of "
               + std::to_string(num_slots));
    rrCursor_ = r.u32();
    sfuReadyAt_ = r.u64();
    now_ = r.u64();
    stats_.loadState(r);
    rtStats_.loadState(r);
    rtLatency_.loadState(r);
    l1_.loadState(r);
    if (rtCache_)
        rtCache_->loadState(r);
    rtUnit_.loadState(r, [&](std::uint32_t slot) {
        if (!resident(slot))
            throw SimError("RT unit snapshot: warp slot "
                           + std::to_string(slot) + " is not resident");
        return warps_[slot].warp.get();
    });
}

} // namespace vksim
