#include "rtunit/rtunit.h"

#include <algorithm>

#include "util/log.h"
#include "util/simerror.h"
#include "vptx/exec.h"
#include "vptx/rt_runtime.h"
#include "vptx/rtstack.h"

namespace vksim {

void
RtUnit::LaneSink::stackSpill(unsigned bytes, bool is_write)
{
    WarpEntry &entry = unit->entries_[slot];
    entry.spillWrites += 1;
    if (is_write) {
        // Spill into the tail of the per-thread frame area.
        Addr base = entry.state->frameBase(lane);
        unit->queueWrite(base + vptx::kRtFrameBytes - kSectorBytes);
    }
    unit->stats_->counter(unit->slots_.stackSpills).inc();
}

void
RtUnit::LaneSink::intersectionWrite(unsigned bytes)
{
    WarpEntry &entry = unit->entries_[slot];
    Addr base = entry.state->frameBase(lane);
    Addr addr = vptx::deferredEntryAddr(
        base, static_cast<unsigned>(entry.deferredWrites % vptx::kMaxDeferred));
    ++entry.deferredWrites;
    unit->queueWrite(addr);
    unit->stats_->counter(unit->slots_.deferredWrites).inc();
}

RtUnit::RtUnit(const RtUnitConfig &config, const vptx::LaunchContext *ctx,
               StatGroup *stats)
    : config_(config), ctx_(ctx), stats_(stats)
{
    // The largest node (128 B TopLeaf) must fit in the queue in one
    // piece, or the all-or-nothing memory scheduler could never place it.
    vksim_assert(config_.memQueueSize
                 >= 2 * kNodeBlockSize / kSectorBytes);
    entries_.resize(config_.maxWarps);
}

bool
RtUnit::canAccept() const
{
    return liveEntries_ < config_.maxWarps;
}

unsigned
RtUnit::activeRays() const
{
    // lanesLive counts exactly the lanes neither Idle nor Done
    // (checkInvariants ties the two together).
    unsigned n = 0;
    for (const WarpEntry &e : entries_)
        if (e.valid)
            n += e.lanesLive;
    return n;
}

void
RtUnit::submit(vptx::Warp *warp, int split_id, Cycle now)
{
    vksim_assert(canAccept());
    unsigned slot = 0;
    while (entries_[slot].valid)
        ++slot;
    WarpEntry &entry = entries_[slot];
    entry = WarpEntry{};
    entry.valid = true;
    entry.warp = warp;
    entry.splitId = split_id;
    entry.state = &warp->pendingTraverses.at(split_id);
    entry.mask = entry.state->mask;
    entry.submitTime = now;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        entry.sinks[lane].unit = this;
        entry.sinks[lane].slot = slot;
        entry.sinks[lane].lane = lane;
        RayTraversal *trav = entry.state->ray(lane);
        if (!(entry.mask & (1u << lane)) || !trav)
            continue;
        trav->setSink(&entry.sinks[lane]);
        entry.lanes[lane].status = LaneStatus::Ready;
        ++entry.lanesLive;
        ++entry.lanesReady;
    }
    ++liveEntries_;
    stats_->counter(slots_.warpsSubmitted).inc();
    stats_->accum("rays_per_warp").sample(entry.lanesLive);
    if (entry.lanesLive == 0)
        startWriteback(entry, slot, now);
}

void
RtUnit::queueWrite(Addr addr)
{
    writeQueue_.push_back(sectorAlign(addr));
}

unsigned
RtUnit::latencyOf(NodeType type) const
{
    switch (type) {
      case NodeType::Internal:
        return config_.boxLatency;
      case NodeType::TriangleLeaf:
        return config_.triLatency;
      case NodeType::TopLeaf:
        return config_.transformLatency;
      case NodeType::ProceduralLeaf:
        return 1; // recorded to the intersection buffer, no compute
      default:
        return 1;
    }
}

void
RtUnit::memSchedule(Cycle now)
{
    // Warp Scheduler: greedy-then-oldest over warp-buffer slots.
    auto has_ready = [&](int slot) {
        const WarpEntry &e = entries_[static_cast<std::size_t>(slot)];
        return e.valid && e.lanesReady > 0;
    };

    int slot = -1;
    if (lastScheduled_ >= 0 && has_ready(lastScheduled_)) {
        slot = lastScheduled_;
    } else {
        // Oldest = lowest submit time among ready warps.
        Cycle best = ~Cycle(0);
        for (unsigned s = 0; s < entries_.size(); ++s) {
            if (has_ready(static_cast<int>(s))
                && entries_[s].submitTime < best) {
                best = entries_[s].submitTime;
                slot = static_cast<int>(s);
            }
        }
    }
    if (slot < 0)
        return;
    lastScheduled_ = slot;
    WarpEntry &entry = entries_[static_cast<std::size_t>(slot)];

    // Memory Scheduler: collect fetch addresses from all ready rays,
    // merge identical requests, push the unique set onto the queue.
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        LaneState &ls = entry.lanes[lane];
        if (ls.status != LaneStatus::Ready)
            continue;
        RayTraversal *trav = entry.state->ray(lane);
        Addr addr;
        unsigned size;
        if (!trav->nextFetch(&addr, &size)) {
            ls.status = LaneStatus::Done;
            --entry.lanesLive;
            --entry.lanesReady;
            continue;
        }
        ls.nodeType = trav->pendingType();
        unsigned chunks = (size + kSectorBytes - 1) / kSectorBytes;

        // All-or-nothing: a node's chunks go into the queue together or
        // not at all. Queueing a prefix and marking the lane WaitingMem
        // (the old behaviour) dropped the remaining chunks forever — the
        // lane woke up after the partial fetch, under-counting memory
        // traffic whenever the queue backed up. Plan first: how many
        // chunks need new entries (the rest merge into queued sectors)?
        auto find_queued = [&](Addr sector) -> MemQueueEntry * {
            for (MemQueueEntry &q : memQueue_)
                if (q.sector == sector)
                    return &q;
            return nullptr;
        };
        unsigned new_entries = 0;
        for (unsigned c = 0; c < chunks; ++c)
            if (!find_queued(sectorAlign(addr) + c * kSectorBytes))
                ++new_entries;
        if (memQueue_.size() + new_entries > config_.memQueueSize) {
            stats_->counter(slots_.memQueueFullStalls).inc();
            break; // queue full: this lane and the rest stay Ready
        }

        // Commit: the whole node fits.
        ls.chunksOutstanding = 0;
        for (unsigned c = 0; c < chunks; ++c) {
            Addr sector = sectorAlign(addr) + c * kSectorBytes;
            if (MemQueueEntry *q = find_queued(sector)) {
                q->targets.emplace_back(slot, lane);
                stats_->counter(slots_.memMerged).inc();
            } else {
                MemQueueEntry q2;
                q2.sector = sector;
                q2.targets.emplace_back(slot, lane);
                memQueue_.push_back(std::move(q2));
                stats_->counter(slots_.memRequests).inc();
            }
            ++ls.chunksOutstanding;
        }
        ls.status = LaneStatus::WaitingMem;
        --entry.lanesReady;
    }

    // Collection touched only this warp, so it is the only one whose
    // rays can all have finished here.
    if (!entry.inWriteback && entry.lanesLive == 0)
        startWriteback(entry, static_cast<unsigned>(slot), now);
}

void
RtUnit::onResponse(std::uint64_t tag, Cycle now)
{
    auto it = inflight_.find(tag);
    if (it == inflight_.end())
        return;
    std::vector<std::pair<unsigned, unsigned>> targets =
        std::move(it->second);
    inflight_.erase(it);
    for (auto [slot, lane] : targets)
        laneFetchDone(slot, lane, now);
}

void
RtUnit::laneFetchDone(unsigned slot, unsigned lane, Cycle now)
{
    WarpEntry &entry = entries_[slot];
    if (!entry.valid)
        return;
    LaneState &ls = entry.lanes[lane];
    if (ls.status != LaneStatus::WaitingMem || ls.chunksOutstanding == 0)
        return;
    if (--ls.chunksOutstanding == 0) {
        ls.status = LaneStatus::InFifo;
        responseFifo_.emplace_back(slot, lane);
    }
}

void
RtUnit::opSchedule(Cycle now)
{
    for (unsigned pops = 0;
         pops < config_.opsPerCycle && !responseFifo_.empty(); ++pops) {
        auto [slot, lane] = responseFifo_.front();
        responseFifo_.pop_front();
        WarpEntry &entry = entries_[slot];
        LaneState &ls = entry.lanes[lane];
        if (!entry.valid || ls.status != LaneStatus::InFifo)
            continue;
        ls.status = LaneStatus::InOp;
        ls.opDoneAt = now + latencyOf(ls.nodeType);
        opDeadline_ = std::min(opDeadline_, ls.opDoneAt);
        switch (ls.nodeType) {
          case NodeType::Internal:
            stats_->counter(slots_.opsBox).inc();
            break;
          case NodeType::TriangleLeaf:
            stats_->counter(slots_.opsTriangle).inc();
            break;
          case NodeType::TopLeaf:
            stats_->counter(slots_.opsTransform).inc();
            break;
          default:
            stats_->counter(slots_.opsOther).inc();
            break;
        }
    }
}

void
RtUnit::finishOps(Cycle now)
{
    // The full pass: retire every due operation and recompute the
    // deadline over the lanes still (or newly) in one.
    Cycle deadline = kNoPendingEvent;
    for (unsigned slot = 0; slot < entries_.size(); ++slot) {
        WarpEntry &entry = entries_[slot];
        if (!entry.valid)
            continue;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            LaneState &ls = entry.lanes[lane];
            if (ls.status != LaneStatus::InOp
                && ls.status != LaneStatus::InAnyHit)
                continue;
            if (ls.opDoneAt > now) {
                deadline = std::min(deadline, ls.opDoneAt);
                continue;
            }
            RayTraversal *trav = entry.state->ray(lane);
            if (ls.status == LaneStatus::InAnyHit) {
                // Suspension expired: apply the recorded verdict, account
                // the commit's hit-word store, and resume (or retire).
                trav->resolveAnyHit(ls.anyHitCommit);
                if (ls.anyHitCommit) {
                    queueWrite(entry.state->frameBase(lane)
                               + vptx::frame::kHitT);
                    ++anyhitCommitted_;
                    stats_->counter(slots_.anyhitCommitted).inc();
                } else {
                    ++anyhitIgnored_;
                    stats_->counter(slots_.anyhitIgnored).inc();
                }
                if (trav->done()) {
                    ls.status = LaneStatus::Done;
                    --entry.lanesLive;
                } else {
                    ls.status = LaneStatus::Ready;
                    ++entry.lanesReady;
                }
                continue;
            }
            trav->step();
            if (trav->anyHitSuspended()) {
                // Mid-traversal any-hit: run the shader functionally now
                // (one-lane mini-warp), hold the lane for the modeled
                // re-entry latency, resolve when it expires.
                vksim_assert(ctx_ != nullptr);
                vptx::AnyHitRun run = vptx::runAnyHitShader(
                    *ctx_, entry.state->frameBase(lane),
                    trav->pendingAnyHit(), trav->currentTmax());
                ls.anyHitCommit = run.commit;
                ls.status = LaneStatus::InAnyHit;
                ls.opDoneAt = now + config_.anyHitBaseLatency
                              + config_.anyHitPerInstr * run.instructions;
                deadline = std::min(deadline, ls.opDoneAt);
                ++anyhitSuspended_;
                stats_->counter(slots_.anyhitSuspended).inc();
                stats_->counter(slots_.anyhitInstructions)
                    .inc(run.instructions);
                continue;
            }
            if (trav->done()) {
                ls.status = LaneStatus::Done;
                --entry.lanesLive;
            } else {
                ls.status = LaneStatus::Ready;
                ++entry.lanesReady;
            }
        }
        if (!entry.inWriteback && entry.lanesLive == 0)
            startWriteback(entry, slot, now);
    }
    opDeadline_ = deadline;
}

void
RtUnit::startWriteback(WarpEntry &entry, unsigned slot, Cycle now)
{
    entry.inWriteback = true;
    // Hit-result stores: one sector per participating ray (paper: "on a
    // primitive hit, the results are stored in memory and read back
    // during the closest hit shader execution").
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(entry.mask & (1u << lane)))
            continue;
        Addr base = entry.state->frameBase(lane);
        entry.writebackQueue.push_back(
            sectorAlign(base + vptx::frame::kHitT));
    }
    // FCC: coalescing-buffer construction traffic (searches + inserts).
    if (config_.fccEnabled && ctx_) {
        std::vector<vptx::CoalescedRow> rows;
        vptx::rt_runtime::FccBuildCost cost =
            vptx::rt_runtime::buildCoalescingTable(*entry.state, *ctx_,
                                                   &rows);
        Addr fcc_base = ctx_->fccBase
                        + (entry.warp->warpId) * vptx::kFccBytesPerWarp;
        for (std::uint64_t i = 0; i < cost.loads + cost.stores; ++i)
            entry.writebackQueue.push_back(
                fcc_base
                + (i % vptx::kMaxFccRows) * vptx::kFccRowBytes);
        stats_->counter(slots_.fccInsertLoads).inc(cost.loads);
        stats_->counter(slots_.fccInsertStores).inc(cost.stores);
    }
}

void
RtUnit::pumpWriteback(Cycle now)
{
    for (unsigned slot = 0; slot < entries_.size(); ++slot) {
        WarpEntry &entry = entries_[slot];
        if (!entry.valid || !entry.inWriteback)
            continue;
        // Issue one writeback sector per cycle through the port.
        if (!entry.writebackQueue.empty() && port_) {
            if (port_->rtIssueWrite(entry.writebackQueue.front()))
                entry.writebackQueue.pop_front();
        } else if (!port_) {
            entry.writebackQueue.clear();
        }
        if (entry.writebackQueue.empty()) {
            // Done: hand back to the SM.
            completions_.push_back({entry.warp, entry.splitId});
            stats_->counter(slots_.warpsCompleted).inc();
            stats_->accum("warp_latency").sample(
                static_cast<double>(now - entry.submitTime));
            if (latencyHist_)
                latencyHist_->sample(
                    static_cast<double>(now - entry.submitTime));
            if (timeline_)
                timeline_->complete(
                    "rtunit.slot" + std::to_string(slot), "traverse",
                    entry.submitTime, now);
            entry.valid = false;
            --liveEntries_;
            if (lastScheduled_ == static_cast<int>(slot))
                lastScheduled_ = -1;
        }
    }
}

void
RtUnit::cycle(Cycle now)
{
    // Every step below is a no-op on a quiescent unit.
    if (quiescent())
        return;
    if (liveEntries_ > 0) {
        stats_->counter(slots_.busyCycles).inc();
        stats_->counter(slots_.activeRayCycles).inc(activeRays());
        stats_->counter(slots_.slotRayCycles).inc(liveEntries_ * kWarpSize);
        stats_->counter(slots_.occupiedWarpCycles).inc(liveEntries_);
    }

    // Between deadlines no operation can finish, and every site that
    // empties a warp's live lanes starts its writeback itself, so the
    // skipped pass would change nothing.
    if (opDeadline_ <= now)
        finishOps(now);
    opSchedule(now);
    memSchedule(now);

    // Issue memory requests: reads from the Memory Access Queue head and
    // spill/deferred writes, respecting the port's per-cycle budget.
    unsigned issued = 0;
    while (issued < config_.issuePerCycle && !memQueue_.empty()) {
        MemQueueEntry &q = memQueue_.front();
        if (config_.perfectBvh) {
            for (auto [slot, lane] : q.targets)
                laneFetchDone(slot, lane, now);
            memQueue_.pop_front();
            ++issued;
            continue;
        }
        if (!port_)
            vksim_panic("RT unit has no memory port");
        std::uint64_t tag = nextTag_++;
        if (!port_->rtIssueRead(q.sector, tag))
            break;
        inflight_.emplace(tag, std::move(q.targets));
        memQueue_.pop_front();
        ++issued;
    }
    while (issued < config_.issuePerCycle && !writeQueue_.empty()
           && port_ && !config_.perfectBvh) {
        if (!port_->rtIssueWrite(writeQueue_.front()))
            break;
        writeQueue_.pop_front();
        ++issued;
    }
    if (config_.perfectBvh)
        writeQueue_.clear();

    pumpWriteback(now);
}

Cycle
RtUnit::nextEventCycle() const
{
    if (!memQueue_.empty() || !responseFifo_.empty() || !writeQueue_.empty()
        || !completions_.empty())
        return 0;
    for (const WarpEntry &e : entries_)
        if (e.valid && (e.lanesReady > 0 || e.inWriteback))
            return 0;
    return opDeadline_;
}

void
RtUnit::settle(Cycle n)
{
    if (liveEntries_ == 0)
        return;
    stats_->counter(slots_.busyCycles).inc(n);
    stats_->counter(slots_.activeRayCycles).inc(n * activeRays());
    stats_->counter(slots_.slotRayCycles).inc(n * liveEntries_ * kWarpSize);
    stats_->counter(slots_.occupiedWarpCycles).inc(n * liveEntries_);
}

void
RtUnit::checkInvariants(check::Reporter &rep, const std::string &path,
                        Cycle now) const
{
    auto lane_path = [&](unsigned slot, unsigned lane) {
        return path + ".slot" + std::to_string(slot) + ".lane"
               + std::to_string(lane);
    };

    // Outstanding chunks per (slot, lane) across queue + in-flight reads.
    std::array<std::array<unsigned, kWarpSize>, 64> pending{};
    vksim_assert(entries_.size() <= pending.size());
    for (const MemQueueEntry &q : memQueue_)
        for (auto [slot, lane] : q.targets)
            ++pending[slot][lane];
    for (const auto &[tag, targets] : inflight_)
        for (auto [slot, lane] : targets)
            ++pending[slot][lane];

    unsigned live = 0;
    unsigned live_lanes = 0;
    std::uint64_t in_any_hit = 0;
    for (unsigned slot = 0; slot < entries_.size(); ++slot) {
        const WarpEntry &e = entries_[slot];
        if (!e.valid) {
            for (unsigned lane = 0; lane < kWarpSize; ++lane)
                if (pending[slot][lane] != 0)
                    rep.report(lane_path(slot, lane),
                               "memory traffic targets an empty warp slot");
            continue;
        }
        ++live;
        unsigned lanes_live = 0;
        unsigned lanes_ready = 0;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            const LaneState &ls = e.lanes[lane];
            if (ls.status == LaneStatus::Ready)
                ++lanes_ready;
            bool in_mask = (e.mask >> lane) & 1u;
            if (ls.status != LaneStatus::Idle && !in_mask)
                rep.report(lane_path(slot, lane),
                           "active lane outside the split's mask");
            bool counts_live = ls.status == LaneStatus::Ready
                               || ls.status == LaneStatus::WaitingMem
                               || ls.status == LaneStatus::InFifo
                               || ls.status == LaneStatus::InOp
                               || ls.status == LaneStatus::InAnyHit;
            if (counts_live)
                ++lanes_live;
            bool waiting = ls.status == LaneStatus::WaitingMem;
            if (waiting != (ls.chunksOutstanding > 0))
                rep.report(lane_path(slot, lane),
                           "chunksOutstanding="
                               + std::to_string(ls.chunksOutstanding)
                               + " disagrees with WaitingMem status");
            unsigned want = waiting ? ls.chunksOutstanding : 0;
            if (pending[slot][lane] != want)
                rep.report(lane_path(slot, lane),
                           std::to_string(pending[slot][lane])
                               + " queued/in-flight chunks target this "
                                 "lane, which expects "
                               + std::to_string(want));
            if ((ls.status == LaneStatus::InOp
                 || ls.status == LaneStatus::InAnyHit)
                && ls.opDoneAt <= now)
                rep.report(lane_path(slot, lane),
                           "operation finished at cycle "
                               + std::to_string(ls.opDoneAt)
                               + " but the lane is still in it");
            if ((ls.status == LaneStatus::InOp
                 || ls.status == LaneStatus::InAnyHit)
                && opDeadline_ > ls.opDoneAt)
                rep.report(lane_path(slot, lane),
                           "operation ends at cycle "
                               + std::to_string(ls.opDoneAt)
                               + " before the unit's cached deadline "
                               + std::to_string(opDeadline_));
            const RayTraversal *trav = e.state->ray(lane);
            bool suspended = in_mask && trav && trav->anyHitSuspended();
            if (suspended != (ls.status == LaneStatus::InAnyHit))
                rep.report(lane_path(slot, lane),
                           "traversal suspension disagrees with the "
                           "lane's InAnyHit status");
            if (ls.status == LaneStatus::InAnyHit)
                ++in_any_hit;
        }
        if (lanes_live != e.lanesLive)
            rep.report(path + ".slot" + std::to_string(slot),
                       "lanesLive=" + std::to_string(e.lanesLive)
                           + " but " + std::to_string(lanes_live)
                           + " lanes are in a live status");
        if (lanes_ready != e.lanesReady)
            rep.report(path + ".slot" + std::to_string(slot),
                       "lanesReady=" + std::to_string(e.lanesReady)
                           + " but " + std::to_string(lanes_ready)
                           + " lanes are Ready");
        // finishOps() is skipped between deadlines, so a warp with no
        // live lane must already be writing back.
        if (e.lanesLive == 0 && !e.inWriteback)
            rep.report(path + ".slot" + std::to_string(slot),
                       "no live lane left but no writeback started");
        live_lanes += lanes_live;
    }
    if (activeRays() != live_lanes)
        rep.report(path, "activeRays=" + std::to_string(activeRays())
                             + " but " + std::to_string(live_lanes)
                             + " lanes are in a live status");
    if (live != liveEntries_)
        rep.report(path, "liveEntries=" + std::to_string(liveEntries_)
                             + " but " + std::to_string(live)
                             + " slots are valid");
    // Any-hit invocation conservation: every suspension is either still
    // held in a lane or has been resolved exactly once.
    if (anyhitSuspended_ != anyhitCommitted_ + anyhitIgnored_ + in_any_hit)
        rep.report(path + ".anyhit",
                   "suspended=" + std::to_string(anyhitSuspended_)
                       + " != committed="
                       + std::to_string(anyhitCommitted_) + " + ignored="
                       + std::to_string(anyhitIgnored_) + " + in-flight="
                       + std::to_string(in_any_hit));
    if (memQueue_.size() > config_.memQueueSize)
        rep.report(path + ".mem_queue",
                   std::to_string(memQueue_.size())
                       + " entries, limit "
                       + std::to_string(config_.memQueueSize));

    // Each Response-FIFO entry must name a valid InFifo lane, exactly
    // once (the lane stays InFifo until the op scheduler pops it).
    std::array<std::array<unsigned, kWarpSize>, 64> fifo{};
    for (auto [slot, lane] : responseFifo_) {
        if (slot >= entries_.size() || !entries_[slot].valid
            || entries_[slot].lanes[lane].status != LaneStatus::InFifo) {
            rep.report(path + ".response_fifo",
                       "entry (" + std::to_string(slot) + ","
                           + std::to_string(lane)
                           + ") does not name a valid InFifo lane");
            continue;
        }
        ++fifo[slot][lane];
    }
    for (unsigned slot = 0; slot < entries_.size(); ++slot) {
        if (!entries_[slot].valid)
            continue;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            bool in_fifo =
                entries_[slot].lanes[lane].status == LaneStatus::InFifo;
            if (fifo[slot][lane] != (in_fifo ? 1u : 0u))
                rep.report(lane_path(slot, lane),
                           "InFifo lane appears "
                               + std::to_string(fifo[slot][lane])
                               + " times in the Response FIFO");
        }
    }
}

std::uint64_t
RtUnit::stateDigest() const
{
    check::Digest d;
    for (const WarpEntry &e : entries_) {
        d.mix(e.valid);
        if (!e.valid)
            continue;
        d.mix(static_cast<std::uint64_t>(e.splitId));
        d.mix(e.mask);
        d.mix(e.submitTime);
        d.mix(e.lanesLive);
        d.mix(e.inWriteback);
        d.mix(e.spillWrites);
        d.mix(e.deferredWrites);
        for (Addr a : e.writebackQueue)
            d.mix(a);
        d.mix(e.writebackQueue.size());
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            const LaneState &ls = e.lanes[lane];
            d.mix(static_cast<std::uint64_t>(ls.status));
            d.mix(ls.chunksOutstanding);
            d.mix(ls.opDoneAt);
            d.mix(static_cast<std::uint64_t>(ls.nodeType));
            d.mix(ls.anyHitCommit);
            const RayTraversal *trav = e.state->ray(lane);
            if (((e.mask >> lane) & 1u) && trav) {
                d.mix(trav->nodesVisited());
                d.mixFloat(trav->currentTmax());
            }
        }
    }
    for (const MemQueueEntry &q : memQueue_) {
        d.mix(q.sector);
        for (auto [slot, lane] : q.targets) {
            d.mix(slot);
            d.mix(lane);
        }
        d.mix(q.targets.size());
    }
    for (auto [slot, lane] : responseFifo_) {
        d.mix(slot);
        d.mix(lane);
    }
    for (Addr a : writeQueue_)
        d.mix(a);
    // inflight_ is a hash map: fold order-insensitively.
    std::uint64_t fold = 0;
    for (const auto &[tag, targets] : inflight_) {
        check::Digest e;
        e.mix(tag);
        for (auto [slot, lane] : targets) {
            e.mix(slot);
            e.mix(lane);
        }
        fold ^= e.value();
    }
    d.mix(fold);
    d.mix(inflight_.size());
    d.mix(nextTag_);
    d.mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(lastScheduled_)));
    d.mix(liveEntries_);
    d.mix(anyhitSuspended_);
    d.mix(anyhitCommitted_);
    d.mix(anyhitIgnored_);
    return d.value();
}

std::vector<RtUnit::Completion>
RtUnit::drainCompletions()
{
    std::vector<Completion> out = std::move(completions_);
    completions_.clear();
    return out;
}

void
RtUnit::saveState(
    serial::Writer &w,
    const std::function<std::uint32_t(const vptx::Warp *)> &slot_of) const
{
    w.u64(entries_.size());
    for (const WarpEntry &e : entries_) {
        w.b(e.valid);
        if (!e.valid)
            continue;
        w.u32(slot_of(e.warp));
        w.i32(e.splitId);
        w.u32(e.mask);
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            const LaneState &ls = e.lanes[lane];
            w.u8(static_cast<std::uint8_t>(ls.status));
            w.u32(ls.chunksOutstanding);
            w.u64(ls.opDoneAt);
            w.u32(static_cast<std::uint32_t>(ls.nodeType));
            w.b(ls.anyHitCommit);
        }
        w.u64(e.submitTime);
        w.u32(e.lanesLive);
        w.u64(e.writebackQueue.size());
        for (Addr a : e.writebackQueue)
            w.u64(a);
        w.b(e.inWriteback);
        w.u64(e.spillWrites);
        w.u64(e.deferredWrites);
    }
    w.u64(memQueue_.size());
    for (const MemQueueEntry &q : memQueue_) {
        w.u64(q.sector);
        w.u64(q.targets.size());
        for (auto [slot, lane] : q.targets) {
            w.u32(slot);
            w.u32(lane);
        }
    }
    w.u64(responseFifo_.size());
    for (auto [slot, lane] : responseFifo_) {
        w.u32(slot);
        w.u32(lane);
    }
    w.u64(writeQueue_.size());
    for (Addr a : writeQueue_)
        w.u64(a);
    w.u64(completions_.size());
    for (const Completion &c : completions_) {
        w.u32(slot_of(c.warp));
        w.i32(c.splitId);
    }
    // inflight_ is a hash map: write sorted by tag for a canonical stream.
    std::vector<std::uint64_t> tags;
    tags.reserve(inflight_.size());
    for (const auto &[tag, targets] : inflight_)
        tags.push_back(tag);
    std::sort(tags.begin(), tags.end());
    w.u64(tags.size());
    for (std::uint64_t tag : tags) {
        const auto &targets = inflight_.at(tag);
        w.u64(tag);
        w.u64(targets.size());
        for (auto [slot, lane] : targets) {
            w.u32(slot);
            w.u32(lane);
        }
    }
    w.u64(nextTag_);
    w.i32(lastScheduled_);
    w.u32(liveEntries_);
    w.u64(anyhitSuspended_);
    w.u64(anyhitCommitted_);
    w.u64(anyhitIgnored_);
}

void
RtUnit::loadState(
    serial::Reader &r,
    const std::function<vptx::Warp *(std::uint32_t)> &warp_of)
{
    auto reject = [](const std::string &why) {
        throw SimError("RT unit snapshot: " + why);
    };
    // A count is bounded by the bytes left before anything is sized by
    // it: each element takes at least `bytes_each` more bytes.
    auto count = [&](std::uint64_t bytes_each, const char *what) {
        std::uint64_t n = r.u64();
        if (n > r.remaining() / bytes_each)
            reject(std::to_string(n) + " " + what + " in "
                   + std::to_string(r.remaining()) + " bytes");
        return n;
    };
    // A (slot, lane) pair must name a lane of a resident warp.
    auto target = [&] {
        unsigned slot = r.u32();
        unsigned lane = r.u32();
        if (slot >= entries_.size() || lane >= kWarpSize
            || !entries_[slot].valid)
            reject("target (" + std::to_string(slot) + ","
                   + std::to_string(lane) + ") is not a lane of a "
                   "resident warp");
        return std::make_pair(slot, lane);
    };

    std::uint64_t num_entries = r.u64();
    if (num_entries != entries_.size())
        reject(std::to_string(num_entries) + " warp-buffer entries, the "
               "unit has " + std::to_string(entries_.size()));
    unsigned valid_entries = 0;
    opDeadline_ = kNoPendingEvent;
    for (unsigned slot = 0; slot < entries_.size(); ++slot) {
        WarpEntry &e = entries_[slot];
        e = WarpEntry{};
        e.valid = r.b();
        if (!e.valid)
            continue;
        ++valid_entries;
        e.warp = warp_of(r.u32());
        e.splitId = r.i32();
        e.mask = r.u32();
        // Re-link into the freshly restored warp exactly as submit() does.
        auto split = e.warp->pendingTraverses.find(e.splitId);
        if (split == e.warp->pendingTraverses.end())
            reject("slot " + std::to_string(slot) + " names split "
                   + std::to_string(e.splitId)
                   + ", which its warp is not traversing");
        e.state = &split->second;
        unsigned lanes_live = 0;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            LaneState &ls = e.lanes[lane];
            const std::uint8_t status = r.u8();
            if (status > static_cast<std::uint8_t>(LaneStatus::Done))
                reject("lane status " + std::to_string(status));
            ls.status = static_cast<LaneStatus>(status);
            ls.chunksOutstanding = r.u32();
            ls.opDoneAt = r.u64();
            const std::uint32_t node_type = r.u32();
            if (node_type
                > static_cast<std::uint32_t>(NodeType::ProceduralLeaf))
                reject("node type " + std::to_string(node_type));
            ls.nodeType = static_cast<NodeType>(node_type);
            ls.anyHitCommit = r.b();
            e.sinks[lane].unit = this;
            e.sinks[lane].slot = slot;
            e.sinks[lane].lane = lane;
            RayTraversal *trav = e.state->ray(lane);
            const bool has_ray = ((e.mask >> lane) & 1u) && trav;
            if (has_ray)
                trav->setSink(&e.sinks[lane]);
            if (ls.status == LaneStatus::Idle
                || ls.status == LaneStatus::Done)
                continue;
            // A live lane drives its traversal every step.
            if (!has_ray)
                reject("slot " + std::to_string(slot) + " lane "
                       + std::to_string(lane)
                       + " is live without a traversal");
            if ((ls.status == LaneStatus::WaitingMem)
                != (ls.chunksOutstanding > 0))
                reject("slot " + std::to_string(slot) + " lane "
                       + std::to_string(lane) + " waits on "
                       + std::to_string(ls.chunksOutstanding)
                       + " chunks in status "
                       + std::to_string(status));
            if ((ls.status == LaneStatus::InAnyHit)
                != trav->anyHitSuspended())
                reject("slot " + std::to_string(slot) + " lane "
                       + std::to_string(lane) + " disagrees with its "
                       "traversal on an any-hit suspension");
            if (ls.status == LaneStatus::InOp
                || ls.status == LaneStatus::InAnyHit)
                opDeadline_ = std::min(opDeadline_, ls.opDoneAt);
            if (ls.status == LaneStatus::Ready)
                ++e.lanesReady;
            ++lanes_live;
        }
        e.submitTime = r.u64();
        e.lanesLive = r.u32();
        if (e.lanesLive != lanes_live)
            reject("slot " + std::to_string(slot) + " records "
                   + std::to_string(e.lanesLive) + " live lanes, its "
                   "lanes hold " + std::to_string(lanes_live));
        std::uint64_t wb = count(8, "writeback sectors");
        for (std::uint64_t i = 0; i < wb; ++i)
            e.writebackQueue.push_back(r.u64());
        e.inWriteback = r.b();
        if (e.lanesLive == 0 && !e.inWriteback)
            reject("slot " + std::to_string(slot)
                   + " has no live lane and no writeback");
        e.spillWrites = r.u64();
        e.deferredWrites = r.u64();
    }
    memQueue_.clear();
    std::uint64_t num_mem = r.u64();
    if (num_mem > config_.memQueueSize)
        reject(std::to_string(num_mem) + " memory-queue entries, the "
               "queue holds " + std::to_string(config_.memQueueSize));
    for (std::uint64_t i = 0; i < num_mem; ++i) {
        MemQueueEntry q;
        q.sector = r.u64();
        q.targets.resize(count(8, "memory-queue targets"));
        for (auto &t : q.targets)
            t = target();
        memQueue_.push_back(std::move(q));
    }
    responseFifo_.clear();
    std::uint64_t num_fifo = count(8, "response-FIFO entries");
    for (std::uint64_t i = 0; i < num_fifo; ++i)
        responseFifo_.push_back(target());
    writeQueue_.clear();
    std::uint64_t num_writes = count(8, "queued writes");
    for (std::uint64_t i = 0; i < num_writes; ++i)
        writeQueue_.push_back(r.u64());
    completions_.clear();
    std::uint64_t num_done = count(8, "completions");
    for (std::uint64_t i = 0; i < num_done; ++i) {
        Completion c;
        c.warp = warp_of(r.u32());
        c.splitId = r.i32();
        completions_.push_back(c);
    }
    inflight_.clear();
    std::uint64_t num_inflight = count(16, "in-flight reads");
    for (std::uint64_t i = 0; i < num_inflight; ++i) {
        std::uint64_t tag = r.u64();
        if (inflight_.count(tag))
            reject("in-flight read tag " + std::to_string(tag)
                   + " appears twice");
        auto &targets = inflight_[tag];
        targets.resize(count(8, "in-flight read targets"));
        for (auto &t : targets)
            t = target();
    }
    nextTag_ = r.u64();
    lastScheduled_ = r.i32();
    if (lastScheduled_ < -1
        || lastScheduled_ >= static_cast<int>(entries_.size()))
        reject("greedy warp slot " + std::to_string(lastScheduled_));
    liveEntries_ = r.u32();
    if (liveEntries_ != valid_entries)
        reject("records " + std::to_string(liveEntries_)
               + " resident warps, " + std::to_string(valid_entries)
               + " slots are valid");
    anyhitSuspended_ = r.u64();
    anyhitCommitted_ = r.u64();
    anyhitIgnored_ = r.u64();
}

} // namespace vksim
