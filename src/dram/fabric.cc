#include "dram/fabric.h"

#include <algorithm>

#include "util/log.h"
#include "util/simerror.h"

namespace vksim {

// --- DramChannel ---------------------------------------------------------

DramChannel::DramChannel(const DramConfig &config, bool perfect,
                         StatGroup *stats)
    : config_(config), perfect_(perfect),
      modernTimings_(config.bankGroups > 0 || config.tCcdL > 0
                     || config.tCcdS > 0 || config.tRrd > 0
                     || config.tRefi > 0),
      stats_(stats)
{
    banks_.resize(config_.banks);
    pool_.resize(config_.queueSize);
    clearQueue();
    if (config_.bankGroups > 0) {
        groupNextColumnAt_.resize(config_.bankGroups, 0);
        // Row-interleaved consecutive banks land in different groups.
        for (unsigned b = 0; b < config_.banks; ++b)
            banks_[b].group = b % config_.bankGroups;
    }
    if (config_.tRefi > 0)
        nextRefreshAt_ = config_.tRefi;
    nextEvent_ = earliestEvent();
}

DramChannel::Slot
DramChannel::push(const MemRequest &req)
{
    const Slot s = free_;
    Queued &q = pool_[s];
    free_ = q.next;
    q.req = req;
    q.bank = static_cast<unsigned>((req.addr / config_.rowBytes)
                                   % config_.banks);
    q.row = req.addr / (config_.rowBytes * config_.banks);
    q.seq = nextSeq_++;
    Bank &bank = banks_[q.bank];
    q.prev = queue_.tail;
    q.next = kNil;
    (queue_.tail != kNil ? pool_[queue_.tail].next : queue_.head) = s;
    queue_.tail = s;
    q.bankPrev = bank.queue.tail;
    q.bankNext = kNil;
    (bank.queue.tail != kNil ? pool_[bank.queue.tail].bankNext
                             : bank.queue.head) = s;
    bank.queue.tail = s;
    ++queued_;
    ++bank.queued;
    bank.queuedHits += q.row == bank.openRow;
    return s;
}

void
DramChannel::unlink(Slot s)
{
    Queued &q = pool_[s];
    Bank &bank = banks_[q.bank];
    (q.prev != kNil ? pool_[q.prev].next : queue_.head) = q.next;
    (q.next != kNil ? pool_[q.next].prev : queue_.tail) = q.prev;
    (q.bankPrev != kNil ? pool_[q.bankPrev].bankNext : bank.queue.head) =
        q.bankNext;
    (q.bankNext != kNil ? pool_[q.bankNext].bankPrev : bank.queue.tail) =
        q.bankPrev;
    --queued_;
    --bank.queued;
    bank.queuedHits -= q.row == bank.openRow;
    q.next = free_;
    free_ = s;
}

void
DramChannel::clearQueue()
{
    free_ = kNil;
    for (Slot s = static_cast<Slot>(pool_.size()); s-- > 0;) {
        pool_[s].next = free_;
        free_ = s;
    }
    queue_ = List{};
    queued_ = 0;
    for (Bank &b : banks_) {
        b.queue = List{};
        b.queued = 0;
        b.queuedHits = 0;
    }
}

std::uint64_t
DramChannel::bankIssueAt(unsigned bank_index, bool row_hit) const
{
    // Exact while the channel state is frozen (between real cycles):
    // every constraint below can only be *raised* by a real cycle, and
    // the cached event forces one at each constraint-changing tick
    // (issue, retirement, refresh). With the modern knobs off this is
    // exactly the seed readiness rule (bank.readyAt).
    const Bank &bank = banks_[bank_index];
    std::uint64_t t = bank.readyAt;
    if (modernTimings_) {
        t = std::max(t, nextColumnAt_);
        if (!groupNextColumnAt_.empty())
            t = std::max(t, groupNextColumnAt_[bank.group]);
        if (!row_hit)
            t = std::max(t, nextActivateAt_);
    }
    return t;
}

std::uint64_t
DramChannel::earliestEvent() const
{
    // Refresh mutates digested bank state, so the tREFI boundary is an
    // event even on an otherwise empty (or perfect) channel: a skipped
    // span must end with a real tick exactly there, or the refresh would
    // be processed late with different readyAt stamps.
    std::uint64_t next = nextRefreshAt_ != 0 ? nextRefreshAt_
                                             : kNoPendingEvent;
    if (perfect_)
        return queued_ == 0 ? next : 0;
    for (const Inflight &f : inflight_)
        next = std::min(next, f.doneAt);
    // A row miss never issues before a row hit to the same bank, so a
    // bank's soonest queued request is a hit whenever it holds one.
    for (unsigned b = 0; b < banks_.size(); ++b)
        if (banks_[b].queued > 0)
            next = std::min(next,
                            bankIssueAt(b, banks_[b].queuedHits > 0));
    return next;
}

void
DramChannel::recountHits(Bank &bank)
{
    unsigned hits = 0;
    for (Slot s = bank.queue.head; s != kNil; s = pool_[s].bankNext)
        hits += pool_[s].row == bank.openRow;
    bank.queuedHits = hits;
}

void
DramChannel::processRefresh()
{
    // All-bank refresh: close every row and hold the banks for tRFC.
    // Processed by real cycle() calls only — the tREFI boundary is an
    // event (earliestEvent()), so a lazily ticked channel runs a real
    // tick exactly at the refresh and mutates bank state on the same
    // tick an always-ticked one would.
    while (nextRefreshAt_ != 0 && nowDram_ >= nextRefreshAt_) {
        for (Bank &b : banks_) {
            b.openRow = ~Addr(0);
            b.readyAt = std::max(b.readyAt, nowDram_ + config_.tRfc);
            recountHits(b);
        }
        stats_->counter(slots_.refreshes).inc();
        nextRefreshAt_ += config_.tRefi;
    }
}

void
DramChannel::enqueue(const MemRequest &req)
{
    vksim_assert(canAccept());
    settle();
    const Slot s = push(req);
    // Nothing else changed, so the cached minimum only needs the new
    // request's own issue tick.
    nextEvent_ = perfect_ ? 0
                          : std::min(nextEvent_, earliestIssue(pool_[s]));
}

void
DramChannel::settle()
{
    if (settledAt_ == nowDram_)
        return;
    // Every skipped tick t in (settledAt_, nowDram_] saw the state the
    // last real tick left (no event fell in between), so each counter
    // adds the number of those ticks its sampleBanks() condition held
    // on: always, while anything is queued or in flight, and while
    // t < readyAt (a busy bank) or t < busFreeAt_ (a busy bus). A
    // counter is touched only when it grows, as the per-tick path does.
    const std::uint64_t from = settledAt_;
    const std::uint64_t span = nowDram_ - from;
    auto ticks_before = [&](std::uint64_t until) -> std::uint64_t {
        return until > from + 1 ? std::min(until - 1 - from, span) : 0;
    };
    stats_->counter(slots_.cycles).inc(span);
    if (queued_ > 0 || !inflight_.empty())
        stats_->counter(slots_.pending).inc(span);
    std::uint64_t blp_samples = 0;
    std::uint64_t blp_sum = 0;
    for (const Bank &b : banks_) {
        const std::uint64_t busy = ticks_before(b.readyAt);
        blp_samples = std::max(blp_samples, busy);
        blp_sum += busy;
    }
    if (blp_sum > 0) {
        stats_->counter(slots_.blpSamples).inc(blp_samples);
        stats_->counter(slots_.blpSum).inc(blp_sum);
    }
    if (const std::uint64_t busy = ticks_before(busFreeAt_))
        stats_->counter(slots_.busBusy).inc(busy);
    settledAt_ = nowDram_;
}

DramChannel::Slot
DramChannel::sampleBanks()
{
    if (queued_ > 0 || !inflight_.empty())
        stats_->counter(slots_.pending).inc();

    // One pass over the banks: the bank-level parallelism sample (banks
    // with work in flight) and the FR-FCFS pick. A bank's list is in
    // arrival order, so its first row hit (miss) is its oldest; the walk
    // stops once it has what it may still offer, and skips a kind when
    // the bank's oldest request is younger than the pick of that kind
    // so far. A perfect channel drains its queue instead.
    const bool column_open = !modernTimings_ || nextColumnAt_ <= nowDram_;
    const bool activate_open =
        !modernTimings_ || nextActivateAt_ <= nowDram_;
    unsigned busy_banks = 0;
    Slot hit = kNil;
    Slot miss = kNil;
    auto older = [&](Slot pick, std::uint64_t seq) {
        return pick == kNil || seq < pool_[pick].seq;
    };
    for (const Bank &bank : banks_) {
        if (bank.readyAt > nowDram_) {
            ++busy_banks;
            continue;
        }
        if (perfect_ || bank.queued == 0 || !column_open
            || (!groupNextColumnAt_.empty()
                && groupNextColumnAt_[bank.group] > nowDram_))
            continue;
        const std::uint64_t head_seq = pool_[bank.queue.head].seq;
        bool want_hit = bank.queuedHits > 0 && older(hit, head_seq);
        bool want_miss = activate_open && hit == kNil
                         && bank.queued > bank.queuedHits
                         && older(miss, head_seq);
        for (Slot s = bank.queue.head; s != kNil && (want_hit || want_miss);
             s = pool_[s].bankNext) {
            const Queued &q = pool_[s];
            if (q.row == bank.openRow) {
                if (want_hit && older(hit, q.seq))
                    hit = s;
                want_hit = false;
            } else if (want_miss) {
                if (older(miss, q.seq))
                    miss = s;
                want_miss = false;
            }
        }
    }
    if (busy_banks > 0) {
        stats_->counter(slots_.blpSamples).inc();
        stats_->counter(slots_.blpSum).inc(busy_banks);
    }
    if (busFreeAt_ > nowDram_)
        stats_->counter(slots_.busBusy).inc();
    return hit != kNil ? hit : miss;
}

void
DramChannel::cycle(Cycle now)
{
    settle();
    ++nowDram_;
    settledAt_ = nowDram_;
    stats_->counter(slots_.cycles).inc();

    if (config_.tRefi > 0)
        processRefresh();

    // Retire inflight transfers.
    for (std::size_t i = 0; i < inflight_.size();) {
        if (inflight_[i].doneAt <= nowDram_) {
            if (!inflight_[i].req.write)
                completed_.push_back(inflight_[i].req);
            inflight_[i] = inflight_.back();
            inflight_.pop_back();
        } else {
            ++i;
        }
    }

    const Slot pick = sampleBanks();
    if (perfect_) {
        // Zero-latency DRAM: service everything immediately, in arrival
        // order.
        for (Slot s = queue_.head; s != kNil; s = pool_[s].next) {
            if (!pool_[s].req.write)
                completed_.push_back(pool_[s].req);
            stats_->counter(slots_.requests).inc();
        }
        clearQueue();
    } else if (pick != kNil) {
        issue(pick, now);
    }
    nextEvent_ = earliestEvent();
}

void
DramChannel::issue(Slot s, Cycle now)
{
    const Queued q = pool_[s];
    Bank &bank = banks_[q.bank];
    bool hit = bank.openRow == q.row;
    unlink(s);
    unsigned access_latency = config_.tCas;
    if (!hit) {
        access_latency += bank.openRow == ~Addr(0)
                              ? config_.tRcd
                              : config_.tRp + config_.tRcd;
        bank.openRow = q.row;
        recountHits(bank);
        stats_->counter(slots_.rowMisses).inc();
        if (config_.tRrd > 0)
            nextActivateAt_ = nowDram_ + config_.tRrd;
        if (timeline_)
            timeline_->instant("dram.ch" + std::to_string(channelId_)
                                   + ".bank" + std::to_string(q.bank),
                               "row_activate", now);
    } else {
        stats_->counter(slots_.rowHits).inc();
    }
    stats_->counter(slots_.requests).inc();

    // Column-to-column windows: a short one against every group (tCCDS)
    // and a long one against this request's own group (tCCDL).
    if (config_.tCcdS > 0)
        nextColumnAt_ = nowDram_ + config_.tCcdS;
    if (!groupNextColumnAt_.empty())
        groupNextColumnAt_[bank.group] = nowDram_ + config_.tCcdL;

    // Data transfer occupies the shared bus after the column access.
    std::uint64_t data_start =
        std::max(nowDram_ + access_latency, busFreeAt_);
    std::uint64_t data_end = data_start + config_.burstCycles;
    busFreeAt_ = data_end;
    bank.readyAt = data_end;
    inflight_.push_back({q.req, data_end});
}

bool
DramChannel::hasRequest(Addr sector, bool write) const
{
    for (Slot s = queue_.head; s != kNil; s = pool_[s].next)
        if (pool_[s].req.addr == sector && pool_[s].req.write == write)
            return true;
    for (const Inflight &f : inflight_)
        if (f.req.addr == sector && f.req.write == write)
            return true;
    return false;
}

namespace {

void
mixRequest(check::Digest &d, const MemRequest &r)
{
    d.mix(r.addr);
    d.mix(r.write);
    d.mix(static_cast<std::uint64_t>(r.origin));
    d.mix(r.smId);
    d.mix(r.tag);
}

} // namespace

void
DramChannel::checkInvariants(check::Reporter &rep,
                             const std::string &path) const
{
    if (queued_ > config_.queueSize)
        rep.report(path + ".queue",
                   std::to_string(queued_) + " queued requests, limit "
                       + std::to_string(config_.queueSize));
    // Without refresh every readyAt stamp comes from a data transfer, so
    // no bank can be busy past the bus; a refresh hold (tRFC) is the one
    // legitimate exception.
    if (config_.tRefi == 0)
        for (const Bank &b : banks_)
            if (b.readyAt > busFreeAt_)
                rep.report(path + ".banks",
                           "bank ready at " + std::to_string(b.readyAt)
                               + " after the data bus frees at "
                               + std::to_string(busFreeAt_));
    for (const Inflight &f : inflight_)
        if (f.doneAt <= nowDram_)
            rep.report(path + ".inflight",
                       "transfer done at " + std::to_string(f.doneAt)
                           + " still in flight at DRAM cycle "
                           + std::to_string(nowDram_));
    // Both lists must be linked both ways in arrival order, the queue
    // list as long as the count says, and each bank list must hold
    // exactly the queue's requests to that bank, matching the per-bank
    // counts earliestEvent() and sampleBanks() read.
    auto linked = [&](Slot s, Slot prev, Slot back_link) {
        return back_link == prev
               && (prev == kNil || pool_[prev].seq < pool_[s].seq);
    };
    std::vector<unsigned> queued(banks_.size(), 0);
    std::vector<unsigned> hits(banks_.size(), 0);
    unsigned total = 0;
    bool ordered = true;
    for (Slot s = queue_.head, prev = kNil;
         s != kNil && total <= pool_.size(); prev = s, s = pool_[s].next) {
        const Queued &q = pool_[s];
        ordered = ordered && linked(s, prev, q.prev);
        ++total;
        ++queued[q.bank];
        hits[q.bank] += q.row == banks_[q.bank].openRow;
    }
    if (total != queued_ || !ordered)
        rep.report(path + ".queue",
                   "the arrival-order list holds " + std::to_string(total)
                       + " requests" + (ordered ? "" : " out of order")
                       + ", the count is " + std::to_string(queued_));
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const Bank &bank = banks_[b];
        unsigned listed = 0;
        bool bank_ordered = true;
        for (Slot s = bank.queue.head, prev = kNil;
             s != kNil && listed <= pool_.size();
             prev = s, s = pool_[s].bankNext) {
            bank_ordered = bank_ordered && pool_[s].bank == b
                           && linked(s, prev, pool_[s].bankPrev);
            ++listed;
        }
        if (!bank_ordered || bank.queued != queued[b]
            || bank.queuedHits != hits[b] || listed != queued[b])
            rep.report(path + ".bank" + std::to_string(b),
                       "counts " + std::to_string(bank.queued)
                           + " queued / " + std::to_string(bank.queuedHits)
                           + " row hits, the bank list holds "
                           + std::to_string(listed)
                           + (bank_ordered ? "" : " out of order")
                           + ", the queue " + std::to_string(queued[b])
                           + " / " + std::to_string(hits[b]));
    }
    // The cached event must be what a fresh scan of every queued request
    // finds, or the lazy tick would skip (or needlessly run) a real one.
    std::uint64_t scan = nextRefreshAt_ != 0 ? nextRefreshAt_
                                             : kNoPendingEvent;
    if (perfect_) {
        if (queued_ > 0)
            scan = 0;
    } else {
        for (const Inflight &f : inflight_)
            scan = std::min(scan, f.doneAt);
        for (Slot s = queue_.head; s != kNil; s = pool_[s].next)
            scan = std::min(scan, earliestIssue(pool_[s]));
    }
    if (nextEvent_ != scan)
        rep.report(path + ".next_event",
                   "cached event tick " + std::to_string(nextEvent_)
                       + " but the channel's next event is at "
                       + std::to_string(scan));
}

std::uint64_t
DramChannel::stateDigest() const
{
    check::Digest d;
    for (Slot s = queue_.head; s != kNil; s = pool_[s].next)
        mixRequest(d, pool_[s].req);
    for (const Bank &b : banks_) {
        d.mix(b.openRow);
        d.mix(b.readyAt);
    }
    // inflight_ uses swap-remove, so its order is history-dependent even
    // between identical runs sampled at different periods: XOR-fold.
    std::uint64_t fold = 0;
    for (const Inflight &f : inflight_) {
        check::Digest e;
        mixRequest(e, f.req);
        e.mix(f.doneAt);
        fold ^= e.value();
    }
    d.mix(fold);
    d.mix(inflight_.size());
    d.mix(nowDram_);
    d.mix(busFreeAt_);
    // The bank-group / activate / refresh windows join the digest only
    // when some modern knob is on, so seed-configuration digest traces
    // stay byte-identical.
    if (modernTimings_) {
        d.mix(nextColumnAt_);
        for (std::uint64_t g : groupNextColumnAt_)
            d.mix(g);
        d.mix(nextActivateAt_);
        d.mix(nextRefreshAt_);
    }
    return d.value();
}

namespace {

void
putRequest(serial::Writer &w, const MemRequest &r)
{
    w.u64(r.addr);
    w.b(r.write);
    w.u8(static_cast<std::uint8_t>(r.origin));
    w.u32(r.smId);
    w.u64(r.tag);
}

MemRequest
getRequest(serial::Reader &r)
{
    MemRequest req;
    req.addr = r.u64();
    req.write = r.b();
    req.origin = decodeOrigin(r.u8());
    req.smId = r.u32();
    req.tag = r.u64();
    return req;
}

} // namespace

void
DramChannel::saveState(serial::Writer &w) const
{
    w.u64(queued_);
    for (Slot s = queue_.head; s != kNil; s = pool_[s].next)
        putRequest(w, pool_[s].req);
    w.u64(banks_.size());
    for (const Bank &b : banks_) {
        w.u64(b.openRow);
        w.u64(b.readyAt);
    }
    w.u64(inflight_.size());
    for (const Inflight &f : inflight_) {
        putRequest(w, f.req);
        w.u64(f.doneAt);
    }
    w.u64(completed_.size());
    for (const MemRequest &r : completed_)
        putRequest(w, r);
    w.u64(nowDram_);
    w.u64(busFreeAt_);
    w.u64(nextColumnAt_);
    w.u64(groupNextColumnAt_.size());
    for (std::uint64_t g : groupNextColumnAt_)
        w.u64(g);
    w.u64(nextActivateAt_);
    w.u64(nextRefreshAt_);
}

void
DramChannel::loadState(serial::Reader &r)
{
    auto reject = [](const std::string &why) {
        throw SimError("DRAM channel snapshot: " + why);
    };
    clearQueue();
    std::uint64_t num_queued = r.u64();
    if (num_queued > config_.queueSize)
        reject(std::to_string(num_queued) + " queued requests, the queue "
               "holds " + std::to_string(config_.queueSize));
    for (std::uint64_t i = 0; i < num_queued; ++i)
        push(getRequest(r));
    std::uint64_t num_banks = r.u64();
    if (num_banks != banks_.size())
        reject(std::to_string(num_banks) + " banks, the channel has "
               + std::to_string(banks_.size()));
    for (Bank &b : banks_) {
        b.openRow = r.u64();
        b.readyAt = r.u64();
    }
    inflight_.clear();
    std::uint64_t num_inflight = r.u64();
    for (std::uint64_t i = 0; i < num_inflight; ++i) {
        Inflight f;
        f.req = getRequest(r);
        f.doneAt = r.u64();
        inflight_.push_back(f);
    }
    completed_.clear();
    std::uint64_t num_done = r.u64();
    for (std::uint64_t i = 0; i < num_done; ++i)
        completed_.push_back(getRequest(r));
    nowDram_ = r.u64();
    busFreeAt_ = r.u64();
    nextColumnAt_ = r.u64();
    std::uint64_t num_groups = r.u64();
    if (num_groups != groupNextColumnAt_.size())
        reject(std::to_string(num_groups) + " bank groups, the channel has "
               + std::to_string(groupNextColumnAt_.size()));
    for (std::uint64_t &g : groupNextColumnAt_)
        g = r.u64();
    nextActivateAt_ = r.u64();
    nextRefreshAt_ = r.u64();
    // The snapshot's statistics were settled when it was written.
    settledAt_ = nowDram_;
    // push() counted row hits against the banks' previous open rows.
    for (Bank &b : banks_)
        recountHits(b);
    nextEvent_ = earliestEvent();
}

// --- MemFabric ------------------------------------------------------------

MemFabric::MemFabric(const FabricConfig &config, unsigned num_sms)
    : config_(config), dramClock_(config.dramClockRatio)
{
    partitions_.resize(config_.numPartitions);
    for (unsigned p = 0; p < config_.numPartitions; ++p) {
        CacheConfig slice = config_.l2;
        slice.name = "l2." + std::to_string(p);
        partitions_[p].l2 = std::make_unique<Cache>(slice);
        partitions_[p].dram = std::make_unique<DramChannel>(
            config_.dram, config_.perfectMem, &dramStats_);
    }
    responses_.resize(num_sms);
    respCursor_.resize(num_sms, 0);
}

unsigned
MemFabric::partitionOf(Addr addr) const
{
    // Pure function of (addr, config): no state to digest or serialize.
    Addr block = addr / 256;
    if (config_.interleave == L2Interleave::XorFold)
        block ^= (block >> 7) ^ (block >> 13);
    return static_cast<unsigned>(block % config_.numPartitions);
}

void
MemFabric::inject(const MemRequest &req, Cycle now)
{
    Partition &p = partitions_[partitionOf(req.addr)];
    p.inbound.emplace_back(now + config_.icntLatency, req);
}

void
MemFabric::respond(const MemRequest &req, Cycle now)
{
    trimResponses(req.smId);
    responses_[req.smId].emplace_back(now + config_.icntLatency, req);
}

void
MemFabric::trimResponses(unsigned sm)
{
    if (!lastCycle_)
        return;
    auto &q = responses_[sm];
    std::size_t &cur = respCursor_[sm];
    while (cur > 0 && q.front().first <= *lastCycle_) {
        q.pop_front();
        --cur;
    }
}

void
MemFabric::partitionCycle(Partition &p, Cycle now)
{
    // Service up to one inbound request per cycle (L2 port).
    if (!p.inbound.empty() && p.inbound.front().first <= now) {
        MemRequest req = p.inbound.front().second;

        // Writes always pass through to DRAM, and a read that is neither
        // resident nor mergeable into an outstanding MSHR will allocate
        // one and enqueue. If the DRAM queue can't take that request,
        // hold it at the port *before* touching the L2: the old
        // access-then-cancel retry loop re-ran Cache::access every cycle,
        // inflating access/hit/miss counters for a single request.
        bool needs_dram = req.write
                          || (!p.l2->contains(req.addr)
                              && !p.l2->mshrPending(req.addr));
        if (needs_dram && !p.dram->canAccept())
            return;

        std::uint64_t cookie = p.nextCookie;
        CacheOutcome outcome = p.l2->access(req.addr, req.write,
                                            req.origin, cookie, now);
        bool consumed = true;
        switch (outcome) {
          case CacheOutcome::Hit:
            if (req.write) {
                // Write-through to DRAM.
                p.dram->enqueue(req);
            } else {
                respond(req, now + p.l2->config().latency);
            }
            break;
          case CacheOutcome::MissNew:
            p.dram->enqueue(req);
            if (!req.write) {
                ++p.nextCookie;
                p.pendingMiss.emplace(cookie, req);
            }
            break;
          case CacheOutcome::MissMerged:
            ++p.nextCookie;
            p.pendingMiss.emplace(cookie, req);
            break;
          case CacheOutcome::Stall:
            consumed = false;
            break;
        }
        if (consumed)
            p.inbound.pop_front();
    }
}

void
MemFabric::setTimeline(TimelineShard *shard)
{
    timeline_ = shard;
    for (unsigned p = 0; p < partitions_.size(); ++p)
        partitions_[p].dram->setTimeline(shard, p);
}

void
MemFabric::cycle(Cycle now)
{
    lastCycle_ = now;
    for (Partition &p : partitions_)
        partitionCycle(p, now);

    if (timeline_ && timeline_->sampleDue(now)) {
        for (unsigned p = 0; p < partitions_.size(); ++p) {
            const std::string prefix = "part" + std::to_string(p);
            timeline_->counter(
                prefix + ".inbound", now,
                static_cast<double>(partitions_[p].inbound.size()));
            timeline_->counter(
                prefix + ".l2_mshrs", now,
                static_cast<double>(partitions_[p].l2->mshrsInUse()));
        }
    }

    unsigned ticks = dramClock_.advance();
    for (unsigned t = 0; t < ticks; ++t) {
        for (Partition &p : partitions_) {
            p.dram->tick(now);
            for (const MemRequest &req : p.dram->completed()) {
                // Fill the L2 and answer every merged miss.
                p.l2->fill(req.addr, now, fillTargets_);
                for (std::uint64_t cookie : fillTargets_) {
                    auto it = p.pendingMiss.find(cookie);
                    if (it == p.pendingMiss.end())
                        continue;
                    respond(it->second, now + p.l2->config().latency);
                    p.pendingMiss.erase(it);
                }
            }
            p.dram->clearCompleted();
        }
    }
}

bool
MemFabric::quiescentCycle(Cycle now)
{
    // An inbound request that would be *consumed* this cycle mutates L2
    // or DRAM state — only a request held at the port (needs DRAM, DRAM
    // queue full) makes partitionCycle a provable no-op.
    for (const Partition &p : partitions_) {
        if (p.inbound.empty() || p.inbound.front().first > now)
            continue;
        const MemRequest &req = p.inbound.front().second;
        bool needs_dram = req.write
                          || (!p.l2->contains(req.addr)
                              && !p.l2->mshrPending(req.addr));
        if (!needs_dram || p.dram->canAccept())
            return false;
    }

    // Counter-track samples must be emitted by the real path.
    if (timeline_ && timeline_->sampleDue(now))
        return false;

    // Every DRAM tick that would land in this core cycle must be event
    // free on every channel (no refresh, retirement or issuable
    // request): the same test DramChannel::tick() applies per tick.
    unsigned ticks = dramClock_.peek();
    if (ticks > 0) {
        for (const Partition &p : partitions_) {
            Cycle next = p.dram->nextEventCycle();
            if (next != kNoPendingEvent
                && next <= p.dram->dramNow() + ticks)
                return false;
        }
    }

    // Commit: advance the clock crossing; settle() replays the counters.
    unsigned committed = dramClock_.advance();
    for (unsigned t = 0; t < committed; ++t)
        for (Partition &p : partitions_)
            p.dram->tickQuiescent();
    return true;
}

void
MemFabric::drainResponses(unsigned sm, Cycle now,
                          std::vector<MemRequest> &out)
{
    out.clear();
    auto &q = responses_[sm];
    std::size_t &cur = respCursor_[sm];
    while (cur < q.size() && q[cur].first <= now) {
        out.push_back(q[cur].second);
        ++cur;
    }
}

bool
MemFabric::idle() const
{
    for (const Partition &p : partitions_)
        if (!p.inbound.empty() || !p.pendingMiss.empty()
            || !p.dram->idle())
            return false;
    for (unsigned sm = 0; sm < responses_.size(); ++sm)
        if (respCursor_[sm] < responses_[sm].size())
            return false;
    return true;
}

void
MemFabric::checkInvariants(check::Reporter &rep, bool deep) const
{
    for (unsigned pi = 0; pi < partitions_.size(); ++pi) {
        const Partition &p = partitions_[pi];
        const std::string path = "fabric.part" + std::to_string(pi);
        p.l2->checkInvariants(rep, path + ".l2", deep);
        p.dram->checkInvariants(rep, path + ".dram");

        // Every merged L2 read miss is parked in pendingMiss under its
        // cookie, and nothing else is: the two books must balance.
        std::uint64_t targets = p.l2->mshrTargetTotal();
        if (targets != p.pendingMiss.size())
            rep.report(path + ".pending_miss",
                       std::to_string(targets)
                           + " L2 MSHR targets vs "
                           + std::to_string(p.pendingMiss.size())
                           + " pending-miss records");

        // An L2 read MSHR without a DRAM request would wait forever: the
        // miss was enqueued when the MSHR was allocated and the fill
        // erases the MSHR when the DRAM transfer retires, so at a cycle
        // barrier the two must pair up exactly.
        for (Addr addr : p.l2->mshrAddrs())
            if (!p.dram->hasRequest(addr, false))
                rep.report(path + ".l2.mshrs",
                           "read MSHR for sector "
                               + std::to_string(addr)
                               + " has no matching DRAM request");
    }
}

std::uint64_t
MemFabric::stateDigest(Cycle now) const
{
    check::Digest d;
    for (const Partition &p : partitions_) {
        d.mix(p.l2->stateDigest());
        d.mix(p.dram->stateDigest());
        for (const auto &[ready, req] : p.inbound) {
            d.mix(ready);
            mixRequest(d, req);
        }
        d.mix(p.inbound.size());
        // pendingMiss is a hash map: fold order-insensitively.
        std::uint64_t fold = 0;
        for (const auto &[cookie, req] : p.pendingMiss) {
            check::Digest e;
            e.mix(cookie);
            mixRequest(e, req);
            fold ^= e.value();
        }
        d.mix(fold);
        d.mix(p.nextCookie);
    }
    for (const auto &q : responses_) {
        // Only responses the lock-step queue would still hold after the
        // cycle-`now` barrier: every SM drains at exactly the ready
        // cycle, so entries with ready <= now are gone by then whether
        // or not an epoch worker has drained them yet.
        std::size_t live = 0;
        for (const auto &[ready, req] : q) {
            if (ready <= now)
                continue;
            d.mix(ready);
            mixRequest(d, req);
            ++live;
        }
        d.mix(live);
    }
    return d.value();
}

void
MemFabric::settleChannels()
{
    for (Partition &p : partitions_)
        p.dram->settle();
}

StatGroup &
MemFabric::dramStats()
{
    settleChannels();
    return dramStats_;
}

void
MemFabric::saveState(serial::Writer &w)
{
    settleChannels();
    w.u64(partitions_.size());
    for (const Partition &p : partitions_) {
        p.l2->saveState(w);
        p.dram->saveState(w);
        w.u64(p.inbound.size());
        for (const auto &[ready, req] : p.inbound) {
            w.u64(ready);
            putRequest(w, req);
        }
        // pendingMiss is a hash map: write sorted by cookie.
        std::vector<std::uint64_t> cookies;
        cookies.reserve(p.pendingMiss.size());
        for (const auto &[cookie, req] : p.pendingMiss)
            cookies.push_back(cookie);
        std::sort(cookies.begin(), cookies.end());
        w.u64(cookies.size());
        for (std::uint64_t cookie : cookies) {
            w.u64(cookie);
            putRequest(w, p.pendingMiss.at(cookie));
        }
        w.u64(p.nextCookie);
    }
    // Full response deques, drained-but-untrimmed entries included: the
    // digest of a replayed cycle must still see them after restore.
    w.u64(responses_.size());
    for (unsigned sm = 0; sm < responses_.size(); ++sm) {
        trimResponses(sm);
        const auto &q = responses_[sm];
        w.u64(q.size());
        for (const auto &[ready, req] : q) {
            w.u64(ready);
            putRequest(w, req);
        }
        w.u64(respCursor_[sm]);
    }
    w.u64(dramClock_.accumBits());
    dramStats_.saveState(w);
}

void
MemFabric::loadState(serial::Reader &r)
{
    auto reject = [](const std::string &why) {
        throw SimError("memory fabric snapshot: " + why);
    };
    // Every request here can be answered through respond(), which
    // indexes the per-SM response queues by smId.
    auto request = [&] {
        MemRequest req = getRequest(r);
        if (req.smId >= responses_.size())
            reject("request from SM " + std::to_string(req.smId)
                   + ", the GPU has " + std::to_string(responses_.size()));
        return req;
    };
    std::uint64_t num_parts = r.u64();
    if (num_parts != partitions_.size())
        reject(std::to_string(num_parts) + " partitions, the fabric has "
               + std::to_string(partitions_.size()));
    for (Partition &p : partitions_) {
        p.l2->loadState(r);
        p.dram->loadState(r);
        p.inbound.clear();
        std::uint64_t num_inbound = r.u64();
        for (std::uint64_t i = 0; i < num_inbound; ++i) {
            Cycle ready = r.u64();
            p.inbound.emplace_back(ready, request());
        }
        p.pendingMiss.clear();
        std::uint64_t num_pending = r.u64();
        for (std::uint64_t i = 0; i < num_pending; ++i) {
            std::uint64_t cookie = r.u64();
            p.pendingMiss.emplace(cookie, request());
        }
        p.nextCookie = r.u64();
    }
    std::uint64_t num_sms = r.u64();
    if (num_sms != responses_.size())
        reject(std::to_string(num_sms) + " SM response queues, the GPU has "
               + std::to_string(responses_.size()));
    for (unsigned sm = 0; sm < responses_.size(); ++sm) {
        auto &q = responses_[sm];
        q.clear();
        std::uint64_t num_resp = r.u64();
        for (std::uint64_t i = 0; i < num_resp; ++i) {
            Cycle ready = r.u64();
            q.emplace_back(ready, request());
        }
        respCursor_[sm] = r.u64();
        if (respCursor_[sm] > q.size())
            reject("SM " + std::to_string(sm) + " response cursor "
                   + std::to_string(respCursor_[sm]) + " is past its "
                   + std::to_string(q.size()) + " responses");
    }
    dramClock_.restoreAccumBits(r.u64());
    dramStats_.loadState(r);
    lastCycle_.reset();
}

StatGroup &
MemFabric::l2Stats(unsigned partition)
{
    return partitions_[partition].l2->stats();
}

std::uint64_t
MemFabric::l2Total(const std::string &counter) const
{
    std::uint64_t total = 0;
    for (const Partition &p : partitions_)
        total += p.l2->stats().get(counter);
    return total;
}

} // namespace vksim
