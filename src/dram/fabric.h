/**
 * @file
 * The off-core memory system: interconnect, memory partitions (each an
 * L2 slice + DRAM channel), and a banked DRAM model with FR-FCFS
 * scheduling, row-buffer state, and the utilization/efficiency/locality
 * statistics behind the paper's Figure 16 and the memory discussion of
 * Sec. VI-C.
 *
 * The DRAM runs in its own clock domain (memory clock / core clock ratio
 * from Table III) via a ClockDomain descriptor (src/core/clockdomain.h)
 * the engine scheduler can inspect.
 */

#ifndef VKSIM_DRAM_FABRIC_H
#define VKSIM_DRAM_FABRIC_H

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.h"
#include "core/clockdomain.h"
#include "core/clockedunit.h"
#include "util/timeline.h"

namespace vksim {

/** One request travelling through the memory system (32 B sector). */
struct MemRequest
{
    Addr addr = 0;
    bool write = false;
    AccessOrigin origin = AccessOrigin::Shader;
    unsigned smId = 0;
    std::uint64_t tag = 0; ///< requester cookie, echoed in the response
};

/**
 * DRAM channel timing (in DRAM clock cycles).
 *
 * The bank-group / refresh block below is the HBM/GDDR6-style upgrade
 * (arXiv 1810.07269): all knobs default to 0 = off, under which the
 * scheduler behaves bit-identically to the seed flat-bank model.
 */
struct DramConfig
{
    unsigned banks = 16;
    Addr rowBytes = 2048;
    unsigned tRcd = 20;       ///< activate-to-column
    unsigned tRp = 20;        ///< precharge
    unsigned tCas = 20;       ///< column access
    unsigned burstCycles = 2; ///< bus cycles per 32 B transfer
    unsigned queueSize = 64;

    /**
     * Bank groups (0 = no grouping). Bank b belongs to group
     * b % bankGroups, so consecutive row-interleaved banks land in
     * different groups (the favorable striping).
     */
    unsigned bankGroups = 0;
    unsigned tCcdL = 0; ///< column-to-column, same bank group
    unsigned tCcdS = 0; ///< column-to-column, different bank group
    unsigned tRrd = 0;  ///< activate-to-activate across banks
    /**
     * Refresh: every tREFI ticks all banks close their rows and are
     * unavailable for tRFC ticks (0 = no refresh). Refresh is processed
     * by real cycle() calls only; the tREFI boundary is a channel event
     * (nextEventCycle()), so a lazily ticked channel runs a real tick
     * exactly there and never crosses one in a skipped span.
     */
    unsigned tRefi = 0;
    unsigned tRfc = 0;
};

/** How the fabric hashes addresses onto L2 partitions. */
enum class L2Interleave : std::uint8_t
{
    /** Seed policy: consecutive 256 B blocks round-robin partitions. */
    Linear256 = 0,
    /**
     * XOR-fold the upper block bits into the partition index, breaking
     * the power-of-two stride camping the linear hash suffers on
     * BVH-node strides (Accel-Sim lineage partition hash).
     */
    XorFold = 1
};

/** Fabric configuration. */
struct FabricConfig
{
    unsigned numPartitions = 6;
    unsigned icntLatency = 8;   ///< one-way interconnect latency (core clk)
    CacheConfig l2;             ///< per-slice geometry (size = slice size)
    DramConfig dram;
    double dramClockRatio = 3500.0 / 1365.0;
    bool perfectMem = false;    ///< zero-latency DRAM (paper Fig. 15)
    L2Interleave interleave = L2Interleave::Linear256;
};

/** A banked DRAM channel with FR-FCFS scheduling. */
class DramChannel : public ClockedUnit
{
  public:
    DramChannel(const DramConfig &config, bool perfect, StatGroup *stats);

    bool
    canAccept() const
    {
        return queued_ < config_.queueSize;
    }

    void enqueue(const MemRequest &req);

    /**
     * One real DRAM-clock tick; completed reads land in completed().
     * `now` is the *core*-clock cycle, used only to timestamp timeline
     * events so DRAM tracks share the trace's clock. Calling it on every
     * tick is the always-tick reference the lazy path must reproduce.
     */
    void cycle(Cycle now) override;

    /**
     * One DRAM-clock tick, lazily: a real cycle() when an event is due
     * on it, else tickQuiescent().
     */
    void
    tick(Cycle now)
    {
        if (nextEvent_ <= nowDram_ + 1)
            cycle(now);
        else
            tickQuiescent();
    }

    /** Reads retired by cycle() calls since the last clearCompleted(). */
    const std::vector<MemRequest> &completed() const { return completed_; }
    void clearCompleted() { completed_.clear(); }

    /**
     * A skipped tick: advances only the DRAM clock. Only legal when no
     * event is due on it (nextEventCycle() > dramNow() + 1): a real tick
     * would then neither refresh, retire a transfer nor issue a queued
     * request, so its only effect is the per-tick statistics, which
     * settle() applies later in closed form.
     */
    void tickQuiescent() { ++nowDram_; }

    /**
     * Apply the per-tick counters (cycles, cycles_with_pending,
     * blp_samples, blp_sum, data_bus_busy) of every tick skipped since
     * the last real tick or settle(), in O(banks). Runs before each
     * state change (cycle(), enqueue()); readers of the shared DRAM
     * StatGroup call it (MemFabric does, in dramStats() and
     * saveState()) to see the counters an always-ticked channel holds.
     */
    void settle();

    /**
     * ClockedUnit: earliest DRAM tick (this channel's own clock) at
     * which state can change — the next refresh, the soonest in-flight
     * retirement or the soonest tick a queued request finds its bank
     * ready. Events already due fire on the *next* tick (nowDram_ + 1).
     * O(1): the minimum is cached after each real tick, enqueue() and
     * loadState(), and recomputed per bank, not per queued request.
     */
    Cycle
    nextEventCycle() const override
    {
        return nextEvent_ == kNoPendingEvent
                   ? kNoPendingEvent
                   : std::max<Cycle>(nextEvent_, nowDram_ + 1);
    }

    /** Current tick of this channel's clock (nextEventCycle's frame). */
    std::uint64_t dramNow() const { return nowDram_; }

    /** Timeline sink: row-activate instants on per-bank tracks. */
    void
    setTimeline(TimelineShard *shard, unsigned channel_id)
    {
        timeline_ = shard;
        channelId_ = channel_id;
    }

    bool
    idle() const override
    {
        return queued_ == 0 && inflight_.empty();
    }

    /**
     * True if a request for `sector` with the given direction is waiting
     * in the queue or in flight (used by the L2-MSHR cross-check).
     */
    bool hasRequest(Addr sector, bool write) const;

    /**
     * Validate queue bounds and bank/bus/inflight timing ordering, the
     * per-bank queue counts against a recount, and the cached next event
     * against a scan of every queued request.
     */
    void checkInvariants(check::Reporter &rep,
                         const std::string &path) const;

    /** Order-insensitive digest of queue, bank and inflight state. */
    std::uint64_t stateDigest() const;

    /**
     * Serialize / restore channel state (checkpointing). The inflight
     * list uses swap-remove, so its *container order* is behaviorally
     * relevant (the retire scan walks it front to back) and is written
     * verbatim. The shared DRAM StatGroup is serialized once at the
     * fabric level, not here.
     */
    void saveState(serial::Writer &w) const;
    void loadState(serial::Reader &r);

  private:
    /** A request pool slot; kNil ends a list. */
    using Slot = std::uint32_t;
    static constexpr Slot kNil = ~Slot(0);

    /** Head and tail of one arrival-order list of pool slots. */
    struct List
    {
        Slot head = kNil;
        Slot tail = kNil;
    };

    struct Bank
    {
        Addr openRow = ~Addr(0);
        std::uint64_t readyAt = 0;
        unsigned group = 0; ///< bank group (fixed by the geometry)
        /** Derived, never serialized: this bank's queued requests in
         *  arrival order, how many there are and how many of them hit
         *  the open row. */
        List queue;
        unsigned queued = 0;
        unsigned queuedHits = 0;
    };

    /**
     * A queued request in its pool slot, with its bank and row decoded
     * once, on entry. It sits on two lists, both in arrival order: the
     * whole queue (prev/next) and its bank's (bankPrev/bankNext). `seq`
     * orders requests of different banks; like the links it is derived
     * (loadState() renumbers from the snapshot's queue order).
     */
    struct Queued
    {
        MemRequest req;
        unsigned bank = 0;
        Addr row = 0;
        std::uint64_t seq = 0;
        Slot prev = kNil;
        Slot next = kNil;
        Slot bankPrev = kNil;
        Slot bankNext = kNil;
    };

    struct Inflight
    {
        MemRequest req;
        std::uint64_t doneAt;
    };

    /** Earliest tick a row hit (or miss) could issue to `bank`, given
     *  current bank, CCD, RRD and row state (exact while the channel
     *  state is frozen). */
    std::uint64_t bankIssueAt(unsigned bank, bool row_hit) const;
    /** Earliest tick request `q` could issue. */
    std::uint64_t
    earliestIssue(const Queued &q) const
    {
        return bankIssueAt(q.bank, banks_[q.bank].openRow == q.row);
    }
    /** The soonest refresh, retirement or issue tick, unclamped (what
     *  nextEvent_ caches; kNoPendingEvent when there is none), from the
     *  per-bank queue counts. */
    std::uint64_t earliestEvent() const;
    /** Append `req` to the queue (a free slot, both list tails). */
    Slot push(const MemRequest &req);
    /** Remove slot `s` from both lists and free it, O(1). */
    void unlink(Slot s);
    /** Empty the queue: every slot free, every list and count zero. */
    void clearQueue();
    /** Recount the queued row hits of `bank` (its open row changed),
     *  O(requests queued to it). */
    void recountHits(Bank &bank);
    void processRefresh();
    /** Issue the request in slot `s` to its bank (cycle()'s scheduler
     *  step, for the pick sampleBanks() made). */
    void issue(Slot s, Cycle now);
    /**
     * The per-tick bank pass of cycle(): counts the pending /
     * bank-parallelism / data-bus samples and makes the FR-FCFS pick.
     * A bank can take a row hit when it is ready and both column
     * windows (tCCDS, its group's tCCDL) are open, and a row miss when
     * additionally the activate window (tRRD) is open. Each such bank
     * offers its oldest row hit and oldest row miss; the pick is the
     * oldest hit offered, else the oldest miss (kNil: nothing issues).
     */
    Slot sampleBanks();

    DramConfig config_;
    bool perfect_;
    /** Any bank-group / activate / refresh constraint enabled. */
    bool modernTimings_;
    StatGroup *stats_;
    /** The request queue: queueSize slots, the free ones chained
     *  through `next` from free_, the queued ones on queue_ (arrival
     *  order) and on their bank's list. */
    std::vector<Queued> pool_;
    List queue_;
    Slot free_ = kNil;
    unsigned queued_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::vector<Bank> banks_;
    std::vector<Inflight> inflight_;
    std::vector<MemRequest> completed_;
    std::uint64_t nowDram_ = 0;
    std::uint64_t busFreeAt_ = 0;
    /** Earliest tick the next column command may issue to any group
     *  (tCCDS) / to each specific group (tCCDL). Always <= now when the
     *  knobs are off, so the seed scheduler is untouched. */
    std::uint64_t nextColumnAt_ = 0;
    std::vector<std::uint64_t> groupNextColumnAt_;
    std::uint64_t nextActivateAt_ = 0; ///< tRRD window
    std::uint64_t nextRefreshAt_ = 0;  ///< next tREFI boundary (0 = off)
    /** Derived, never serialized: earliestEvent() as of the last state
     *  change, and the last tick whose counters are applied. */
    std::uint64_t nextEvent_ = kNoPendingEvent;
    std::uint64_t settledAt_ = 0;
    TimelineShard *timeline_ = nullptr;
    unsigned channelId_ = 0;

    /** The channel's counters in the shared DRAM group, bound once. */
    struct Slots
    {
        CounterSlot cycles{"cycles"};
        CounterSlot pending{"cycles_with_pending"};
        CounterSlot blpSamples{"blp_samples"};
        CounterSlot blpSum{"blp_sum"};
        CounterSlot busBusy{"data_bus_busy"};
        CounterSlot requests{"requests"};
        CounterSlot rowHits{"row_hits"};
        CounterSlot rowMisses{"row_misses"};
        CounterSlot refreshes{"refreshes"};
    } slots_;
};

/**
 * Interconnect + partitions. The owning GPU model calls cycle() once per
 * core clock and drains per-SM responses.
 */
class MemFabric : public ClockedUnit
{
  public:
    MemFabric(const FabricConfig &config, unsigned num_sms);

    /** Inject a request (an L1 / RT-cache miss or a write-through). */
    void inject(const MemRequest &req, Cycle now);

    /** Advance one core-clock cycle. */
    void cycle(Cycle now) override;

    /**
     * The idle-skip fast path: advance one core cycle touching only
     * per-cycle counters, *if* this cycle is provably a pure counter
     * replay of cycle(now) — no inbound request would be consumed, no
     * timeline sample is due, and no DRAM tick in this core cycle could
     * retire a transfer or issue a queued request. Returns true when
     * the quiescent cycle was committed (cycle(now) must NOT run too),
     * false when nothing was done and the caller must run cycle(now).
     */
    bool quiescentCycle(Cycle now);

    /**
     * Responses ready for SM `sm` at `now`. Drained entries are only
     * *marked* consumed (per-SM cursor) and linger in the queue until
     * the fabric clock has passed their ready cycle: under epoch
     * stepping an SM drains ahead of the fabric replay, and the state
     * digest of an earlier replay cycle must still see what the
     * lock-step queue held then. They are trimmed lazily, when
     * respond() appends to the queue and in saveState(). The cursor
     * makes this safe to call from SM workers — each touches only its
     * own queue. `out` is the caller's reused buffer: it is cleared,
     * then filled in queue order.
     */
    void drainResponses(unsigned sm, Cycle now,
                        std::vector<MemRequest> &out);

    /** Any undrained response queued for SM `sm` (ready or not). */
    bool
    hasResponse(unsigned sm) const
    {
        return respCursor_[sm] < responses_[sm].size();
    }

    /**
     * Ready cycle of the oldest undrained response for SM `sm`
     * (kNoPendingEvent when none). Ready cycles never decrease along a
     * queue, so no response for `sm` is deliverable before it until
     * the fabric next cycles.
     */
    Cycle
    nextResponseCycle(unsigned sm) const
    {
        return hasResponse(sm) ? responses_[sm][respCursor_[sm]].first
                               : kNoPendingEvent;
    }

    /** All queues empty (for drain detection). */
    bool idle() const override;

    /**
     * ClockedUnit: the fabric's conservative event estimate in core
     * cycles. The exact skip decision lives in quiescentCycle(); this
     * answers only "anything pending at all?" for the active-set logic.
     */
    Cycle nextEventCycle() const override
    {
        return idle() ? kNoPendingEvent : 0;
    }

    /** The core→DRAM clock-domain descriptor (first-class; the engine
     *  scheduler reads the ratio from here, not from FabricConfig). */
    const ClockDomain &dramClock() const { return dramClock_; }

    StatGroup &l2Stats(unsigned partition);
    /** The shared DRAM statistics, every channel settled first. */
    StatGroup &dramStats();

    /** Aggregate L2 counter over all slices. */
    std::uint64_t l2Total(const std::string &counter) const;

    unsigned numPartitions() const { return config_.numPartitions; }

    /**
     * Timeline sink (the fabric's own shard; the fabric only mutates
     * state at the single-threaded cycle barrier): sampled per-partition
     * queue-depth / L2-MSHR counter tracks plus DRAM bank events.
     */
    void setTimeline(TimelineShard *shard);

    /**
     * Validate cross-layer bookkeeping at a cycle barrier: per-partition
     * L2 MSHR limits, Σ L2 read-MSHR targets == pendingMiss entries, and
     * every read MSHR backed by a matching DRAM request (queued or in
     * flight). `deep` additionally scans L2 tag arrays for duplicates.
     */
    void checkInvariants(check::Reporter &rep, bool deep) const;

    /**
     * Order-insensitive digest of all partition + response state *as of
     * core cycle `now`*: only responses still undeliverable at `now`
     * (ready > now) are folded in, which is exactly what the lock-step
     * queue holds after the cycle-`now` barrier. This keeps the digest
     * independent of how far ahead of the fabric replay the SM workers
     * have already drained (epoch stepping).
     */
    std::uint64_t stateDigest(Cycle now) const;

    /**
     * Serialize / restore the full fabric: every partition's L2 slice,
     * DRAM channel, inbound queue and pending-miss table (written sorted
     * by cookie), the per-SM response queues plus their cursors (each
     * trimmed through the last real cycle first, so it holds exactly
     * the drained entries a queue trimmed every cycle keeps — those a
     * later replayed cycle's digest may still need), the core→DRAM
     * clock-crossing accumulator (exact FP bits), and the shared DRAM
     * statistics (every channel settled first, so the restored channels
     * start with nothing pending).
     */
    void saveState(serial::Writer &w);
    void loadState(serial::Reader &r);

  private:
    struct Partition
    {
        std::unique_ptr<Cache> l2;
        std::unique_ptr<DramChannel> dram;
        /// Requests travelling to the partition (ready at `readyAt`).
        std::deque<std::pair<Cycle, MemRequest>> inbound;
        /// Pending L2 misses keyed by the cookie given to the L2 MSHRs.
        std::unordered_map<std::uint64_t, MemRequest> pendingMiss;
        std::uint64_t nextCookie = 1;
    };

    unsigned partitionOf(Addr addr) const;
    void settleChannels();
    void partitionCycle(Partition &p, Cycle now);
    void respond(const MemRequest &req, Cycle now);
    /**
     * Drop SM `sm`'s drained responses that were deliverable at the last
     * real cycle(now) (ready <= now): no digest of that cycle or a later
     * one needs them, the lock-step queue would have popped them. A
     * quiescentCycle() never moves the threshold, so a snapshot holds
     * what a queue trimmed at the top of every real cycle holds.
     */
    void trimResponses(unsigned sm);

    FabricConfig config_;
    std::vector<Partition> partitions_;
    /// Per-SM response queues (ready cycle, request).
    std::vector<std::deque<std::pair<Cycle, MemRequest>>> responses_;
    /// Per-SM count of drained (consumed but not yet trimmed) entries
    /// at the front of the matching responses_ deque; see
    /// drainResponses().
    std::vector<std::size_t> respCursor_;
    /// The last real cycle(now), trimResponses()'s threshold; none
    /// since construction or loadState().
    std::optional<Cycle> lastCycle_;
    /// Core→DRAM clock crossing (was a bare fractional accumulator).
    ClockDomain dramClock_;
    /// Reused by cycle(): the L2 MSHR targets one DRAM completion fills.
    std::vector<std::uint64_t> fillTargets_;
    StatGroup dramStats_{"dram"};
    TimelineShard *timeline_ = nullptr;
};

} // namespace vksim

#endif // VKSIM_DRAM_FABRIC_H
