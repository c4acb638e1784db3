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
        return queue_.size() < config_.queueSize;
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
        return queue_.empty() && inflight_.empty();
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
    struct Bank
    {
        Addr openRow = ~Addr(0);
        std::uint64_t readyAt = 0;
        unsigned group = 0; ///< bank group (fixed by the geometry)
    };

    /** A queued request with its bank and row decoded once, on entry. */
    struct Queued
    {
        MemRequest req;
        unsigned bank;
        Addr row;
    };

    struct Inflight
    {
        MemRequest req;
        std::uint64_t doneAt;
    };

    /** Per-bank scheduler flags, valid for the current tick. */
    enum IssueFlag : std::uint8_t
    {
        kCanHit = 1,  ///< a row hit on this bank may issue now
        kCanMiss = 2  ///< a row miss (activate) on this bank may issue now
    };

    Queued decode(const MemRequest &req) const;
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
    /** Recount the queued row hits of `bank` (its open row changed). */
    void recountHits(unsigned bank);
    /** Rebuild both per-bank counts of every bank from the queue. */
    void rebuildBankCounts();
    void processRefresh();
    /** FR-FCFS: issue the oldest ready row hit, else the oldest ready
     *  request, to its bank (cycle()'s scheduler step). */
    void issue(Cycle now);
    /**
     * The per-tick bank pass of cycle(): counts the pending /
     * bank-parallelism / data-bus samples and sets issue_. Returns true
     * when some bank can take a column command for a request it holds.
     */
    bool sampleBanks();

    DramConfig config_;
    bool perfect_;
    /** Any bank-group / activate / refresh constraint enabled. */
    bool modernTimings_;
    StatGroup *stats_;
    std::deque<Queued> queue_;
    std::vector<Bank> banks_;
    std::vector<std::uint8_t> issue_; ///< IssueFlag bits per bank
    /** Derived, never serialized: per bank, the queued requests and how
     *  many of them hit its open row. Kept by enqueue() and issue();
     *  rebuilt after a refresh, a perfect-mode drain and loadState(). */
    std::vector<unsigned> bankQueued_;
    std::vector<unsigned> bankQueuedHits_;
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
     * the fabric clock passes their ready cycle: under epoch stepping
     * an SM drains ahead of the fabric replay, and the state digest of
     * an earlier replay cycle must still see what the lock-step queue
     * held then. The cursor makes this safe to call from SM workers —
     * each touches only its own queue.
     */
    std::vector<MemRequest> drainResponses(unsigned sm, Cycle now);

    /** Any undrained response queued for SM `sm` (ready or not). */
    bool
    hasResponse(unsigned sm) const
    {
        return respCursor_[sm] < responses_[sm].size();
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
     * by cookie), the per-SM response queues *including* drained-but-
     * untrimmed entries plus their cursors, the core→DRAM clock-crossing
     * accumulator (exact FP bits), and the shared DRAM statistics
     * (every channel settled first, so the restored channels start
     * with nothing pending).
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

    FabricConfig config_;
    std::vector<Partition> partitions_;
    /// Per-SM response queues (ready cycle, request).
    std::vector<std::deque<std::pair<Cycle, MemRequest>>> responses_;
    /// Per-SM count of drained (consumed but not yet trimmed) entries
    /// at the front of the matching responses_ deque; see
    /// drainResponses().
    std::vector<std::size_t> respCursor_;
    /// Core→DRAM clock crossing (was a bare fractional accumulator).
    ClockDomain dramClock_;
    /// Reused by cycle(): the L2 MSHR targets one DRAM completion fills.
    std::vector<std::uint64_t> fillTargets_;
    StatGroup dramStats_{"dram"};
    TimelineShard *timeline_ = nullptr;
};

} // namespace vksim

#endif // VKSIM_DRAM_FABRIC_H
