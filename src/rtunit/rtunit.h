/**
 * @file
 * The RT unit performance model (paper Sec. III-C and Fig. 3, right).
 *
 * One RT unit per SM. Warps executing traverseAS enter the Warp Buffer
 * (up to maxWarps concurrently). Per cycle:
 *  - the Warp Scheduler (greedy-then-oldest) selects one warp and the
 *    Memory Scheduler collects node-fetch addresses from its ready rays,
 *    merging identical requests and splitting >32 B nodes into 32 B
 *    chunks pushed onto the Memory Access Queue;
 *  - the head of the queue issues to the L1 (or a dedicated RT cache);
 *  - returning data enters the Response FIFO; the Operation Scheduler
 *    pops one entry per cycle and forwards the ray to the pipelined
 *    ray-box / ray-triangle / transform units (fixed latencies);
 *  - completed operations update the ray status and traversal stack.
 *
 * Short-stack spills and intersection-buffer appends generate real write
 * traffic; with FCC enabled the coalescing-buffer searches add loads
 * (the +11 % memory overhead of Sec. VI-E).
 */

#ifndef VKSIM_RTUNIT_RTUNIT_H
#define VKSIM_RTUNIT_RTUNIT_H

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "accel/traversal.h"
#include "cache/cache.h"
#include "core/clockedunit.h"
#include "util/stats.h"
#include "util/timeline.h"
#include "vptx/context.h"

namespace vksim {

/** Memory port the owning SM provides (routes to L1 or RT cache). */
class RtMemPort
{
  public:
    virtual ~RtMemPort() = default;

    /** Issue a 32 B sector read; response arrives via RtUnit::onResponse.
     *  @return false when the port is stalled (retry next cycle). */
    virtual bool rtIssueRead(Addr sector, std::uint64_t tag) = 0;

    /** Fire-and-forget 32 B sector write (traffic accounting only). */
    virtual bool rtIssueWrite(Addr sector) = 0;
};

/** RT unit configuration (Table III + operation-unit latencies). */
struct RtUnitConfig
{
    unsigned maxWarps = 8;        ///< concurrent warps in the warp buffer
    unsigned memQueueSize = 16;   ///< Memory Access Queue entries
    unsigned issuePerCycle = 1;   ///< sectors sent to the cache per cycle
    unsigned opsPerCycle = 1;     ///< Response FIFO pops per cycle
    unsigned boxLatency = 10;     ///< 6-wide box test latency
    unsigned triLatency = 12;     ///< triangle test latency
    unsigned transformLatency = 8;///< world-to-object transform latency
    unsigned shortStackEntries = 8; ///< traversal short-stack size
    bool perfectBvh = false;      ///< node fetches have zero latency
    bool fccEnabled = false;      ///< coalescing-buffer insertion traffic
    /// Immediate any-hit: fixed warp re-entry cost per suspension, plus
    /// a per-dynamic-instruction charge for the shader itself.
    unsigned anyHitBaseLatency = 20;
    unsigned anyHitPerInstr = 2;
};

/** The per-SM ray tracing accelerator. */
class RtUnit : public ClockedUnit
{
  public:
    RtUnit(const RtUnitConfig &config, const vptx::LaunchContext *ctx,
           StatGroup *stats);

    void setMemPort(RtMemPort *port) { port_ = port; }

    /** Free slot in the warp buffer? */
    bool canAccept() const;

    /**
     * Park a warp split whose traverseAS just issued; the warp's
     * pendingTraverses entry holds the per-ray traversal state machines.
     */
    void submit(vptx::Warp *warp, int split_id, Cycle now);

    /** Memory response for a previously issued read. */
    void onResponse(std::uint64_t tag, Cycle now);

    /** Advance one core cycle. */
    void cycle(Cycle now) override;

    /** A finished traverse (functional completion is the SM's job). */
    struct Completion
    {
        vptx::Warp *warp;
        int splitId;
    };

    std::vector<Completion> drainCompletions();

    /** Any warps resident? */
    bool busy() const { return liveEntries_ > 0; }

    /**
     * Totally quiescent: no resident warps *and* every queue drained.
     * Stronger than !busy() — a fully quiescent unit's cycle() is a
     * provable no-op, which is what the sleep gate needs.
     */
    bool quiescent() const
    {
        return liveEntries_ == 0 && memQueue_.empty()
               && responseFifo_.empty() && writeQueue_.empty()
               && inflight_.empty() && completions_.empty();
    }

    /** ClockedUnit: a quiescent RT unit has nothing scheduled. */
    bool idle() const override { return quiescent(); }

    /**
     * 0 (every cycle) while any queue holds work, a lane is Ready, a
     * warp is writing back or a completion awaits the SM; otherwise the
     * operation deadline (kNoPendingEvent when no lane is in an
     * operation). Before it, cycle() changes nothing but the per-cycle
     * occupancy counters, which settle() applies. Responses to in-flight
     * reads arrive through onResponse(), on the owning SM's clock.
     */
    Cycle nextEventCycle() const override;

    /**
     * Apply `n` cycles before nextEventCycle() in closed form: the
     * busy, active-ray, slot-ray and occupied-warp counters cycle()
     * adds per cycle while a warp is resident.
     */
    void settle(Cycle n);

    /** Rays still traversing right now (Fig. 18 occupancy): the sum of
     *  the resident warps' live-lane counts. */
    unsigned activeRays() const;

    /** Optional warp-latency histogram (paper Fig. 13). */
    void setLatencyHistogram(Histogram *hist) { latencyHist_ = hist; }

    /**
     * Optional timeline sink (the owning SM's shard): one "X" span per
     * traversal warp, submit to completion, on the "rtunit" track.
     */
    void setTimeline(TimelineShard *shard) { timeline_ = shard; }

    /**
     * Validate lane/queue bookkeeping at a cycle barrier: live-entry and
     * live-lane counts (per warp, and summed as activeRays() reports
     * them), lane-status/chunk consistency, the conservation of
     * outstanding chunks across the Memory Access Queue and in-flight
     * reads, queue bounds, Response-FIFO referential integrity, the
     * per-warp ready-lane counts, and the cached operation deadline
     * against every lane in an operation.
     */
    void checkInvariants(check::Reporter &rep, const std::string &path,
                         Cycle now) const;

    /** Order-insensitive digest of all warp-buffer and queue state. */
    std::uint64_t stateDigest() const;

    /**
     * Serialize / restore the full warp-buffer and queue state
     * (checkpointing). Warp identities cross the serialization boundary
     * as SM warp-slot indices: `slot_of` maps a resident warp pointer to
     * its slot at save time, `warp_of` resolves the slot back to the
     * freshly restored warp at load time. loadState re-links each
     * entry's TraverseState pointer and per-lane traversal sinks exactly
     * the way submit() wires them, rebuilds the derived operation
     * deadline and ready-lane counts from the decoded lanes, and rejects
     * malformed bytes
     * (counts, indices, enum values, or bookkeeping that disagrees with
     * the decoded lanes) with SimError.
     */
    void saveState(
        serial::Writer &w,
        const std::function<std::uint32_t(const vptx::Warp *)> &slot_of)
        const;
    void loadState(
        serial::Reader &r,
        const std::function<vptx::Warp *(std::uint32_t)> &warp_of);

  private:
    enum class LaneStatus : std::uint8_t
    {
        Idle,       ///< not participating
        Ready,      ///< wants to issue its next node fetch
        WaitingMem, ///< chunks outstanding
        InFifo,     ///< data returned, waiting for the op scheduler
        InOp,       ///< inside a box/tri/transform unit
        InAnyHit,   ///< suspended mid-traversal on an any-hit invocation
        Done
    };

    struct LaneState
    {
        LaneStatus status = LaneStatus::Idle;
        unsigned chunksOutstanding = 0;
        Cycle opDoneAt = 0;
        NodeType nodeType = NodeType::Invalid;
        bool anyHitCommit = false; ///< verdict applied when InAnyHit ends
    };

    /** Sink forwarding traversal-generated traffic to the write queue. */
    struct LaneSink : TraversalMemSink
    {
        RtUnit *unit = nullptr;
        unsigned slot = 0;
        unsigned lane = 0;
        void stackSpill(unsigned bytes, bool is_write) override;
        void intersectionWrite(unsigned bytes) override;
    };

    struct WarpEntry
    {
        bool valid = false;
        vptx::Warp *warp = nullptr;
        vptx::TraverseState *state = nullptr;
        int splitId = 0;
        vptx::Mask mask = 0;
        std::array<LaneState, kWarpSize> lanes;
        std::array<LaneSink, kWarpSize> sinks;
        Cycle submitTime = 0;
        unsigned lanesLive = 0;
        /// Derived, never serialized: lanes in status Ready, kept at
        /// every transition into and out of it (loadState rebuilds it).
        unsigned lanesReady = 0;
        /// Result/FCC writeback traffic left before completion signals.
        std::deque<Addr> writebackQueue;
        bool inWriteback = false;
        std::uint64_t spillWrites = 0;
        std::uint64_t deferredWrites = 0;
    };

    struct MemQueueEntry
    {
        Addr sector;
        /// (slot, lane) pairs waiting on this sector.
        std::vector<std::pair<unsigned, unsigned>> targets;
    };

    void memSchedule(Cycle now);
    void opSchedule(Cycle now);
    void finishOps(Cycle now);
    void startWriteback(WarpEntry &entry, unsigned slot, Cycle now);
    void pumpWriteback(Cycle now);
    void laneFetchDone(unsigned slot, unsigned lane, Cycle now);
    void queueWrite(Addr addr);
    unsigned latencyOf(NodeType type) const;

    RtUnitConfig config_;
    const vptx::LaunchContext *ctx_;
    StatGroup *stats_;
    RtMemPort *port_ = nullptr;

    std::vector<WarpEntry> entries_;
    unsigned liveEntries_ = 0;
    /// Derived, never serialized: the earliest opDoneAt of any InOp or
    /// InAnyHit lane (kNoPendingEvent when none). finishOps() runs only
    /// once it is due and recomputes it; opSchedule() lowers it.
    Cycle opDeadline_ = kNoPendingEvent;
    int lastScheduled_ = -1; ///< GTO: stick to this warp slot
    std::deque<MemQueueEntry> memQueue_;
    std::deque<std::pair<unsigned, unsigned>> responseFifo_;
    std::deque<Addr> writeQueue_; ///< spill / intersection-buffer stores
    std::vector<Completion> completions_;

    // tag -> memQueue bookkeeping for in-flight sectors.
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<unsigned, unsigned>>>
        inflight_;
    std::uint64_t nextTag_ = 1;
    Histogram *latencyHist_ = nullptr;
    TimelineShard *timeline_ = nullptr;

    /// Any-hit invocation conservation (checked at cycle barriers):
    /// suspended == committed + ignored + lanes currently InAnyHit.
    std::uint64_t anyhitSuspended_ = 0;
    std::uint64_t anyhitCommitted_ = 0;
    std::uint64_t anyhitIgnored_ = 0;

    /** Bound counters for the per-cycle and per-ray statistics. */
    struct Slots
    {
        CounterSlot stackSpills{"stack_spills"};
        CounterSlot deferredWrites{"deferred_writes"};
        CounterSlot warpsSubmitted{"warps_submitted"};
        CounterSlot memQueueFullStalls{"mem_queue_full_stalls"};
        CounterSlot memMerged{"mem_merged"};
        CounterSlot memRequests{"mem_requests"};
        CounterSlot opsBox{"ops_box"};
        CounterSlot opsTriangle{"ops_triangle"};
        CounterSlot opsTransform{"ops_transform"};
        CounterSlot opsOther{"ops_other"};
        CounterSlot anyhitCommitted{"anyhit_committed"};
        CounterSlot anyhitIgnored{"anyhit_ignored"};
        CounterSlot anyhitSuspended{"anyhit_suspended"};
        CounterSlot anyhitInstructions{"anyhit_instructions"};
        CounterSlot fccInsertLoads{"fcc_insert_loads"};
        CounterSlot fccInsertStores{"fcc_insert_stores"};
        CounterSlot warpsCompleted{"warps_completed"};
        CounterSlot busyCycles{"busy_cycles"};
        CounterSlot activeRayCycles{"active_ray_cycles"};
        CounterSlot slotRayCycles{"slot_ray_cycles"};
        CounterSlot occupiedWarpCycles{"occupied_warp_cycles"};
    } slots_;
};

} // namespace vksim

#endif // VKSIM_RTUNIT_RTUNIT_H
