/**
 * @file
 * The cycle-level GPU model (paper Fig. 3): SMs with GTO/LRR warp
 * scheduling, a scoreboard, ALU/SFU/LDST pipelines, an L1 data cache
 * (optionally a dedicated RT cache), one RT unit per SM, and the shared
 * memory fabric (L2 partitions + DRAM).
 *
 * Functional execution happens at issue (GPGPU-Sim style) through the
 * shared WarpExecutor; this module models only timing.
 */

#ifndef VKSIM_GPU_GPU_H
#define VKSIM_GPU_GPU_H

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <queue>

#include "check/check.h"
#include "core/clockedunit.h"
#include "dram/fabric.h"
#include "gpu/checkpoint.h"
#include "rtunit/rtunit.h"
#include "util/image.h"
#include "util/metrics.h"
#include "util/timeline.h"
#include "vptx/exec.h"

namespace vksim {

/** Warp scheduling policy. */
enum class SchedPolicy
{
    GTO, ///< greedy-then-oldest (baseline, Table III)
    LRR  ///< loose round robin
};

/** Full GPU configuration (paper Table III). */
struct GpuConfig
{
    unsigned numSms = 30;
    unsigned maxWarpsPerSm = 32;
    unsigned regsPerSm = 65536;
    unsigned issueWidth = 2;    ///< warp instructions issued per SM cycle
    unsigned aluLatency = 4;
    unsigned sfuLatency = 16;
    unsigned sfuIssueInterval = 4; ///< SFU throughput limit
    unsigned ldstQueueSize = 32;

    CacheConfig l1{"l1", 64 * 1024, 0, 20, 64, 16};
    bool useRtCache = false; ///< dedicated RT cache (paper Fig. 15)
    CacheConfig rtCache{"rtcache", 32 * 1024, 0, 20, 64, 16};

    FabricConfig fabric;
    RtUnitConfig rt;

    bool its = false;        ///< independent thread scheduling case study
    bool fccEnabled = false; ///< function call coalescing case study
    SchedPolicy sched = SchedPolicy::GTO;

    double coreClockMhz = 1365.0;
    Cycle maxCycles = 500'000'000; ///< runaway watchdog (throws SimError)

    /**
     * SM sleep and SM event horizons (`--no-idle-skip` disables): the
     * engine scheduler puts quiescent SMs to sleep and wakes them on
     * warp dispatch or response delivery, and a worker jumps an awake
     * SM that issued nothing to its next event, settling the cycles in
     * between in closed form. The fabric's event-free fast path and the
     * lazily ticked DRAM channels run either way. Behavior-neutral by
     * contract — stats JSON, digest traces, and images are bit-identical
     * with this on or off (see DESIGN.md, "Stepping contract").
     */
    bool idleSkip = true;

    /**
     * Epoch-stepped parallel engine (`--epoch-cycles`): SM workers
     * advance their cores through multi-cycle epochs between barriers,
     * with all SM→fabric traffic staged per (SM, cycle) and replayed
     * against the fabric in deterministic (cycle, SM) order at the
     * epoch boundary. 1 = one barrier per cycle (the finest stepping,
     * used as the reference by tools/diffrun); same loop, no special
     * case.
     *
     * Behavior-neutral by construction: the engine clamps the epoch to
     * the architectural skew bound (the minimum fabric response latency,
     * fabric.l2.latency + fabric.icntLatency), below which no response
     * can become deliverable inside the span an SM has already run, and
     * chops epochs to one cycle while warp dispatch is still in
     * progress (dispatch is a cross-SM round-robin that must see
     * per-cycle occupancy). Stats JSON, digest traces, images and cycle
     * counts are bit-identical for every epochCycles and thread count
     * (DESIGN.md, "Stepping contract").
     */
    unsigned epochCycles = 64;

    /** Occupancy trace sampling period (0 disables; Fig. 18). */
    Cycle occupancySamplePeriod = 0;

    /**
     * Host worker threads for the parallel engine. 0 resolves via
     * VKSIM_THREADS / hardware concurrency; 1 forces the serial engine
     * (the `--serial` escape hatch). Results are bit-identical for every
     * thread count — see DESIGN.md, "Parallel engine & determinism
     * contract".
     */
    unsigned threads = 0;

    /** Print a one-line end-of-run perf summary to stderr. */
    bool printPerfSummary = false;

    /**
     * Self-validation level (`--check=<level>` / VKSIM_CHECK): Basic
     * sweeps cross-layer invariants every check::kBasicSweepPeriod
     * cycles, Full sweeps shallow invariants every cycle (deep scans at
     * the Basic period) and enables the per-ray reference differential.
     * A violation panics with its path and cycle.
     */
    check::CheckLevel checkLevel = check::defaultCheckLevel();

    /**
     * Record per-cycle-barrier state digests of every SM plus the fabric
     * (RunResult::digests) for the differential engine runner
     * (tools/diffrun). Off by default: digesting is cheap but not free.
     */
    bool digestTrace = false;
    Cycle digestPeriod = 1; ///< cycles between digest samples

    /**
     * Fault injection for validating the differential harness itself:
     * XOR a bit into the digest of `digestInjectUnit` at cycle
     * `digestInjectCycle` (default: never). The run is untouched; only
     * its digest trace diverges.
     */
    Cycle digestInjectCycle = ~Cycle(0);
    unsigned digestInjectUnit = 0;

    /**
     * Sweep-probe instrumentation (tests only): record in
     * RunResult::sweepProbeHitCycle the first cycle >= sweepProbeCycle
     * at which unit `sweepProbeUnit` (SM index, or numSms for the
     * fabric) was actually included in an invariant sweep. Lets tests
     * observe that sweeps over sleeping units are deferred to wake /
     * the final sweep rather than silently dropped.
     */
    Cycle sweepProbeCycle = ~Cycle(0);
    unsigned sweepProbeUnit = 0;

    /**
     * Chrome-trace timeline sink (`--timeline=out.json`). Disabled when
     * the path is empty. Events use simulated-cycle timestamps, so the
     * file is bit-identical for every engine thread count.
     */
    TimelineConfig timeline;

    /**
     * Engine checkpoint/restore (auto-snapshot period, one-shot capture,
     * resume source). Snapshots are taken at epoch barriers only; a run
     * resumed from one is bit-identical to the uninterrupted oracle for
     * every thread count, idle-skip setting and epoch length (DESIGN.md,
     * "Persistence & recovery contract"). Mutually exclusive with the
     * timeline sink: a resumed timeline would be missing the pre-snapshot
     * events, so validate() rejects the combination.
     */
    CheckpointConfig checkpoint;

    /**
     * Sanity-check the configuration and return one actionable message
     * per problem (empty = valid): zero-sized structural parameters
     * (SMs, warps, queues, cache geometry) that would deadlock or crash
     * the model, and inconsistent mode combinations (FCC + ITS).
     * SimService::submit() calls this and rejects bad jobs up front;
     * constructing a GpuSimulator directly performs no validation (tests
     * deliberately build degenerate configs).
     */
    std::vector<std::string> validate() const;
};

/** Baseline configuration of Table III. */
GpuConfig baselineGpuConfig();

/** Mobile configuration of Table III (8 SMs, less DRAM bandwidth). */
GpuConfig mobileGpuConfig();

/** Results of a timed run. */
struct RunResult
{
    Cycle cycles = 0;
    std::vector<std::pair<Cycle, unsigned>> occupancyTrace; ///< Fig. 18

    /**
     * The run's statistics, and their only copy: every subsystem's
     * counters, accumulators and histograms ("gpu.core", "gpu.rt" with
     * the Fig. 13 "gpu.rt.warp_latency_hist", "gpu.l1", "gpu.rtcache",
     * "gpu.l2", "gpu.dram"; per-SM shards folded in fixed SM order)
     * plus the run gauges. Deliberately excludes host
     * wall-clock and thread count, so `metrics.toJson()` is byte-
     * identical for every engine thread count (determinism contract).
     */
    MetricsRegistry metrics;

    double hostSeconds = 0.0; ///< wall-clock time of the run() call
    unsigned threadsUsed = 1; ///< engine threads the run executed with

    /**
     * Epoch length the engine actually stepped with after clamping to
     * the skew bound (1 = a barrier every cycle). Telemetry like threadsUsed:
     * excluded from `metrics` so the stats dump stays byte-identical
     * across stepping modes.
     */
    unsigned epochCyclesUsed = 1;

    /**
     * Idle-skip engine observability. Deliberately *not* imported into
     * `metrics` (they depend on whether skipping ran, which must not
     * perturb the byte-identical stats dump) — exposed for tests, the
     * perf summary and the benchmarks.
     */
    /// SM-cycles not simulated: slept, or settled up to an SM's next
    /// event (the latter not carried across a checkpoint resume).
    std::uint64_t smCyclesSkipped = 0;
    std::uint64_t sweepUnitChecks = 0;  ///< per-unit invariant sweeps run
    std::uint64_t sweepUnitSkips = 0;   ///< sweeps skipped (unit asleep)

    /**
     * Micro-op fetches across all SM executors. Telemetry like the skip
     * counters above (excluded from `metrics`): the decode-count
     * regression test asserts exactly one decode per issue attempt.
     */
    std::uint64_t uopDecodes = 0;
    Cycle sweepProbeHitCycle = ~Cycle(0); ///< see GpuConfig::sweepProbeCycle

    /**
     * Per-barrier state digests (populated when digestTrace is set). A
     * multi-frame run (service::runPreparedWorkload) holds its frames'
     * traces back to back: frame f's j-th sample is at its frame-local
     * cycle j * period, which is cycle j * period + (cycles of frames
     * before f) on the accumulated timeline the occupancy trace uses.
     * `digests.frames` records where each frame after the first begins,
     * so cycleOf() and firstDivergence() report cycles on that timeline.
     */
    check::DigestTrace digests;

    /**
     * The one-shot engine snapshot requested via
     * GpuConfig::checkpoint.snapshotAt (null when none was requested).
     * Feed it back through CheckpointConfig::resume to continue the run
     * in a fresh engine.
     */
    std::shared_ptr<const EngineSnapshot> snapshot;

    /** Simulated cycles per host second (simulator throughput). */
    double
    cyclesPerHostSecond() const
    {
        return hostSeconds > 0.0
                   ? static_cast<double>(cycles) / hostSeconds
                   : 0.0;
    }

    /** Fraction of issue slots with a full warp (SIMT efficiency). */
    double simtEfficiency() const;
    /** RT-unit SIMT efficiency (active rays / resident ray slots). */
    double rtSimtEfficiency() const;
    /** DRAM utilization and efficiency (Fig. 16 metrics). */
    double dramUtilization() const;
    double dramEfficiency() const;
    /** Fraction of cycles any RT unit was busy. */
    double rtActiveFraction() const;

    /** Set "gpu.cycles", "gpu.occupancy_samples" and one "gpu.derived.*"
     *  gauge per helper above; rerun after folding in another frame. */
    void writeRunGauges();
};

/** RT-warp latency histogram geometry (paper Fig. 13). */
inline constexpr double kRtLatencyBucketWidth = 2000.0;
inline constexpr unsigned kRtLatencyBuckets = 200;

/**
 * One streaming multiprocessor.
 *
 * Thread-safety: cycle() may run concurrently with other SMs' cycle()
 * calls. All SM→fabric traffic is *staged* locally during cycle() and
 * only reaches the shared MemFabric when the owning simulator calls
 * flushStagedCycle() — serially, in fixed (cycle, SM) order, at the
 * epoch barrier. Each SM owns its caches, executor, and statistics (including
 * the RT-unit stats, merged after the run), so cycle() touches no shared
 * mutable state except the simulated GlobalMemory, which is internally
 * synchronized and written at per-thread-disjoint addresses.
 */
class SmCore : public RtMemPort, public ClockedUnit
{
  public:
    SmCore(unsigned sm_id, const GpuConfig &config,
           const vptx::LaunchContext &ctx, MemFabric *fabric);

    /** Admit a warp if occupancy allows at cycle `now`. @return accepted */
    bool tryAddWarp(std::uint32_t warp_id, Cycle now);

    void cycle(Cycle now) override;

    /**
     * Barrier drain: inject the requests this SM staged during its
     * cycle(c) call — and only those — preserving issue order. The
     * barrier replays an epoch by calling this for every cycle of the
     * span in ascending (cycle, SM) order, from a single thread
     * (determinism contract). Must be called with non-decreasing `c`
     * between clearStaged() calls.
     * @return true if any request was injected.
     */
    bool flushStagedCycle(Cycle c);

    /**
     * End-of-epoch reset of the staging queue. Panics if the epoch
     * replay left staged requests behind (every staged request carries
     * a cycle inside the span just replayed, so a leftover means the
     * barrier skipped a cycle).
     */
    void clearStaged();

    /** No resident warps and no in-flight work. */
    bool idle() const override;

    /**
     * Stronger than idle(): cycling this SM would be a pure counter
     * replay (no pending writebacks, RT unit fully quiescent down to
     * its write queue), so the scheduler may put it to sleep. See
     * settle() for exactly what such a cycle does.
     */
    bool sleepable() const;

    /**
     * ClockedUnit, asked after cycle(now_): the first cycle after now_
     * whose cycle() can change more than settle() applies.
     * kNoPendingEvent while sleepable. now_ + 1 after a cycle that
     * issued, or while the L1 request queue, an RT-unit queue, a Ready
     * RT lane, an RT writeback or a traversal completion has work, or
     * while some runnable split of a resident warp passes its
     * scoreboard and structural checks. Otherwise the earliest of the
     * next ALU/SFU writeback, the tag-heap top, the oldest fabric
     * response for this SM, the RT unit's operation deadline and, when
     * a split waits only on the SFU, the SFU's ready cycle.
     */
    Cycle nextEventCycle() const override;

    /**
     * Apply the cycles [from, to) in closed form, all of them before
     * nextEventCycle() (or while sleepable). Per cycle: the heartbeat
     * counters (rt.unit_cycles, core.idle_issue_cycles), the RT unit's
     * occupancy counters, and for each resident warp with a runnable
     * split one probe: a decode, the stall counter of the split the
     * nextSplit % runnable rotation picks, and the nextSplit step. Due
     * timeline samples are emitted with the frozen values.
     * Bit-identical to calling cycle() for each cycle of the span.
     */
    void settle(Cycle from, Cycle to);

    /** Currently resident (live) warps. */
    unsigned residentWarps() const;

    unsigned warpLimit() const { return warpLimit_; }

    /**
     * Attach this SM's timeline shard (single-writer: only this SM's
     * worker thread appends). Emits per-warp-slot residency spans,
     * RT-unit traversal spans, and sampled occupancy/MSHR counter
     * tracks.
     */
    void setTimeline(TimelineShard *shard);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    const StatGroup &rtStats() const { return rtStats_; }
    const Histogram &rtLatency() const { return rtLatency_; }
    Cache &l1() { return l1_; }
    Cache *rtCache() { return rtCache_ ? rtCache_.get() : nullptr; }
    RtUnit &rtUnit() { return rtUnit_; }

    // RtMemPort
    bool rtIssueRead(Addr sector, std::uint64_t tag) override;
    bool rtIssueWrite(Addr sector) override;

    /**
     * Validate this SM's bookkeeping at an epoch barrier (after the
     * staged traffic is replayed): scoreboard/load accounting, writeback and
     * LDST referential integrity, plus the owned caches, RT unit and
     * each resident warp's SIMT-stack well-formedness.
     */
    void checkInvariants(check::Reporter &rep, Cycle now, bool deep) const;

    /** Order-insensitive digest of all SM-owned architectural state. */
    std::uint64_t stateDigest() const;

    /** Micro-op fetches this SM's executor performed (telemetry). */
    std::uint64_t uopDecodes() const { return executor_.decodeCount(); }

    /** Cycles settle() applied while the SM was awake, i.e. skipped up
     *  to an event horizon (telemetry, not serialized). */
    std::uint64_t horizonSkips() const { return horizonSkips_; }

    /**
     * Serialize / restore every piece of SM-owned state the digest walk
     * covers — resident warps (threads, SIMT stacks, parked traverses),
     * scoreboard and LDST bookkeeping, the tag-event heap, the owned
     * caches, the RT unit and all statistics. Only legal at an epoch
     * barrier: the staged-request queue must be empty (asserted).
     */
    void saveState(serial::Writer &w) const;
    void loadState(serial::Reader &r);

  private:
    /**
     * A warp's scoreboard: one bit per window-relative register index
     * below the program's register high-water mark (every slot is sized
     * to it), walked in ascending register order.
     */
    class Scoreboard
    {
      public:
        void resize(unsigned regs) { words_.assign((regs + 63) / 64, 0); }
        void clear() { std::fill(words_.begin(), words_.end(), 0); }

        bool
        test(int reg) const
        {
            return (words_[static_cast<unsigned>(reg) >> 6] >> (reg & 63))
                   & 1u;
        }
        void
        set(int reg)
        {
            words_[static_cast<unsigned>(reg) >> 6] |= std::uint64_t(1)
                                                       << (reg & 63);
        }
        void
        reset(int reg)
        {
            words_[static_cast<unsigned>(reg) >> 6] &=
                ~(std::uint64_t(1) << (reg & 63));
        }

        std::size_t
        count() const
        {
            std::size_t n = 0;
            for (std::uint64_t w : words_)
                n += static_cast<std::size_t>(std::popcount(w));
            return n;
        }
        bool
        empty() const
        {
            return std::all_of(words_.begin(), words_.end(),
                               [](std::uint64_t w) { return w == 0; });
        }

        /** Call `fn(reg)` for each pending register, ascending. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (std::size_t i = 0; i < words_.size(); ++i)
                for (std::uint64_t w = words_[i]; w != 0; w &= w - 1)
                    fn(static_cast<int>(i * 64 + std::countr_zero(w)));
        }

      private:
        std::vector<std::uint64_t> words_;
    };

    struct WarpSlot
    {
        std::unique_ptr<vptx::Warp> warp;
        Scoreboard pendingRegs;
        unsigned pendingLoads = 0;  ///< outstanding load instructions
        std::uint32_t warpId = 0;
        unsigned nextSplit = 0;     ///< ITS round robin within the warp
        Cycle dispatchedAt = 0;     ///< admission cycle (timeline span)
    };

    /** Outstanding LDST instruction (load side). */
    struct LdstOp
    {
        unsigned slot;           ///< warp slot
        int dstReg;
        unsigned sectorsLeft;
    };

    struct PendingWriteback
    {
        Cycle at;
        unsigned slot;
        int reg;
        bool isLoad;
    };

    bool tryIssue(Cycle now);
    bool issueFromWarp(unsigned slot, Cycle now);
    void handleMemInstr(unsigned slot, const vptx::StepResult &res,
                        Cycle now);
    void pumpL1(Cycle now);
    void drainFabric(Cycle now);
    void retireWritebacks(Cycle now);
    void stageRequest(const MemRequest &req);
    void scheduleTag(Cycle at, std::uint64_t tag);

    unsigned smId_;
    const GpuConfig &config_;
    const vptx::LaunchContext &ctx_;
    MemFabric *fabric_;
    vptx::WarpExecutor executor_;
    StatGroup stats_;
    StatGroup rtStats_{"rt"};  ///< per-SM so parallel cycling is race-free
    Histogram rtLatency_{kRtLatencyBucketWidth, kRtLatencyBuckets};
    /** Bound counters for the per-cycle and per-issue statistics
     *  (`unitCycles` lives in rtStats_, the rest in stats_). */
    struct Slots
    {
        CounterSlot unitCycles{"unit_cycles"};
        CounterSlot idleIssueCycles{"idle_issue_cycles"};
        CounterSlot ldstSectors{"ldst_sectors"};
        CounterSlot stallScoreboard{"stall_scoreboard"};
        CounterSlot stallLdstQueue{"stall_ldst_queue"};
        CounterSlot stallSfu{"stall_sfu"};
        CounterSlot stallRtFull{"stall_rt_full"};
        CounterSlot issued{"issued"};
        CounterSlot issueActiveLanes{"issue_active_lanes"};
        CounterSlot issueAlu{"issue_alu"};
        CounterSlot issueSfu{"issue_sfu"};
        CounterSlot issueLdst{"issue_ldst"};
        CounterSlot issueRt{"issue_rt"};
        CounterSlot issueCtrl{"issue_ctrl"};
    } slots_;

    /** The stall counter a probe of `uop` by `ws` at `now` hits (the
     *  scoreboard first, then the unit's structural hazard), or
     *  nullptr when it issues. */
    CounterSlot Slots::*stallOf(const WarpSlot &ws,
                                const vptx::MicroOp &uop, Cycle now) const;

    Cache l1_;
    std::unique_ptr<Cache> rtCache_;
    RtUnit rtUnit_;

    std::vector<WarpSlot> warps_;
    /** Derived, never serialized: the resident slots in ascending warp-id
     *  order (GTO's "oldest first"), kept on dispatch and retire and
     *  rebuilt by loadState(). */
    std::vector<unsigned> warpOrder_;
    /** Slots issued from in the current cycle (at most issueWidth). */
    std::vector<unsigned> issuedSlots_;
    unsigned warpLimit_;
    /** Scoreboard width: one past the highest register index any
     *  instruction of the program names. */
    unsigned scoreboardRegs_ = 0;
    int greedyWarp_ = -1;
    unsigned rrCursor_ = 0;
    Cycle sfuReadyAt_ = 0;

    // L1 request path: sector requests awaiting L1 acceptance.
    struct L1Req
    {
        Addr sector;
        bool write;
        AccessOrigin origin;
        std::uint64_t tag;
    };
    std::deque<L1Req> l1Queue_;

    /** Reused per-instruction buffers: handleMemInstr's coalesced load
     *  and store sectors, and drainFabric's responses and MSHR fill
     *  targets. */
    std::vector<Addr> loadSectors_;
    std::vector<Addr> storeSectors_;
    std::vector<MemRequest> responses_;
    std::vector<std::uint64_t> fillTargets_;

    std::unordered_map<std::uint64_t, LdstOp> ldstOps_;
    std::uint64_t nextLdstTag_ = 1;
    std::vector<PendingWriteback> writebacks_;

    /**
     * Completion scheduled after an L1 hit or fill. Kept in a min-heap
     * keyed on (ready cycle, insertion sequence) so retiring pops only
     * the due entries instead of churning the whole queue every cycle;
     * the sequence keeps equal-cycle retirement in FIFO order.
     */
    struct TagEvent
    {
        Cycle at;
        std::uint64_t seq;
        std::uint64_t tag;
    };
    struct TagEventAfter
    {
        bool
        operator()(const TagEvent &a, const TagEvent &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };
    std::priority_queue<TagEvent, std::vector<TagEvent>, TagEventAfter>
        tagReady_;
    std::uint64_t tagSeq_ = 0;

    /**
     * SM→fabric traffic staged during cycle(), drained at the barrier.
     * Each entry carries the cycle it was staged in so an epoch barrier
     * can replay the span's injections in exact (cycle, SM) order;
     * entries are appended in non-decreasing cycle order, so
     * flushStagedCycle only needs the cursor below. Excluded from
     * stateDigest(): at every barrier the queue is empty.
     */
    struct StagedRequest
    {
        Cycle at;
        MemRequest req;
    };
    std::vector<StagedRequest> stagedRequests_;
    std::size_t stagedCursor_ = 0; ///< epoch drain progress

    TimelineShard *timeline_ = nullptr;

    Cycle now_ = 0; ///< updated at each cycle() for the RT port callbacks
    std::uint64_t horizonSkips_ = 0;
};

/** Top-level timed simulator. */
class GpuSimulator
{
  public:
    GpuSimulator(const GpuConfig &config, const vptx::LaunchContext &ctx);

    /** Run the launch to completion and return all statistics. */
    RunResult run();

  private:
    GpuConfig config_;
    const vptx::LaunchContext &ctx_;
};

} // namespace vksim

#endif // VKSIM_GPU_GPU_H
