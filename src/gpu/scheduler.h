/**
 * @file
 * EngineScheduler: the active-set manager behind idle-skip stepping.
 *
 * The engine loop (GpuSimulator::run) used to cycle every SM on every
 * core cycle. The scheduler tracks which SMs are *asleep* — proved
 * quiescent via SmCore::sleepable() — and hands the loop only the
 * active set. A sleeping SM is woken by warp dispatch or by a fabric
 * response addressed to it; at wake (and at end of run) the skipped
 * span is replayed in bulk through SmCore::settle(), which
 * reproduces exactly what cycling a sleepable SM every cycle would
 * have done. The result is bit-identical stats, digests, timelines and
 * images with idle-skip on or off (DESIGN.md, "Stepping contract").
 *
 * The scheduler also memoizes state digests of sleeping SMs: a sleeping
 * SM's digest is frozen by construction, so per-barrier digest traces
 * need not rehash it every sample.
 *
 * Single-threaded: all methods run at the cycle barrier (or in the
 * serial sections around it), never from SM worker threads.
 */

#ifndef VKSIM_GPU_SCHEDULER_H
#define VKSIM_GPU_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/gpu.h"

namespace vksim {

class EngineScheduler
{
  public:
    /**
     * @param sms     The SM cores, owned by the caller; must outlive
     *                the scheduler.
     * @param enabled false = idle-skip off: every SM stays permanently
     *                active and the scheduler degenerates to a no-op.
     */
    EngineScheduler(std::vector<std::unique_ptr<SmCore>> &sms,
                    bool enabled);

    bool enabled() const { return enabled_; }

    /** Awake SM indices, always in ascending order (determinism: the
     *  barrier drains staged traffic in this order). */
    const std::vector<unsigned> &active() const { return active_; }

    bool asleep(unsigned sm) const { return !units_[sm].awake; }
    bool allAsleep() const { return active_.empty(); }

    /**
     * Wake `sm` so that its next cycle() call happens at `resume`:
     * replays the skipped span [sleepSince, resume) in bulk and
     * reinserts the SM into the active set. No-op when already awake.
     * Waking is always *safe* — an unnecessary wake only shrinks the
     * skipped span, never changes results.
     */
    void wake(unsigned sm, Cycle resume);

    /**
     * Move every active SM that is now sleepable() to the sleeping set,
     * with `from` as the first cycle it will skip. Call once per
     * barrier, after `now` has advanced past the span.
     */
    void reconcile(Cycle from);

    /**
     * Epoch-barrier sleep transfer: an SM worker proved `sm` sleepable
     * before executing cycle `from` and parked it mid-epoch; move it to
     * the sleeping set with that cycle as the first one skipped. The
     * caller vouches that the SM has not been cycled at or past `from`
     * (same semantics reconcile() derives itself for boundary sleeps).
     * No-op when already asleep.
     */
    void sleepAt(unsigned sm, Cycle from);

    /**
     * This SM's barrier digest: live for awake SMs, memoized while
     * asleep (a sleeping SM's architectural state cannot change, and
     * SmCore::stateDigest() deliberately excludes the cycle counter).
     */
    std::uint64_t digest(unsigned sm);

    /** Replay every still-sleeping SM up to `end` (end of run). */
    void finish(Cycle end);

    /** Total SM-cycles skipped instead of simulated (perf telemetry). */
    std::uint64_t skippedSmCycles() const { return skipped_; }

    /**
     * Serialize / restore the sleep set (checkpointing). Memoized
     * digests are a pure cache and are not serialized; loadState
     * invalidates them and rebuilds the active list from the awake
     * flags. `enabled_` is construction-time config, not state.
     * loadState throws SimError unless there is one unit per SM and
     * every sleeping unit fell asleep no later than `at`, the cycle the
     * snapshot was taken at.
     */
    void saveState(serial::Writer &w) const;
    void loadState(serial::Reader &r, Cycle at);

  private:
    struct Unit
    {
        bool awake = true;
        Cycle sleepSince = 0;
        std::uint64_t digest = 0;
        bool digestValid = false;
    };

    std::vector<std::unique_ptr<SmCore>> &sms_;
    bool enabled_;
    std::vector<Unit> units_;
    std::vector<unsigned> active_; ///< ascending
    std::uint64_t skipped_ = 0;
};

} // namespace vksim

#endif // VKSIM_GPU_SCHEDULER_H
