/**
 * @file
 * Always-compiled, flag-gated validation subsystem (the "checker"):
 *
 *  - CheckLevel / VKSIM_CHECK: how much self-validation a run performs.
 *    Off   — no checks (production default).
 *    Basic — structural invariants swept every kBasicSweepPeriod cycles
 *            and once at the end of the run.
 *    Full  — invariants swept at every cycle barrier, plus the sampled
 *            per-ray sim-vs-reference traversal differential.
 *  - Reporter: violation sink. Default mode panics on the first violation
 *    (a violation is a simulator bug, not a user error); collect mode
 *    accumulates Violation records for tests and the fuzz driver.
 *  - Digest / DigestTrace: FNV-1a state digests used by the differential
 *    engine runner (tools/diffrun) to localize the first divergent
 *    (cycle, unit) between a serial and an N-thread run.
 *  - Traverse hook: an optional global callback invoked whenever a timed
 *    RT-unit traversal completes, used to replay sampled rays through the
 *    CPU reference tracer (src/check/diffhook.h installs it).
 *
 * Everything here is dependency-light (util only) so low-level models
 * (cache, DRAM, RT unit, SIMT stack) can expose checkInvariants() hooks
 * without layering cycles.
 */

#ifndef VKSIM_CHECK_CHECK_H
#define VKSIM_CHECK_CHECK_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/types.h"

namespace vksim {

class RayTraversal;

namespace check {

/** How much self-validation a run performs. */
enum class CheckLevel
{
    Off = 0,
    Basic = 1,
    Full = 2
};

/** Cycle period of Basic-level invariant sweeps. */
inline constexpr Cycle kBasicSweepPeriod = 1024;

/**
 * Parse "off" / "basic" / "full" (also "0"/"1"/"2").
 * @return false (and leaves `out` untouched) on an unknown spelling.
 */
bool parseCheckLevel(const std::string &text, CheckLevel *out);

const char *checkLevelName(CheckLevel level);

/**
 * Process-wide default level from the VKSIM_CHECK environment variable
 * (read once, cached). Unset or unparsable means Off. GpuConfig picks
 * this up as its initial checkLevel, so `VKSIM_CHECK=full ./binary`
 * enables checking without touching any call site.
 */
CheckLevel defaultCheckLevel();

/** One invariant violation. */
struct Violation
{
    std::string path;    ///< metrics-registry-style dotted location
    std::string message; ///< what was inconsistent
    Cycle cycle = 0;     ///< simulated cycle of the sweep (0 if static)
};

/**
 * Violation sink. Panic mode (default) aborts on the first report with
 * the full path/cycle context; collect mode records violations for the
 * caller to inspect (tests, the fuzz driver's minimized-repro output).
 */
class Reporter
{
  public:
    explicit Reporter(bool collect = false) : collect_(collect) {}

    void setCycle(Cycle cycle) { cycle_ = cycle; }
    Cycle cycle() const { return cycle_; }

    /** Report a violation at `path` (panics unless collecting). */
    void report(const std::string &path, const std::string &message);

    bool ok() const { return violations_.empty(); }
    const std::vector<Violation> &violations() const { return violations_; }
    void clear() { violations_.clear(); }

  private:
    bool collect_;
    Cycle cycle_ = 0;
    std::vector<Violation> violations_;
};

/**
 * FNV-1a 64-bit running hash over architectural state. Order-sensitive:
 * mix values in a deterministic order (or fold unordered containers with
 * XOR of per-entry digests before mixing).
 */
class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xFFu;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    mixFloat(float f)
    {
        std::uint32_t bits;
        static_assert(sizeof(bits) == sizeof(f));
        __builtin_memcpy(&bits, &f, sizeof(bits));
        mix(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * Per-cycle state digests of every engine unit (one slot per SM plus one
 * for the shared fabric), cycle-major. Two runs of the same launch must
 * produce identical traces for any thread count (determinism contract);
 * firstDivergence() localizes a mismatch to its first (cycle, unit).
 */
struct DigestTrace
{
    Cycle period = 1;   ///< cycles between samples
    unsigned units = 0; ///< digests per sample (numSms + 1 fabric slot)
    /**
     * Simulated cycle of the first sample. 0 for a run started from
     * scratch; a run resumed from a checkpoint records only the suffix
     * it executed, starting at the first period multiple >= the resume
     * cycle. firstDivergence() aligns the two traces on their common
     * cycle range, so a resumed suffix can be compared directly against
     * the uninterrupted oracle's full trace.
     */
    Cycle start = 0;
    std::vector<std::uint64_t> values; ///< sample-major, then unit

    /**
     * Where a later frame of a multi-frame run begins in the trace:
     * frame f's samples follow frame f-1's back to back, each on its own
     * period grid from the frame's first cycle, so every frame after the
     * first restarts the grid at an offset no period multiple need hit.
     */
    struct Frame
    {
        std::size_t firstSample = 0; ///< index of the frame's first sample
        Cycle cycleOffset = 0; ///< its cycle on the accumulated timeline
    };
    std::vector<Frame> frames; ///< frames 2.. in order (empty: one frame)

    std::size_t
    samples() const
    {
        return units == 0 ? 0 : values.size() / units;
    }

    /**
     * Accumulated-timeline cycle of sample `sample`: start + sample *
     * period within the first frame, the frame's offset plus its own
     * grid past it (also for one past the last sample).
     */
    Cycle cycleOf(std::size_t sample) const;

    std::uint64_t
    at(std::size_t sample, unsigned unit) const
    {
        return values[sample * units + unit];
    }

    struct Divergence
    {
        bool diverged = false;
        Cycle cycle = 0;  ///< simulated cycle of the first mismatch
        unsigned unit = 0;///< unit index (== numSms means the fabric)
    };

    /**
     * First (cycle, unit) where the two traces disagree over their
     * common cycle range [max(start, other.start), min(end, end)].
     * Samples before the later trace's start are not comparable and are
     * skipped; traces ending at different cycles diverge at the shorter
     * trace's end. The reported cycle is on the accumulated timeline
     * (cycleOf()); traces whose frames begin at different cycles
     * diverge at the earlier of the first two such frame starts at the
     * latest.
     */
    Divergence firstDivergence(const DigestTrace &other) const;
};

/**
 * Global traversal-completion hook (Full level): called with the frame
 * base address and the finished per-ray traversal state machine whenever
 * the executor completes a timed traverseAS. The hook may be invoked from
 * multiple SM worker threads concurrently and must synchronize itself.
 */
using TraverseHook =
    std::function<void(Addr frame_base, const RayTraversal &trav)>;

/** Install (or, with an empty function, remove) the traverse hook. */
void setTraverseHook(TraverseHook hook);

/** Cheap inline gate for the executor's hot path. */
bool traverseHookActive();

/** Invoke the installed hook (no-op when none is installed). */
void callTraverseHook(Addr frame_base, const RayTraversal &trav);

} // namespace check
} // namespace vksim

#endif // VKSIM_CHECK_CHECK_H
