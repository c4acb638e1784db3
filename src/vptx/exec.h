/**
 * @file
 * The VPTX warp executor: functional execution of one instruction for one
 * warp split, shared by the functional-only runner and the timed SM model
 * (which executes functionally at issue, GPGPU-Sim style, and models
 * latency separately from the returned StepResult).
 *
 * The hot path dispatches over the pre-decoded micro-op stream
 * (vptx/uop.h): the timing model fetches the MicroOp once per issue
 * attempt — serving the scoreboard, structural-hazard checks and the
 * functional step from the same decode — and the per-lane handlers run
 * as a dense table / computed-goto threaded loop over the warp's
 * structure-of-arrays register file. The legacy structural-ISA
 * interpreter is retained behind ExecOptions::structuralDispatch as the
 * reference for differential tests and the dispatch benchmark.
 */

#ifndef VKSIM_VPTX_EXEC_H
#define VKSIM_VPTX_EXEC_H

#include <memory>

#include "util/stats.h"
#include "vptx/context.h"
#include "vptx/rt_runtime.h"
#include "vptx/uop.h"

namespace vksim::vptx {

/** Outcome of executing one instruction for a warp split. */
struct StepResult
{
    Opcode op = Opcode::Nop;
    ExecUnit unit = ExecUnit::ALU;
    unsigned activeLanes = 0;
    std::int16_t dstReg = -1; ///< destination register (scoreboarding)

    /** Per-lane memory accesses this instruction performed. */
    std::vector<MemAccess> accesses;

    /** The split issued traverseAS and is now parked. */
    bool startedTraverse = false;
    int traverseSplitId = -1;

    bool exited = false; ///< lanes terminated
};

/** Options controlling executor behaviour (case studies). */
struct ExecOptions
{
    bool fccEnabled = false; ///< function call coalescing (Sec. IV-A)
    /** Short-stack entries per ray (ablation; paper uses 8). */
    unsigned shortStackEntries = 8;
    /**
     * Execute through the legacy structural-ISA interpreter instead of
     * the micro-op stream (reference path for differential tests and
     * BM_VptxDispatch; never decodes micro-ops).
     */
    bool structuralDispatch = false;
};

/**
 * Executes VPTX instructions against warp state. Stateless apart from the
 * launch context reference and the decode telemetry, so one executor
 * serves all warps of a launch.
 */
class WarpExecutor
{
  public:
    WarpExecutor(const LaunchContext &ctx, ExecOptions options = {});

    /**
     * Pre-decoded micro-op at `pc`. Counts one decode: the timing model
     * calls this exactly once per issue attempt and feeds the result to
     * step(), so decode count per dynamic instruction is exactly 1.
     */
    const MicroOp &
    fetch(std::uint32_t pc)
    {
        ++decodes_;
        return uops_->at(pc);
    }

    /**
     * Execute the instruction at split `split_idx`'s pc for all its
     * active lanes, updating thread state, memory, and control flow.
     */
    StepResult step(Warp &warp, int split_idx);

    /** As above with the already-fetched micro-op (no re-decode). */
    StepResult step(Warp &warp, int split_idx, const MicroOp &u);

    /** Legacy structural-ISA path (reference for differential tests). */
    StepResult stepStructural(Warp &warp, int split_idx);

    /**
     * Finish a parked traverseAS: write traversal results to the frames,
     * build the FCC table when enabled, and unblock the split.
     * The parked traversals for this split must be complete.
     */
    void completeTraverse(Warp &warp, int split_id);

    /** Run the parked traversals to completion (functional mode). */
    void runTraverseFunctional(Warp &warp, int split_id);

    const ExecOptions &options() const { return options_; }

    /** The micro-op stream this executor dispatches over. */
    const MicroProgram &uops() const { return *uops_; }

    /** Micro-op fetches performed (decode-count regression telemetry). */
    std::uint64_t decodeCount() const { return decodes_; }

    /** Count `n` fetches the timing model applied in closed form
     *  instead of calling fetch() (settled no-issue probes). */
    void countFetches(std::uint64_t n) { decodes_ += n; }

  private:
    void execLanes(Warp &warp, Mask mask, const MicroOp &u,
                   StepResult &result);
    void execLaneStructural(Warp &warp, ThreadState &t, const Instr &instr,
                            StepResult &result, unsigned lane);

    const LaunchContext &ctx_;
    ExecOptions options_;
    std::uint64_t anyHitGroups_ = 0; ///< immediate-mode hit-group mask
    const MicroProgram *uops_ = nullptr;
    std::unique_ptr<MicroProgram> ownedUops_; ///< fallback when ctx has none
    std::uint64_t decodes_ = 0;
};

/**
 * Functional-only launch runner: executes every warp to completion with
 * zero-latency memory; used for image-correctness validation and by unit
 * tests of shaders and the translator.
 */
class FunctionalRunner
{
  public:
    FunctionalRunner(const LaunchContext &ctx, ExecOptions options = {},
                     WarpCflow::Mode mode = WarpCflow::Mode::Stack);

    /** Execute the whole launch. */
    void run();

    /** Instruction-issue statistics (per exec unit and total). */
    const StatGroup &stats() const { return stats_; }

    /** Micro-op fetches the run performed (1 per dynamic instruction). */
    std::uint64_t decodeCount() const { return exec_.decodeCount(); }

  private:
    const LaunchContext &ctx_;
    WarpExecutor exec_;
    WarpCflow::Mode mode_;
    StatGroup stats_{"functional"};
};

/** Initialize a warp's threads and control flow for a launch. */
void initWarp(Warp &warp, std::uint32_t warp_id, const LaunchContext &ctx,
              WarpCflow::Mode mode);

/** Result of one immediate (mid-traversal) any-hit invocation. */
struct AnyHitRun
{
    bool commit = false;            ///< verdict: candidate accepted
    std::uint64_t instructions = 0; ///< dynamic instructions executed
};

/**
 * Run the any-hit shader for a traversal suspended on `candidate`
 * (immediate any-hit mode). Executes the hit group's translate-time
 * trampoline in a one-lane mini-warp against the suspended ray's frame:
 * the candidate is staged as deferred entry 0, kHitT is seeded with
 * `current_tmax`, and the shader's CommitAnyHit applies the same
 * strictly-closer rule as the deferred resolution path. The frame's hit
 * and deferred words are scratch here — writeResults() rewrites them when
 * the traversal completes. Deterministic: the mini-warp touches only the
 * suspended thread's own frame.
 */
AnyHitRun runAnyHitShader(const LaunchContext &ctx, Addr frame_base,
                          const DeferredHit &candidate, float current_tmax,
                          const ExecOptions &options = {});

} // namespace vksim::vptx

#endif // VKSIM_VPTX_EXEC_H
