/**
 * @file
 * Engine-state checkpointing: versioned binary snapshots of the full
 * simulated machine, taken at epoch barriers (DESIGN.md, "Persistence &
 * recovery contract").
 *
 * A snapshot captures exactly the unit state the per-barrier digest
 * walk covers — SM cores (warps, scoreboard, LDST bookkeeping, caches,
 * RT unit), the memory fabric (L2 slices, DRAM channels, in-flight
 * queues, the core→DRAM clock crossing), the idle-skip sleep set, the
 * global-memory image, dispatch cursors and accumulated statistics —
 * so a run restored from it is bit-identical to the uninterrupted
 * oracle for every thread count, idle-skip setting, and epoch length.
 *
 * Snapshots are only defined at barriers: the staged SM→fabric queues
 * are empty there and every unit's live state equals its state in a
 * run with one-cycle epochs. Requesting an exact mid-epoch snapshot is a hard API error.
 */

#ifndef VKSIM_GPU_CHECKPOINT_H
#define VKSIM_GPU_CHECKPOINT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/types.h"

namespace vksim {

struct GpuConfig;

/** A serialized engine state plus the barrier cycle it was taken at. */
struct EngineSnapshot
{
    Cycle cycle = 0;
    /** Structural-config digest the snapshot is only valid under. */
    std::uint64_t configDigest = 0;
    std::vector<std::uint8_t> bytes;
};

/** Checkpoint/restore knobs, embedded in GpuConfig. */
struct CheckpointConfig
{
    /**
     * Auto-snapshot period in cycles (0 = off): at the first epoch
     * barrier at or after each multiple of `every`, the engine writes a
     * snapshot to `path` (atomic temp-file + rename, so a crash never
     * leaves a torn file).
     */
    Cycle every = 0;
    std::string path;

    /**
     * One-shot in-memory snapshot request: capture the state at the
     * first epoch barrier at or after this cycle into
     * RunResult::snapshot (~Cycle(0) = off). The run continues
     * unperturbed — capturing is purely observational.
     */
    Cycle snapshotAt = ~Cycle(0);

    /**
     * Require the one-shot snapshot to land exactly at `snapshotAt`.
     * When the engine's barrier structure cannot stop there (the cycle
     * falls mid-epoch), the run throws SimError instead of silently
     * snapshotting at a later barrier.
     */
    bool exact = false;

    /** Resume from this snapshot instead of starting at cycle 0. */
    std::shared_ptr<const EngineSnapshot> resume;

    bool
    enabled() const
    {
        return every != 0 || snapshotAt != ~Cycle(0) || resume != nullptr;
    }
};

/** Snapshot file format version (bump on any payload layout change). */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * Digest of the structural GPU configuration a snapshot depends on.
 * Deliberately excludes behavior-neutral execution knobs (threads,
 * idleSkip, epochCycles, check level, digest/sweep instrumentation,
 * timeline, checkpoint settings, clocks-as-reporting): a snapshot from
 * a 4-thread run with 64-cycle epochs restores into a serial run with
 * one-cycle epochs and vice versa.
 */
std::uint64_t gpuConfigDigest(const GpuConfig &config);

/**
 * Write `snap` to `path` atomically: the bytes land in a temp file that
 * is renamed over the target only after a successful flush, and the
 * header carries a version, the config digest, the barrier cycle, and
 * an FNV-1a digest of the payload. Throws SimError on I/O failure.
 */
void writeSnapshotFile(const std::string &path, const EngineSnapshot &snap);

/**
 * Read and verify a snapshot file. Throws SimError with an actionable
 * message on a bad magic, an unknown version, a truncated payload, or
 * a payload-digest mismatch (bit rot / torn write).
 */
EngineSnapshot readSnapshotFile(const std::string &path);

} // namespace vksim

#endif // VKSIM_GPU_CHECKPOINT_H
