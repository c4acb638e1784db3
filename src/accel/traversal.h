/**
 * @file
 * Stepwise acceleration-structure traversal (paper Algorithm 2).
 *
 * One RayTraversal instance is the per-thread traversal state machine:
 * it exposes the address of the next node to fetch and consumes fetched
 * nodes one at a time, performing the corresponding BVH operation
 * (box tests, triangle tests, coordinate transform, procedural record).
 *
 * The RT unit timing model drives it fetch-by-fetch so memory latency
 * interleaves with BVH operations exactly as in the paper's RT unit;
 * functional-only clients call run() to completion.
 *
 * The traversal stack is a short stack of eight entries that spills into
 * (simulated) per-thread memory as described by Aila et al., with spill
 * traffic reported through a sink so the timing model can account for it.
 */

#ifndef VKSIM_ACCEL_TRAVERSAL_H
#define VKSIM_ACCEL_TRAVERSAL_H

#include <array>
#include <cstdint>
#include <vector>

#include "accel/layout.h"
#include "geom/mat4.h"
#include "geom/ray.h"
#include "mem/gmem.h"
#include "util/serial.h"

namespace vksim {

/** BVH operation kinds, matching the RT unit's operation units. */
enum class BvhOp : std::uint8_t
{
    None = 0,
    BoxTest,          ///< ray-box tests against an internal node's children
    TriangleTest,     ///< ray-triangle test of a triangle leaf
    Transform,        ///< world-to-object transform at a TLAS leaf
    ProceduralRecord  ///< procedural leaf recorded to intersection buffer
};

/** Ray flags analogous to Vulkan's gl_RayFlags*EXT. */
enum RayFlags : std::uint32_t
{
    kRayFlagNone = 0,
    kRayFlagTerminateOnFirstHit = 1u << 0,
    kRayFlagSkipProcedural = 1u << 1,
    kRayFlagOpaque = 1u << 2, ///< force all geometry opaque (skip any-hit)
    /**
     * Do not invoke the closest-hit shader (occlusion queries). Consumed
     * by the traceRayEXT lowering, not by traversal itself.
     */
    kRayFlagSkipClosestHit = 1u << 3
};

/**
 * One deferred shader invocation collected during traversal: either a
 * procedural-leaf intersection (needs the intersection shader) or a
 * non-opaque triangle hit (needs the any-hit shader). These are executed
 * *after* traversal under the paper's delayed intersection and any-hit
 * execution scheme.
 */
struct DeferredHit
{
    std::int32_t instanceIndex = -1;
    std::int32_t primitiveIndex = -1;
    std::int32_t instanceCustomIndex = 0;
    std::int32_t sbtOffset = 0;
    bool anyHit = false; ///< true: triangle any-hit; false: intersection
    // Candidate triangle hit data (any-hit case only).
    float t = 0.f;
    float u = 0.f;
    float v = 0.f;
};

/** Sink for traversal-generated memory traffic other than node fetches. */
class TraversalMemSink
{
  public:
    virtual ~TraversalMemSink() = default;
    /** Short-stack spill/refill traffic (bytes). */
    virtual void stackSpill(unsigned bytes, bool is_write) {}
    /** Append to the per-thread intersection buffer (bytes). */
    virtual void intersectionWrite(unsigned bytes) {}
};

/** Outcome of consuming one fetched node. */
struct TraversalStep
{
    BvhOp op = BvhOp::None;
    unsigned boxTests = 0;      ///< child box tests performed
    unsigned trianglesTested = 0;
    bool committedHit = false;  ///< triangle hit committed this step
    bool deferredRecorded = false;
    bool anyHitPending = false; ///< suspended on an immediate any-hit
    bool done = false;          ///< traversal complete after this step
};

/** Per-ray traversal state machine. */
class RayTraversal
{
  public:
    static constexpr unsigned kShortStackEntries = 8;

    /**
     * @param gmem Simulated memory holding the serialized BVH.
     * @param tlas_root Device address of the TLAS root node.
     * @param ray World-space ray.
     * @param flags RayFlags combination.
     */
    RayTraversal(const GlobalMemory &gmem, Addr tlas_root, const Ray &ray,
                 std::uint32_t flags = kRayFlagNone,
                 TraversalMemSink *sink = nullptr,
                 unsigned short_stack_entries = kShortStackEntries);

    /**
     * Restore constructor (checkpointing): binds `gmem` and reads every
     * other field from a stream previously produced by saveState(). The
     * memory-traffic sink is *not* restored — the owning RT unit
     * re-links it via setSink() when it restores its own entries.
     * `short_stack_entries` is the configured short-stack size; a
     * stream whose stack differs from it, or whose counts, node types
     * or hit kind are out of range, throws SimError.
     */
    RayTraversal(const GlobalMemory &gmem, serial::Reader &r,
                 unsigned short_stack_entries);

    /** Serialize the full traversal state (checkpointing). */
    void saveState(serial::Writer &w) const;

    /** True when no work remains. */
    bool done() const { return done_; }

    /** Attach/replace the memory-traffic sink (timed RT unit). */
    void setSink(TraversalMemSink *sink) { sink_ = sink; }

    /**
     * Immediate any-hit mode: a non-opaque triangle whose hit group has
     * an any-hit shader (bit `sbtOffset` set in `group_mask`) suspends
     * the traversal instead of being appended to the deferred table; the
     * owner runs the shader and resumes via resolveAnyHit(). Non-opaque
     * triangles whose group carries no any-hit shader commit inline
     * (Vulkan's default accept).
     * @{
     */
    void
    setImmediateAnyHit(bool enabled, std::uint64_t group_mask)
    {
        immediateAnyHit_ = enabled;
        anyHitGroupMask_ = group_mask;
    }

    /** True while suspended on an unresolved any-hit candidate. */
    bool anyHitSuspended() const { return anyHitSuspended_; }

    /** The candidate the traversal is suspended on. */
    const DeferredHit &pendingAnyHit() const { return pendingAnyHit_; }

    /**
     * Resume a suspended traversal with the any-hit verdict: commit the
     * candidate (and honor TerminateOnFirstHit) or ignore it.
     */
    void resolveAnyHit(bool commit);
    /** @} */

    /** Node type of the fetch reported by nextFetch(). */
    NodeType
    pendingType() const
    {
        return havePending_ ? pending_.type : NodeType::Invalid;
    }

    /**
     * Address/size of the next node to fetch. Returns false when done.
     * Does not modify state; the same fetch is reported until step() is
     * called with the node data.
     */
    bool nextFetch(Addr *addr, unsigned *size);

    /** Consume the node previously reported by nextFetch(). */
    TraversalStep step();

    /** Run to completion (functional-only clients). */
    void run();

    /** Committed closest hit so far (valid once done). */
    const HitRecord &hit() const { return hit_; }
    HitRecord &hit() { return hit_; }

    /** Deferred intersection/any-hit work collected during traversal. */
    const std::vector<DeferredHit> &deferred() const { return deferred_; }

    /** Total nodes fetched (Table IV's nodes-per-ray metric). */
    std::uint64_t nodesVisited() const { return nodesVisited_; }

    /** Box/triangle/transform op counts (roofline operations). */
    std::uint64_t boxTests() const { return boxTests_; }
    std::uint64_t triangleTests() const { return triangleTests_; }
    std::uint64_t transforms() const { return transforms_; }

    /** Stack spill events (each moves one entry to/from memory). */
    std::uint64_t stackSpills() const { return stackSpills_; }

    /** The ray world-space tmax after committed hits (shrinks). */
    float currentTmax() const { return worldRay_.tmax; }

  private:
    struct StackEntry
    {
        Addr addr = 0;
        NodeType type = NodeType::Invalid;
        std::int32_t instance = -1; ///< -1 = TLAS level
    };

    void push(const StackEntry &e);
    bool pop(StackEntry *e);
    void enterInstance(const TopLeafNode &leaf);
    void processInternal(const InternalNode &node, TraversalStep *out);
    void processTriangle(const TriangleLeafNode &leaf, TraversalStep *out);
    void processProcedural(const ProceduralLeafNode &leaf,
                           TraversalStep *out);

    /** Ray in the coordinate system of the current level. */
    const Ray &
    activeRay() const
    {
        return currentInstance_ < 0 ? worldRay_ : objectRay_;
    }

    const GlobalMemory &gmem_;
    TraversalMemSink *sink_;
    std::uint32_t flags_;

    Ray worldRay_;
    Ray objectRay_;
    Vec3 worldInvDir_;
    Vec3 objectInvDir_;
    std::int32_t currentInstance_ = -1;
    std::int32_t currentCustomIndex_ = 0;
    std::int32_t currentSbtOffset_ = 0;

    // Short stack + memory-resident overflow (bottom of the full stack).
    std::vector<StackEntry> shortStack_;
    unsigned shortTop_ = 0; ///< entries valid in shortStack_
    std::vector<StackEntry> spilled_;

    StackEntry pending_; ///< node reported by nextFetch, consumed by step
    bool havePending_ = false;
    bool done_ = false;

    bool immediateAnyHit_ = false;
    std::uint64_t anyHitGroupMask_ = 0; ///< bit per sbtOffset with any-hit
    bool anyHitSuspended_ = false;
    DeferredHit pendingAnyHit_;

    HitRecord hit_;
    std::vector<DeferredHit> deferred_;

    std::uint64_t nodesVisited_ = 0;
    std::uint64_t boxTests_ = 0;
    std::uint64_t triangleTests_ = 0;
    std::uint64_t transforms_ = 0;
    std::uint64_t stackSpills_ = 0;
};

} // namespace vksim

#endif // VKSIM_ACCEL_TRAVERSAL_H
