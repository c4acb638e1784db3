#include "accel/traversal.h"

#include <algorithm>

#include "accel/nodetest.h"
#include "geom/intersect.h"
#include "util/log.h"

namespace vksim {

namespace {

/** Unpack 12 floats (rows 0..2) into a Mat4. */
Mat4
unpackMatrix(const float rows[12])
{
    Mat4 m = Mat4::identity();
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 4; ++c)
            m.m[r][c] = rows[4 * r + c];
    return m;
}

} // namespace

RayTraversal::RayTraversal(const GlobalMemory &gmem, Addr tlas_root,
                           const Ray &ray, std::uint32_t flags,
                           TraversalMemSink *sink,
                           unsigned short_stack_entries)
    : gmem_(gmem), sink_(sink), flags_(flags), worldRay_(ray)
{
    shortStack_.resize(std::max(1u, short_stack_entries));
    worldInvDir_ = safeInverse(worldRay_.direction);
    StackEntry root;
    root.addr = tlas_root;
    root.type = NodeType::Internal;
    root.instance = -1;
    push(root);
}

void
RayTraversal::push(const StackEntry &e)
{
    if (shortTop_ == shortStack_.size()) {
        // Evict the *bottom* (stalest) entry into per-thread memory.
        spilled_.push_back(shortStack_[0]);
        for (unsigned i = 1; i < shortStack_.size(); ++i)
            shortStack_[i - 1] = shortStack_[i];
        --shortTop_;
        ++stackSpills_;
        if (sink_)
            sink_->stackSpill(sizeof(StackEntry), true);
    }
    shortStack_[shortTop_++] = e;
}

bool
RayTraversal::pop(StackEntry *e)
{
    if (shortTop_ == 0) {
        if (spilled_.empty())
            return false;
        // Refill from memory-resident stack bottom.
        *e = spilled_.back();
        spilled_.pop_back();
        ++stackSpills_;
        if (sink_)
            sink_->stackSpill(sizeof(StackEntry), false);
        return true;
    }
    *e = shortStack_[--shortTop_];
    return true;
}

bool
RayTraversal::nextFetch(Addr *addr, unsigned *size)
{
    if (done_ || anyHitSuspended_)
        return false;
    if (!havePending_) {
        if (!pop(&pending_)) {
            done_ = true;
            return false;
        }
        havePending_ = true;
    }
    *addr = pending_.addr;
    *size = kNodeBlockSize * nodeBlocks(pending_.type);
    return true;
}

void
RayTraversal::enterInstance(const TopLeafNode &leaf)
{
    currentInstance_ = static_cast<std::int32_t>(leaf.instanceIndex);
    currentCustomIndex_ = leaf.instanceCustomIndex;
    currentSbtOffset_ = leaf.sbtOffset;
    Mat4 w2o = unpackMatrix(leaf.worldToObject);
    objectRay_.origin = w2o.transformPoint(worldRay_.origin);
    // Direction left unnormalized so the t parameter matches world space.
    objectRay_.direction = w2o.transformVector(worldRay_.direction);
    objectRay_.tmin = worldRay_.tmin;
    objectRay_.tmax = worldRay_.tmax;
    objectInvDir_ = safeInverse(objectRay_.direction);
    ++transforms_;
}

void
RayTraversal::processInternal(const InternalNode &node, TraversalStep *out)
{
    out->op = BvhOp::BoxTest;
    const Ray &ray = activeRay();
    const Vec3 &inv = currentInstance_ < 0 ? worldInvDir_ : objectInvDir_;

    struct ChildHit
    {
        float t;
        unsigned idx;
    };
    ChildHit hits[6];
    unsigned hit_count = 0;
    // Clamp against corrupt node data: childCount beyond the 6-wide
    // format would overflow the local hit list.
    unsigned child_count = std::min<unsigned>(node.childCount, 6);
    out->boxTests += child_count;
    boxTests_ += child_count;
    float t_entry[6];
    unsigned hit_mask = nodeTest6(node, ray, inv, child_count, t_entry);
    for (unsigned i = 0; i < child_count; ++i)
        if (hit_mask & (1u << i))
            hits[hit_count++] = {t_entry[i], i};
    // Push far-to-near so the nearest child is popped first.
    std::sort(hits, hits + hit_count,
              [](const ChildHit &a, const ChildHit &b) { return a.t > b.t; });
    for (unsigned h = 0; h < hit_count; ++h) {
        StackEntry e;
        e.addr = node.childAddress(hits[h].idx);
        e.type = node.childType(hits[h].idx);
        e.instance = currentInstance_;
        push(e);
    }
}

void
RayTraversal::processTriangle(const TriangleLeafNode &leaf,
                              TraversalStep *out)
{
    out->op = BvhOp::TriangleTest;
    out->trianglesTested = 1;
    ++triangleTests_;

    const Ray &ray = activeRay();
    Vec3 v0{leaf.v0[0], leaf.v0[1], leaf.v0[2]};
    Vec3 v1{leaf.v1[0], leaf.v1[1], leaf.v1[2]};
    Vec3 v2{leaf.v2[0], leaf.v2[1], leaf.v2[2]};
    TriangleHit tri = rayTriangle(ray, v0, v1, v2);
    if (!tri.hit)
        return;

    bool opaque = leaf.opaque != 0 || (flags_ & kRayFlagOpaque);
    if (!opaque) {
        DeferredHit d;
        d.instanceIndex = currentInstance_;
        d.primitiveIndex = static_cast<std::int32_t>(leaf.primitiveIndex);
        d.instanceCustomIndex = currentCustomIndex_;
        d.sbtOffset = currentSbtOffset_;
        d.anyHit = true;
        d.t = tri.t;
        d.u = tri.u;
        d.v = tri.v;
        if (!immediateAnyHit_) {
            // Deferred any-hit execution: record the candidate, leave
            // tmax untouched (Vulkan imposes no hit ordering).
            deferred_.push_back(d);
            out->deferredRecorded = true;
            if (sink_)
                sink_->intersectionWrite(sizeof(DeferredHit));
            return;
        }
        bool has_any_hit = currentSbtOffset_ >= 0 && currentSbtOffset_ < 64
                           && ((anyHitGroupMask_ >> currentSbtOffset_) & 1);
        if (has_any_hit) {
            // Suspend: the owner runs the any-hit shader and resumes via
            // resolveAnyHit(); no further fetches until then.
            pendingAnyHit_ = d;
            anyHitSuspended_ = true;
            out->anyHitPending = true;
            return;
        }
        // Non-opaque with no any-hit shader: default accept, fall
        // through to the inline commit.
    }

    // Commit: update the closest hit and shrink both ray intervals.
    hit_.t = tri.t;
    hit_.u = tri.u;
    hit_.v = tri.v;
    hit_.instanceIndex = currentInstance_;
    hit_.primitiveIndex = static_cast<std::int32_t>(leaf.primitiveIndex);
    hit_.instanceCustomIndex = currentCustomIndex_;
    hit_.sbtOffset = currentSbtOffset_;
    hit_.kind = HitKind::Triangle;
    worldRay_.tmax = tri.t;
    objectRay_.tmax = tri.t;
    out->committedHit = true;
    if (flags_ & kRayFlagTerminateOnFirstHit) {
        done_ = true;
        havePending_ = false;
    }
}

void
RayTraversal::processProcedural(const ProceduralLeafNode &leaf,
                                TraversalStep *out)
{
    out->op = BvhOp::ProceduralRecord;
    if (flags_ & kRayFlagSkipProcedural)
        return;
    DeferredHit d;
    d.instanceIndex = currentInstance_;
    d.primitiveIndex = static_cast<std::int32_t>(leaf.primitiveIndex);
    d.instanceCustomIndex = currentCustomIndex_;
    d.sbtOffset = currentSbtOffset_;
    d.anyHit = false;
    deferred_.push_back(d);
    out->deferredRecorded = true;
    if (sink_)
        sink_->intersectionWrite(sizeof(DeferredHit));
}

TraversalStep
RayTraversal::step()
{
    TraversalStep out;
    if (done_ || !havePending_) {
        out.done = done_;
        return out;
    }

    StackEntry entry = pending_;
    havePending_ = false;
    ++nodesVisited_;

    // Context switch when popping back across an instance boundary.
    if (entry.instance != currentInstance_) {
        currentInstance_ = entry.instance;
        // Returning to the TLAS needs no recompute: the world ray is kept
        // up to date. Re-entering a *different* BLAS never happens without
        // passing through its TopLeaf, which re-derives the object ray.
        vksim_assert(entry.instance == -1);
    }

    switch (entry.type) {
      case NodeType::Internal: {
        InternalNode node = gmem_.load<InternalNode>(entry.addr);
        processInternal(node, &out);
        break;
      }
      case NodeType::TopLeaf: {
        TopLeafNode leaf = gmem_.load<TopLeafNode>(entry.addr);
        out.op = BvhOp::Transform;
        enterInstance(leaf);
        StackEntry e;
        e.addr = leaf.blasRoot;
        e.type = NodeType::Internal;
        e.instance = currentInstance_;
        push(e);
        break;
      }
      case NodeType::TriangleLeaf: {
        TriangleLeafNode leaf = gmem_.load<TriangleLeafNode>(entry.addr);
        processTriangle(leaf, &out);
        break;
      }
      case NodeType::ProceduralLeaf: {
        ProceduralLeafNode leaf =
            gmem_.load<ProceduralLeafNode>(entry.addr);
        processProcedural(leaf, &out);
        break;
      }
      default:
        vksim_panic("traversal reached an invalid node type");
    }

    // A suspended traversal is not done even with an empty stack: the
    // any-hit verdict re-applies this check in resolveAnyHit().
    if (!anyHitSuspended_ && !havePending_ && shortTop_ == 0
        && spilled_.empty())
        done_ = true;
    out.done = done_;
    return out;
}

void
RayTraversal::resolveAnyHit(bool commit)
{
    vksim_assert(anyHitSuspended_);
    anyHitSuspended_ = false;
    if (commit) {
        hit_.t = pendingAnyHit_.t;
        hit_.u = pendingAnyHit_.u;
        hit_.v = pendingAnyHit_.v;
        hit_.instanceIndex = pendingAnyHit_.instanceIndex;
        hit_.primitiveIndex = pendingAnyHit_.primitiveIndex;
        hit_.instanceCustomIndex = pendingAnyHit_.instanceCustomIndex;
        hit_.sbtOffset = pendingAnyHit_.sbtOffset;
        hit_.kind = HitKind::Triangle;
        // Resolution happens before any further step, so objectRay_
        // still belongs to the candidate's instance.
        worldRay_.tmax = pendingAnyHit_.t;
        objectRay_.tmax = pendingAnyHit_.t;
        if (flags_ & kRayFlagTerminateOnFirstHit) {
            done_ = true;
            havePending_ = false;
        }
    }
    if (!havePending_ && shortTop_ == 0 && spilled_.empty())
        done_ = true;
}

void
RayTraversal::run()
{
    Addr addr;
    unsigned size;
    while (nextFetch(&addr, &size))
        step();
}

namespace {

void
putVec3(serial::Writer &w, const Vec3 &v)
{
    w.f32(v.x);
    w.f32(v.y);
    w.f32(v.z);
}

Vec3
getVec3(serial::Reader &r)
{
    Vec3 v;
    v.x = r.f32();
    v.y = r.f32();
    v.z = r.f32();
    return v;
}

void
putRay(serial::Writer &w, const Ray &ray)
{
    putVec3(w, ray.origin);
    w.f32(ray.tmin);
    putVec3(w, ray.direction);
    w.f32(ray.tmax);
}

Ray
getRay(serial::Reader &r)
{
    Ray ray;
    ray.origin = getVec3(r);
    ray.tmin = r.f32();
    ray.direction = getVec3(r);
    ray.tmax = r.f32();
    return ray;
}

} // namespace

void
RayTraversal::saveState(serial::Writer &w) const
{
    w.u32(flags_);
    putRay(w, worldRay_);
    putRay(w, objectRay_);
    putVec3(w, worldInvDir_);
    putVec3(w, objectInvDir_);
    w.i32(currentInstance_);
    w.i32(currentCustomIndex_);
    w.i32(currentSbtOffset_);
    auto put_entry = [&](const StackEntry &e) {
        w.u64(e.addr);
        w.u32(static_cast<std::uint32_t>(e.type));
        w.i32(e.instance);
    };
    w.u64(shortStack_.size());
    w.u32(shortTop_);
    for (unsigned i = 0; i < shortTop_; ++i)
        put_entry(shortStack_[i]);
    w.u64(spilled_.size());
    for (const StackEntry &e : spilled_)
        put_entry(e);
    w.b(havePending_);
    if (havePending_)
        put_entry(pending_);
    w.b(done_);
    w.b(immediateAnyHit_);
    w.u64(anyHitGroupMask_);
    w.b(anyHitSuspended_);
    if (anyHitSuspended_) {
        w.i32(pendingAnyHit_.instanceIndex);
        w.i32(pendingAnyHit_.primitiveIndex);
        w.i32(pendingAnyHit_.instanceCustomIndex);
        w.i32(pendingAnyHit_.sbtOffset);
        w.b(pendingAnyHit_.anyHit);
        w.f32(pendingAnyHit_.t);
        w.f32(pendingAnyHit_.u);
        w.f32(pendingAnyHit_.v);
    }
    w.f32(hit_.t);
    w.f32(hit_.u);
    w.f32(hit_.v);
    w.i32(hit_.instanceIndex);
    w.i32(hit_.primitiveIndex);
    w.i32(hit_.instanceCustomIndex);
    w.i32(hit_.sbtOffset);
    w.u8(static_cast<std::uint8_t>(hit_.kind));
    w.u64(deferred_.size());
    for (const DeferredHit &d : deferred_) {
        w.i32(d.instanceIndex);
        w.i32(d.primitiveIndex);
        w.i32(d.instanceCustomIndex);
        w.i32(d.sbtOffset);
        w.b(d.anyHit);
        w.f32(d.t);
        w.f32(d.u);
        w.f32(d.v);
    }
    w.u64(nodesVisited_);
    w.u64(boxTests_);
    w.u64(triangleTests_);
    w.u64(transforms_);
    w.u64(stackSpills_);
}

RayTraversal::RayTraversal(const GlobalMemory &gmem, serial::Reader &r,
                           unsigned short_stack_entries)
    : gmem_(gmem), sink_(nullptr), flags_(r.u32())
{
    worldRay_ = getRay(r);
    objectRay_ = getRay(r);
    worldInvDir_ = getVec3(r);
    objectInvDir_ = getVec3(r);
    currentInstance_ = r.i32();
    currentCustomIndex_ = r.i32();
    currentSbtOffset_ = r.i32();
    auto get_entry = [&] {
        StackEntry e;
        e.addr = r.u64();
        e.type = static_cast<NodeType>(r.u32());
        if (e.type > NodeType::ProceduralLeaf)
            throw SimError("traversal snapshot: bad node type");
        e.instance = r.i32();
        return e;
    };
    shortStack_.resize(std::max(1u, short_stack_entries));
    if (r.u64() != shortStack_.size())
        throw SimError("traversal snapshot: short stack size differs");
    shortTop_ = r.u32();
    if (shortTop_ > shortStack_.size())
        throw SimError("traversal snapshot: short-stack top past its end");
    for (unsigned i = 0; i < shortTop_; ++i)
        shortStack_[i] = get_entry();
    spilled_.resize(r.count(16, "spilled stack entries"));
    for (StackEntry &e : spilled_)
        e = get_entry();
    havePending_ = r.b();
    if (havePending_)
        pending_ = get_entry();
    done_ = r.b();
    immediateAnyHit_ = r.b();
    anyHitGroupMask_ = r.u64();
    anyHitSuspended_ = r.b();
    if (anyHitSuspended_) {
        pendingAnyHit_.instanceIndex = r.i32();
        pendingAnyHit_.primitiveIndex = r.i32();
        pendingAnyHit_.instanceCustomIndex = r.i32();
        pendingAnyHit_.sbtOffset = r.i32();
        pendingAnyHit_.anyHit = r.b();
        pendingAnyHit_.t = r.f32();
        pendingAnyHit_.u = r.f32();
        pendingAnyHit_.v = r.f32();
    }
    hit_.t = r.f32();
    hit_.u = r.f32();
    hit_.v = r.f32();
    hit_.instanceIndex = r.i32();
    hit_.primitiveIndex = r.i32();
    hit_.instanceCustomIndex = r.i32();
    hit_.sbtOffset = r.i32();
    hit_.kind = static_cast<HitKind>(r.u8());
    if (hit_.kind > HitKind::Procedural)
        throw SimError("traversal snapshot: bad hit kind");
    deferred_.resize(r.count(29, "deferred hits"));
    for (DeferredHit &d : deferred_) {
        d.instanceIndex = r.i32();
        d.primitiveIndex = r.i32();
        d.instanceCustomIndex = r.i32();
        d.sbtOffset = r.i32();
        d.anyHit = r.b();
        d.t = r.f32();
        d.u = r.f32();
        d.v = r.f32();
    }
    nodesVisited_ = r.u64();
    boxTests_ = r.u64();
    triangleTests_ = r.u64();
    transforms_ = r.u64();
    stackSpills_ = r.u64();
}

} // namespace vksim
