/**
 * @file
 * Direct unit tests of the RT unit timing model against a scripted
 * memory port: warp-buffer capacity, request merging and chunking,
 * response-FIFO pacing, operation latencies, perfect-BVH mode, and the
 * completion/writeback handshake. A real (small) serialized BVH drives
 * the traversal state machines; the port controls timing.
 */

#include <memory>

#include <gtest/gtest.h>

#include "accel/serialize.h"
#include "rtunit/rtunit.h"
#include "scene/scenegen.h"
#include "util/simerror.h"
#include "vptx/exec.h"

namespace vksim {
namespace {

/** Port that queues requests and releases them on demand. */
struct ScriptedPort : RtMemPort
{
    struct Pending
    {
        Addr sector;
        std::uint64_t tag;
    };
    std::vector<Pending> reads;
    std::vector<Addr> writes;
    bool stallReads = false;

    bool
    rtIssueRead(Addr sector, std::uint64_t tag) override
    {
        if (stallReads)
            return false;
        reads.push_back({sector, tag});
        return true;
    }

    bool
    rtIssueWrite(Addr sector) override
    {
        writes.push_back(sector);
        return true;
    }
};

/** Fixture: a REF-scene launch with traversals prepared for one warp. */
struct RtFixture
{
    Scene scene;
    GlobalMemory gmem;
    AccelStruct accel;
    vptx::LaunchContext ctx;
    vptx::Program program; // dummy (unused by the RT unit)
    vptx::Warp warp;
    StatGroup stats{"rt"};
    ScriptedPort port;

    explicit RtFixture(unsigned lanes = 8) : scene(makeRefScene())
    {
        accel = buildAccelStruct(scene, gmem);
        ctx.gmem = &gmem;
        ctx.program = &program;
        ctx.tlasRoot = accel.tlasRoot;
        ctx.launchSize[0] = kWarpSize;
        ctx.rtStackBase =
            gmem.allocate(kWarpSize * vptx::kRtStackBytesPerThread, 64);

        warp.warpId = 0;
        vptx::TraverseState &ts = warp.pendingTraverses[1];
        const vptx::Mask mask =
            lanes >= kWarpSize ? ~vptx::Mask(0) : (vptx::Mask(1) << lanes) - 1;
        ts.reset(mask);
        for (unsigned lane = 0; lane < lanes; ++lane) {
            Addr frame = ctx.frameBase(lane, 0);
            Ray ray = scene.camera.generateRay(lane * 4, 24, 48, 48);
            gmem.store<float>(frame + vptx::frame::kRayOriginX,
                              ray.origin.x);
            gmem.store<float>(frame + vptx::frame::kRayOriginY,
                              ray.origin.y);
            gmem.store<float>(frame + vptx::frame::kRayOriginZ,
                              ray.origin.z);
            gmem.store<float>(frame + vptx::frame::kRayTmin, ray.tmin);
            gmem.store<float>(frame + vptx::frame::kRayDirX,
                              ray.direction.x);
            gmem.store<float>(frame + vptx::frame::kRayDirY,
                              ray.direction.y);
            gmem.store<float>(frame + vptx::frame::kRayDirZ,
                              ray.direction.z);
            gmem.store<float>(frame + vptx::frame::kRayTmax, ray.tmax);
            ts.addRay(lane, frame,
                      vptx::rt_runtime::makeTraversal(gmem, accel.tlasRoot,
                                                      frame));
        }
    }

    RtUnit
    makeUnit(RtUnitConfig config = {})
    {
        RtUnit unit(config, &ctx, &stats);
        unit.setMemPort(&port);
        return unit;
    }

    /** Service every outstanding read immediately. */
    void
    serviceAll(RtUnit &unit, Cycle now)
    {
        auto pending = std::move(port.reads);
        port.reads.clear();
        for (auto &p : pending)
            unit.onResponse(p.tag, now);
    }
};

TEST(RtUnitTest, WarpBufferCapacityIsEnforced)
{
    RtFixture fx;
    RtUnitConfig config;
    config.maxWarps = 2;
    RtUnit unit = fx.makeUnit(config);
    EXPECT_TRUE(unit.canAccept());

    RtFixture fx2, fx3;
    unit.submit(&fx.warp, 1, 0);
    // NOTE: fx2/fx3 have their own launch contexts but capacity is what
    // is under test.
    RtUnit unit2 = fx.makeUnit(config);
    unit2.submit(&fx2.warp, 1, 0);
    EXPECT_TRUE(unit2.canAccept());
    unit2.submit(&fx3.warp, 1, 0);
    EXPECT_FALSE(unit2.canAccept());
}

TEST(RtUnitTest, TraversesCompleteAndMatchFunctionalResults)
{
    RtFixture fx(8);
    // Reference: run identical traversals functionally.
    RtFixture ref(8);
    for (unsigned lane = 0; lane < 8; ++lane)
        ref.warp.pendingTraverses[1].ray(lane)->run();

    RtUnit unit = fx.makeUnit();
    unit.submit(&fx.warp, 1, 0);
    Cycle now = 0;
    std::vector<RtUnit::Completion> done;
    while (done.empty() && now < 100000) {
        unit.cycle(now);
        fx.serviceAll(unit, now);
        ++now;
        for (auto &c : unit.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].splitId, 1);
    EXPECT_GT(now, 10u) << "timed traversal must take real cycles";

    for (unsigned lane = 0; lane < 8; ++lane) {
        const RayTraversal *timed = fx.warp.pendingTraverses[1].ray(lane);
        const RayTraversal *func = ref.warp.pendingTraverses[1].ray(lane);
        ASSERT_TRUE(timed->done());
        EXPECT_EQ(timed->hit().valid(), func->hit().valid()) << lane;
        if (timed->hit().valid()) {
            EXPECT_FLOAT_EQ(timed->hit().t, func->hit().t) << lane;
        }
        EXPECT_EQ(timed->nodesVisited(), func->nodesVisited()) << lane;
    }
}

TEST(RtUnitTest, IdenticalLaneRequestsAreMerged)
{
    // All lanes trace the same ray: the root fetch must merge into a
    // single memory request (paper Sec. III-C3).
    RtFixture fx(8);
    vptx::TraverseState &ts = fx.warp.pendingTraverses[1];
    const Addr frame0 = ts.frameBase(0);
    ts.reset(ts.mask);
    for (unsigned lane = 0; lane < 8; ++lane) {
        ts.addRay(lane, fx.ctx.frameBase(lane, 0),
                  vptx::rt_runtime::makeTraversal(fx.gmem, fx.accel.tlasRoot,
                                                  frame0));
    }
    RtUnit unit = fx.makeUnit();
    unit.submit(&fx.warp, 1, 0);
    unit.cycle(0);
    unit.cycle(1);
    unit.cycle(2);
    EXPECT_GE(fx.stats.get("mem_merged"), 7u)
        << "seven lanes must merge into the first lane's root fetch";
}

TEST(RtUnitTest, PortStallBackpressuresRequests)
{
    RtFixture fx(4);
    RtUnit unit = fx.makeUnit();
    fx.port.stallReads = true;
    unit.submit(&fx.warp, 1, 0);
    for (Cycle now = 0; now < 50; ++now)
        unit.cycle(now);
    EXPECT_TRUE(fx.port.reads.empty());
    EXPECT_TRUE(unit.busy());
    // Release the stall: requests flow and the warp finishes.
    fx.port.stallReads = false;
    Cycle now = 50;
    while (unit.busy() && now < 100000) {
        unit.cycle(now);
        fx.serviceAll(unit, now);
        ++now;
        unit.drainCompletions();
    }
    EXPECT_FALSE(unit.busy());
}

TEST(RtUnitTest, PerfectBvhNeedsNoPort)
{
    RtFixture fx(8);
    RtUnitConfig config;
    config.perfectBvh = true;
    RtUnit unit = fx.makeUnit(config);
    unit.submit(&fx.warp, 1, 0);
    Cycle now = 0;
    std::vector<RtUnit::Completion> done;
    while (done.empty() && now < 100000) {
        unit.cycle(now);
        ++now;
        for (auto &c : unit.drainCompletions())
            done.push_back(c);
    }
    EXPECT_EQ(done.size(), 1u);
    EXPECT_TRUE(fx.port.reads.empty())
        << "perfect BVH must not issue node fetches";
}

TEST(RtUnitTest, OpLatencyPacesCompletion)
{
    auto run_with_latency = [&](unsigned box_latency) {
        RtFixture fx(8);
        RtUnitConfig config;
        config.perfectBvh = true;
        config.boxLatency = box_latency;
        config.triLatency = box_latency;
        RtUnit unit = fx.makeUnit(config);
        unit.submit(&fx.warp, 1, 0);
        Cycle now = 0;
        while (unit.busy() && now < 1000000) {
            unit.cycle(now);
            ++now;
            unit.drainCompletions();
        }
        return now;
    };
    Cycle fast = run_with_latency(2);
    Cycle slow = run_with_latency(40);
    EXPECT_GT(slow, fast)
        << "operation-unit latency must lengthen traversal";
}

TEST(RtUnitTest, ActiveRaysTrackLaneProgress)
{
    RtFixture fx(8);
    RtUnit unit = fx.makeUnit();
    EXPECT_EQ(unit.activeRays(), 0u);
    unit.submit(&fx.warp, 1, 0);
    EXPECT_EQ(unit.activeRays(), 8u);
    Cycle now = 0;
    while (unit.busy() && now < 100000) {
        unit.cycle(now);
        fx.serviceAll(unit, now);
        ++now;
        unit.drainCompletions();
    }
    EXPECT_EQ(unit.activeRays(), 0u);
}

TEST(RtUnitTest, ChunkAccountingSurvivesQueueBackpressure)
{
    // Regression: when the Memory Access Queue filled up mid-node, the
    // scheduler moved the lane to WaitingMem with only the chunks queued
    // so far; the node's remaining 32 B chunks were never fetched, so
    // traversal proceeded having "paid" for part of the node. Under
    // backpressure this silently deflated RT-unit memory traffic.
    //
    // Conservation law: every node fetch is 64 B (2 chunks) except the
    // 128 B TopLeaf (4 chunks), and each chunk becomes exactly one new
    // request or one merge. With a tiny queue and a port that stalls in
    // bursts, the totals must still balance.
    RtFixture fx(8);
    RtUnitConfig config;
    config.memQueueSize = 4; // minimum: one TopLeaf node (4 chunks)
    RtUnit unit = fx.makeUnit(config);
    unit.submit(&fx.warp, 1, 0);
    Cycle now = 0;
    while (unit.busy() && now < 1000000) {
        fx.port.stallReads = (now % 8) < 5; // bursty port backpressure
        unit.cycle(now);
        fx.port.stallReads = false;
        fx.serviceAll(unit, now);
        ++now;
        unit.drainCompletions();
    }
    ASSERT_FALSE(unit.busy()) << "warp did not complete";

    std::uint64_t expected_chunks = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
        const RayTraversal *trav = fx.warp.pendingTraverses[1].ray(lane);
        ASSERT_TRUE(trav->done()) << lane;
        // 2 chunks per node plus 2 extra for each 128 B TopLeaf (one
        // transform op per TopLeaf fetch).
        expected_chunks += 2 * trav->nodesVisited() + 2 * trav->transforms();
    }
    EXPECT_EQ(fx.stats.get("mem_requests") + fx.stats.get("mem_merged"),
              expected_chunks)
        << "every 32 B chunk of every fetched node must be requested "
           "or merged exactly once";
}

TEST(RtUnitTest, WritebackGeneratesHitStores)
{
    RtFixture fx(8);
    RtUnit unit = fx.makeUnit();
    unit.submit(&fx.warp, 1, 0);
    Cycle now = 0;
    while (unit.busy() && now < 100000) {
        unit.cycle(now);
        fx.serviceAll(unit, now);
        ++now;
        unit.drainCompletions();
    }
    // One hit-record store sector per participating ray, plus any spills.
    EXPECT_GE(fx.port.writes.size(), 8u);
}

TEST(RtUnitTest, DerivedBookkeepingHoldsAndSurvivesRestore)
{
    // The unit caches its operation deadline and counts live and ready
    // lanes instead of scanning them. A checked run must never see any
    // of them disagree with a lane scan, and a unit restored
    // mid-traversal (which rebuilds the deadline and the ready counts
    // from the decoded lanes) must finish exactly like an uninterrupted
    // one.
    RtFixture fx(8), ref(8);
    auto unit = std::make_unique<RtUnit>(RtUnitConfig{}, &fx.ctx, &fx.stats);
    unit->setMemPort(&fx.port);
    RtUnit oracle = ref.makeUnit();
    unit->submit(&fx.warp, 1, 0);
    oracle.submit(&ref.warp, 1, 0);
    constexpr Cycle kRestoreAt = 40;
    Cycle now = 0;
    for (; oracle.busy() && now < 100000; ++now) {
        unit->cycle(now);
        oracle.cycle(now);
        fx.serviceAll(*unit, now);
        ref.serviceAll(oracle, now);
        unit->drainCompletions();
        oracle.drainCompletions();
        check::Reporter rep(/*collect=*/true);
        unit->checkInvariants(rep, "rt", now);
        ASSERT_TRUE(rep.ok()) << "cycle " << now << ": "
                              << rep.violations().front().path << ": "
                              << rep.violations().front().message;
        ASSERT_EQ(unit->stateDigest(), oracle.stateDigest())
            << "cycle " << now;
        ASSERT_EQ(unit->activeRays(), oracle.activeRays());

        if (now == kRestoreAt) {
            ASSERT_TRUE(unit->busy());
            serial::Writer w;
            unit->saveState(w, [](const vptx::Warp *) { return 0u; });
            auto restored =
                std::make_unique<RtUnit>(RtUnitConfig{}, &fx.ctx, &fx.stats);
            restored->setMemPort(&fx.port);
            serial::Reader r(w.buffer());
            restored->loadState(r, [&](std::uint32_t) { return &fx.warp; });
            ASSERT_EQ(r.remaining(), 0u);
            unit = std::move(restored);
        }
    }
    EXPECT_GT(now, kRestoreAt);
    EXPECT_FALSE(unit->busy()) << "restored unit did not finish with the "
                                  "uninterrupted one";
    EXPECT_EQ(fx.stats.dump(), ref.stats.dump());
}

// --- Snapshot decoding ------------------------------------------------------

/**
 * What craftRtUnit writes: slot 0 holds the fixture's warp (split 1,
 * mask 0xff), lane 0 waits on one chunk that the Memory Access Queue's
 * one sector targets, lanes 1..7 are Ready, and the other slots of the
 * 8-entry warp buffer are empty.
 */
struct RtImage
{
    std::uint64_t entries = 8;
    std::int32_t split = 1;
    std::uint32_t mask = 0xff;
    std::uint8_t lane1Status = 1; ///< Ready
    std::uint32_t lane1NodeType = 0;
    std::uint32_t lane0Chunks = 1;
    std::uint32_t lanesLive = 8;
    std::uint64_t writebacks = 0;
    std::uint64_t queueTargets = 1;
    std::pair<std::uint32_t, std::uint32_t> target{0, 0};
    std::vector<std::uint64_t> inflightTags;
    std::int32_t lastScheduled = 0;
    std::uint32_t liveEntries = 1;
};

std::vector<std::uint8_t>
craftRtUnit(const RtImage &img)
{
    serial::Writer w;
    w.u64(img.entries);
    for (std::uint64_t slot = 0; slot < img.entries; ++slot) {
        w.b(slot == 0);
        if (slot != 0)
            continue;
        w.u32(0); // SM warp slot
        w.i32(img.split);
        w.u32(img.mask);
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            const std::uint8_t status = lane == 0   ? 2 // WaitingMem
                                        : lane == 1 ? img.lane1Status
                                        : lane < 8  ? 1 // Ready
                                                    : 0; // Idle
            w.u8(status);
            w.u32(lane == 0 ? img.lane0Chunks : 0);
            w.u64(0); // opDoneAt
            w.u32(lane == 1 ? img.lane1NodeType : 0);
            w.b(false);
        }
        w.u64(0); // submit time
        w.u32(img.lanesLive);
        w.u64(img.writebacks);
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(img.writebacks, 4);
             ++i)
            w.u64(0);
        w.b(false); // in writeback
        w.u64(0);   // spill writes
        w.u64(0);   // deferred writes
    }
    w.u64(1); // Memory Access Queue: one sector
    w.u64(0x1000);
    w.u64(img.queueTargets);
    w.u32(img.target.first);
    w.u32(img.target.second);
    w.u64(0); // Response FIFO
    w.u64(0); // write queue
    w.u64(0); // completions
    w.u64(img.inflightTags.size());
    for (std::uint64_t tag : img.inflightTags) {
        w.u64(tag);
        w.u64(0); // targets
    }
    w.u64(100); // next tag
    w.i32(img.lastScheduled);
    w.u32(img.liveEntries);
    w.u64(0); // any-hit suspended
    w.u64(0); // committed
    w.u64(0); // ignored
    return w.take();
}

TEST(RtUnitSnapshotTest, RejectsMalformedState)
{
    RtFixture fx(8);
    auto load = [&](const std::vector<std::uint8_t> &bytes,
                    RtUnit &unit) -> std::string {
        serial::Reader r(bytes);
        try {
            unit.loadState(r, [&](std::uint32_t slot) -> vptx::Warp * {
                if (slot != 0)
                    throw SimError("warp slot " + std::to_string(slot)
                                   + " is not resident");
                return &fx.warp;
            });
        } catch (const SimError &e) {
            return e.what();
        }
        return r.remaining() == 0 ? "" : "trailing bytes";
    };
    {
        RtUnit unit = fx.makeUnit();
        EXPECT_EQ(load(craftRtUnit(RtImage{}), unit), "");
        EXPECT_EQ(unit.activeRays(), 8u);
        check::Reporter rep(/*collect=*/true);
        unit.checkInvariants(rep, "rt", 0);
        EXPECT_TRUE(rep.ok()) << rep.violations().front().message;
    }
    auto expect_rejected = [&](const RtImage &img, const std::string &why) {
        RtUnit unit = fx.makeUnit();
        std::string err = load(craftRtUnit(img), unit);
        EXPECT_NE(err.find(why), std::string::npos) << "got: " << err;
    };
    RtImage bad;
    bad.entries = 9;
    expect_rejected(bad, "9 warp-buffer entries, the unit has 8");
    bad = RtImage{};
    bad.split = 7;
    expect_rejected(bad, "names split 7, which its warp is not traversing");
    bad = RtImage{};
    bad.lane1Status = 7;
    expect_rejected(bad, "lane status 7");
    bad = RtImage{};
    bad.lane1NodeType = 5;
    expect_rejected(bad, "node type 5");
    bad = RtImage{};
    bad.mask = 0x7f; // lane 7 is Ready but outside the split
    expect_rejected(bad, "lane 7 is live without a traversal");
    bad = RtImage{};
    bad.lane0Chunks = 0;
    expect_rejected(bad, "lane 0 waits on 0 chunks");
    bad = RtImage{};
    bad.lanesLive = 5;
    expect_rejected(bad, "records 5 live lanes, its lanes hold 8");
    bad = RtImage{};
    bad.writebacks = 1ull << 60;
    expect_rejected(bad, "writeback sectors in");
    bad = RtImage{};
    bad.queueTargets = 1ull << 40;
    expect_rejected(bad, "memory-queue targets in");
    bad = RtImage{};
    bad.target = {8, 0};
    expect_rejected(bad, "target (8,0) is not a lane of a resident warp");
    bad = RtImage{};
    bad.target = {0, 32};
    expect_rejected(bad, "target (0,32) is not a lane of a resident warp");
    bad = RtImage{};
    bad.target = {3, 0};
    expect_rejected(bad, "target (3,0) is not a lane of a resident warp");
    bad = RtImage{};
    bad.inflightTags = {5, 5};
    expect_rejected(bad, "in-flight read tag 5 appears twice");
    bad = RtImage{};
    bad.lastScheduled = 8;
    expect_rejected(bad, "greedy warp slot 8");
    bad = RtImage{};
    bad.liveEntries = 2;
    expect_rejected(bad, "records 2 resident warps, 1 slots are valid");
}

} // namespace
} // namespace vksim
