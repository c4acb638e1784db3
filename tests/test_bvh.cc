/**
 * @file
 * BVH builder, node layout, serialization, and traversal tests, including
 * parameterized property tests comparing serialized-BVH traversal against
 * brute-force intersection across the evaluation scenes.
 */

#include <gtest/gtest.h>

#include "accel/build.h"
#include "geom/sampling.h"
#include "accel/serialize.h"
#include "accel/traversal.h"
#include "reftrace/tracer.h"
#include "scene/scenegen.h"
#include "util/rng.h"

namespace vksim {
namespace {

std::vector<PrimRef>
randomPrims(unsigned count, std::uint32_t seed)
{
    Pcg32 rng(seed);
    std::vector<PrimRef> prims(count);
    for (unsigned i = 0; i < count; ++i) {
        Vec3 c{rng.nextRange(-50, 50), rng.nextRange(-50, 50),
               rng.nextRange(-50, 50)};
        Vec3 e{rng.nextRange(0.1f, 2.f), rng.nextRange(0.1f, 2.f),
               rng.nextRange(0.1f, 2.f)};
        prims[i].bounds.extend(c - e);
        prims[i].bounds.extend(c + e);
        prims[i].index = i;
    }
    return prims;
}

TEST(BinaryBvhTest, EveryPrimitiveInExactlyOneLeaf)
{
    auto prims = randomPrims(500, 1);
    BinaryBvh bvh = buildBinaryBvh(prims);
    std::vector<int> seen(prims.size(), 0);
    for (const BinaryBvhNode &n : bvh.nodes)
        if (n.isLeaf())
            ++seen[static_cast<std::size_t>(n.primIndex)];
    for (int count : seen)
        EXPECT_EQ(count, 1);
    EXPECT_EQ(bvh.nodes.size(), 2 * prims.size() - 1);
}

TEST(BinaryBvhTest, ParentBoundsEncloseChildren)
{
    auto prims = randomPrims(300, 2);
    BinaryBvh bvh = buildBinaryBvh(prims);
    for (const BinaryBvhNode &n : bvh.nodes) {
        if (n.isLeaf()) {
            EXPECT_TRUE(n.bounds.encloses(
                prims[static_cast<std::size_t>(n.primIndex)].bounds));
            continue;
        }
        EXPECT_TRUE(n.bounds.encloses(
            bvh.nodes[static_cast<std::size_t>(n.left)].bounds));
        EXPECT_TRUE(n.bounds.encloses(
            bvh.nodes[static_cast<std::size_t>(n.right)].bounds));
    }
}

TEST(WideBvhTest, CollapsePreservesPrimitives)
{
    for (unsigned count : {1u, 2u, 6u, 7u, 37u, 1000u}) {
        auto prims = randomPrims(count, count);
        WideBvh wide = buildWideBvh(prims);
        EXPECT_EQ(wide.leafCount(), count) << "count=" << count;
        std::vector<int> seen(count, 0);
        for (const WideBvhNode &n : wide.nodes) {
            EXPECT_LE(n.children.size(), kBvhWidth);
            EXPECT_GE(n.children.size(), 1u);
            for (const WideBvhChild &c : n.children) {
                EXPECT_TRUE(n.bounds.encloses(c.bounds));
                if (c.isLeaf())
                    ++seen[static_cast<std::size_t>(c.prim)];
            }
        }
        for (int s : seen)
            EXPECT_EQ(s, 1);
    }
}

TEST(WideBvhTest, WideDepthNotDeeperThanBinary)
{
    auto prims = randomPrims(4096, 3);
    WideBvh wide = buildWideBvh(prims);
    // 6-wide collapse of ~4k prims should be shallow.
    EXPECT_LE(wide.maxDepth, 10u);
    EXPECT_GE(wide.maxDepth, 4u);
}

TEST(LayoutTest, NodeSizesMatchPaperFigure7)
{
    EXPECT_EQ(sizeof(InternalNode), 64u);
    EXPECT_EQ(sizeof(TopLeafNode), 128u);
    EXPECT_EQ(sizeof(TriangleLeafNode), 64u);
    EXPECT_EQ(sizeof(ProceduralLeafNode), 64u);
}

TEST(LayoutTest, QuantizedChildBoundsAreConservative)
{
    Pcg32 rng(4);
    for (int trial = 0; trial < 200; ++trial) {
        Aabb parent;
        parent.extend({rng.nextRange(-100, 0), rng.nextRange(-100, 0),
                       rng.nextRange(-100, 0)});
        parent.extend({rng.nextRange(0, 100), rng.nextRange(0, 100),
                       rng.nextRange(0, 100)});
        InternalNode node{};
        node.setFrame(parent);
        Aabb child;
        Vec3 extent = parent.extent();
        Vec3 a = parent.lo + extent * rng.nextFloat();
        Vec3 b = parent.lo + extent * rng.nextFloat();
        child.extend(vmin(a, b));
        child.extend(vmax(a, b));
        node.setChildBounds(0, child);
        Aabb deq = node.childBounds(0);
        EXPECT_TRUE(deq.encloses(child))
            << "quantized box must conservatively cover the child";
        // And it should not be wildly larger than the parent frame.
        EXPECT_TRUE(parent.encloses(deq, 1.f));
    }
}

TEST(LayoutTest, ChildAddressAccountsForTwoBlockLeaves)
{
    InternalNode node{};
    node.firstChild = 0x1000;
    node.childCount = 3;
    node.setChildType(0, NodeType::TopLeaf);   // 128 B
    node.setChildType(1, NodeType::Internal);  // 64 B
    node.setChildType(2, NodeType::TopLeaf);
    EXPECT_EQ(node.childAddress(0), 0x1000u);
    EXPECT_EQ(node.childAddress(1), 0x1080u);
    EXPECT_EQ(node.childAddress(2), 0x10C0u);
}

TEST(SerializeTest, StatsAreConsistent)
{
    Scene scene = makeRefScene();
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);
    EXPECT_EQ(accel.stats.tlasLeaves, scene.instances.size());
    EXPECT_EQ(accel.stats.blasLeaves, 2u + 12u); // floor quad + box blas
    EXPECT_GT(accel.stats.totalBytes, 0u);
    EXPECT_EQ(accel.blasRoots.size(), scene.geometries.size());
    // TRI-like shallow scene: depth formula sanity.
    EXPECT_EQ(accel.stats.treeDepth(),
              accel.stats.tlasDepth + 1 + accel.stats.maxBlasDepth);
}

TEST(SerializeTest, TriSceneDepthMatchesTable4)
{
    Scene scene = makeTriScene();
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);
    EXPECT_EQ(accel.stats.treeDepth(), 3u); // paper Table IV: depth 3
}

TEST(TraversalTest, SingleTriangleHit)
{
    Scene scene = makeTriScene();
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);

    Ray ray;
    ray.origin = {0.f, 0.f, 2.5f};
    ray.direction = {0.f, 0.f, -1.f};
    RayTraversal trav(gmem, accel.tlasRoot, ray);
    trav.run();
    ASSERT_TRUE(trav.hit().valid());
    EXPECT_NEAR(trav.hit().t, 2.5f, 1e-4f);
    EXPECT_EQ(trav.hit().kind, HitKind::Triangle);
    EXPECT_EQ(trav.hit().instanceIndex, 0);
    EXPECT_GE(trav.nodesVisited(), 3u);
}

TEST(TraversalTest, MissReportsNoHit)
{
    Scene scene = makeTriScene();
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);

    Ray ray;
    ray.origin = {0.f, 0.f, 2.5f};
    ray.direction = {0.f, 1.f, 0.f};
    RayTraversal trav(gmem, accel.tlasRoot, ray);
    trav.run();
    EXPECT_FALSE(trav.hit().valid());
}

TEST(TraversalTest, TerminateOnFirstHitStopsEarly)
{
    Scene scene = makeExtScene(0.1f);
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);

    Ray ray = scene.camera.generateRay(10, 10, 64, 64);
    RayTraversal closest(gmem, accel.tlasRoot, ray);
    closest.run();
    RayTraversal first(gmem, accel.tlasRoot, ray,
                       kRayFlagTerminateOnFirstHit);
    first.run();
    ASSERT_TRUE(closest.hit().valid());
    ASSERT_TRUE(first.hit().valid());
    EXPECT_LE(first.nodesVisited(), closest.nodesVisited());
}

TEST(TraversalTest, ShortStackSpillsOnDeepScenes)
{
    Scene scene = makeExtScene(0.35f);
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);

    std::uint64_t spills = 0;
    for (unsigned y = 0; y < 16; ++y)
        for (unsigned x = 0; x < 16; ++x) {
            Ray ray = scene.camera.generateRay(x, y, 16, 16);
            RayTraversal trav(gmem, accel.tlasRoot, ray);
            trav.run();
            spills += trav.stackSpills();
        }
    EXPECT_GT(spills, 0u) << "a deep scene must exercise the spill path";
}

/**
 * Property test: serialized-BVH traversal agrees with brute force.
 * The scene name is a std::string, not a const char *: gtest prints a
 * pointer inside a tuple as its address, which would put a per-run
 * address into the registered test names.
 */
class TraversalPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    Scene
    makeScene() const
    {
        const std::string &name = std::get<0>(GetParam());
        if (name == "tri")
            return makeTriScene();
        if (name == "ref")
            return makeRefScene();
        if (name == "ext")
            return makeExtScene(0.12f);
        if (name == "rtv5")
            return makeRtv5Scene(3);
        return makeRtv6Scene(600);
    }
};

TEST_P(TraversalPropertyTest, MatchesBruteForce)
{
    Scene scene = makeScene();
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);
    CpuTracer tracer(scene, gmem, accel);

    Pcg32 rng(static_cast<std::uint64_t>(std::get<1>(GetParam())));
    Aabb world;
    for (std::size_t i = 0; i < scene.instances.size(); ++i) {
        const Instance &inst = scene.instances[i];
        const Geometry &g = scene.geometries[inst.geometryIndex];
        for (std::size_t p = 0; p < g.primitiveCount(); ++p) {
            Aabb b = g.primitiveBounds(p);
            world.extend(inst.objectToWorld.transformPoint(b.lo));
            world.extend(inst.objectToWorld.transformPoint(b.hi));
        }
        if (i > 4)
            break; // bounds estimate only
    }

    // Pad so flat scenes (TRI is a single z = 0 triangle) still get
    // off-plane ray origins.
    Vec3 pad = world.extent() * 0.2f + Vec3(1.f);
    world.extend(world.lo - pad);
    world.extend(world.hi + pad);

    unsigned hits = 0;
    for (int trial = 0; trial < 300; ++trial) {
        Ray ray;
        Vec3 e = world.extent();
        ray.origin = world.lo
                     + Vec3{e.x * rng.nextFloat(), e.y * rng.nextFloat(),
                            e.z * rng.nextFloat()}
                     + Vec3{0.f, 0.5f * e.y, 0.f};
        if (trial % 2 == 0) {
            // Aim at a random point inside the scene so even tiny scenes
            // (TRI's single triangle) get real hits.
            Vec3 target =
                world.lo + Vec3{e.x * rng.nextFloat(),
                                e.y * rng.nextFloat(), e.z * rng.nextFloat()};
            Vec3 d = target - ray.origin;
            ray.direction = length(d) > 1e-6f
                                ? normalize(d)
                                : Vec3{0.f, -1.f, 0.f};
        } else {
            ray.direction =
                uniformSampleSphere(rng.nextFloat(), rng.nextFloat());
        }
        ray.tmin = 1e-4f;

        HitRecord bvh_hit = tracer.trace(ray);
        HitRecord brute_hit = bruteForceTrace(scene, ray);
        ASSERT_EQ(bvh_hit.valid(), brute_hit.valid())
            << "trial " << trial;
        if (bvh_hit.valid()) {
            ++hits;
            EXPECT_NEAR(bvh_hit.t, brute_hit.t, 1e-3f) << "trial " << trial;
        }
    }
    EXPECT_GT(hits, 10u) << "test should exercise real hits";
}

INSTANTIATE_TEST_SUITE_P(
    AllScenes, TraversalPropertyTest,
    ::testing::Combine(::testing::Values("tri", "ref", "ext", "rtv5",
                                         "rtv6"),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<TraversalPropertyTest::ParamType> &i) {
        return std::get<0>(i.param) + "_seed"
               + std::to_string(std::get<1>(i.param));
    });

} // namespace
} // namespace vksim
