/**
 * @file
 * The persistence acceptance suite (DESIGN.md, "Persistence & recovery
 * contract"): engine snapshots taken at epoch barriers must restore
 * into a fresh engine bit-identically — digest trace, metrics JSON,
 * occupancy trace, and rendered image all equal to the uninterrupted
 * oracle — for every thread count, idle-skip setting, and epoch length,
 * and *across* those execution modes (a snapshot from a threaded
 * run with 64-cycle epochs restores into a serial one-cycle run). The
 * on-disk halves are held to the same standard: snapshot files and
 * DiskStore artifacts verify their payload digests on load, and corrupt
 * bytes are never served — a truncated or bit-flipped file is an
 * actionable error (snapshots) or a silent evict-and-rebuild
 * (artifacts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/vulkansim.h"
#include "gpu/checkpoint.h"
#include "gpu/gpu.h"
#include "mem/gmem.h"
#include "service/artifacts.h"
#include "service/diskstore.h"
#include "util/serial.h"
#include "service/service.h"

namespace vksim {
namespace {

using wl::Workload;
using wl::WorkloadId;
using wl::WorkloadParams;

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.width = 16;
    p.height = 16;
    p.extScale = 0.1f;
    p.rtv5Detail = 3;
    p.rtv6Prims = 400;
    return p;
}

/** Per-workload launch sizes keeping the sweep's runtime in budget:
 *  RTV5 traces far more work per ray than TRI, so it sweeps at 8x8. */
WorkloadParams
paramsFor(WorkloadId id)
{
    WorkloadParams p = tinyParams();
    if (id == WorkloadId::RTV5)
        p.width = p.height = 8;
    return p;
}

GpuConfig
engineConfig(bool idle_skip, unsigned threads, unsigned epoch_cycles)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 8;
    cfg.fabric.numPartitions = 2;
    cfg.maxCycles = 100'000'000;
    cfg.occupancySamplePeriod = 64;
    cfg.digestTrace = true;
    cfg.idleSkip = idle_skip;
    cfg.threads = threads;
    cfg.epochCycles = epoch_cycles;
    return cfg;
}

/** A per-test scratch directory, wiped on entry for idempotent reruns. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "vksim_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t>
readAllBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<std::uint8_t> bytes;
    if (f) {
        std::uint8_t chunk[4096];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            bytes.insert(bytes.end(), chunk, chunk + n);
        std::fclose(f);
    }
    return bytes;
}

void
writeAllBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/**
 * The restored-run acceptance check: everything observable about a
 * resumed run must match the oracle. The resumed digest trace covers
 * only the suffix it executed; firstDivergence() aligns the traces on
 * their common cycle range.
 */
void
expectResumedRunMatches(const RunResult &oracle, const Image &oracle_img,
                        const RunResult &resumed, Workload &resumed_wl)
{
    EXPECT_EQ(resumed.cycles, oracle.cycles);
    EXPECT_EQ(resumed.metrics.toJson(), oracle.metrics.toJson());
    EXPECT_EQ(resumed.occupancyTrace, oracle.occupancyTrace);
    ASSERT_EQ(resumed.digests.units, oracle.digests.units);
    ASSERT_EQ(resumed.digests.period, oracle.digests.period);
    EXPECT_GT(resumed.digests.start, 0u);
    EXPECT_LT(resumed.digests.values.size(), oracle.digests.values.size());
    check::DigestTrace::Divergence d =
        oracle.digests.firstDivergence(resumed.digests);
    EXPECT_FALSE(d.diverged)
        << "restored run first diverges from the oracle at cycle "
        << d.cycle << ", unit " << d.unit;
    EXPECT_EQ(oracle_img.data(), resumed_wl.readFramebuffer().data());
}

class CheckpointRoundTripTest : public ::testing::TestWithParam<int>
{
};

/**
 * The tentpole acceptance sweep: run to a pseudo-random epoch barrier,
 * snapshot, restore into a fresh engine, and require the restored run
 * to be bit-identical to the uninterrupted oracle over {serial, 4
 * threads} x {idle-skip on/off} x epoch lengths {1, 64}. The snapshot
 * leg itself must also be unperturbed — capturing is observational.
 */
TEST_P(CheckpointRoundTripTest, RestoredRunMatchesOracle)
{
    auto id = static_cast<WorkloadId>(GetParam());

    const WorkloadParams params = paramsFor(id);
    Workload oracle_wl(id, params);
    RunResult oracle = service::defaultService().submit(
        oracle_wl, engineConfig(/*idle_skip=*/false, 1, /*epoch=*/1)).take().run;
    Image oracle_img = oracle_wl.readFramebuffer();
    const Cycle total = oracle.cycles;
    ASSERT_GT(total, 16u);

    std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(GetParam()));
    for (unsigned epoch : {1u, 64u}) {
        for (unsigned threads : {1u, 4u}) {
            for (bool skip : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "epoch=" << epoch << " threads=" << threads
                             << " idleSkip=" << skip);
                const Cycle want =
                    total / 4 + rng() % std::max<Cycle>(1, total / 2);

                GpuConfig snap_cfg = engineConfig(skip, threads, epoch);
                snap_cfg.checkpoint.snapshotAt = want;
                Workload snap_wl(id, params);
                RunResult snap_run = service::defaultService().submit(snap_wl, snap_cfg).take().run;

                // Capturing must not perturb the run it observes.
                EXPECT_EQ(snap_run.cycles, oracle.cycles);
                EXPECT_EQ(snap_run.metrics.toJson(),
                          oracle.metrics.toJson());
                ASSERT_NE(snap_run.snapshot, nullptr);
                EXPECT_GE(snap_run.snapshot->cycle, want);
                EXPECT_LT(snap_run.snapshot->cycle, total);

                GpuConfig res_cfg = engineConfig(skip, threads, epoch);
                res_cfg.checkpoint.resume = snap_run.snapshot;
                Workload res_wl(id, params);
                RunResult resumed = service::defaultService().submit(res_wl, res_cfg).take().run;
                expectResumedRunMatches(oracle, oracle_img, resumed,
                                        res_wl);
            }
        }
    }
}

// AHA is in the sweep for its suspension density: hundreds of immediate
// any-hit suspensions, each parking a lane mid-traversal for tens of
// cycles, so the pseudo-random snapshot points land inside suspension
// windows — the snapshot must carry a lane frozen between RT-unit
// suspension and shader-core verdict. RQC covers live ray-query frames
// (a compute shader holding an RT frame open across the snapshot).
INSTANTIATE_TEST_SUITE_P(
    Workloads, CheckpointRoundTripTest,
    ::testing::Values(static_cast<int>(WorkloadId::TRI),
                      static_cast<int>(WorkloadId::RTV5),
                      static_cast<int>(WorkloadId::RQC),
                      static_cast<int>(WorkloadId::AHA)),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(
            wl::workloadName(static_cast<WorkloadId>(info.param)));
    });

/**
 * Multi-frame runs must survive interruption at any frame boundary *and*
 * mid-frame: frame 0 of a two-frame ACC run is snapshotted mid-flight
 * and restored into a fresh engine + fresh workload, then frame 1 runs
 * on the restored instance. Its device memory — the accumulation sums
 * and rotated seed frame 1 reads — came entirely from the snapshot, so
 * the final accumulated image must be byte-identical to both the
 * uninterrupted manual drive and the service's own frames=2 loop.
 */
TEST(CheckpointTest, MultiFrameAccumulationSurvivesMidFrameRestore)
{
    WorkloadParams two = tinyParams();
    two.frames = 2;
    Workload svc_wl(WorkloadId::ACC, two);
    RunResult svc_run = service::defaultService().submit(
        svc_wl, engineConfig(false, 1, 1)).take().run;
    Image svc_img = svc_wl.readFramebuffer();

    // Uninterrupted manual drive of the same two frames.
    WorkloadParams one = tinyParams();
    Workload plain_wl(WorkloadId::ACC, one);
    RunResult frame0 = service::defaultService().submit(
        plain_wl, engineConfig(false, 1, 1)).take().run;
    plain_wl.beginFrame(1);
    RunResult frame1 = service::defaultService().submit(
        plain_wl, engineConfig(false, 1, 1)).take().run;
    EXPECT_EQ(svc_run.cycles, frame0.cycles + frame1.cycles);
    EXPECT_EQ(svc_img.data(), plain_wl.readFramebuffer().data());

    // Interrupted drive: snapshot frame 0 mid-run, restore, continue.
    GpuConfig snap_cfg = engineConfig(false, 1, 1);
    snap_cfg.checkpoint.snapshotAt = frame0.cycles / 2;
    Workload snap_wl(WorkloadId::ACC, one);
    RunResult snap_run = service::defaultService().submit(snap_wl, snap_cfg).take().run;
    ASSERT_NE(snap_run.snapshot, nullptr);

    GpuConfig res_cfg = engineConfig(false, 1, 1);
    res_cfg.checkpoint.resume = snap_run.snapshot;
    Workload res_wl(WorkloadId::ACC, one);
    RunResult res_frame0 = service::defaultService().submit(res_wl, res_cfg).take().run;
    EXPECT_EQ(res_frame0.cycles, frame0.cycles);

    res_wl.beginFrame(1);
    RunResult res_frame1 = service::defaultService().submit(
        res_wl, engineConfig(false, 1, 1)).take().run;
    EXPECT_EQ(res_frame1.cycles, frame1.cycles);
    // Frame 1 after the restore must be indistinguishable from frame 1
    // after the uninterrupted run — same metrics, same final image.
    EXPECT_EQ(res_frame1.metrics.toJson(), frame1.metrics.toJson());
    EXPECT_EQ(svc_img.data(), res_wl.readFramebuffer().data());
}

/**
 * Snapshots must move freely across execution modes: a snapshot taken
 * by a 4-thread idle-skipping engine with 64-cycle epochs restores into
 * a serial engine with one-cycle epochs (and back) with bit-identical
 * results.
 */
TEST(CheckpointTest, SnapshotCrossesExecutionModes)
{
    Workload oracle_wl(WorkloadId::TRI, tinyParams());
    RunResult oracle = service::defaultService().submit(oracle_wl, engineConfig(false, 1, 1)).take().run;
    Image oracle_img = oracle_wl.readFramebuffer();

    GpuConfig threaded = engineConfig(true, 4, 64);
    threaded.checkpoint.snapshotAt = oracle.cycles / 2;
    Workload snap_wl(WorkloadId::TRI, tinyParams());
    RunResult snap_run = service::defaultService().submit(snap_wl, threaded).take().run;
    ASSERT_NE(snap_run.snapshot, nullptr);

    // Threaded 64-cycle-epoch snapshot -> serial one-cycle epochs.
    GpuConfig serial = engineConfig(false, 1, 1);
    serial.checkpoint.resume = snap_run.snapshot;
    Workload serial_wl(WorkloadId::TRI, tinyParams());
    RunResult serial_run = service::defaultService().submit(serial_wl, serial).take().run;
    expectResumedRunMatches(oracle, oracle_img, serial_run, serial_wl);

    // And back: serial one-cycle-epoch snapshot -> threaded engine.
    GpuConfig lockstep = engineConfig(false, 1, 1);
    lockstep.checkpoint.snapshotAt = oracle.cycles / 3;
    Workload lock_wl(WorkloadId::TRI, tinyParams());
    RunResult lock_run = service::defaultService().submit(lock_wl, lockstep).take().run;
    ASSERT_NE(lock_run.snapshot, nullptr);

    GpuConfig threaded2 = engineConfig(true, 4, 64);
    threaded2.checkpoint.resume = lock_run.snapshot;
    Workload threaded_wl(WorkloadId::TRI, tinyParams());
    RunResult threaded_run = service::defaultService().submit(threaded_wl, threaded2).take().run;
    expectResumedRunMatches(oracle, oracle_img, threaded_run, threaded_wl);
}

/** One run with a one-shot snapshot request; returns the barrier hit. */
Cycle
snapshotCycle(const GpuConfig &base, Cycle at, bool exact)
{
    GpuConfig cfg = base;
    cfg.checkpoint.snapshotAt = at;
    cfg.checkpoint.exact = exact;
    Workload wl(WorkloadId::TRI, tinyParams());
    RunResult run = service::defaultService().submit(wl, cfg).take().run;
    EXPECT_NE(run.snapshot, nullptr);
    return run.snapshot ? run.snapshot->cycle : ~Cycle(0);
}

/**
 * Snapshots are only defined at epoch barriers. With exact=false the
 * request rounds up to the next barrier; with exact=true a mid-epoch
 * cycle is a hard API error, not a silent approximation.
 */
TEST(CheckpointTest, ExactSnapshotMustLandOnBarrier)
{
    Workload plain_wl(WorkloadId::TRI, tinyParams());
    const Cycle total =
        service::defaultService().submit(plain_wl, engineConfig(false, 1, 64)).take().run.cycles;
    ASSERT_GT(total, 16u);

    const GpuConfig epoch64 = engineConfig(false, 1, 64);
    const Cycle barrier = snapshotCycle(epoch64, total / 2, false);
    ASSERT_LT(barrier, total);

    // exact=true at a real barrier succeeds and lands exactly there.
    EXPECT_EQ(snapshotCycle(epoch64, barrier, true), barrier);

    // Find a cycle that is provably mid-epoch: a non-exact request at
    // `probe` landing *later* than `probe` means `probe` is no barrier.
    Cycle probe = barrier + 1;
    bool found_mid_epoch = false;
    for (int attempts = 0; attempts < 8 && probe < total; ++attempts) {
        const Cycle landed = snapshotCycle(epoch64, probe, false);
        if (landed > probe) {
            found_mid_epoch = true;
            break;
        }
        probe = landed + 1;
    }
    ASSERT_TRUE(found_mid_epoch)
        << "every probed cycle was a barrier; epoch structure changed?";
    try {
        snapshotCycle(epoch64, probe, true);
        FAIL() << "exact mid-epoch snapshot at cycle " << probe
               << " did not throw";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("barrier"),
                  std::string::npos)
            << e.what();
    }

    // With epochCycles=1 the engine has a barrier at every cycle,
    // so the same exact request that failed above succeeds there.
    EXPECT_EQ(snapshotCycle(engineConfig(false, 1, 1), probe, true), probe);
}

/** A snapshot request beyond the end of the run is an error, not a
 *  silently absent RunResult::snapshot. */
TEST(CheckpointTest, SnapshotBeyondEndOfRunIsAnError)
{
    Workload plain_wl(WorkloadId::TRI, tinyParams());
    const Cycle total =
        service::defaultService().submit(plain_wl, engineConfig(false, 1, 1)).take().run.cycles;

    GpuConfig cfg = engineConfig(false, 1, 1);
    cfg.checkpoint.snapshotAt = total * 2;
    Workload wl(WorkloadId::TRI, tinyParams());
    try {
        service::defaultService().submit(wl, cfg).take().run;
        FAIL() << "snapshot request beyond the run did not throw";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("never reached"),
                  std::string::npos)
            << e.what();
    }
}

/** A snapshot only restores under the structural config it was taken
 *  under; behavior-neutral knobs are excluded from the digest. */
TEST(CheckpointTest, ResumeRejectsDifferentStructuralConfig)
{
    GpuConfig cfg = engineConfig(false, 1, 1);
    Workload wl(WorkloadId::TRI, tinyParams());
    cfg.checkpoint.snapshotAt = 64;
    RunResult run = service::defaultService().submit(wl, cfg).take().run;
    ASSERT_NE(run.snapshot, nullptr);

    GpuConfig other = engineConfig(false, 1, 1);
    other.numSms = 4; // structural change
    other.checkpoint.resume = run.snapshot;
    Workload other_wl(WorkloadId::TRI, tinyParams());
    try {
        service::defaultService().submit(other_wl, other).take().run;
        FAIL() << "resume under a different structural config did not "
                  "throw";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("structural"),
                  std::string::npos)
            << e.what();
    }

    // The digest deliberately ignores execution-mode knobs...
    GpuConfig modes = engineConfig(true, 4, 64);
    EXPECT_EQ(gpuConfigDigest(engineConfig(false, 1, 1)),
              gpuConfigDigest(modes));
    // ...but tracks anything that shapes simulated behavior.
    GpuConfig structural = engineConfig(false, 1, 1);
    structural.fabric.icntLatency += 1;
    EXPECT_NE(gpuConfigDigest(engineConfig(false, 1, 1)),
              gpuConfigDigest(structural));
}

/** Overwrite `bytes` little-endian bytes of `b` at `at` with `v`. */
void
patch(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v,
      unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * A crafted snapshot under a valid config digest is rejected with
 * SimError — never an abort, an allocation failure or a silent misread.
 * Payload layout: brk, page count, (index, length, bytes) per page,
 * next warp and round-robin SM, the scheduler (unit count, then an
 * awake byte and a sleep cycle per SM), the units, then the occupancy
 * samples (count, then 12 bytes each).
 */
TEST(CheckpointTest, ResumeRejectsMalformedSnapshotBytes)
{
    GpuConfig cfg = engineConfig(false, 1, 1);
    cfg.checkpoint.snapshotAt = 64;
    Workload wl(WorkloadId::TRI, tinyParams());
    RunResult run = service::defaultService().submit(wl, cfg).take().run;
    ASSERT_NE(run.snapshot, nullptr);
    const std::vector<std::uint8_t> &good = run.snapshot->bytes;

    auto get64 = [](const std::vector<std::uint8_t> &b, std::size_t at) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t(b.at(at + i)) << (8 * i);
        return v;
    };
    const std::uint64_t pages = get64(good, 8);
    ASSERT_GT(pages, 0u);
    const std::size_t cursors = 16 + pages * (16 + GlobalMemory::kPageSize);
    std::uint64_t samples = 0;
    for (const auto &[cycle, rays] : run.occupancyTrace)
        samples += cycle < run.snapshot->cycle;
    const std::size_t occupancy = good.size() - 12 * samples - 8;
    ASSERT_EQ(get64(good, occupancy), samples);

    const std::vector<std::pair<std::string,
                                std::function<void(std::vector<std::uint8_t> &)>>>
        cases = {
            {"one trailing byte", [](auto &b) { b.push_back(0); }},
            {"page length 2^40",
             [&](auto &b) { patch(b, 24, 1ull << 40, 8); }},
            {"page count 2^60", [&](auto &b) { patch(b, 8, 1ull << 60, 8); }},
            {"page index past the address space",
             [&](auto &b) { patch(b, 16, 1ull << 60, 8); }},
            {"next warp past the launch",
             [&](auto &b) { patch(b, cursors, 0xFFFFFFFFu, 4); }},
            {"round-robin SM past the machine",
             [&](auto &b) { patch(b, cursors + 4, cfg.numSms, 4); }},
            {"scheduler unit count",
             [&](auto &b) { patch(b, cursors + 8, cfg.numSms + 1, 8); }},
            {"SM asleep since after the snapshot",
             [&](auto &b) {
                 patch(b, cursors + 16, 0, 1); // SM 0 asleep...
                 patch(b, cursors + 17, 1ull << 40, 8); // ...from 2^40
             }},
            {"occupancy count 2^60",
             [&](auto &b) { patch(b, occupancy, 1ull << 60, 8); }},
        };
    for (const auto &[name, corrupt] : cases) {
        auto snap = std::make_shared<EngineSnapshot>(*run.snapshot);
        corrupt(snap->bytes);
        GpuConfig res_cfg = engineConfig(false, 1, 1);
        res_cfg.checkpoint.resume = snap;
        Workload res_wl(WorkloadId::TRI, tinyParams());
        EXPECT_THROW(service::defaultService().submit(res_wl, res_cfg)
                         .take()
                         .run,
                     SimError)
            << name;
    }
}

/**
 * What craftSm writes ahead of an idle SM's statistics, caches and RT
 * unit: `slots` warp slots, slot 0 resident with pending registers
 * `regs` when `resident` (its warp never decodes: every case below is
 * rejected first), then the LDST ops and writebacks as (slot, register)
 * pairs and the greedy and round-robin cursors.
 */
struct SmImage
{
    std::uint64_t slots = 0;
    bool resident = false;
    std::uint64_t numRegs = 0;
    std::vector<std::int32_t> regs;
    std::uint64_t l1Queued = 0;
    std::vector<std::pair<std::uint32_t, std::int32_t>> ops;
    std::vector<std::pair<std::uint32_t, std::int32_t>> writebacks;
    std::int32_t greedy = -1;
    std::uint32_t rrCursor = 0;
};

/** `img` followed by `tail`, the part of an idle SM's snapshot past
 *  its cursors (80 bytes in). */
std::vector<std::uint8_t>
craftSm(const SmImage &img, const std::vector<std::uint8_t> &tail)
{
    serial::Writer w;
    w.u64(img.slots);
    for (std::uint64_t s = 0; s < std::min<std::uint64_t>(img.slots, 64);
         ++s) {
        const bool resident = s == 0 && img.resident;
        w.b(resident);
        if (!resident)
            continue;
        w.u32(0);  // warp id
        w.u32(0);  // pending loads
        w.u32(0);  // next split
        w.u64(0);  // dispatch cycle
        w.u64(img.numRegs);
        for (std::int32_t reg : img.regs)
            w.i32(reg);
    }
    w.u64(img.l1Queued);
    w.u64(img.ops.size());
    std::uint64_t tag = 1;
    for (auto [slot, reg] : img.ops) {
        w.u64(tag++);
        w.u32(slot);
        w.i32(reg);
        w.u32(1); // sectors left
    }
    w.u64(tag); // next LDST tag
    w.u64(img.writebacks.size());
    for (auto [slot, reg] : img.writebacks) {
        w.u64(10); // due cycle
        w.u32(slot);
        w.i32(reg);
        w.b(false);
    }
    w.u64(0); // tag events
    w.u64(0); // tag sequence
    w.i32(img.greedy);
    w.u32(img.rrCursor);
    w.u64(0);     // SFU ready cycle
    w.u64(0);     // cycle
    std::vector<std::uint8_t> bytes = w.take();
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    return bytes;
}

// SmCore::loadState must turn malformed bytes into SimError — never an
// allocation sized by a crafted count, a scoreboard bit outside the
// register window, or a writeback/LDST op indexing a slot with no warp.
TEST(CheckpointTest, SmCoreRejectsMalformedState)
{
    const GpuConfig cfg = engineConfig(false, 1, 1);
    Workload wl(WorkloadId::TRI, tinyParams());
    MemFabric fabric(cfg.fabric, cfg.numSms);
    SmCore sm(0, cfg, wl.launch(), &fabric);

    serial::Writer idle;
    sm.saveState(idle);
    const std::vector<std::uint8_t> good = idle.take();
    ASSERT_GT(good.size(), 80u);
    const std::vector<std::uint8_t> tail(good.begin() + 80, good.end());
    ASSERT_EQ(craftSm({}, tail), good);

    // The register window: every register an instruction names.
    int window = 0;
    for (const vptx::Instr &in : wl.launch().program->code)
        window = std::max({window, in.dst + 1, in.src0 + 1, in.src1 + 1,
                           in.src2 + 1});
    ASSERT_GT(window, 0);

    auto load_error = [&](const SmImage &img) -> std::string {
        const std::vector<std::uint8_t> bytes = craftSm(img, tail);
        serial::Reader r(bytes);
        try {
            sm.loadState(r);
        } catch (const SimError &e) {
            return e.what();
        }
        return "";
    };
    auto rejects = [&](const SmImage &img, const char *why) {
        const std::string error = load_error(img);
        EXPECT_NE(error.find(why), std::string::npos)
            << "expected \"" << why << "\", got \"" << error << "\"";
    };

    SmImage ok;
    ok.slots = sm.warpLimit();
    ok.greedy = static_cast<std::int32_t>(sm.warpLimit()) - 1;
    ok.rrCursor = 12345; // free-running: any value is valid
    EXPECT_EQ(load_error(ok), "");

    SmImage img = ok;
    img.slots = sm.warpLimit() + 1;
    rejects(img, "warp slots");
    img.slots = 1ull << 60;
    rejects(img, "warp slots");

    img = ok;
    img.resident = true;
    img.numRegs = 1ull << 60;
    rejects(img, "pending registers in");
    for (std::int32_t reg : {-1, -7, window, 1 << 20}) {
        img.numRegs = 1;
        img.regs = {reg};
        rejects(img, "outside the");
    }

    img = ok;
    img.l1Queued = 1ull << 60;
    rejects(img, "queued L1 requests");
    img = ok;
    img.ops = {{0, -1}};
    rejects(img, "not resident");
    img.slots = 0;
    img.greedy = -1;
    rejects(img, "not resident");
    img = ok;
    img.writebacks = {{static_cast<std::uint32_t>(sm.warpLimit()), 0}};
    rejects(img, "not resident");
    img.writebacks = {{0, 0}};
    rejects(img, "not resident");

    img = ok;
    img.greedy = static_cast<std::int32_t>(sm.warpLimit());
    rejects(img, "greedy warp slot");
    img.greedy = -2;
    rejects(img, "greedy warp slot");
}

/**
 * The parked-traverse decoder must reject a crafted ray state with
 * SimError: a short stack of another size than the configured one, a
 * stack top past its end (formerly a heap overflow), spilled or deferred
 * counts the remaining bytes cannot hold, and out-of-range node types
 * or hit kinds. Layout of a fresh traversal: flags, two rays, two
 * inverse directions and three i32s (104 bytes), the short-stack size
 * (u64), its top (u32), one 16-byte root entry (address, node type,
 * instance), the spilled count (u64), three flag bytes, the any-hit
 * group mask (u64), the suspension byte, the 28-byte hit record, the hit
 * kind (u8), the deferred count (u64) and five u64 counters.
 */
TEST(CheckpointTest, RayTraversalRejectsMalformedState)
{
    constexpr unsigned kEntries = 8;
    constexpr std::size_t kShortSize = 104, kShortTop = 112,
                          kRootType = 124, kSpilled = 132, kHitKind = 180,
                          kDeferred = 181;
    Workload wl(WorkloadId::TRI, tinyParams());
    const GlobalMemory &gmem = *wl.launch().gmem;
    Ray ray;
    ray.direction = Vec3{0.f, 0.f, -1.f};
    ray.tmax = 100.f;
    serial::Writer w;
    RayTraversal(gmem, 0x1000, ray, kRayFlagNone, nullptr, kEntries)
        .saveState(w);
    const std::vector<std::uint8_t> good = w.take();
    ASSERT_EQ(good.size(), kDeferred + 8 + 5 * 8);

    auto load_error = [&](const std::vector<std::uint8_t> &bytes,
                          unsigned entries) -> std::string {
        serial::Reader r(bytes);
        try {
            RayTraversal t(gmem, r, entries);
            EXPECT_TRUE(r.done());
        } catch (const SimError &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_EQ(load_error(good, kEntries), "");

    auto rejects = [&](std::size_t at, std::uint64_t v, unsigned bytes,
                       const char *why) {
        std::vector<std::uint8_t> bad = good;
        patch(bad, at, v, bytes);
        const std::string error = load_error(bad, kEntries);
        EXPECT_NE(error.find(why), std::string::npos)
            << "expected \"" << why << "\", got \"" << error << "\"";
    };
    EXPECT_NE(load_error(good, 4).find("short stack"), std::string::npos);
    rejects(kShortSize, 1ull << 60, 8, "short stack");
    rejects(kShortTop, kEntries + 1, 4, "short-stack top");
    rejects(kShortTop, 0xFFFFFFFFu, 4, "short-stack top");
    rejects(kRootType, 99, 4, "node type");
    rejects(kSpilled, 1ull << 60, 8, "spilled stack entries");
    rejects(kSpilled, 6, 8, "spilled stack entries");
    rejects(kHitKind, 3, 1, "hit kind");
    rejects(kDeferred, 1ull << 60, 8, "deferred hits");
    rejects(kDeferred, 2, 8, "deferred hits");
}

/**
 * WarpCflow::loadState must bound its stack and split counts by the
 * bytes left (SimError, not length_error/bad_alloc) and reject a mode
 * byte other than 0 (stack) or 1 (ITS). Layout: mode (u8), stack count
 * (u64) and 12-byte entries, split count (u64) and 17-byte splits, the
 * next split id (i32) and the stack-blocked byte.
 */
TEST(CheckpointTest, WarpCflowRejectsMalformedState)
{
    auto craft = [](std::uint8_t mode, std::uint64_t stack,
                    std::uint64_t splits) {
        serial::Writer w;
        w.u8(mode);
        w.u64(stack);
        w.u64(splits);
        w.i32(0);
        w.b(false);
        return w.take();
    };
    auto load_error = [](const std::vector<std::uint8_t> &bytes) {
        serial::Reader r(bytes);
        vptx::WarpCflow cflow;
        try {
            cflow.loadState(r);
        } catch (const SimError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(load_error(craft(0, 0, 0)), "");
    EXPECT_EQ(load_error(craft(1, 0, 0)), "");

    vptx::WarpCflow live;
    live.init(0, 0xFFFFFFFFu, vptx::WarpCflow::Mode::Stack);
    serial::Writer w;
    live.saveState(w);
    EXPECT_EQ(load_error(w.take()), "");

    EXPECT_NE(load_error(craft(2, 0, 0)).find("mode"), std::string::npos);
    EXPECT_NE(load_error(craft(0xFF, 0, 0)).find("mode"), std::string::npos);
    EXPECT_NE(load_error(craft(0, 1ull << 60, 0))
                  .find("reconvergence stack entries"),
              std::string::npos);
    EXPECT_NE(load_error(craft(0, 2, 0)).find("reconvergence stack entries"),
              std::string::npos);
    EXPECT_NE(load_error(craft(1, 0, 1ull << 60)).find("warp splits"),
              std::string::npos);
    EXPECT_NE(load_error(craft(1, 0, ~0ull)).find("warp splits"),
              std::string::npos);
}

TEST(CheckpointTest, ValidateRejectsBadCheckpointCombos)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.checkpoint.every = 1024; // no path
    EXPECT_FALSE(cfg.validate().empty());

    cfg = baselineGpuConfig();
    cfg.checkpoint.every = 1024;
    cfg.checkpoint.path = "/tmp/snap.ckpt";
    EXPECT_TRUE(cfg.validate().empty());

    cfg.timeline.path = "/tmp/timeline.json";
    EXPECT_FALSE(cfg.validate().empty());
}

/**
 * The auto-checkpoint loop end to end: a run with --checkpoint-every
 * semantics leaves a verifiable snapshot file behind, and a fresh
 * engine resumed from that file finishes bit-identically.
 */
TEST(CheckpointTest, AutoCheckpointWritesResumableFile)
{
    const std::string dir = scratchDir("auto_ckpt");
    const std::string path = dir + "/job.ckpt";

    Workload oracle_wl(WorkloadId::TRI, tinyParams());
    RunResult oracle = service::defaultService().submit(oracle_wl, engineConfig(false, 1, 1)).take().run;
    Image oracle_img = oracle_wl.readFramebuffer();

    GpuConfig cfg = engineConfig(false, 1, 64);
    cfg.checkpoint.every = std::max<Cycle>(64, oracle.cycles / 4);
    cfg.checkpoint.path = path;
    Workload wl(WorkloadId::TRI, tinyParams());
    RunResult run = service::defaultService().submit(wl, cfg).take().run;
    EXPECT_EQ(run.cycles, oracle.cycles);

    EngineSnapshot snap = readSnapshotFile(path);
    EXPECT_GT(snap.cycle, 0u);
    EXPECT_LT(snap.cycle, oracle.cycles);
    EXPECT_EQ(snap.configDigest, gpuConfigDigest(cfg));

    GpuConfig res_cfg = engineConfig(false, 1, 64);
    res_cfg.checkpoint.resume =
        std::make_shared<EngineSnapshot>(std::move(snap));
    Workload res_wl(WorkloadId::TRI, tinyParams());
    RunResult resumed = service::defaultService().submit(res_wl, res_cfg).take().run;
    expectResumedRunMatches(oracle, oracle_img, resumed, res_wl);
}

// --- Snapshot file verification --------------------------------------------

EngineSnapshot
sampleSnapshot()
{
    EngineSnapshot snap;
    snap.cycle = 12345;
    snap.configDigest = 0xfeedfacecafef00dull;
    snap.bytes.resize(4096);
    for (std::size_t i = 0; i < snap.bytes.size(); ++i)
        snap.bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return snap;
}

TEST(SnapshotFileTest, RoundTrip)
{
    const std::string path = scratchDir("snapfile_rt") + "/s.ckpt";
    EngineSnapshot snap = sampleSnapshot();
    writeSnapshotFile(path, snap);
    EngineSnapshot back = readSnapshotFile(path);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_EQ(back.configDigest, snap.configDigest);
    EXPECT_EQ(back.bytes, snap.bytes);
}

TEST(SnapshotFileTest, TruncatedFileIsAnActionableError)
{
    const std::string path = scratchDir("snapfile_trunc") + "/s.ckpt";
    writeSnapshotFile(path, sampleSnapshot());
    std::vector<std::uint8_t> bytes = readAllBytes(path);
    bytes.resize(bytes.size() - 7);
    writeAllBytes(path, bytes);
    try {
        readSnapshotFile(path);
        FAIL() << "truncated snapshot file did not throw";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFileTest, BitFlipFailsDigestVerification)
{
    const std::string path = scratchDir("snapfile_flip") + "/s.ckpt";
    writeSnapshotFile(path, sampleSnapshot());
    std::vector<std::uint8_t> bytes = readAllBytes(path);
    // Header is magic(8) + version(4) + digest(8) + cycle(8) + size(8)
    // + payload digest(8) = 44 bytes; flip one payload bit.
    ASSERT_GT(bytes.size(), 60u);
    bytes[44 + 10] ^= 0x20;
    writeAllBytes(path, bytes);
    try {
        readSnapshotFile(path);
        FAIL() << "bit-flipped snapshot file did not throw";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFileTest, UnknownVersionIsAnActionableError)
{
    const std::string path = scratchDir("snapfile_ver") + "/s.ckpt";
    writeSnapshotFile(path, sampleSnapshot());
    std::vector<std::uint8_t> bytes = readAllBytes(path);
    // The u32 version field sits right after the 8-byte magic.
    bytes[8] = 0xff;
    bytes[9] = 0xff;
    writeAllBytes(path, bytes);
    try {
        readSnapshotFile(path);
        FAIL() << "unknown snapshot version did not throw";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFileTest, BadMagicAndMissingFileThrow)
{
    const std::string dir = scratchDir("snapfile_magic");
    const std::string path = dir + "/s.ckpt";
    writeAllBytes(path, {'n', 'o', 't', 'a', 's', 'n', 'a', 'p', 0, 0});
    EXPECT_THROW(readSnapshotFile(path), SimError);
    EXPECT_THROW(readSnapshotFile(dir + "/absent.ckpt"), SimError);
}

// --- DiskStore --------------------------------------------------------------

std::vector<std::uint8_t>
samplePayload()
{
    std::vector<std::uint8_t> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    return payload;
}

TEST(DiskStoreTest, PutGetRoundTripAndMiss)
{
    service::DiskStore store(scratchDir("store_rt"));
    const std::vector<std::uint8_t> payload = samplePayload();

    EXPECT_FALSE(store.get(service::DiskStore::Kind::Bvh, 42).has_value());
    store.put(service::DiskStore::Kind::Bvh, 42, payload);
    auto back = store.get(service::DiskStore::Kind::Bvh, 42);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);

    // Kinds are separate namespaces: same key, different artifact.
    EXPECT_FALSE(
        store.get(service::DiskStore::Kind::Pipeline, 42).has_value());

    service::DiskStore::Counters c = store.counters();
    EXPECT_EQ(c.loads, 1u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.misses, 2u);
    EXPECT_EQ(c.corruptEvictions, 0u);
}

TEST(DiskStoreTest, CorruptArtifactIsEvictedNeverServed)
{
    service::DiskStore store(scratchDir("store_corrupt"));
    const auto kind = service::DiskStore::Kind::Result;
    store.put(kind, 7, samplePayload());

    // Bit-flip the payload on disk: get() must evict, not serve.
    std::vector<std::uint8_t> bytes = readAllBytes(store.path(kind, 7));
    bytes[bytes.size() - 3] ^= 0x01;
    writeAllBytes(store.path(kind, 7), bytes);

    EXPECT_FALSE(store.get(kind, 7).has_value());
    EXPECT_EQ(store.counters().corruptEvictions, 1u);
    EXPECT_FALSE(std::filesystem::exists(store.path(kind, 7)));

    // Re-storing rebuilds a healthy entry.
    store.put(kind, 7, samplePayload());
    ASSERT_TRUE(store.get(kind, 7).has_value());
    EXPECT_EQ(store.counters().corruptEvictions, 1u);
}

TEST(DiskStoreTest, TruncatedArtifactIsEvicted)
{
    service::DiskStore store(scratchDir("store_trunc"));
    const auto kind = service::DiskStore::Kind::Bvh;
    store.put(kind, 9, samplePayload());
    std::vector<std::uint8_t> bytes = readAllBytes(store.path(kind, 9));
    bytes.resize(bytes.size() / 2);
    writeAllBytes(store.path(kind, 9), bytes);

    EXPECT_FALSE(store.get(kind, 9).has_value());
    EXPECT_EQ(store.counters().corruptEvictions, 1u);
    EXPECT_FALSE(std::filesystem::exists(store.path(kind, 9)));
}

TEST(DiskStoreTest, KindAndKeyAreVerifiedNotTrusted)
{
    service::DiskStore store(scratchDir("store_key"));
    const auto kind = service::DiskStore::Kind::Bvh;
    store.put(kind, 1, samplePayload());

    // A file renamed under another key self-identifies as key 1 and is
    // rejected under key 2 — content addressing is verified, not
    // trusted from the filename.
    std::filesystem::copy_file(store.path(kind, 1), store.path(kind, 2));
    EXPECT_FALSE(store.get(kind, 2).has_value());
    EXPECT_EQ(store.counters().corruptEvictions, 1u);
    // The honest copy is untouched.
    EXPECT_TRUE(store.get(kind, 1).has_value());
}

// --- ArtifactCache disk layering -------------------------------------------

AccelImage
sampleImage()
{
    AccelImage image;
    image.baseBrk = 0x10000;
    image.endBrk = 0x20000;
    image.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
    image.accel.tlasRoot = 0x10040;
    image.accel.blasRoots = {0x10100, 0x10200};
    image.accel.stats.tlasInternalNodes = 3;
    image.accel.stats.blasLeaves = 9;
    image.accel.stats.tlasDepth = 2;
    image.accel.stats.totalBytes = 8;
    image.regions.push_back({0x10000, 0x40, "tlas"});
    return image;
}

TEST(DiskStoreTest, CacheLayersOverDiskAcrossProcessLifetimes)
{
    const std::string root = scratchDir("store_layer");
    service::DiskStore store(root);
    int builds = 0;
    auto builder = [&]() {
        ++builds;
        return sampleImage();
    };

    // First "process": memory miss, disk miss, builder runs, stored.
    service::ArtifactCache first;
    first.setDiskStore(&store);
    auto a = first.bvh(0xabc, builder);
    EXPECT_EQ(builds, 1);
    EXPECT_TRUE(
        store.get(service::DiskStore::Kind::Bvh, 0xabc).has_value());

    // Second "process": fresh cache, same store — served from disk, the
    // builder never runs, and the decoded image is bit-identical.
    service::ArtifactCache second;
    second.setDiskStore(&store);
    auto b = second.bvh(0xabc, builder);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a->bytes, b->bytes);
    EXPECT_EQ(a->baseBrk, b->baseBrk);
    EXPECT_EQ(a->accel.tlasRoot, b->accel.tlasRoot);
    EXPECT_EQ(a->accel.blasRoots, b->accel.blasRoots);
    ASSERT_EQ(a->regions.size(), b->regions.size());
    EXPECT_EQ(a->regions[0].label, b->regions[0].label);

    // Corrupt the stored artifact: the next fresh cache rebuilds and
    // re-stores instead of serving the corrupt bytes.
    std::vector<std::uint8_t> bytes =
        readAllBytes(store.path(service::DiskStore::Kind::Bvh, 0xabc));
    bytes.back() ^= 0x80;
    writeAllBytes(store.path(service::DiskStore::Kind::Bvh, 0xabc), bytes);

    service::ArtifactCache third;
    third.setDiskStore(&store);
    auto c = third.bvh(0xabc, builder);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(a->bytes, c->bytes);
    EXPECT_EQ(store.counters().corruptEvictions, 1u);

    // ...and the rebuild healed the store for the next consumer.
    service::ArtifactCache fourth;
    fourth.setDiskStore(&store);
    auto d = fourth.bvh(0xabc, builder);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(a->bytes, d->bytes);
}

TEST(DiskStoreTest, PipelineCodecRoundTrips)
{
    vptx::Instr instr{};
    instr.op = static_cast<vptx::Opcode>(3);
    instr.dst = 4;
    instr.src0 = -1;
    instr.src1 = 7;
    instr.src2 = 2;
    instr.size = 8;
    instr.target = 12;
    instr.reconv = 34;
    instr.imm = 0x123456789abcdef0ull;
    vptx::Program prog;
    prog.code = {instr};
    vptx::ShaderInfo shader;
    shader.name = "raygen_main";
    shader.stage = static_cast<vptx::ShaderStage>(0);
    shader.entryPc = 0;
    shader.numRegs = 24;
    prog.shaders = {shader};
    prog.raygenShader = 0;
    CompiledPipeline pipeline(std::move(prog), {{1, -1, 2, 0}}, {3}, true);

    serial::Writer w;
    service::encodePipeline(w, pipeline);
    serial::Reader r(w.buffer());
    CompiledPipeline back = service::decodePipeline(r);
    EXPECT_TRUE(r.done());
    ASSERT_EQ(back.program().code.size(), 1u);
    EXPECT_EQ(back.program().code[0].op, instr.op);
    EXPECT_EQ(back.program().code[0].dst, instr.dst);
    EXPECT_EQ(back.program().code[0].src0, instr.src0);
    EXPECT_EQ(back.program().code[0].imm, instr.imm);
    ASSERT_EQ(back.program().shaders.size(), 1u);
    EXPECT_EQ(back.program().shaders[0].name, "raygen_main");
    EXPECT_EQ(back.program().shaders[0].numRegs, 24u);
    ASSERT_EQ(back.hitGroups().size(), 1u);
    EXPECT_EQ(back.hitGroups()[0].closestHit, 1);
    EXPECT_EQ(back.hitGroups()[0].anyHit, -1);
    EXPECT_EQ(back.missShaders(), pipeline.missShaders());
    EXPECT_TRUE(back.fcc());
    // The micro-op stream is never serialized — decode rebuilds it, and
    // it must match one built directly from the same program.
    ASSERT_EQ(back.uops().size(), pipeline.uops().size());
    EXPECT_EQ(back.uops().at(0).op, pipeline.uops().at(0).op);
    EXPECT_EQ(back.uops().at(0).dst, pipeline.uops().at(0).dst);
    EXPECT_EQ(back.uops().at(0).imm, pipeline.uops().at(0).imm);
}

} // namespace
} // namespace vksim
