/**
 * @file
 * Unit tests for the cache model: LRU replacement, set mapping, MSHR
 * merging and stalls, miss classification, per-origin accounting,
 * snapshot decoding, and a differential test of the indexed tag array
 * against a linear-scan reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "cache/cache.h"
#include "gpu/gpu.h"
#include "util/rng.h"

namespace vksim {
namespace {

CacheConfig
smallCache(unsigned lines, unsigned assoc)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = lines * kSectorBytes;
    cfg.assoc = assoc;
    cfg.latency = 5;
    cfg.numMshrs = 4;
    cfg.mshrTargets = 2;
    return cfg;
}

TEST(CacheTest, MissThenHitAfterFill)
{
    Cache c(smallCache(4, 0));
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 1, 0),
              CacheOutcome::MissNew);
    c.fill(0x100, 1);
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 2, 2),
              CacheOutcome::Hit);
    EXPECT_EQ(c.stats().get("hits.shader"), 1u);
    EXPECT_EQ(c.stats().get("miss_compulsory.shader"), 1u);
}

TEST(CacheTest, LruEvictsColdestLine)
{
    // Fully associative, 2 lines.
    Cache c(smallCache(2, 0));
    c.access(0x000, false, AccessOrigin::Shader, 1, 0);
    c.fill(0x000, 0);
    c.access(0x020, false, AccessOrigin::Shader, 2, 1);
    c.fill(0x020, 1);
    // Touch 0x000 so 0x020 becomes LRU.
    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 3, 2),
              CacheOutcome::Hit);
    // New line evicts 0x020.
    c.access(0x040, false, AccessOrigin::Shader, 4, 3);
    c.fill(0x040, 3);
    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 5, 4),
              CacheOutcome::Hit);
    EXPECT_EQ(c.access(0x020, false, AccessOrigin::Shader, 6, 5),
              CacheOutcome::MissNew);
    // Re-missing 0x020 is a capacity/conflict miss, not compulsory.
    EXPECT_EQ(c.stats().get("miss_capacity_conflict.shader"), 1u);
}

TEST(CacheTest, SetMappingSeparatesConflicts)
{
    // 4 lines, 2-way: two sets.
    Cache c(smallCache(4, 2));
    // These addresses map to different sets (line index parity).
    c.access(0x000, false, AccessOrigin::Shader, 1, 0);
    c.fill(0x000, 0);
    c.access(0x020, false, AccessOrigin::Shader, 2, 0);
    c.fill(0x020, 0);
    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 3, 1),
              CacheOutcome::Hit);
    EXPECT_EQ(c.access(0x020, false, AccessOrigin::Shader, 4, 1),
              CacheOutcome::Hit);
}

TEST(CacheTest, MshrMergesAndStalls)
{
    Cache c(smallCache(8, 0));
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 1, 0),
              CacheOutcome::MissNew);
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 2, 0),
              CacheOutcome::MissMerged);
    // mshrTargets = 2: third access to the same line stalls.
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 3, 0),
              CacheOutcome::Stall);
    std::vector<std::uint64_t> tags = c.fill(0x100, 1);
    ASSERT_EQ(tags.size(), 2u);
    EXPECT_EQ(tags[0], 1u);
    EXPECT_EQ(tags[1], 2u);
}

TEST(CacheTest, MshrPoolExhaustionStalls)
{
    Cache c(smallCache(16, 0)); // 4 MSHRs
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(c.access(0x1000 + a * 32, false, AccessOrigin::Shader, a,
                           0),
                  CacheOutcome::MissNew);
    EXPECT_EQ(c.access(0x2000, false, AccessOrigin::Shader, 9, 0),
              CacheOutcome::Stall);
    EXPECT_EQ(c.stats().get("mshr_full_stalls"), 1u);
    c.cancelMshr(0x1000);
    EXPECT_EQ(c.access(0x2000, false, AccessOrigin::Shader, 9, 0),
              CacheOutcome::MissNew);
}

TEST(CacheTest, WritesAreWriteThroughNoAllocate)
{
    Cache c(smallCache(4, 0));
    EXPECT_EQ(c.access(0x100, true, AccessOrigin::RtUnit, 0, 0),
              CacheOutcome::MissNew);
    // The write did not allocate.
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::RtUnit, 1, 1),
              CacheOutcome::MissNew);
    EXPECT_EQ(c.stats().get("writes.rtunit"), 1u);
    EXPECT_EQ(c.stats().get("accesses.rtunit"), 2u);
}

TEST(CacheTest, OriginAccountingSeparatesShaderAndRtUnit)
{
    Cache c(smallCache(8, 0));
    c.access(0x000, false, AccessOrigin::Shader, 1, 0);
    c.access(0x100, false, AccessOrigin::RtUnit, 2, 0);
    EXPECT_EQ(c.stats().get("accesses.shader"), 1u);
    EXPECT_EQ(c.stats().get("accesses.rtunit"), 1u);
    EXPECT_EQ(c.stats().get("miss_compulsory.shader"), 1u);
    EXPECT_EQ(c.stats().get("miss_compulsory.rtunit"), 1u);
}

TEST(CacheTest, SeventeenMergesToOneSectorStallWithoutMiscount)
{
    // Paper-default MSHR geometry: 16 merged targets per MSHR. Driving
    // 17+ requests at one sector must stall the overflow — and the
    // stalled retries must not perturb the access/miss/merge stat split.
    CacheConfig cfg = smallCache(64, 0);
    cfg.numMshrs = 64;
    cfg.mshrTargets = 16;
    Cache c(cfg);

    EXPECT_EQ(c.access(0x400, false, AccessOrigin::RtUnit, 0, 0),
              CacheOutcome::MissNew);
    for (std::uint64_t i = 1; i < 16; ++i)
        EXPECT_EQ(c.access(0x400, false, AccessOrigin::RtUnit, i, 0),
                  CacheOutcome::MissMerged);
    // Target list is full: overflow requests stall, repeatedly.
    for (int retry = 0; retry < 4; ++retry)
        EXPECT_EQ(c.access(0x400, false, AccessOrigin::RtUnit, 16, 0),
                  CacheOutcome::Stall);

    EXPECT_EQ(c.stats().get("accesses.rtunit"), 16u);
    EXPECT_EQ(c.stats().get("miss_compulsory.rtunit"), 1u);
    EXPECT_EQ(c.stats().get("miss_capacity_conflict.rtunit"), 0u);
    EXPECT_EQ(c.stats().get("mshr_merges"), 15u);
    EXPECT_EQ(c.stats().get("mshr_target_stalls"), 4u);

    // The fill releases exactly the 16 merged cookies, none dropped.
    std::vector<std::uint64_t> tags = c.fill(0x400, 1);
    ASSERT_EQ(tags.size(), 16u);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(tags[i], i);

    // The stalled request retries against the now-resident line.
    EXPECT_EQ(c.access(0x400, false, AccessOrigin::RtUnit, 16, 2),
              CacheOutcome::Hit);
    EXPECT_EQ(c.stats().get("accesses.rtunit"), 17u);
}

TEST(CacheTest, MshrFullStallRetriesCountOnce)
{
    // An access stalled on MSHR-pool exhaustion is retried verbatim by
    // every caller in the memory system; only the attempt that finally
    // goes through may touch the access/miss counters, and it must still
    // classify as compulsory.
    CacheConfig cfg = smallCache(16, 0);
    cfg.numMshrs = 1;
    Cache c(cfg);

    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 1, 0),
              CacheOutcome::MissNew);
    for (int retry = 0; retry < 3; ++retry)
        EXPECT_EQ(c.access(0x200, false, AccessOrigin::Shader, 2, 0),
                  CacheOutcome::Stall);
    EXPECT_EQ(c.stats().get("accesses.shader"), 1u);

    c.fill(0x000, 1);
    EXPECT_EQ(c.access(0x200, false, AccessOrigin::Shader, 2, 2),
              CacheOutcome::MissNew);
    EXPECT_EQ(c.stats().get("accesses.shader"), 2u);
    EXPECT_EQ(c.stats().get("miss_compulsory.shader"), 2u);
    EXPECT_EQ(c.stats().get("miss_capacity_conflict.shader"), 0u);
    EXPECT_EQ(c.stats().get("mshr_full_stalls"), 3u);
}

TEST(CacheTest, ContainsPeeksWithoutSideEffects)
{
    Cache c(smallCache(4, 0));
    EXPECT_FALSE(c.contains(0x100));
    c.access(0x100, false, AccessOrigin::Shader, 1, 0);
    EXPECT_FALSE(c.contains(0x100)); // miss outstanding, not resident
    c.fill(0x100, 1);
    EXPECT_TRUE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x10f)); // any address within the sector
    // The peeks above must not have counted anything.
    EXPECT_EQ(c.stats().get("accesses.shader"), 1u);
    EXPECT_EQ(c.stats().get("hits.shader"), 0u);
}

TEST(CacheTest, ResetClearsEverything)
{
    Cache c(smallCache(4, 0));
    c.access(0x100, false, AccessOrigin::Shader, 1, 0);
    c.fill(0x100, 0);
    c.reset();
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 2, 1),
              CacheOutcome::MissNew);
    EXPECT_EQ(c.stats().get("miss_compulsory.shader"), 1u);
}

// --- Sectored (line-tagged) mode -----------------------------------------

CacheConfig
sectoredCache(unsigned lines, unsigned assoc, Addr line_bytes)
{
    CacheConfig cfg;
    cfg.name = "sectored";
    cfg.sizeBytes = lines * line_bytes;
    cfg.assoc = assoc;
    cfg.latency = 5;
    cfg.numMshrs = 8;
    cfg.mshrTargets = 4;
    cfg.lineBytes = line_bytes;
    return cfg;
}

TEST(SectoredCacheTest, SectorFillValidatesOnlyMissedSector)
{
    // 128 B lines = 4 sectors per tag. A sector fill must leave the
    // line's other sectors invalid: hitting them later is a sector miss
    // on a resident line (line hit), not a line miss.
    Cache c(sectoredCache(2, 0, 128));
    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 1, 0),
              CacheOutcome::MissNew);
    c.fill(0x000, 0);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x020));
    EXPECT_FALSE(c.contains(0x040));
    EXPECT_FALSE(c.contains(0x060));

    EXPECT_EQ(c.access(0x040, false, AccessOrigin::Shader, 2, 1),
              CacheOutcome::MissNew);
    EXPECT_EQ(c.stats().get("sector_miss.shader"), 2u);
    EXPECT_EQ(c.stats().get("line_miss.shader"), 1u);
    // Filling the second sector must not disturb the first.
    c.fill(0x040, 1);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x040));
    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 3, 2),
              CacheOutcome::Hit);
    EXPECT_EQ(c.access(0x040, false, AccessOrigin::Shader, 4, 2),
              CacheOutcome::Hit);
}

TEST(SectoredCacheTest, LineFillValidatesWholeLine)
{
    CacheConfig cfg = sectoredCache(2, 0, 128);
    cfg.fillPolicy = CacheFillPolicy::LineFill;
    Cache c(cfg);
    EXPECT_EQ(c.access(0x080, false, AccessOrigin::Shader, 1, 0),
              CacheOutcome::MissNew);
    c.fill(0x080, 0);
    // Line-fill-on-sector-miss: all four sectors of the 0x080 line are
    // now resident, including ones never requested.
    for (Addr a : {Addr(0x080), Addr(0x0a0), Addr(0x0c0), Addr(0x0e0)})
        EXPECT_TRUE(c.contains(a)) << std::hex << a;
    EXPECT_FALSE(c.contains(0x100)); // next line untouched
    EXPECT_EQ(c.access(0x0e0, false, AccessOrigin::Shader, 2, 1),
              CacheOutcome::Hit);
    EXPECT_EQ(c.stats().get("sector_miss.shader"), 1u);
    EXPECT_EQ(c.stats().get("line_miss.shader"), 1u);
}

TEST(SectoredCacheTest, MshrOnSectorMissLineHitFillsInPlace)
{
    // A sector miss on a resident line allocates an MSHR like any other
    // miss; the fill must extend the existing line's valid mask instead
    // of allocating (and possibly evicting) a fresh way.
    Cache c(sectoredCache(2, 0, 128));
    c.access(0x000, false, AccessOrigin::Shader, 1, 0);
    c.fill(0x000, 0);
    EXPECT_EQ(c.access(0x020, false, AccessOrigin::Shader, 2, 1),
              CacheOutcome::MissNew);
    EXPECT_TRUE(c.mshrPending(0x020));
    EXPECT_EQ(c.access(0x020, false, AccessOrigin::Shader, 3, 1),
              CacheOutcome::MissMerged);
    std::vector<std::uint64_t> tags = c.fill(0x020, 2);
    ASSERT_EQ(tags.size(), 2u);
    EXPECT_EQ(tags[0], 2u);
    EXPECT_EQ(tags[1], 3u);
    // No eviction happened: both sectors live under the one tag.
    EXPECT_EQ(c.stats().get("line_evictions"), 0u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x020));
}

TEST(SectoredCacheTest, EvictionCountsPartialDirtyLines)
{
    // Fully associative, ONE line: every new tag evicts the old one.
    Cache c(sectoredCache(1, 0, 128));
    c.access(0x000, false, AccessOrigin::Shader, 1, 0);
    c.fill(0x000, 0);
    c.access(0x020, false, AccessOrigin::Shader, 2, 1);
    c.fill(0x020, 1);
    // Dirty one of the two valid sectors (write-through keeps the data
    // downstream; the dirty bit is eviction bookkeeping only).
    EXPECT_EQ(c.access(0x020, true, AccessOrigin::Shader, 3, 2),
              CacheOutcome::Hit);

    // A different tag forces the eviction of a partially-dirty line.
    c.access(0x100, false, AccessOrigin::Shader, 4, 3);
    c.fill(0x100, 3);
    EXPECT_EQ(c.stats().get("line_evictions"), 1u);
    EXPECT_EQ(c.stats().get("evict_partial_dirty"), 1u);
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x020));
    EXPECT_TRUE(c.contains(0x100));

    // Evicting a line whose dirty sectors are not a strict subset of the
    // valid mask is impossible; a fully-clean eviction must not count as
    // partial dirty.
    c.access(0x200, false, AccessOrigin::Shader, 5, 4);
    c.fill(0x200, 4);
    EXPECT_EQ(c.stats().get("line_evictions"), 2u);
    EXPECT_EQ(c.stats().get("evict_partial_dirty"), 1u);
}

TEST(SectoredCacheTest, StreamingReservationBypassesLowReuseFills)
{
    CacheConfig cfg = sectoredCache(4, 0, 128);
    cfg.streamingThreshold = 2;
    Cache c(cfg);

    // One lonely target: the fill answers it but bypasses the tag array.
    EXPECT_EQ(c.access(0x000, false, AccessOrigin::Shader, 1, 0),
              CacheOutcome::MissNew);
    std::vector<std::uint64_t> tags = c.fill(0x000, 0);
    ASSERT_EQ(tags.size(), 1u);
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_EQ(c.stats().get("streaming_bypass_fills"), 1u);
    EXPECT_EQ(c.stats().get("streaming_alloc_fills"), 0u);

    // Two merged targets prove reuse: the fill allocates.
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 2, 1),
              CacheOutcome::MissNew);
    EXPECT_EQ(c.access(0x100, false, AccessOrigin::Shader, 3, 1),
              CacheOutcome::MissMerged);
    tags = c.fill(0x100, 1);
    ASSERT_EQ(tags.size(), 2u);
    EXPECT_TRUE(c.contains(0x100));
    EXPECT_EQ(c.stats().get("streaming_bypass_fills"), 1u);
    EXPECT_EQ(c.stats().get("streaming_alloc_fills"), 1u);

    // A sector fill into an already-resident line is reuse by
    // definition: it extends the line even with a single target.
    EXPECT_EQ(c.access(0x120, false, AccessOrigin::Shader, 4, 2),
              CacheOutcome::MissNew);
    c.fill(0x120, 2);
    EXPECT_TRUE(c.contains(0x120));
}

TEST(SectoredCacheTest, DefaultModeDigestMatchesSeedPin)
{
    // Regression pin: this digest value was recorded from the seed
    // (pre-sectoring) cache model on the identical stimulus. The default
    // single-sector configuration must reproduce it bit-exactly — any
    // drift means the refactor leaked into default-mode behavior and
    // digest traces / golden runs are no longer comparable to the seed.
    CacheConfig cc;
    cc.name = "pin";
    cc.sizeBytes = 8 * kSectorBytes;
    cc.assoc = 2;
    cc.numMshrs = 4;
    cc.mshrTargets = 4;
    Cache c(cc);
    Cycle now = 0;
    for (Addr a : {Addr(0x0), Addr(0x20), Addr(0x40), Addr(0x100),
                   Addr(0x0), Addr(0x220)}) {
        ++now;
        c.access(a, false, AccessOrigin::Shader, now, now);
        if (now % 2 == 0)
            c.fill(a, now);
    }
    EXPECT_EQ(c.stateDigest(), 0x846e70e2c69e29dfull);
}

TEST(SectoredCacheTest, SaveLoadRoundTripsSectorMasks)
{
    CacheConfig cfg = sectoredCache(2, 0, 128);
    Cache c(cfg);
    c.access(0x000, false, AccessOrigin::Shader, 1, 0);
    c.fill(0x000, 0);
    c.access(0x040, true, AccessOrigin::Shader, 2, 1); // write miss
    c.access(0x020, false, AccessOrigin::RtUnit, 3, 2); // open MSHR
    serial::Writer w;
    c.saveState(w);

    Cache d(cfg);
    serial::Reader r(w.buffer());
    d.loadState(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(c.stateDigest(), d.stateDigest());
    EXPECT_TRUE(d.contains(0x000));
    EXPECT_FALSE(d.contains(0x020));
    EXPECT_TRUE(d.mshrPending(0x020));
}

TEST(SectoredCacheTest, ValidateRejectsBadLineGeometry)
{
    GpuConfig cfg = baselineGpuConfig();
    cfg.l1.lineBytes = 96; // not a power of two
    EXPECT_FALSE(cfg.validate().empty());
    cfg.l1.lineBytes = 16; // below the sector size
    EXPECT_FALSE(cfg.validate().empty());
    cfg.l1.lineBytes = 2048; // more sectors than the 32-bit masks hold
    EXPECT_FALSE(cfg.validate().empty());
    cfg.l1.lineBytes = 128;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(CacheTest, ValidateRejectsSetsBeyondTagIndexRange)
{
    GpuConfig cfg = baselineGpuConfig();
    // Fully associative: ways = sizeBytes / lineBytes.
    cfg.l1.sizeBytes = Addr(kMaxCacheWays) * kSectorBytes;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.l1.sizeBytes = Addr(kMaxCacheWays + 1) * kSectorBytes;
    std::vector<std::string> problems = cfg.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("65536 ways per set"), std::string::npos)
        << problems[0];
    cfg = baselineGpuConfig();
    cfg.fabric.l2.assoc = kMaxCacheWays + 1;
    EXPECT_FALSE(cfg.validate().empty());
}

// --- Snapshot decoding ----------------------------------------------------

/** One line record in Cache::saveState's layout. */
struct LineRecord
{
    Addr tag = ~Addr(0);
    std::uint32_t validMask = 0;
    std::uint32_t dirtyMask = 0;
    Cycle lastUse = 0;
};

/** A snapshot with the given lines, no MSHRs, no history, no stats. */
std::vector<std::uint8_t>
craftSnapshot(const std::vector<LineRecord> &lines)
{
    serial::Writer w;
    w.u64(lines.size());
    for (const LineRecord &l : lines) {
        w.u64(l.tag);
        w.u32(l.validMask);
        w.u32(l.dirtyMask);
        w.u64(l.lastUse);
    }
    w.u64(0); // MSHRs
    w.u64(0); // ever-seen sectors
    StatGroup().saveState(w);
    return w.take();
}

/** loadState's SimError message for `bytes` ("" when it loads). */
std::string
loadError(Cache &c, const std::vector<std::uint8_t> &bytes)
{
    serial::Reader r(bytes);
    try {
        c.loadState(r);
    } catch (const SimError &e) {
        return e.what();
    }
    return "";
}

TEST(CacheTest, LoadStateRejectsMalformedLines)
{
    // 4 lines of 128 B (4 sectors), 2-way: two sets.
    const CacheConfig cfg = sectoredCache(4, 2, 128);
    std::vector<LineRecord> good(4);
    good[0] = {2, 0x3, 0x1, 7}; // tag 2 -> set 0
    good[3] = {5, 0xf, 0x0, 9}; // tag 5 -> set 1
    {
        Cache c(cfg);
        EXPECT_EQ(loadError(c, craftSnapshot(good)), "");
        EXPECT_TRUE(c.contains(2 * 128));
        EXPECT_TRUE(c.contains(5 * 128 + 96));
        check::Reporter rep(true);
        c.checkInvariants(rep, "c", true);
        EXPECT_TRUE(rep.ok());
    }

    auto expect_rejected = [&](std::vector<LineRecord> lines,
                               const std::string &why) {
        Cache c(cfg);
        std::string err = loadError(c, craftSnapshot(lines));
        EXPECT_NE(err.find(why), std::string::npos) << "got: " << err;
    };
    std::vector<LineRecord> bad = good;
    bad.pop_back();
    expect_rejected(bad, "3 lines, the cache has 4");
    bad = good;
    bad[0].validMask = 0x13; // sector 4 of a 4-sector line
    expect_rejected(bad, "beyond the 4-sector line");
    bad = good;
    bad[3].dirtyMask = 0x10;
    expect_rejected(bad, "outside valid mask");
    bad = good;
    bad[1].dirtyMask = 0x1; // dirty bits on a free line
    expect_rejected(bad, "outside valid mask");
    bad = good;
    bad[1] = {2, 0x4, 0x0, 3}; // tag 2 again in set 0
    expect_rejected(bad, "duplicates way 0");
    bad = good;
    bad[2] = {4, 0x1, 0x0, 3}; // tag 4 maps to set 0, stored in set 1
    expect_rejected(bad, "maps to set 0");
}

TEST(CacheTest, LoadStateRejectsOversizedMshrTargetCount)
{
    Cache c(smallCache(4, 0));
    serial::Writer w;
    w.u64(4);
    for (int i = 0; i < 4; ++i) {
        w.u64(~Addr(0));
        w.u32(0);
        w.u32(0);
        w.u64(0);
    }
    w.u64(1);                 // one MSHR
    w.u64(0x100);             // at this sector
    w.u64(~std::uint64_t(0)); // claiming 2^64 - 1 targets
    EXPECT_NE(loadError(c, w.take()).find("overruns the payload"),
              std::string::npos);
}

// --- Indexed tag array vs linear-scan oracle -------------------------------

/**
 * Reference model for the differential test: the cache with every tag
 * lookup and victim choice done by scanning all ways of the set. It
 * keeps Cache's stats keys, digest and snapshot byte layout, so the two
 * must agree on everything observable after every operation.
 */
class LinearScanCache
{
  public:
    explicit LinearScanCache(const CacheConfig &cfg)
        : cfg_(cfg), stats_(cfg.name)
    {
        sectored_ = cfg.lineBytes > kSectorBytes;
        unsigned sectors = static_cast<unsigned>(cfg.lineBytes / kSectorBytes);
        fullMask_ = sectors == 32 ? ~0u : (1u << sectors) - 1;
        Addr lines = cfg.sizeBytes / cfg.lineBytes;
        ways_ = cfg.assoc != 0 ? cfg.assoc : static_cast<unsigned>(lines);
        sets_ = static_cast<unsigned>(lines / ways_);
        lines_.resize(std::size_t(sets_) * ways_);
    }

    CacheOutcome
    access(Addr addr, bool write, AccessOrigin origin, std::uint64_t tag,
           Cycle now)
    {
        addr = sectorAlign(addr);
        const std::string o =
            origin == AccessOrigin::Shader ? "shader" : "rtunit";
        Line *line = probe(addr);
        std::uint32_t bit = 1u << ((addr % cfg_.lineBytes) / kSectorBytes);
        if (line != nullptr && (line->validMask & bit) != 0) {
            line->lastUse = now;
            if (write)
                line->dirtyMask |= bit;
            stats_.counter("accesses." + o).inc();
            if (write)
                stats_.counter("writes." + o).inc();
            stats_.counter("hits." + o).inc();
            return CacheOutcome::Hit;
        }
        if (write) {
            stats_.counter("accesses." + o).inc();
            stats_.counter("writes." + o).inc();
            stats_.counter("write_miss." + o).inc();
            return CacheOutcome::MissNew;
        }
        auto it = mshrs_.find(addr);
        if (it != mshrs_.end() && it->second.size() >= cfg_.mshrTargets) {
            stats_.counter("mshr_target_stalls").inc();
            return CacheOutcome::Stall;
        }
        if (it == mshrs_.end() && mshrs_.size() >= cfg_.numMshrs) {
            stats_.counter("mshr_full_stalls").inc();
            return CacheOutcome::Stall;
        }
        stats_.counter("accesses." + o).inc();
        if (it != mshrs_.end()) {
            it->second.push_back(tag);
            stats_.counter("mshr_merges").inc();
            return CacheOutcome::MissMerged;
        }
        bool compulsory = everSeen_.insert(addr).second;
        stats_
            .counter((compulsory ? "miss_compulsory."
                                 : "miss_capacity_conflict.")
                     + o)
            .inc();
        if (sectored_) {
            stats_.counter("sector_miss." + o).inc();
            if (line == nullptr)
                stats_.counter("line_miss." + o).inc();
        }
        mshrs_[addr].push_back(tag);
        return CacheOutcome::MissNew;
    }

    std::vector<std::uint64_t>
    fill(Addr addr, Cycle now)
    {
        addr = sectorAlign(addr);
        auto it = mshrs_.find(addr);
        std::size_t merged = it == mshrs_.end() ? 0 : it->second.size();
        std::uint32_t bits =
            cfg_.fillPolicy == CacheFillPolicy::LineFill
                ? fullMask_
                : 1u << ((addr % cfg_.lineBytes) / kSectorBytes);
        if (Line *line = probe(addr)) {
            line->validMask |= bits;
            line->lastUse = now;
        } else if (cfg_.streamingThreshold == 0
                   || merged >= cfg_.streamingThreshold) {
            Line *base = setBase(addr);
            Line *victim = &base[0];
            for (unsigned w = 0; w < ways_; ++w) {
                if (base[w].validMask == 0) {
                    victim = &base[w];
                    break;
                }
                if (base[w].lastUse < victim->lastUse)
                    victim = &base[w];
            }
            evictions_ += victim->validMask != 0;
            if (sectored_ && victim->validMask != 0) {
                stats_.counter("line_evictions").inc();
                if (victim->dirtyMask != 0 && victim->dirtyMask != fullMask_)
                    stats_.counter("evict_partial_dirty").inc();
            }
            *victim = Line{addr / cfg_.lineBytes, bits, 0, now};
            if (cfg_.streamingThreshold != 0)
                stats_.counter("streaming_alloc_fills").inc();
        } else {
            stats_.counter("streaming_bypass_fills").inc();
        }
        if (it == mshrs_.end())
            return {};
        std::vector<std::uint64_t> targets = std::move(it->second);
        mshrs_.erase(it);
        return targets;
    }

    void cancelMshr(Addr addr) { mshrs_.erase(sectorAlign(addr)); }

    void
    reset()
    {
        std::fill(lines_.begin(), lines_.end(), Line{});
        mshrs_.clear();
        everSeen_.clear();
        stats_.reset();
    }

    std::uint64_t
    stateDigest() const
    {
        check::Digest d;
        for (const Line &l : lines_) {
            if (l.validMask == 0)
                continue;
            d.mix(l.tag);
            d.mix(l.lastUse);
            if (sectored_) {
                d.mix(l.validMask);
                d.mix(l.dirtyMask);
            }
        }
        std::uint64_t fold = 0;
        for (const auto &[addr, targets] : mshrs_) {
            check::Digest e;
            e.mix(addr);
            for (std::uint64_t t : targets)
                e.mix(t);
            fold ^= e.value();
        }
        d.mix(fold);
        d.mix(mshrs_.size());
        return d.value();
    }

    void
    saveState(serial::Writer &w) const
    {
        w.u64(lines_.size());
        for (const Line &l : lines_) {
            w.u64(l.tag);
            w.u32(l.validMask);
            w.u32(l.dirtyMask);
            w.u64(l.lastUse);
        }
        w.u64(mshrs_.size());
        for (const auto &[addr, targets] : mshrs_) {
            w.u64(addr);
            w.u64(targets.size());
            for (std::uint64_t t : targets)
                w.u64(t);
        }
        w.u64(everSeen_.size());
        for (Addr a : everSeen_)
            w.u64(a);
        stats_.saveState(w);
    }

    const StatGroup &stats() const { return stats_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Line
    {
        Addr tag = ~Addr(0);
        std::uint32_t validMask = 0;
        std::uint32_t dirtyMask = 0;
        Cycle lastUse = 0;
    };

    Line *
    setBase(Addr addr)
    {
        unsigned set =
            static_cast<unsigned>((addr / cfg_.lineBytes) % sets_);
        return &lines_[std::size_t(set) * ways_];
    }

    Line *
    probe(Addr addr)
    {
        Line *base = setBase(addr);
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].validMask != 0
                && base[w].tag == addr / cfg_.lineBytes)
                return &base[w];
        return nullptr;
    }

    CacheConfig cfg_;
    bool sectored_;
    std::uint32_t fullMask_;
    unsigned ways_;
    unsigned sets_;
    std::vector<Line> lines_;
    std::map<Addr, std::vector<std::uint64_t>> mshrs_; // sorted = saved order
    std::set<Addr> everSeen_;
    StatGroup stats_;
    std::uint64_t evictions_ = 0;
};

/**
 * Drive `cfg` and the linear-scan oracle with the same PCG32 stream of
 * accesses, writes, fills (some at an earlier cycle) and MSHR cancels —
 * with many operations per cycle, so lastUse ties are common — plus a
 * reset early on and a saveState/loadState into a fresh cache halfway.
 * Everything observable must match after every step.
 */
void
runAgainstOracle(const CacheConfig &cfg, unsigned steps, std::uint64_t seed)
{
    auto cache = std::make_unique<Cache>(cfg);
    LinearScanCache oracle(cfg);
    Pcg32 rng(seed);
    const Addr lines = cfg.sizeBytes / cfg.lineBytes;
    const Addr sectors = lines * (cfg.lineBytes / kSectorBytes);
    auto pick = [&](const std::vector<Addr> &from) {
        return from[rng.nextBelow(static_cast<std::uint32_t>(from.size()))];
    };
    auto below = [&](Addr span) {
        return Addr(rng.nextBelow(static_cast<std::uint32_t>(span)))
               * kSectorBytes;
    };
    auto pick_cold = [&] { return below(sectors * 8); };
    // A hot half of the capacity plus a cold tail eight times its size.
    auto pick_addr = [&] {
        return rng.nextBelow(10) < 6 ? below(sectors / 2) : pick_cold();
    };
    Cycle now = 1000;
    std::uint64_t cookie = 0;
    for (unsigned step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (rng.nextBelow(3) == 0)
            ++now;
        std::vector<Addr> pending = cache->mshrAddrs();
        std::sort(pending.begin(), pending.end());
        const unsigned op = rng.nextBelow(100);
        if (op < 35 || (op < 65 && pending.empty())) {
            // One access in four goes to an outstanding miss (merges,
            // target stalls, and reuse for streaming reservation).
            Addr a = !pending.empty() && rng.nextBelow(4) == 0
                         ? pick(pending)
                         : pick_addr();
            bool write = op < 8;
            AccessOrigin o = rng.nextBelow(2) == 0 ? AccessOrigin::Shader
                                                   : AccessOrigin::RtUnit;
            ++cookie;
            ASSERT_EQ(cache->access(a, write, o, cookie, now),
                      oracle.access(a, write, o, cookie, now));
        } else if (op < 60) {
            Addr a = pick(pending);
            // One fill in ten lands at an earlier cycle.
            Cycle at = rng.nextBelow(10) == 0 ? now - rng.nextBelow(50) : now;
            ASSERT_EQ(cache->fill(a, at), oracle.fill(a, at));
        } else if (op < 65) {
            Addr a = pick(pending);
            cache->cancelMshr(a);
            oracle.cancelMshr(a);
        } else {
            // A fill with no MSHR outstanding, mostly of a line not yet
            // resident (allocates, or bypasses under streaming
            // reservation).
            Addr a = rng.nextBelow(4) == 0 ? pick_addr() : pick_cold();
            ASSERT_EQ(cache->fill(a, now), oracle.fill(a, now));
        }
        if (step == steps / 2) {
            serial::Writer w;
            cache->saveState(w);
            cache = std::make_unique<Cache>(cfg);
            serial::Reader r(w.buffer());
            cache->loadState(r);
            ASSERT_EQ(r.remaining(), 0u);
        }
        if (step == steps / 16) {
            cache->reset();
            oracle.reset();
        }

        ASSERT_EQ(cache->stateDigest(), oracle.stateDigest());
        ASSERT_EQ(cache->stats().dump(), oracle.stats().dump());
        serial::Writer got, want;
        cache->saveState(got);
        oracle.saveState(want);
        ASSERT_EQ(got.buffer(), want.buffer());
        check::Reporter rep(true);
        cache->checkInvariants(rep, "cache", true);
        ASSERT_TRUE(rep.ok()) << rep.violations()[0].path << ": "
                              << rep.violations()[0].message;
    }
    // The stream must have exercised replacement, not just cold fills.
    EXPECT_GT(oracle.evictions(), lines / 2);
}

TEST(CacheTest, IndexedTagArrayMatchesLinearScanOracle)
{
    CacheConfig fa = smallCache(2048, 0); // baseline L1: 2048 ways
    fa.numMshrs = 16;
    fa.mshrTargets = 3;
    {
        SCOPED_TRACE("2048-way");
        runAgainstOracle(fa, 8000, 1);
    }
    CacheConfig l2 = smallCache(16 * 16, 16); // 16 sets x 16 ways
    l2.numMshrs = 8;
    {
        SCOPED_TRACE("16-way");
        runAgainstOracle(l2, 6000, 2);
    }
    {
        SCOPED_TRACE("2-way");
        runAgainstOracle(smallCache(32, 2), 6000, 3);
    }
    CacheConfig sectored = sectoredCache(16, 0, 128);
    sectored.fillPolicy = CacheFillPolicy::LineFill;
    sectored.streamingThreshold = 2;
    {
        SCOPED_TRACE("sectored streaming");
        runAgainstOracle(sectored, 6000, 4);
    }
}

} // namespace
} // namespace vksim
