/**
 * @file
 * Tests for the memory fabric: request routing, L2 behaviour, DRAM
 * row-buffer locality, FR-FCFS preference, bandwidth accounting, the
 * perfect-memory variant, the per-bank FR-FCFS pick against a two-pass
 * reference scheduler, lazy response-queue trimming against a
 * per-cycle trim, and the snapshot decoder's rejection of malformed
 * bytes.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/vulkansim.h"
#include "dram/fabric.h"
#include "util/rng.h"

namespace vksim {
namespace {

FabricConfig
testFabric(unsigned partitions = 2)
{
    FabricConfig cfg;
    cfg.numPartitions = partitions;
    cfg.icntLatency = 2;
    cfg.l2 = CacheConfig{"l2", 8 * 1024, 4, 10, 16, 8};
    cfg.dram.tRcd = 4;
    cfg.dram.tRp = 4;
    cfg.dram.tCas = 4;
    cfg.dram.burstCycles = 2;
    cfg.dramClockRatio = 1.0;
    return cfg;
}

/** The responses drainResponses() delivers to SM `sm` at `now`. */
std::vector<MemRequest>
drain(MemFabric &fabric, unsigned sm, Cycle now)
{
    std::vector<MemRequest> out;
    fabric.drainResponses(sm, now, out);
    return out;
}

/** Run until a response for SM 0 appears or `limit` cycles pass. */
std::vector<MemRequest>
runUntilResponse(MemFabric &fabric, Cycle *now, Cycle limit = 2000)
{
    for (Cycle end = *now + limit; *now < end; ++*now) {
        fabric.cycle(*now);
        auto resp = drain(fabric, 0, *now);
        if (!resp.empty())
            return resp;
    }
    return {};
}

TEST(FabricTest, ReadMissGoesToDramAndReturns)
{
    MemFabric fabric(testFabric(), 1);
    MemRequest req;
    req.addr = 0x1000;
    req.smId = 0;
    req.tag = 42;
    Cycle now = 0;
    fabric.inject(req, now);
    auto resp = runUntilResponse(fabric, &now);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].tag, 42u);
    EXPECT_EQ(resp[0].addr, 0x1000u);
    EXPECT_GT(now, testFabric().icntLatency * 2u);
    EXPECT_EQ(fabric.dramStats().get("requests"), 1u);
}

TEST(FabricTest, L2HitSkipsDram)
{
    MemFabric fabric(testFabric(), 1);
    Cycle now = 0;
    MemRequest req;
    req.addr = 0x2000;
    req.smId = 0;
    req.tag = 1;
    fabric.inject(req, now);
    runUntilResponse(fabric, &now);
    std::uint64_t dram_before = fabric.dramStats().get("requests");

    req.tag = 2;
    fabric.inject(req, now);
    auto resp = runUntilResponse(fabric, &now);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(fabric.dramStats().get("requests"), dram_before)
        << "second access must hit in L2";
    EXPECT_GE(fabric.l2Total("hits.shader"), 1u);
}

TEST(FabricTest, PartitionInterleavingSplitsTraffic)
{
    MemFabric fabric(testFabric(2), 1);
    Cycle now = 0;
    // 256-byte interleave: 0x000 -> partition 0, 0x100 -> partition 1.
    for (int i = 0; i < 4; ++i) {
        MemRequest req;
        req.addr = 0x100 * static_cast<Addr>(i);
        req.smId = 0;
        req.tag = static_cast<std::uint64_t>(i);
        fabric.inject(req, now);
    }
    unsigned got = 0;
    for (; now < 3000 && got < 4; ++now) {
        fabric.cycle(now);
        got += static_cast<unsigned>(drain(fabric, 0, now).size());
    }
    EXPECT_EQ(got, 4u);
    EXPECT_GT(fabric.l2Stats(0).get("accesses.shader"), 0u);
    EXPECT_GT(fabric.l2Stats(1).get("accesses.shader"), 0u);
}

TEST(FabricTest, RowBufferLocalityCountsHits)
{
    MemFabric fabric(testFabric(1), 1);
    Cycle now = 0;
    // Same DRAM row (sequential sectors), distinct L2 sets not required:
    // use distinct sector addresses to avoid L2 hits.
    for (int i = 0; i < 8; ++i) {
        MemRequest req;
        req.addr = 0x10000 + static_cast<Addr>(i) * kSectorBytes;
        req.smId = 0;
        req.tag = static_cast<std::uint64_t>(i);
        fabric.inject(req, now);
    }
    unsigned got = 0;
    for (; now < 4000 && got < 8; ++now) {
        fabric.cycle(now);
        got += static_cast<unsigned>(drain(fabric, 0, now).size());
    }
    EXPECT_EQ(got, 8u);
    EXPECT_GE(fabric.dramStats().get("row_hits"), 6u)
        << "sequential sectors in one row should mostly row-hit";
    EXPECT_LE(fabric.dramStats().get("row_misses"), 2u);
}

TEST(FabricTest, RandomBanksLowerRowLocality)
{
    MemFabric fabric(testFabric(1), 1);
    Cycle now = 0;
    // Scatter over rows: row size 2 KiB * 16 banks = 32 KiB apart.
    for (int i = 0; i < 8; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i) * 64 * 1024 + 0x40;
        req.smId = 0;
        req.tag = static_cast<std::uint64_t>(i);
        fabric.inject(req, now);
    }
    unsigned got = 0;
    for (; now < 4000 && got < 8; ++now) {
        fabric.cycle(now);
        got += static_cast<unsigned>(drain(fabric, 0, now).size());
    }
    EXPECT_EQ(got, 8u);
    EXPECT_EQ(fabric.dramStats().get("row_hits"), 0u);
}

TEST(FabricTest, WritesConsumeBandwidthWithoutResponses)
{
    MemFabric fabric(testFabric(1), 1);
    Cycle now = 0;
    MemRequest req;
    req.addr = 0x3000;
    req.smId = 0;
    req.write = true;
    fabric.inject(req, now);
    for (; now < 200; ++now)
        fabric.cycle(now);
    EXPECT_TRUE(drain(fabric, 0, now).empty());
    EXPECT_EQ(fabric.dramStats().get("requests"), 1u);
    EXPECT_TRUE(fabric.idle());
}

TEST(FabricTest, PerfectMemRespondsQuickly)
{
    FabricConfig cfg = testFabric(1);
    cfg.perfectMem = true;
    MemFabric fabric(cfg, 1);
    Cycle now = 0;
    MemRequest req;
    req.addr = 0x4000;
    req.smId = 0;
    req.tag = 7;
    fabric.inject(req, now);
    auto resp = runUntilResponse(fabric, &now);
    ASSERT_EQ(resp.size(), 1u);
    // icnt both ways + L2 latency, but no DRAM bank timing.
    EXPECT_LT(now, 2u * cfg.icntLatency + cfg.l2.latency + 5u);
}

TEST(FabricTest, DramBackpressureDoesNotInflateL2Stats)
{
    // Regression: when the DRAM queue refused a request, the partition
    // re-ran Cache::access on every retry cycle (write-through hits were
    // re-counted; read misses were cancelled and re-classified as
    // capacity/conflict), so any DRAM backpressure inflated the L2
    // access/miss statistics.
    FabricConfig cfg = testFabric(1);
    cfg.dram.queueSize = 2;
    cfg.dram.tRcd = 40;
    cfg.dram.tRp = 40;
    cfg.dram.tCas = 40;
    MemFabric fabric(cfg, 1);
    Cycle now = 0;
    const std::uint64_t kWrites = 12;
    for (std::uint64_t i = 0; i < kWrites; ++i) {
        MemRequest req;
        req.addr = 0x8000 + static_cast<Addr>(i) * kSectorBytes;
        req.smId = 0;
        req.write = true;
        fabric.inject(req, now);
    }
    MemRequest read;
    read.addr = 0x9000;
    read.smId = 0;
    read.tag = 99;
    fabric.inject(read, now);

    unsigned got = 0;
    for (; now < 60000 && (got < 1 || !fabric.idle()); ++now) {
        fabric.cycle(now);
        got += static_cast<unsigned>(drain(fabric, 0, now).size());
    }
    EXPECT_EQ(got, 1u);
    EXPECT_EQ(fabric.l2Total("accesses.shader"), kWrites + 1);
    EXPECT_EQ(fabric.l2Total("writes.shader"), kWrites);
    EXPECT_EQ(fabric.l2Total("miss_compulsory.shader"), 1u);
    EXPECT_EQ(fabric.l2Total("miss_capacity_conflict.shader"), 0u);
    EXPECT_EQ(fabric.dramStats().get("requests"), kWrites + 1);
}

// --- Bank groups, refresh, and the modern-timing scheduler ---------------

DramConfig
modernDram()
{
    DramConfig cfg;
    cfg.banks = 4;
    cfg.rowBytes = 2048;
    cfg.tRcd = 4;
    cfg.tRp = 4;
    cfg.tCas = 4;
    cfg.burstCycles = 2;
    cfg.queueSize = 16;
    return cfg;
}

/** DRAM tick at which the n-th request issues (via the counter edge). */
std::vector<std::uint64_t>
issueTicks(DramChannel &ch, StatGroup &stats, unsigned count,
           unsigned limit = 1000)
{
    std::vector<std::uint64_t> ticks;
    std::uint64_t seen = stats.get("requests");
    for (unsigned t = 0; t < limit && ticks.size() < count; ++t) {
        ch.cycle(t);
        if (stats.get("requests") > seen) {
            seen = stats.get("requests");
            ticks.push_back(ch.dramNow());
        }
    }
    return ticks;
}

TEST(DramTimingTest, SameGroupColumnsSpacedByCcdL)
{
    // banks 0 and 2 share group 0 (bank % bankGroups with 2 groups):
    // their column commands must sit tCCDL apart even though both banks
    // are otherwise free.
    DramConfig cfg = modernDram();
    cfg.bankGroups = 2;
    cfg.tCcdL = 8;
    cfg.tCcdS = 2;
    StatGroup stats("dram");
    DramChannel ch(cfg, false, &stats);
    MemRequest a, b;
    a.addr = 0 * cfg.rowBytes; // bank 0, group 0
    b.addr = 2 * cfg.rowBytes; // bank 2, group 0
    ch.enqueue(a);
    ch.enqueue(b);
    std::vector<std::uint64_t> ticks = issueTicks(ch, stats, 2);
    ASSERT_EQ(ticks.size(), 2u);
    EXPECT_EQ(ticks[1] - ticks[0], cfg.tCcdL);
}

TEST(DramTimingTest, CrossGroupColumnsSpacedByCcdS)
{
    DramConfig cfg = modernDram();
    cfg.bankGroups = 2;
    cfg.tCcdL = 8;
    cfg.tCcdS = 2;
    StatGroup stats("dram");
    DramChannel ch(cfg, false, &stats);
    MemRequest a, b;
    a.addr = 0 * cfg.rowBytes; // bank 0, group 0
    b.addr = 1 * cfg.rowBytes; // bank 1, group 1
    ch.enqueue(a);
    ch.enqueue(b);
    std::vector<std::uint64_t> ticks = issueTicks(ch, stats, 2);
    ASSERT_EQ(ticks.size(), 2u);
    EXPECT_EQ(ticks[1] - ticks[0], cfg.tCcdS);
}

TEST(DramTimingTest, ActivatesSpacedByRrd)
{
    // Both requests row-miss on free banks in different groups: with the
    // column windows off, the activate-to-activate window is what keeps
    // them apart.
    DramConfig cfg = modernDram();
    cfg.tRrd = 6;
    StatGroup stats("dram");
    DramChannel ch(cfg, false, &stats);
    MemRequest a, b;
    a.addr = 0 * cfg.rowBytes;
    b.addr = 1 * cfg.rowBytes;
    ch.enqueue(a);
    ch.enqueue(b);
    std::vector<std::uint64_t> ticks = issueTicks(ch, stats, 2);
    ASSERT_EQ(ticks.size(), 2u);
    EXPECT_EQ(ticks[1] - ticks[0], cfg.tRrd);
    EXPECT_EQ(stats.get("row_misses"), 2u);
}

TEST(DramTimingTest, RefreshClosesRowsAndHoldsBanks)
{
    DramConfig cfg = modernDram();
    cfg.tRefi = 50;
    cfg.tRfc = 20;
    StatGroup stats("dram");
    DramChannel ch(cfg, false, &stats);

    // Open a row well before the first tREFI boundary.
    MemRequest a;
    a.addr = 0x40;
    ch.enqueue(a);
    std::vector<std::uint64_t> first = issueTicks(ch, stats, 1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(stats.get("row_misses"), 1u);

    // Cross the refresh boundary idle, then hit the same row again: the
    // refresh closed it (row miss, not hit) and held the bank for tRFC.
    while (ch.dramNow() < cfg.tRefi)
        ch.cycle(0);
    EXPECT_GE(stats.get("refreshes"), 1u);
    MemRequest b;
    b.addr = 0x60; // same row as `a`
    ch.enqueue(b);
    std::vector<std::uint64_t> second = issueTicks(ch, stats, 1);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(stats.get("row_misses"), 2u);
    EXPECT_EQ(stats.get("row_hits"), 0u);
    // The bank was unavailable until the refresh hold expired.
    EXPECT_GE(second[0], cfg.tRefi + cfg.tRfc);
}

TEST(DramTimingTest, IdleSkipMatchesLockStepUnderModernTimings)
{
    // The satellite soundness check: with bank groups, tRRD and refresh
    // all on, a channel driven through the idle-skip protocol (quiescent
    // ticks whenever nextEventCycle() proves the next tick event-free)
    // must be bit-identical — digest and every counter — to a lock-step
    // channel receiving the same request schedule. In particular
    // nextEventCycle() must report the tREFI boundary on an *idle*
    // channel, or the skipping run processes the refresh late with
    // different readyAt stamps.
    DramConfig cfg = modernDram();
    cfg.bankGroups = 2;
    cfg.tCcdL = 6;
    cfg.tCcdS = 2;
    cfg.tRrd = 5;
    cfg.tRefi = 40;
    cfg.tRfc = 15;
    StatGroup stats_lock("dram"), stats_skip("dram");
    DramChannel lock(cfg, false, &stats_lock);
    DramChannel skip(cfg, false, &stats_skip);

    auto arrivals = [](unsigned t) {
        std::vector<Addr> out;
        if (t == 0)
            out = {0x0, 0x800, 0x40};
        if (t == 37) // straddles the first refresh
            out = {0x1000, 0x1800};
        if (t == 200) // long-idle stretch before this
            out = {0x0};
        return out;
    };

    for (unsigned t = 0; t < 400; ++t) {
        for (Addr a : arrivals(t)) {
            MemRequest r;
            r.addr = a;
            lock.enqueue(r);
            skip.enqueue(r);
        }
        lock.cycle(t);
        Cycle next = skip.nextEventCycle();
        if (next == kNoPendingEvent || next > skip.dramNow() + 1)
            skip.tickQuiescent();
        else
            skip.cycle(t);
        ASSERT_EQ(lock.stateDigest(), skip.stateDigest()) << "tick " << t;
        lock.clearCompleted();
        skip.clearCompleted();
    }
    skip.settle(); // apply the skipped ticks' counters
    for (const char *counter :
         {"cycles", "cycles_with_pending", "requests", "row_hits",
          "row_misses", "refreshes", "data_bus_busy", "blp_samples",
          "blp_sum"})
        EXPECT_EQ(stats_lock.get(counter), stats_skip.get(counter))
            << counter;
}

TEST(DramTimingTest, ModernChannelStateRoundTripsThroughSaveLoad)
{
    DramConfig cfg = modernDram();
    cfg.bankGroups = 2;
    cfg.tCcdL = 6;
    cfg.tCcdS = 2;
    cfg.tRrd = 5;
    cfg.tRefi = 40;
    cfg.tRfc = 15;
    StatGroup stats("dram"), stats2("dram");
    DramChannel ch(cfg, false, &stats);
    for (Addr a : {Addr(0x0), Addr(0x800), Addr(0x1000)}) {
        MemRequest r;
        r.addr = a;
        ch.enqueue(r);
    }
    for (unsigned t = 0; t < 45; ++t) // crosses the first refresh
        ch.cycle(t);

    serial::Writer w;
    ch.saveState(w);
    DramChannel restored(cfg, false, &stats2);
    serial::Reader r(w.buffer());
    restored.loadState(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(ch.stateDigest(), restored.stateDigest());

    // The restored channel must continue identically, including the
    // bank-group windows and the next refresh boundary.
    for (unsigned t = 45; t < 120; ++t) {
        ch.cycle(t);
        restored.cycle(t);
        ASSERT_EQ(ch.stateDigest(), restored.stateDigest()) << "tick " << t;
    }
}

TEST(FabricTest, DefaultModeDigestMatchesSeedPin)
{
    // Regression pin recorded from the seed (pre-bank-group) fabric on
    // this exact stimulus: the default configuration must digest
    // bit-identically or digest traces diverge from pre-upgrade runs.
    FabricConfig fc;
    fc.numPartitions = 2;
    fc.l2 = CacheConfig{"l2", 64 * 1024, 4, 10, 8, 4};
    fc.dram.banks = 4;
    fc.dram.queueSize = 8;
    MemFabric fab(fc, 2);
    for (unsigned i = 0; i < 6; ++i) {
        MemRequest r;
        r.addr = 0x40ull * i + 0x1000ull * (i % 2);
        r.write = (i % 3 == 0);
        r.origin = AccessOrigin::Shader;
        r.smId = i % 2;
        r.tag = 100 + i;
        fab.inject(r, i);
    }
    for (Cycle t = 0; t < 400; ++t)
        fab.cycle(t);
    EXPECT_EQ(fab.stateDigest(400), 0x812ecdf10f5d76abull);
}

TEST(FabricTest, XorFoldInterleaveBreaksPartitionCamping)
{
    // A 512 B stride camps every access on partition 0 under the linear
    // 256 B round-robin with two partitions; the XOR-fold hash spreads
    // the same stream.
    auto run = [](L2Interleave il) {
        FabricConfig cfg;
        cfg.numPartitions = 2;
        cfg.icntLatency = 2;
        cfg.l2 = CacheConfig{"l2", 8 * 1024, 4, 10, 16, 8};
        cfg.dramClockRatio = 1.0;
        cfg.interleave = il;
        MemFabric fabric(cfg, 1);
        Cycle now = 0;
        for (unsigned i = 64; i < 96; ++i) {
            MemRequest req;
            req.addr = static_cast<Addr>(i) * 512;
            req.smId = 0;
            req.tag = i;
            fabric.inject(req, now);
        }
        for (; now < 20000 && !fabric.idle(); ++now) {
            fabric.cycle(now);
            drain(fabric, 0, now);
        }
        return std::pair<std::uint64_t, std::uint64_t>(
            fabric.l2Stats(0).get("accesses.shader"),
            fabric.l2Stats(1).get("accesses.shader"));
    };
    auto [lin0, lin1] = run(L2Interleave::Linear256);
    EXPECT_EQ(lin0, 32u);
    EXPECT_EQ(lin1, 0u);
    auto [xor0, xor1] = run(L2Interleave::XorFold);
    EXPECT_EQ(xor0 + xor1, 32u);
    EXPECT_GT(xor1, 0u);
}

TEST(FabricTest, Fig16CountersAreRatioInvariant)
{
    // Figure-16 denominator audit (see DESIGN.md): the DRAM utilization
    // and efficiency metrics are DRAM-tick-denominated, so changing the
    // core:DRAM clock ratio must leave every numerator — and the
    // utilization identity data_bus_busy == requests * burstCycles after
    // a full drain — untouched. A ratio-dependent drift here means some
    // counter is being sampled in the wrong clock domain.
    auto run = [](double ratio) {
        FabricConfig cfg;
        cfg.numPartitions = 1;
        cfg.icntLatency = 2;
        cfg.l2 = CacheConfig{"l2", 8 * 1024, 4, 10, 16, 8};
        cfg.dram.tRcd = 4;
        cfg.dram.tRp = 4;
        cfg.dram.tCas = 4;
        cfg.dram.burstCycles = 2;
        cfg.dramClockRatio = ratio;
        MemFabric fabric(cfg, 1);
        Cycle now = 0;
        for (unsigned i = 0; i < 16; ++i) {
            MemRequest req;
            // Alternate two rows of one bank: deterministic mix of row
            // hits and misses.
            req.addr = static_cast<Addr>(i) * kSectorBytes
                       + (i % 2) * 16 * cfg.dram.rowBytes;
            req.smId = 0;
            req.tag = i;
            fabric.inject(req, now);
        }
        for (; now < 40000 && !fabric.idle(); ++now) {
            fabric.cycle(now);
            drain(fabric, 0, now);
        }
        std::map<std::string, std::uint64_t> out;
        for (const char *counter :
             {"requests", "row_hits", "row_misses", "data_bus_busy",
              "cycles", "cycles_with_pending"})
            out[counter] = fabric.dramStats().get(counter);
        return out;
    };

    auto s1 = run(1.0);
    auto s2 = run(2.0);
    for (const char *counter :
         {"requests", "row_hits", "row_misses", "data_bus_busy"})
        EXPECT_EQ(s1[counter], s2[counter])
            << counter << " drifted with the DRAM clock ratio";
    for (auto *s : {&s1, &s2}) {
        // data_bus_busy counts *reserved* bus ticks — from the column
        // command to the end of the burst — so it bounds the pure
        // transfer ticks from above (see DESIGN.md, "Memory model
        // contract": reserved-tick semantics are the seed contract and
        // deliberately kept).
        EXPECT_GE((*s)["data_bus_busy"],
                  (*s)["requests"] * 2 /* burstCycles */);
        EXPECT_EQ((*s)["row_hits"] + (*s)["row_misses"], (*s)["requests"]);
        // The Fig-16 ratios are well-formed: busy ticks can exceed
        // neither total ticks nor ticks-with-pending.
        EXPECT_LE((*s)["data_bus_busy"], (*s)["cycles"]);
        EXPECT_LE((*s)["data_bus_busy"], (*s)["cycles_with_pending"]);
        EXPECT_LE((*s)["cycles_with_pending"], (*s)["cycles"]);
    }
}

TEST(FabricTest, MshrMergeAtL2ReturnsAllTags)
{
    MemFabric fabric(testFabric(1), 1);
    Cycle now = 0;
    for (std::uint64_t t = 1; t <= 3; ++t) {
        MemRequest req;
        req.addr = 0x5000;
        req.smId = 0;
        req.tag = t;
        fabric.inject(req, now);
    }
    unsigned got = 0;
    for (; now < 2000 && got < 3; ++now) {
        fabric.cycle(now);
        got += static_cast<unsigned>(drain(fabric, 0, now).size());
    }
    EXPECT_EQ(got, 3u);
    // Only one DRAM request despite three requesters.
    EXPECT_EQ(fabric.dramStats().get("requests"), 1u);
}

// --- Decoded FR-FCFS vs the two-pass reference scheduler -------------------

/**
 * Reference DRAM channel for the differential test: the scheduler as it
 * was before queued requests carried their decoded bank and row. Every
 * readiness check re-derives bank and row from the address
 * (earliestIssue), and FR-FCFS is two scans of the queue: the first
 * ready row hit, else the first ready request. Counters, digest and
 * snapshot layout mirror DramChannel's so the two compare byte for byte.
 */
class TwoPassChannel
{
  public:
    TwoPassChannel(const DramConfig &config, StatGroup *stats)
        : config_(config),
          modern_(config.bankGroups > 0 || config.tCcdL > 0
                  || config.tCcdS > 0 || config.tRrd > 0
                  || config.tRefi > 0),
          stats_(stats), banks_(config.banks),
          groupNextColumnAt_(config.bankGroups, 0),
          nextRefreshAt_(config.tRefi)
    {
    }

    bool canAccept() const { return queue_.size() < config_.queueSize; }
    void enqueue(const MemRequest &req) { queue_.push_back(req); }
    const std::vector<MemRequest> &completed() const { return completed_; }
    void clearCompleted() { completed_.clear(); }

    void
    cycle()
    {
        ++now_;
        stats_->counter("cycles").inc();
        while (nextRefreshAt_ != 0 && now_ >= nextRefreshAt_) {
            for (Bank &b : banks_) {
                b.openRow = ~Addr(0);
                b.readyAt = std::max(b.readyAt, now_ + config_.tRfc);
            }
            stats_->counter("refreshes").inc();
            nextRefreshAt_ += config_.tRefi;
        }
        for (std::size_t i = 0; i < inflight_.size();) {
            if (inflight_[i].doneAt <= now_) {
                if (!inflight_[i].req.write)
                    completed_.push_back(inflight_[i].req);
                inflight_[i] = inflight_.back();
                inflight_.pop_back();
            } else {
                ++i;
            }
        }
        if (!queue_.empty() || !inflight_.empty())
            stats_->counter("cycles_with_pending").inc();
        unsigned busy_banks = 0;
        for (const Bank &b : banks_)
            if (b.readyAt > now_)
                ++busy_banks;
        if (busy_banks > 0) {
            stats_->counter("blp_samples").inc();
            stats_->counter("blp_sum").inc(busy_banks);
        }
        if (busFreeAt_ > now_)
            stats_->counter("data_bus_busy").inc();

        auto ready = [&](const MemRequest &r) {
            return earliestIssue(r) <= now_;
        };
        auto row_hit = [&](const MemRequest &r) {
            return banks_[bankOf(r.addr)].openRow == rowOf(r.addr);
        };
        auto pick = queue_.end();
        for (auto it = queue_.begin(); it != queue_.end(); ++it)
            if (ready(*it) && row_hit(*it)) {
                pick = it;
                break;
            }
        if (pick == queue_.end())
            for (auto it = queue_.begin(); it != queue_.end(); ++it)
                if (ready(*it)) {
                    pick = it;
                    break;
                }
        if (pick == queue_.end())
            return;

        MemRequest req = *pick;
        queue_.erase(pick);
        unsigned bank_index = bankOf(req.addr);
        Bank &bank = banks_[bank_index];
        unsigned latency = config_.tCas;
        if (bank.openRow != rowOf(req.addr)) {
            latency += bank.openRow == ~Addr(0) ? config_.tRcd
                                                : config_.tRp + config_.tRcd;
            bank.openRow = rowOf(req.addr);
            stats_->counter("row_misses").inc();
            if (config_.tRrd > 0)
                nextActivateAt_ = now_ + config_.tRrd;
        } else {
            stats_->counter("row_hits").inc();
        }
        stats_->counter("requests").inc();
        if (config_.tCcdS > 0)
            nextColumnAt_ = now_ + config_.tCcdS;
        if (!groupNextColumnAt_.empty())
            groupNextColumnAt_[bank_index % config_.bankGroups] =
                now_ + config_.tCcdL;
        std::uint64_t data_end =
            std::max(now_ + latency, busFreeAt_) + config_.burstCycles;
        busFreeAt_ = data_end;
        bank.readyAt = data_end;
        inflight_.push_back({req, data_end});
    }

    Cycle
    nextEventCycle() const
    {
        Cycle next = kNoPendingEvent;
        if (nextRefreshAt_ != 0)
            next = std::min(next, std::max<Cycle>(nextRefreshAt_, now_ + 1));
        for (const Inflight &f : inflight_)
            next = std::min(next, std::max<Cycle>(f.doneAt, now_ + 1));
        for (const MemRequest &r : queue_)
            next = std::min(next,
                            std::max<Cycle>(earliestIssue(r), now_ + 1));
        return next;
    }

    std::uint64_t
    stateDigest() const
    {
        check::Digest d;
        for (const MemRequest &r : queue_)
            mix(d, r);
        for (const Bank &b : banks_) {
            d.mix(b.openRow);
            d.mix(b.readyAt);
        }
        std::uint64_t fold = 0;
        for (const Inflight &f : inflight_) {
            check::Digest e;
            mix(e, f.req);
            e.mix(f.doneAt);
            fold ^= e.value();
        }
        d.mix(fold);
        d.mix(inflight_.size());
        d.mix(now_);
        d.mix(busFreeAt_);
        if (modern_) {
            d.mix(nextColumnAt_);
            for (std::uint64_t g : groupNextColumnAt_)
                d.mix(g);
            d.mix(nextActivateAt_);
            d.mix(nextRefreshAt_);
        }
        return d.value();
    }

    void
    saveState(serial::Writer &w) const
    {
        w.u64(queue_.size());
        for (const MemRequest &r : queue_)
            put(w, r);
        w.u64(banks_.size());
        for (const Bank &b : banks_) {
            w.u64(b.openRow);
            w.u64(b.readyAt);
        }
        w.u64(inflight_.size());
        for (const Inflight &f : inflight_) {
            put(w, f.req);
            w.u64(f.doneAt);
        }
        w.u64(completed_.size());
        for (const MemRequest &r : completed_)
            put(w, r);
        w.u64(now_);
        w.u64(busFreeAt_);
        w.u64(nextColumnAt_);
        w.u64(groupNextColumnAt_.size());
        for (std::uint64_t g : groupNextColumnAt_)
            w.u64(g);
        w.u64(nextActivateAt_);
        w.u64(nextRefreshAt_);
    }

  private:
    struct Bank
    {
        Addr openRow = ~Addr(0);
        std::uint64_t readyAt = 0;
    };

    struct Inflight
    {
        MemRequest req;
        std::uint64_t doneAt;
    };

    static void
    mix(check::Digest &d, const MemRequest &r)
    {
        d.mix(r.addr);
        d.mix(r.write);
        d.mix(static_cast<std::uint64_t>(r.origin));
        d.mix(r.smId);
        d.mix(r.tag);
    }

    static void
    put(serial::Writer &w, const MemRequest &r)
    {
        w.u64(r.addr);
        w.b(r.write);
        w.u8(static_cast<std::uint8_t>(r.origin));
        w.u32(r.smId);
        w.u64(r.tag);
    }

    unsigned
    bankOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / config_.rowBytes)
                                     % config_.banks);
    }

    Addr
    rowOf(Addr addr) const
    {
        return addr / (config_.rowBytes * config_.banks);
    }

    std::uint64_t
    earliestIssue(const MemRequest &r) const
    {
        const Bank &bank = banks_[bankOf(r.addr)];
        std::uint64_t t = bank.readyAt;
        if (modern_) {
            t = std::max(t, nextColumnAt_);
            if (!groupNextColumnAt_.empty())
                t = std::max(t, groupNextColumnAt_[bankOf(r.addr)
                                                   % config_.bankGroups]);
            if (bank.openRow != rowOf(r.addr))
                t = std::max(t, nextActivateAt_);
        }
        return t;
    }

    DramConfig config_;
    bool modern_;
    StatGroup *stats_;
    std::deque<MemRequest> queue_;
    std::vector<Bank> banks_;
    std::vector<Inflight> inflight_;
    std::vector<MemRequest> completed_;
    std::uint64_t now_ = 0;
    std::uint64_t busFreeAt_ = 0;
    std::uint64_t nextColumnAt_ = 0;
    std::vector<std::uint64_t> groupNextColumnAt_;
    std::uint64_t nextActivateAt_ = 0;
    std::uint64_t nextRefreshAt_ = 0;
};

std::vector<std::uint8_t>
snapshotOf(const DramChannel &ch)
{
    serial::Writer w;
    ch.saveState(w);
    return w.take();
}

std::vector<std::uint8_t>
snapshotOf(const TwoPassChannel &ch)
{
    serial::Writer w;
    ch.saveState(w);
    return w.take();
}

/** Tags of `done`, in retirement order. */
std::vector<std::uint64_t>
tagsOf(const std::vector<MemRequest> &done)
{
    std::vector<std::uint64_t> tags;
    for (const MemRequest &r : done)
        tags.push_back(r.tag);
    return tags;
}

/**
 * Drive a DramChannel and the two-pass reference with one PCG32 request
 * stream and compare them after every tick. The stream mixes reads and
 * writes, runs of consecutive sectors (row hits), scattered addresses
 * over a few rows per bank and over many, and bursts that fill the
 * queue. The channel under test follows the idle-skip protocol
 * (tickQuiescent() whenever nextEventCycle() proves the tick event-free,
 * settle() before its counters are compared) and, halfway through, is
 * saved and restored into a fresh channel.
 */
void
expectMatchesTwoPass(const DramConfig &cfg, std::uint64_t seed,
                     unsigned ticks)
{
    StatGroup ref_stats("dram");
    TwoPassChannel ref(cfg, &ref_stats);
    auto stats = std::make_unique<StatGroup>("dram");
    auto ch = std::make_unique<DramChannel>(cfg, false, stats.get());

    Pcg32 rng(seed);
    Addr stream = 0;
    std::uint64_t next_tag = 1;
    for (unsigned t = 0; t < ticks; ++t) {
        const std::uint32_t roll = rng.nextBelow(100);
        const unsigned arrivals = roll < 4    ? cfg.queueSize
                                  : roll < 45 ? 1 + rng.nextBelow(3)
                                              : 0;
        for (unsigned i = 0; i < arrivals; ++i) {
            ASSERT_EQ(ch->canAccept(), ref.canAccept()) << "tick " << t;
            if (!ch->canAccept())
                break;
            const std::uint32_t kind = rng.nextBelow(100);
            if (kind < 50)
                stream += kSectorBytes; // same-row run
            else if (kind < 80)
                stream = Addr(rng.nextBelow(1u << 14)) * kSectorBytes;
            else
                stream = Addr(rng.nextBelow(1u << 22)) * kSectorBytes;
            MemRequest r;
            r.addr = stream;
            r.write = rng.nextBelow(4) == 0;
            r.origin = rng.nextBelow(2) != 0 ? AccessOrigin::RtUnit
                                             : AccessOrigin::Shader;
            r.smId = rng.nextBelow(8);
            r.tag = next_tag++;
            ch->enqueue(r);
            ref.enqueue(r);
        }

        const Cycle next = ch->nextEventCycle();
        ASSERT_EQ(next, ref.nextEventCycle()) << "tick " << t;
        if (next == kNoPendingEvent || next > ch->dramNow() + 1)
            ch->tickQuiescent();
        else
            ch->cycle(t);
        ref.cycle();

        ASSERT_EQ(tagsOf(ch->completed()), tagsOf(ref.completed()))
            << "tick " << t;
        ASSERT_EQ(ch->stateDigest(), ref.stateDigest()) << "tick " << t;
        ASSERT_EQ(snapshotOf(*ch), snapshotOf(ref)) << "tick " << t;
        ch->settle();
        ASSERT_EQ(stats->dump(), ref_stats.dump()) << "tick " << t;
        ch->clearCompleted();
        ref.clearCompleted();

        if (t == ticks / 2) {
            serial::Writer w;
            ch->saveState(w);
            stats->saveState(w);
            auto fresh_stats = std::make_unique<StatGroup>("dram");
            auto fresh =
                std::make_unique<DramChannel>(cfg, false, fresh_stats.get());
            serial::Reader r(w.buffer());
            fresh->loadState(r);
            fresh_stats->loadState(r);
            ASSERT_EQ(r.remaining(), 0u);
            ch = std::move(fresh);
            stats = std::move(fresh_stats);
        }
    }
    // The stream must have exercised both FR-FCFS outcomes.
    EXPECT_GT(ref_stats.get("row_hits"), ticks / 50);
    EXPECT_GT(ref_stats.get("row_misses"), ticks / 50);
}

TEST(DramSchedulerTest, DecodedScanMatchesTwoPassOracle)
{
    const GpuConfig baseline = baselineGpuConfig();
    const GpuConfig modern =
        applyMemoryVariant(baseline, MemoryVariant::Modern);
    // Short windows and a refresh every few hundred ticks, so every
    // constraint of the issue flags binds many times in one run.
    DramConfig tight = modernDram();
    tight.banks = 8;
    tight.rowBytes = 1024;
    tight.bankGroups = 2;
    tight.tCcdL = 5;
    tight.tCcdS = 2;
    tight.tRrd = 7;
    tight.tRefi = 400;
    tight.tRfc = 30;
    {
        SCOPED_TRACE("Table III baseline");
        expectMatchesTwoPass(baseline.fabric.dram, 1, 20000);
    }
    {
        SCOPED_TRACE("modern: bank groups, tCCDL/S, tRRD, refresh");
        expectMatchesTwoPass(modern.fabric.dram, 2, 20000);
    }
    {
        SCOPED_TRACE("tight windows, frequent refresh");
        expectMatchesTwoPass(tight, 3, 20000);
    }
}

/**
 * The lazy-tick oracle: a channel advanced with tick() — a real cycle()
 * only when an event is due, otherwise a skipped tick whose counters
 * settle() applies later in closed form — against one that runs cycle()
 * on every tick, both fed one PCG32 request stream that alternates dense
 * phases with long sparse ones. Completions and the state digest are
 * compared on every tick; the lazy channel is settled and read (stats
 * dump, saveState bytes) only at random ticks, so the settled spans
 * vary from one tick to thousands, and both channels' invariants (their
 * per-bank queue counts and cached next event) are swept there.
 * Halfway through, the lazy channel is saved and restored into a fresh
 * one.
 */
void
expectLazyMatchesAlwaysTick(const DramConfig &cfg, bool perfect,
                            std::uint64_t seed, unsigned ticks)
{
    StatGroup ref_stats("dram");
    DramChannel ref(cfg, perfect, &ref_stats);
    auto stats = std::make_unique<StatGroup>("dram");
    auto ch = std::make_unique<DramChannel>(cfg, perfect, stats.get());

    Pcg32 rng(seed);
    Pcg32 reads(seed ^ 0x9e3779b97f4a7c15ull);
    Addr stream = 0;
    std::uint64_t next_tag = 1;
    unsigned skipped = 0;
    unsigned settled_reads = 0;
    for (unsigned t = 0; t < ticks; ++t) {
        const bool dense = (t / 1500) % 2 == 0;
        const std::uint32_t roll = rng.nextBelow(1000);
        const unsigned arrivals = roll < (dense ? 30u : 1u) ? cfg.queueSize
                                  : roll < (dense ? 450u : 6u)
                                      ? 1 + rng.nextBelow(3)
                                      : 0;
        for (unsigned i = 0; i < arrivals; ++i) {
            ASSERT_EQ(ch->canAccept(), ref.canAccept()) << "tick " << t;
            if (!ch->canAccept())
                break;
            const std::uint32_t kind = rng.nextBelow(100);
            if (kind < 50)
                stream += kSectorBytes; // same-row run
            else if (kind < 80)
                stream = Addr(rng.nextBelow(1u << 14)) * kSectorBytes;
            else
                stream = Addr(rng.nextBelow(1u << 22)) * kSectorBytes;
            MemRequest r;
            r.addr = stream;
            r.write = rng.nextBelow(4) == 0;
            r.smId = rng.nextBelow(8);
            r.tag = next_tag++;
            ch->enqueue(r);
            ref.enqueue(r);
        }

        if (ch->nextEventCycle() > ch->dramNow() + 1)
            ++skipped;
        ch->tick(t);
        ref.cycle(t);

        ASSERT_EQ(tagsOf(ch->completed()), tagsOf(ref.completed()))
            << "tick " << t;
        ASSERT_EQ(ch->stateDigest(), ref.stateDigest()) << "tick " << t;
        ASSERT_EQ(ch->nextEventCycle(), ref.nextEventCycle())
            << "tick " << t;
        ch->clearCompleted();
        ref.clearCompleted();

        if (reads.nextBelow(500) == 0 || t + 1 == ticks) {
            ++settled_reads;
            ch->settle();
            ASSERT_EQ(stats->dump(), ref_stats.dump()) << "tick " << t;
            ASSERT_EQ(snapshotOf(*ch), snapshotOf(ref)) << "tick " << t;
            check::Reporter rep(/*collect=*/true);
            ch->checkInvariants(rep, "dram");
            ref.checkInvariants(rep, "ref");
            ASSERT_TRUE(rep.ok()) << rep.violations().front().path << ": "
                                  << rep.violations().front().message;
        }

        if (t == ticks / 2) {
            ch->settle();
            serial::Writer w;
            ch->saveState(w);
            stats->saveState(w);
            auto fresh_stats = std::make_unique<StatGroup>("dram");
            auto fresh = std::make_unique<DramChannel>(cfg, perfect,
                                                       fresh_stats.get());
            serial::Reader r(w.buffer());
            fresh->loadState(r);
            fresh_stats->loadState(r);
            ASSERT_EQ(r.remaining(), 0u);
            ch = std::move(fresh);
            stats = std::move(fresh_stats);
        }
    }
    // Both paths must have been exercised: long skipped spans and the
    // traffic that ends them.
    EXPECT_GT(skipped, ticks / 4);
    EXPECT_GT(settled_reads, 10u);
    EXPECT_GT(ref_stats.get("requests"), ticks / 50);
}

TEST(DramSchedulerTest, LazyTickMatchesAlwaysTickOracle)
{
    const GpuConfig baseline = baselineGpuConfig();
    const GpuConfig modern =
        applyMemoryVariant(baseline, MemoryVariant::Modern);
    DramConfig tight = modernDram();
    tight.banks = 8;
    tight.rowBytes = 1024;
    tight.bankGroups = 2;
    tight.tCcdL = 5;
    tight.tCcdS = 2;
    tight.tRrd = 7;
    tight.tRefi = 400;
    tight.tRfc = 30;
    {
        SCOPED_TRACE("Table III baseline");
        expectLazyMatchesAlwaysTick(baseline.fabric.dram, false, 11, 30000);
    }
    {
        SCOPED_TRACE("modern: bank groups, tCCDL/S, tRRD, refresh");
        expectLazyMatchesAlwaysTick(modern.fabric.dram, false, 12, 30000);
    }
    {
        SCOPED_TRACE("tight windows, frequent refresh");
        expectLazyMatchesAlwaysTick(tight, false, 13, 30000);
    }
    {
        SCOPED_TRACE("perfectMem, baseline timing");
        expectLazyMatchesAlwaysTick(baseline.fabric.dram, true, 14, 30000);
    }
    {
        SCOPED_TRACE("perfectMem with frequent refresh");
        expectLazyMatchesAlwaysTick(tight, true, 15, 30000);
    }
}

// --- The per-bank request index -------------------------------------------

/** Tags of the requests `ch` holds queued, in queue (arrival) order. */
std::vector<std::uint64_t>
queuedTags(const DramChannel &ch)
{
    serial::Writer w;
    ch.saveState(w);
    serial::Reader r(w.buffer());
    std::vector<std::uint64_t> tags(r.u64());
    for (std::uint64_t &tag : tags) {
        r.u64(); // addr
        r.b();   // write
        r.u8();  // origin
        r.u32(); // smId
        tag = r.u64();
    }
    return tags;
}

MemRequest
tagged(Addr addr, std::uint64_t tag, bool write = false)
{
    MemRequest r;
    r.addr = addr;
    r.tag = tag;
    r.write = write;
    return r;
}

TEST(DramSchedulerTest, OldestReadyHitBehindOlderMisses)
{
    // modernDram() with every window off: 4 banks, row = addr / 8 KiB,
    // bank = (addr / 2 KiB) % 4. Rows 0 of banks 0 and 1 are opened
    // first; then two misses arrive ahead of two hits, one miss in each
    // hit's own bank. FR-FCFS takes the oldest ready hit (tag 3, bank
    // 0), though a miss of its bank and one of another are older, then
    // the younger hit of the other bank (tag 4); the misses wait.
    const DramConfig cfg = modernDram();
    StatGroup stats("dram"), ref_stats("dram");
    DramChannel ch(cfg, false, &stats);
    TwoPassChannel ref(cfg, &ref_stats);
    Cycle now = 0;
    for (Addr a : {Addr(0x0), Addr(0x800)}) {
        ch.enqueue(tagged(a, 0));
        ref.enqueue(tagged(a, 0));
    }
    for (; now < 40; ++now) {
        ch.cycle(now);
        ref.cycle();
        ch.clearCompleted();
        ref.clearCompleted();
    }
    ASSERT_TRUE(ch.idle());

    const std::vector<MemRequest> arrivals = {
        tagged(0x2800, 1), // bank 1, row 1: miss
        tagged(0x2000, 2), // bank 0, row 1: miss
        tagged(0x0040, 3), // bank 0, row 0: hit
        tagged(0x0840, 4), // bank 1, row 0: hit
    };
    for (const MemRequest &r : arrivals) {
        ch.enqueue(r);
        ref.enqueue(r);
    }
    std::vector<std::vector<std::uint64_t>> issued_after;
    std::uint64_t seen = stats.get("requests");
    for (unsigned t = 0; t < 200 && !ch.idle(); ++t) {
        ch.cycle(now++);
        ref.cycle();
        ASSERT_EQ(snapshotOf(ch), snapshotOf(ref)) << "tick " << t;
        if (stats.get("requests") > seen) {
            seen = stats.get("requests");
            issued_after.push_back(queuedTags(ch));
        }
        ch.clearCompleted();
        ref.clearCompleted();
    }
    ASSERT_EQ(issued_after.size(), 4u);
    EXPECT_EQ(issued_after[0], (std::vector<std::uint64_t>{1, 2, 4}));
    EXPECT_EQ(issued_after[1], (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(stats.get("row_hits"), 2u);
    EXPECT_EQ(stats.get("row_misses"), 4u);
}

TEST(DramSchedulerTest, ClosedActivateWindowIssuesOnlyHits)
{
    // tRRD = 40: the warm-up activate of bank 0 closes the activate
    // window long past its transfer. Two misses (to a free bank and to
    // bank 0's other row) and a younger hit then arrive: the hit issues
    // at once; the misses wait for the window, and the older one goes
    // first on the tick it opens.
    DramConfig cfg = modernDram();
    cfg.tRrd = 40;
    StatGroup stats("dram");
    DramChannel ch(cfg, false, &stats);
    Cycle now = 0;
    ch.enqueue(tagged(0x0, 0));
    std::vector<std::uint64_t> warm = issueTicks(ch, stats, 1);
    ASSERT_EQ(warm.size(), 1u);
    const std::uint64_t window_opens = warm[0] + cfg.tRrd;
    now = ch.dramNow();
    while (!ch.idle())
        ch.cycle(now++);
    ASSERT_LT(ch.dramNow() + 1, window_opens);

    ch.enqueue(tagged(0x0800, 1)); // bank 1, free: miss
    ch.enqueue(tagged(0x2000, 2)); // bank 0, row 1: miss
    ch.enqueue(tagged(0x0040, 3)); // bank 0, row 0: hit
    ch.cycle(now++);
    EXPECT_EQ(stats.get("row_hits"), 1u);
    EXPECT_EQ(queuedTags(ch), (std::vector<std::uint64_t>{1, 2}));
    while (ch.dramNow() + 1 < window_opens) {
        ch.cycle(now++);
        ASSERT_EQ(stats.get("requests"), 2u) << "tick " << ch.dramNow();
    }
    ch.cycle(now++);
    EXPECT_EQ(ch.dramNow(), window_opens);
    EXPECT_EQ(stats.get("requests"), 3u);
    EXPECT_EQ(queuedTags(ch), (std::vector<std::uint64_t>{2}));
}

TEST(DramSchedulerTest, PerfectDrainCompletesInArrivalOrder)
{
    // A perfect channel services its whole queue on one tick; the reads
    // must complete in arrival order whatever their banks, also when the
    // queue was restored from a snapshot.
    const DramConfig cfg = modernDram();
    StatGroup stats("dram"), stats2("dram");
    DramChannel ch(cfg, true, &stats);
    std::vector<std::uint64_t> reads;
    for (std::uint64_t tag = 1; tag <= cfg.queueSize; ++tag) {
        const Addr addr = ((tag * 7) % 5) * 0x800 + (tag % 3) * 0x2000;
        const bool write = tag % 4 == 0;
        ch.enqueue(tagged(addr, tag, write));
        if (!write)
            reads.push_back(tag);
    }
    EXPECT_FALSE(ch.canAccept());
    serial::Writer w;
    ch.saveState(w);
    DramChannel restored(cfg, true, &stats2);
    serial::Reader r(w.buffer());
    restored.loadState(r);

    ch.cycle(0);
    restored.cycle(0);
    EXPECT_EQ(tagsOf(ch.completed()), reads);
    EXPECT_EQ(tagsOf(restored.completed()), reads);
    EXPECT_EQ(stats.get("requests"), cfg.queueSize);
    EXPECT_TRUE(ch.canAccept());
    EXPECT_TRUE(queuedTags(ch).empty());
}

TEST(DramSchedulerTest, RestoredModernChannelContinuesByteForByte)
{
    // Under the Modern timings (bank groups, tCCDL/S, tRRD, refresh) a
    // channel saved mid-run, with requests issued out of the middle of
    // its queue, and restored into a fresh channel must continue exactly
    // as the uninterrupted one: same retirements and snapshot bytes on
    // every later tick, and the same counters at the end. The restored
    // channel renumbers its queue's arrival order from zero.
    const DramConfig cfg =
        applyMemoryVariant(baselineGpuConfig(), MemoryVariant::Modern)
            .fabric.dram;
    StatGroup stats("dram");
    DramChannel ch(cfg, false, &stats);
    std::unique_ptr<StatGroup> restored_stats;
    std::unique_ptr<DramChannel> restored;
    Pcg32 rng(21);
    Addr stream = 0;
    std::uint64_t next_tag = 1;
    const unsigned ticks = 12000;
    for (unsigned t = 0; t < ticks; ++t) {
        const unsigned arrivals = rng.nextBelow(100) < 45 ? 1 : 0;
        for (unsigned i = 0; i < arrivals && ch.canAccept(); ++i) {
            stream = rng.nextBelow(2) == 0
                         ? stream + kSectorBytes
                         : Addr(rng.nextBelow(1u << 16)) * kSectorBytes;
            const MemRequest r = tagged(stream, next_tag++,
                                        rng.nextBelow(4) == 0);
            ch.enqueue(r);
            if (restored)
                restored->enqueue(r);
        }
        ch.tick(t);
        if (restored) {
            restored->tick(t);
            ASSERT_EQ(tagsOf(restored->completed()), tagsOf(ch.completed()))
                << "tick " << t;
            ASSERT_EQ(snapshotOf(*restored), snapshotOf(ch)) << "tick " << t;
            restored->clearCompleted();
        }
        ch.clearCompleted();
        if (t == ticks / 3) {
            ASSERT_GT(queuedTags(ch).size(), 1u);
            ASSERT_GT(stats.get("refreshes"), 0u);
            ch.settle();
            serial::Writer w;
            ch.saveState(w);
            stats.saveState(w);
            restored_stats = std::make_unique<StatGroup>("dram");
            restored = std::make_unique<DramChannel>(cfg, false,
                                                     restored_stats.get());
            serial::Reader r(w.buffer());
            restored->loadState(r);
            restored_stats->loadState(r);
            ASSERT_EQ(r.remaining(), 0u);
        }
    }
    ch.settle();
    restored->settle();
    EXPECT_EQ(restored_stats->dump(), stats.dump());
    EXPECT_GT(stats.get("row_hits"), ticks / 50);
    EXPECT_GT(stats.get("row_misses"), ticks / 50);
    check::Reporter rep(/*collect=*/true);
    restored->checkInvariants(rep, "dram");
    EXPECT_TRUE(rep.ok());
}

// --- Response-queue trimming ----------------------------------------------

/** Bytes of one response entry (ready cycle + request) in a snapshot. */
constexpr std::size_t kResponseBytes = 8 + 8 + 1 + 1 + 4 + 8;

/** A MemFabric snapshot cut around SM 0's response queue. */
struct ResponseCut
{
    std::vector<std::uint8_t> before; ///< everything ahead of SM 0's queue
    std::vector<Cycle> ready;         ///< SM 0's entries' ready cycles
    std::vector<std::uint8_t> entries; ///< SM 0's entries, raw
    std::uint64_t cursor = 0;
    std::vector<std::uint8_t> after; ///< everything behind SM 0's cursor
};

ResponseCut
cutResponses(const FabricConfig &fc, const std::vector<std::uint8_t> &bytes)
{
    serial::Reader r(bytes);
    const std::uint64_t parts = r.u64();
    for (std::uint64_t p = 0; p < parts; ++p) {
        CacheConfig slice = fc.l2;
        slice.name = "l2." + std::to_string(p);
        Cache(slice).loadState(r);
        StatGroup stats;
        DramChannel(fc.dram, fc.perfectMem, &stats).loadState(r);
        for (int table = 0; table < 2; ++table) { // inbound, pendingMiss
            std::vector<std::uint8_t> skip(r.u64() * kResponseBytes);
            r.bytes(skip.data(), skip.size());
        }
        r.u64(); // next cookie
    }
    r.u64(); // SM count
    ResponseCut cut;
    auto pos = [&] { return bytes.size() - r.remaining(); };
    cut.before.assign(bytes.begin(), bytes.begin() + pos());
    const std::uint64_t n = r.u64();
    const std::size_t first = pos();
    for (std::uint64_t i = 0; i < n; ++i) {
        cut.ready.push_back(r.u64());
        std::vector<std::uint8_t> req(kResponseBytes - 8);
        r.bytes(req.data(), req.size());
    }
    cut.entries.assign(bytes.begin() + first, bytes.begin() + pos());
    cut.cursor = r.u64();
    cut.after.assign(bytes.begin() + pos(), bytes.end());
    return cut;
}

std::vector<std::uint8_t>
snapshotOf(MemFabric &fabric)
{
    serial::Writer w;
    fabric.saveState(w);
    return w.take();
}

TEST(FabricTest, LazyResponseTrimMatchesPerCycleTrim)
{
    // The fabric trims an SM's drained responses when it appends to that
    // SM's queue and when it is saved, by the last real cycle. Its
    // snapshots must equal those of a fabric that trims every queue at
    // the top of every real cycle — the reference here, built from an
    // identical fabric whose SMs never drain (so its queues keep every
    // response ever sent): SM 0's queue, drained D responses by the
    // last real cycle T, then holds that history minus its first
    // min(D, #(ready <= T)) entries, and everything else is the same.
    //
    // The driver follows the engine's epoch protocol: SM 0 runs (drains,
    // injects) over a prefix of each span, then the span is replayed on
    // the fabric, quiescentCycle() allowed only on cycles no SM ran and
    // nothing was injected. SM 1 injects but never drains.
    const FabricConfig fc = testFabric(2);
    auto fab = std::make_unique<MemFabric>(fc, 2);
    MemFabric history(fc, 2);
    Pcg32 rng(5);
    std::uint64_t drained = 0;       // by SM 0
    std::uint64_t drained_at_t = 0;  // by SM 0, as of the last real cycle
    Cycle last_real = 0;
    bool any_real = false;
    unsigned compared = 0, after_quiescent = 0, restores = 0;
    std::uint64_t next_tag = 1;
    Cycle now = 0;
    while (now < 6000) {
        const Cycle span_end = now + 1 + rng.nextBelow(8);
        // Bursts of traffic alternate with long idle stretches.
        const bool busy = (now / 700) % 2 == 0;
        const Cycle ran_until =
            busy ? now + rng.nextBelow(static_cast<std::uint32_t>(
                             span_end - now + 1))
                 : now;
        std::vector<std::vector<MemRequest>> staged(span_end - now);
        for (Cycle c = now; c < ran_until; ++c) {
            drained += drain(*fab, 0, c).size();
            for (unsigned sm = 0; sm < 2; ++sm) {
                if (rng.nextBelow(3) != 0)
                    continue;
                MemRequest r;
                r.addr = Addr(rng.nextBelow(1u << 12)) * kSectorBytes;
                r.write = rng.nextBelow(5) == 0;
                r.smId = sm;
                r.tag = next_tag++;
                staged[c - now].push_back(r);
            }
        }
        bool fast = false;
        for (Cycle c = now; c < span_end; ++c) {
            for (const MemRequest &r : staged[c - now]) {
                fab->inject(r, c);
                history.inject(r, c);
            }
            const bool may_skip = c >= ran_until && staged[c - now].empty();
            fast = may_skip && fab->quiescentCycle(c);
            ASSERT_EQ(may_skip && history.quiescentCycle(c), fast)
                << "cycle " << c;
            if (!fast) {
                fab->cycle(c);
                history.cycle(c);
                drained_at_t = drained;
                last_real = c;
                any_real = true;
            }
            ASSERT_EQ(fab->stateDigest(c), history.stateDigest(c))
                << "cycle " << c;
        }
        now = span_end;

        if (rng.nextBelow(6) != 0)
            continue;
        const std::vector<std::uint8_t> got = snapshotOf(*fab);
        const ResponseCut ref = cutResponses(fc, snapshotOf(history));
        ASSERT_EQ(ref.cursor, 0u);
        std::uint64_t passed = 0;
        while (any_real && passed < ref.ready.size()
               && ref.ready[passed] <= last_real)
            ++passed;
        const std::uint64_t trimmed = std::min(drained_at_t, passed);
        serial::Writer want;
        want.bytes(ref.before.data(), ref.before.size());
        want.u64(ref.ready.size() - trimmed);
        want.bytes(ref.entries.data() + trimmed * kResponseBytes,
                   ref.entries.size() - trimmed * kResponseBytes);
        want.u64(drained - trimmed);
        want.bytes(ref.after.data(), ref.after.size());
        ASSERT_EQ(got, want.buffer()) << "cycle " << now;
        ++compared;
        after_quiescent += fast;

        if (rng.nextBelow(4) == 0) {
            // A restored fabric must trim exactly as the saved one.
            auto fresh = std::make_unique<MemFabric>(fc, 2);
            serial::Reader r(got);
            fresh->loadState(r);
            ASSERT_EQ(r.remaining(), 0u);
            fab = std::move(fresh);
            ++restores;
        }
    }
    EXPECT_GT(compared, 100u);
    EXPECT_GT(after_quiescent, 10u);
    EXPECT_GT(restores, 10u);
    EXPECT_GT(drained, 200u);
}

// --- Snapshot decoding ------------------------------------------------------

/** One request in the snapshot layout, with a raw origin byte. */
void
putRequest(serial::Writer &w, const MemRequest &r,
           std::uint8_t origin_byte = 0)
{
    w.u64(r.addr);
    w.b(r.write);
    w.u8(origin_byte);
    w.u32(r.smId);
    w.u64(r.tag);
}

/** A DramChannel snapshot of an idle channel holding `queue`. */
std::vector<std::uint8_t>
craftChannel(const std::vector<MemRequest> &queue, std::uint64_t banks,
             std::uint64_t groups, std::uint8_t origin_byte = 0)
{
    serial::Writer w;
    w.u64(queue.size());
    for (const MemRequest &r : queue)
        putRequest(w, r, origin_byte);
    w.u64(banks);
    for (std::uint64_t b = 0; b < banks; ++b) {
        w.u64(~Addr(0));
        w.u64(0);
    }
    w.u64(0); // inflight
    w.u64(0); // completed
    w.u64(0); // DRAM clock
    w.u64(0); // bus free
    w.u64(0); // tCCDS window
    w.u64(groups);
    for (std::uint64_t g = 0; g < groups; ++g)
        w.u64(0);
    w.u64(0); // tRRD window
    w.u64(0); // next refresh
    return w.take();
}

/** loadState's SimError message for `bytes` ("" when it loads). */
template <typename Unit>
std::string
loadError(Unit &unit, const std::vector<std::uint8_t> &bytes)
{
    serial::Reader r(bytes);
    try {
        unit.loadState(r);
    } catch (const SimError &e) {
        return e.what();
    }
    return "";
}

TEST(FabricSnapshotTest, ChannelRejectsMalformedState)
{
    DramConfig cfg = modernDram(); // 4 banks, queue of 16
    cfg.bankGroups = 2;
    StatGroup stats("dram");
    const std::vector<MemRequest> two(2);
    {
        DramChannel ch(cfg, false, &stats);
        EXPECT_EQ(loadError(ch, craftChannel(two, 4, 2)), "");
        EXPECT_EQ(ch.nextEventCycle(), 1u);
    }
    auto expect_rejected = [&](const std::vector<std::uint8_t> &bytes,
                               const std::string &why) {
        DramChannel ch(cfg, false, &stats);
        std::string err = loadError(ch, bytes);
        EXPECT_NE(err.find(why), std::string::npos) << "got: " << err;
    };
    expect_rejected(craftChannel(std::vector<MemRequest>(17), 4, 2),
                    "17 queued requests, the queue holds 16");
    expect_rejected(craftChannel(two, 8, 2), "8 banks, the channel has 4");
    expect_rejected(craftChannel(two, 4, 1),
                    "1 bank groups, the channel has 2");
    expect_rejected(craftChannel(two, 4, 2, 2), "access origin 2");
}

/** What craftFabric puts in an otherwise idle fabric snapshot. */
struct FabricImage
{
    std::uint64_t partitions = 2;
    std::vector<MemRequest> inbound; ///< partition 0's inbound queue
    std::vector<MemRequest> pending; ///< partition 0's pending misses
    std::uint64_t sms = 2;
    std::vector<MemRequest> responses; ///< SM 0's response queue
    std::uint64_t cursor = 0;          ///< SM 0's drain cursor
};

std::vector<std::uint8_t>
craftFabric(const FabricConfig &fc, const FabricImage &img)
{
    serial::Writer w;
    w.u64(img.partitions);
    for (std::uint64_t p = 0; p < img.partitions; ++p) {
        Cache(fc.l2).saveState(w);
        StatGroup stats;
        DramChannel(fc.dram, false, &stats).saveState(w);
        const std::vector<MemRequest> none;
        const std::vector<MemRequest> &inbound = p == 0 ? img.inbound : none;
        w.u64(inbound.size());
        for (const MemRequest &r : inbound) {
            w.u64(0); // ready cycle
            putRequest(w, r);
        }
        const std::vector<MemRequest> &pending = p == 0 ? img.pending : none;
        w.u64(pending.size());
        std::uint64_t cookie = 1;
        for (const MemRequest &r : pending) {
            w.u64(cookie++);
            putRequest(w, r);
        }
        w.u64(cookie); // next cookie
    }
    w.u64(img.sms);
    for (std::uint64_t sm = 0; sm < img.sms; ++sm) {
        const std::vector<MemRequest> none;
        const std::vector<MemRequest> &q = sm == 0 ? img.responses : none;
        w.u64(q.size());
        for (const MemRequest &r : q) {
            w.u64(0); // ready cycle
            putRequest(w, r);
        }
        w.u64(sm == 0 ? img.cursor : 0);
    }
    w.u64(0); // clock-crossing accumulator bits
    StatGroup().saveState(w);
    return w.take();
}

TEST(FabricSnapshotTest, FabricRejectsMalformedState)
{
    const FabricConfig fc = testFabric(2);
    MemRequest from_sm1;
    from_sm1.smId = 1;
    FabricImage good;
    good.inbound = {from_sm1};
    good.pending = {from_sm1};
    good.responses = {from_sm1, from_sm1};
    good.cursor = 2;
    {
        MemFabric fab(fc, 2);
        EXPECT_EQ(loadError(fab, craftFabric(fc, good)), "");
        EXPECT_FALSE(fab.hasResponse(0));
    }
    auto expect_rejected = [&](const FabricImage &img,
                               const std::string &why) {
        MemFabric fab(fc, 2);
        std::string err = loadError(fab, craftFabric(fc, img));
        EXPECT_NE(err.find(why), std::string::npos) << "got: " << err;
    };
    FabricImage bad = good;
    bad.partitions = 3;
    expect_rejected(bad, "3 partitions, the fabric has 2");
    bad = good;
    bad.sms = 3;
    expect_rejected(bad, "3 SM response queues, the GPU has 2");
    MemRequest from_sm2;
    from_sm2.smId = 2;
    bad = good;
    bad.inbound = {from_sm2};
    expect_rejected(bad, "request from SM 2, the GPU has 2");
    bad = good;
    bad.pending = {from_sm2};
    expect_rejected(bad, "request from SM 2, the GPU has 2");
    bad = good;
    bad.cursor = 3;
    expect_rejected(bad, "SM 0 response cursor 3 is past its 2 responses");
}

} // namespace
} // namespace vksim
