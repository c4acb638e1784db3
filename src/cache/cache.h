/**
 * @file
 * Set-associative / fully-associative sectored cache with MSHRs, miss
 * classification (compulsory vs capacity/conflict) and per-origin
 * accounting (shader loads vs RT unit loads), as needed for the paper's
 * Figure 14 cache breakdown and the Figure 15 memory configurations.
 *
 * Requests are 32-byte sectors (the RT unit splits larger node reads into
 * 32 B chunks, Sec. III-C3; the LDST unit coalesces lane accesses into
 * the same granularity).
 *
 * Tagging granularity is a policy knob: with the default
 * `lineBytes == kSectorBytes` every sector carries its own tag (the
 * original GPGPU-Sim-4.0-era model this repo seeded with, bit-identical
 * by contract). Larger lines turn the tag array into a true sectored
 * cache — one tag per line, per-sector valid/dirty bits — with a
 * selectable fill policy and an optional streaming reservation policy
 * (limited tag allocation for low-reuse fills, per the Accel-Sim memory
 * study, arXiv 1810.07269). See DESIGN.md, "Memory model contract".
 */

#ifndef VKSIM_CACHE_CACHE_H
#define VKSIM_CACHE_CACHE_H

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/check.h"
#include "core/clockedunit.h"
#include "util/serial.h"
#include "util/stats.h"
#include "util/types.h"

namespace vksim {

/** Who issued a memory access (paper distinguishes these). */
enum class AccessOrigin : std::uint8_t
{
    Shader = 0, ///< SM load/store instructions
    RtUnit = 1  ///< BVH node fetches, stack spills, hit stores
};

/**
 * Decode an AccessOrigin written to a snapshot as its byte value; throws
 * SimError on a byte that names no origin.
 */
AccessOrigin decodeOrigin(std::uint8_t byte);

/** Sector (request) size throughout the memory system. */
inline constexpr Addr kSectorBytes = 32;

/**
 * Most ways one cache set may hold: the tag index and the replacement
 * list address ways with 16-bit numbers and reserve 0xFFFF as "none".
 */
inline constexpr unsigned kMaxCacheWays = 65535;

/** Align an address down to its sector. */
inline Addr
sectorAlign(Addr a)
{
    return a & ~(kSectorBytes - 1);
}

/**
 * What a fill brings into a sectored line (only meaningful when
 * `lineBytes > kSectorBytes`; single-sector lines have nothing else to
 * fill).
 */
enum class CacheFillPolicy : std::uint8_t
{
    /** Validate only the missed sector (classic sector fill). */
    SectorFill = 0,
    /**
     * Validate the whole line on a sector miss (line-fill-on-sector-miss:
     * models fetching the full line; the extra DRAM traffic of the
     * over-fetch is not modeled — see DESIGN.md).
     */
    LineFill = 1
};

/** Cache geometry and timing. */
struct CacheConfig
{
    std::string name = "cache";
    Addr sizeBytes = 64 * 1024;
    unsigned assoc = 0;       ///< 0 = fully associative
    unsigned latency = 20;    ///< hit latency in cycles
    unsigned numMshrs = 64;
    unsigned mshrTargets = 16; ///< max merged requests per MSHR

    /**
     * Bytes per tag (line size). The default, kSectorBytes, reproduces
     * the seed per-sector tagging bit-identically (one tag per 32 B
     * sector, no sector bookkeeping in stats or digests). Larger values
     * (a power-of-two multiple of kSectorBytes, at most 32 sectors per
     * line) enable line-granularity tags with per-sector valid/dirty
     * bits plus the `sector_miss`/`line_miss` stat split.
     */
    Addr lineBytes = kSectorBytes;

    /** Fill policy for sectored lines (ignored at lineBytes == 32). */
    CacheFillPolicy fillPolicy = CacheFillPolicy::SectorFill;

    /**
     * Streaming reservation policy (0 = off): a fill allocates a tag
     * only when its MSHR merged at least this many targets while the
     * miss was outstanding — a low-reuse (streaming) fill bypasses the
     * tag array and only answers its merged targets. Bypass/allocation
     * decisions are counted in `streaming_bypass_fills` /
     * `streaming_alloc_fills`.
     */
    unsigned streamingThreshold = 0;
};

/** Outcome of a timing access. */
enum class CacheOutcome
{
    Hit,        ///< data after `latency` cycles
    MissNew,    ///< MSHR allocated, request must go to the next level
    MissMerged, ///< appended to an existing MSHR
    Stall       ///< no MSHR / target slot free; retry later
};

/**
 * Tag-array + MSHR model. The cache stores no data (functional state
 * lives in GlobalMemory); it tracks presence, LRU and outstanding misses.
 *
 * Lookup and victim selection are O(1) at any associativity: beside the
 * line array each set keeps a hashed tag index of its valid lines and a
 * replacement list sorted by (valid, lastUse, way), whose head is the
 * LRU victim (DESIGN.md, "Tag index and replacement order").
 *
 * As a ClockedUnit the cache is *passive*: it has no pipeline of its
 * own (timing is imposed by its owner), so cycle() is a no-op, idle()
 * means "no outstanding MSHRs" and it never schedules an event.
 */
class Cache : public ClockedUnit
{
  public:
    explicit Cache(const CacheConfig &config);

    /** ClockedUnit: passive — owners drive all timing. */
    void cycle(Cycle now) override { (void)now; }
    bool idle() const override { return mshrs_.empty(); }
    Cycle nextEventCycle() const override { return kNoPendingEvent; }

    /**
     * Access `addr` (sector aligned) at time `now`.
     * Writes are write-through/no-allocate: they update LRU on hit and
     * never allocate; the caller forwards them downstream regardless.
     * On a write hit to a sectored line the sector's dirty bit is set —
     * bookkeeping for the eviction statistics only, the data itself
     * already went downstream.
     *
     * @param tag Caller cookie returned by readyTargets() when the miss
     *            data arrives.
     */
    CacheOutcome access(Addr addr, bool write, AccessOrigin origin,
                        std::uint64_t tag, Cycle now);

    /**
     * Fill for a previously missed sector. Replaces the contents of
     * `targets` with the merged caller tags now satisfied (available
     * after `latency`), so a caller can reuse one buffer for every fill.
     * Under the streaming reservation policy a fill whose MSHR merged
     * fewer than `streamingThreshold` targets bypasses the tag array
     * (the targets are still answered).
     */
    void fill(Addr addr, Cycle now, std::vector<std::uint64_t> &targets);

    /** As above, returning the satisfied tags. */
    std::vector<std::uint64_t>
    fill(Addr addr, Cycle now)
    {
        std::vector<std::uint64_t> targets;
        fill(addr, now, targets);
        return targets;
    }

    /**
     * Abandon the MSHR just allocated for `addr` (downstream refused the
     * request); the access will be retried from scratch.
     */
    void cancelMshr(Addr addr);

    /** True if an MSHR is outstanding for this sector. */
    bool
    mshrPending(Addr addr) const
    {
        return mshrs_.count(sectorAlign(addr)) != 0;
    }

    /**
     * Non-mutating presence peek: true if the sector is resident (line
     * tag present *and* the sector's valid bit set). Unlike access(),
     * touches neither LRU state nor any statistic — for callers that
     * must know whether an access would miss before committing it.
     */
    bool contains(Addr addr) const;

    unsigned
    mshrsInUse() const
    {
        return static_cast<unsigned>(mshrs_.size());
    }

    const CacheConfig &config() const { return config_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Invalidate everything (between launches). */
    void reset();

    /** Sum of merged targets across all outstanding MSHRs. */
    std::uint64_t mshrTargetTotal() const;

    /** Sector addresses of all outstanding MSHRs (unspecified order). */
    std::vector<Addr> mshrAddrs() const;

    /**
     * Validate internal bookkeeping (MSHR capacity/target limits and
     * sector-mask sanity; with `deep`, that every set's tag index holds
     * exactly its valid lines and its replacement list is a permutation
     * of its ways sorted by (valid, lastUse, way)). Violations go to
     * `rep` under `path`.
     */
    void checkInvariants(check::Reporter &rep, const std::string &path,
                         bool deep) const;

    /**
     * Order-insensitive digest of the architectural state (valid lines,
     * LRU stamps, outstanding MSHRs; sector valid/dirty masks when the
     * cache is sectored). Equal states hash equal regardless of
     * hash-map iteration order. With the default single-sector lines
     * the digest is computed exactly as the seed model computed it.
     */
    std::uint64_t stateDigest() const;

    /**
     * Serialize / restore tag array, MSHRs, miss-classification history
     * and statistics (checkpointing). Lookup-only unordered containers
     * are written sorted by key so the byte stream is independent of
     * hash-map iteration order. loadState throws SimError on bytes no
     * saveState could have written (wrong line count, sector masks out
     * of range, a valid tag duplicated or stored in the wrong set).
     */
    void saveState(serial::Writer &w) const;
    void loadState(serial::Reader &r);

  private:
    struct Line
    {
        Addr tag = ~Addr(0);
        std::uint32_t validMask = 0; ///< per-sector valid bits (0 = free)
        std::uint32_t dirtyMask = 0; ///< per-sector written-while-resident
        Cycle lastUse = 0;
    };

    struct Mshr
    {
        std::vector<std::uint64_t> targets;
    };

    /** Counters split by AccessOrigin ("accesses.shader", ...). */
    struct OriginStats
    {
        explicit OriginStats(const std::string &origin)
            : accesses("accesses." + origin), writes("writes." + origin),
              hits("hits." + origin), writeMiss("write_miss." + origin),
              missCompulsory("miss_compulsory." + origin),
              missCapacityConflict("miss_capacity_conflict." + origin),
              sectorMiss("sector_miss." + origin),
              lineMiss("line_miss." + origin)
        {
        }

        CounterSlot accesses, writes, hits, writeMiss, missCompulsory,
            missCapacityConflict, sectorMiss, lineMiss;
    };

    /** Way number within a set; kNoWay marks an empty index slot. */
    using Way = std::uint16_t;
    static constexpr Way kNoWay = 0xFFFF;

    /**
     * Replacement-list links. Each set owns ways_ + 1 nodes: one per way
     * plus a sentinel (node ways_) whose `next` is the victim.
     */
    struct Link
    {
        Way prev;
        Way next;
    };

    unsigned setIndex(Addr addr) const;
    unsigned sectorOf(Addr addr) const;

    Line *
    setLines(unsigned set)
    {
        return &lines_[static_cast<std::size_t>(set) * ways_];
    }
    const Line *
    setLines(unsigned set) const
    {
        return &lines_[static_cast<std::size_t>(set) * ways_];
    }
    Way *
    setSlots(unsigned set)
    {
        return &index_[static_cast<std::size_t>(set) << indexBits_];
    }
    const Way *
    setSlots(unsigned set) const
    {
        return &index_[static_cast<std::size_t>(set) << indexBits_];
    }
    Link *
    setLinks(unsigned set)
    {
        return &links_[static_cast<std::size_t>(set) * (ways_ + 1)];
    }
    const Link *
    setLinks(unsigned set) const
    {
        return &links_[static_cast<std::size_t>(set) * (ways_ + 1)];
    }

    /**
     * Linear-probe the index of a set (`slots`, over `lines`) for `tag`:
     * the slot holding it, or else the empty slot that ends the probe.
     */
    unsigned findSlot(const Way *slots, const Line *lines, Addr tag) const;
    /** Way holding valid line `tag` in `set`, or kNoWay. */
    Way lookup(unsigned set, Addr tag) const;
    /** Remove the index entry of valid way `way` (backward-shift delete). */
    void unindex(unsigned set, Way way);
    /** Replacement order: (valid, lastUse, way) of `a` sorts before `b`'s. */
    static bool lruBefore(const Line *lines, Way a, Way b);
    /** Move `way` to its sorted place after its key changed. */
    void touch(unsigned set, Way way);
    /** Rebuild every set's replacement list from lines_ (reset/restore). */
    void rebuildLists();
    /**
     * Allocate the victim way of `set` for `tag` with sectors `fill_bits`
     * valid (evicting its line, if any).
     */
    void insert(unsigned set, Addr tag, std::uint32_t fill_bits, Cycle now);

    CacheConfig config_;
    unsigned numSets_;
    unsigned ways_;
    unsigned sectorsPerLine_;
    bool sectored_; ///< lineBytes > kSectorBytes
    std::uint32_t fullMask_;
    std::vector<Line> lines_; ///< numSets_ x ways_
    unsigned indexBits_; ///< log2 of the index slots per set (>= 2 x ways_)
    std::vector<Way> index_; ///< numSets_ x 2^indexBits_ slots
    std::vector<Link> links_; ///< numSets_ x (ways_ + 1) nodes
    std::unordered_map<Addr, Mshr> mshrs_;
    std::unordered_set<Addr> everSeen_; ///< for compulsory classification
    StatGroup stats_;
    /** Indexed by AccessOrigin. */
    OriginStats originStats_[2] = {OriginStats("shader"),
                                   OriginStats("rtunit")};
    /** Bound counters outside the per-origin split. */
    struct Slots
    {
        CounterSlot lineEvictions{"line_evictions"};
        CounterSlot evictPartialDirty{"evict_partial_dirty"};
        CounterSlot mshrTargetStalls{"mshr_target_stalls"};
        CounterSlot mshrFullStalls{"mshr_full_stalls"};
        CounterSlot mshrMerges{"mshr_merges"};
        CounterSlot streamingAlloc{"streaming_alloc_fills"};
        CounterSlot streamingBypass{"streaming_bypass_fills"};
    } slots_;
};

} // namespace vksim

#endif // VKSIM_CACHE_CACHE_H
