#include "cache/cache.h"

#include <algorithm>
#include <numeric>

#include "util/log.h"
#include "util/simerror.h"

namespace vksim {

namespace {

/** Home slot of a line tag in a 2^bits-slot index (Fibonacci hashing). */
unsigned
homeSlot(Addr tag, unsigned bits)
{
    return static_cast<unsigned>((tag * 0x9E3779B97F4A7C15ull)
                                 >> (64 - bits));
}

} // namespace

AccessOrigin
decodeOrigin(std::uint8_t byte)
{
    if (byte > static_cast<std::uint8_t>(AccessOrigin::RtUnit))
        throw SimError("snapshot: access origin " + std::to_string(byte)
                       + " is neither shader (0) nor RT unit (1)");
    return static_cast<AccessOrigin>(byte);
}

Cache::Cache(const CacheConfig &config)
    : config_(config), stats_(config.name)
{
    vksim_assert(config_.lineBytes >= kSectorBytes);
    vksim_assert(config_.lineBytes % kSectorBytes == 0);
    sectorsPerLine_ =
        static_cast<unsigned>(config_.lineBytes / kSectorBytes);
    vksim_assert(sectorsPerLine_ <= 32);
    sectored_ = sectorsPerLine_ > 1;
    fullMask_ = sectorsPerLine_ == 32
                    ? ~std::uint32_t(0)
                    : (std::uint32_t(1) << sectorsPerLine_) - 1;

    Addr num_lines = config_.sizeBytes / config_.lineBytes;
    vksim_assert(num_lines > 0);
    if (config_.assoc == 0) {
        numSets_ = 1;
        ways_ = static_cast<unsigned>(num_lines);
    } else {
        ways_ = config_.assoc;
        numSets_ = static_cast<unsigned>(num_lines / ways_);
        vksim_assert(numSets_ > 0);
    }
    vksim_assert(ways_ <= kMaxCacheWays);
    lines_.resize(static_cast<std::size_t>(numSets_) * ways_);
    // At least two slots per way keeps every probe run short and
    // guarantees an empty slot to end it.
    indexBits_ = 1;
    while ((1u << indexBits_) < 2 * ways_)
        ++indexBits_;
    index_.resize(static_cast<std::size_t>(numSets_) << indexBits_);
    links_.resize(static_cast<std::size_t>(numSets_) * (ways_ + 1));
    reset();
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / config_.lineBytes) % numSets_);
}

unsigned
Cache::sectorOf(Addr addr) const
{
    return static_cast<unsigned>((addr % config_.lineBytes)
                                 / kSectorBytes);
}

unsigned
Cache::findSlot(const Way *slots, const Line *lines, Addr tag) const
{
    const unsigned mask = (1u << indexBits_) - 1;
    unsigned s = homeSlot(tag, indexBits_);
    while (slots[s] != kNoWay && lines[slots[s]].tag != tag)
        s = (s + 1) & mask;
    return s;
}

Cache::Way
Cache::lookup(unsigned set, Addr tag) const
{
    const Way *slots = setSlots(set);
    return slots[findSlot(slots, setLines(set), tag)];
}

void
Cache::unindex(unsigned set, Way way)
{
    Way *slots = setSlots(set);
    const Line *lines = setLines(set);
    const unsigned mask = (1u << indexBits_) - 1;
    unsigned hole = findSlot(slots, lines, lines[way].tag);
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless the hole lies before the entry's home slot,
    // so every remaining entry stays reachable from its home.
    for (unsigned s = (hole + 1) & mask; slots[s] != kNoWay;
         s = (s + 1) & mask) {
        unsigned home = homeSlot(lines[slots[s]].tag, indexBits_);
        if (((s - home) & mask) >= ((s - hole) & mask)) {
            slots[hole] = slots[s];
            hole = s;
        }
    }
    slots[hole] = kNoWay;
}

bool
Cache::lruBefore(const Line *lines, Way a, Way b)
{
    const bool a_valid = lines[a].validMask != 0;
    const bool b_valid = lines[b].validMask != 0;
    if (a_valid != b_valid)
        return !a_valid;
    if (a_valid && lines[a].lastUse != lines[b].lastUse)
        return lines[a].lastUse < lines[b].lastUse;
    return a < b;
}

void
Cache::touch(unsigned set, Way way)
{
    Link *links = setLinks(set);
    const Line *lines = setLines(set);
    const Way sentinel = static_cast<Way>(ways_);
    links[links[way].prev].next = links[way].next;
    links[links[way].next].prev = links[way].prev;
    // The new key is almost always the largest (time moves forward), so
    // search from the tail; an earlier `now` just walks further.
    Way after = links[sentinel].prev;
    while (after != sentinel && lruBefore(lines, way, after))
        after = links[after].prev;
    links[way].prev = after;
    links[way].next = links[after].next;
    links[links[after].next].prev = way;
    links[after].next = way;
}

void
Cache::rebuildLists()
{
    const Way sentinel = static_cast<Way>(ways_);
    std::vector<Way> order(ways_);
    for (unsigned set = 0; set < numSets_; ++set) {
        const Line *lines = setLines(set);
        std::iota(order.begin(), order.end(), Way(0));
        std::sort(order.begin(), order.end(), [lines](Way a, Way b) {
            return lruBefore(lines, a, b);
        });
        Link *links = setLinks(set);
        Way prev = sentinel;
        for (Way w : order) {
            links[prev].next = w;
            links[w].prev = prev;
            prev = w;
        }
        links[prev].next = sentinel;
        links[sentinel].prev = prev;
    }
}

bool
Cache::contains(Addr addr) const
{
    addr = sectorAlign(addr);
    const unsigned set = setIndex(addr);
    const Way way = lookup(set, addr / config_.lineBytes);
    return way != kNoWay
           && ((setLines(set)[way].validMask >> sectorOf(addr)) & 1u) != 0;
}

void
Cache::insert(unsigned set, Addr tag, std::uint32_t fill_bits, Cycle now)
{
    // The replacement list's head is the victim: the lowest-numbered
    // invalid way, else the least recently used (lowest way on ties).
    const Way way = setLinks(set)[ways_].next;
    Line *lines = setLines(set);
    Line &victim = lines[way];
    if (victim.validMask != 0) {
        if (sectored_) {
            stats_.counter(slots_.lineEvictions).inc();
            if (victim.dirtyMask != 0 && victim.dirtyMask != fullMask_)
                stats_.counter(slots_.evictPartialDirty).inc();
        }
        unindex(set, way);
    }
    victim.tag = tag;
    victim.validMask = fill_bits;
    victim.dirtyMask = 0;
    victim.lastUse = now;
    Way *slots = setSlots(set);
    slots[findSlot(slots, lines, tag)] = way;
    touch(set, way);
}

CacheOutcome
Cache::access(Addr addr, bool write, AccessOrigin origin, std::uint64_t tag,
              Cycle now)
{
    addr = sectorAlign(addr);
    OriginStats &origin_stats = originStats_[static_cast<unsigned>(origin)];

    const unsigned set = setIndex(addr);
    const Way way = lookup(set, addr / config_.lineBytes);
    Line *line = way == kNoWay ? nullptr : &setLines(set)[way];
    std::uint32_t sector_bit = std::uint32_t(1) << sectorOf(addr);
    if (line != nullptr && (line->validMask & sector_bit) != 0) {
        line->lastUse = now;
        touch(set, way);
        if (write)
            line->dirtyMask |= sector_bit;
        stats_.counter(origin_stats.accesses).inc();
        if (write)
            stats_.counter(origin_stats.writes).inc();
        stats_.counter(origin_stats.hits).inc();
        return CacheOutcome::Hit;
    }

    if (write) {
        // Write-through, no-allocate: forwarded downstream by the caller.
        stats_.counter(origin_stats.accesses).inc();
        stats_.counter(origin_stats.writes).inc();
        stats_.counter(origin_stats.writeMiss).inc();
        return CacheOutcome::MissNew;
    }

    // Resolve MSHR capacity before touching any miss statistic: a stalled
    // access is retried verbatim, so counting it here would double-count
    // the miss on every retry cycle — and the first stall's everSeen_
    // insertion would downgrade the eventual successful access from
    // compulsory to capacity/conflict.
    auto it = mshrs_.find(addr);
    if (it != mshrs_.end()
        && it->second.targets.size() >= config_.mshrTargets) {
        stats_.counter(slots_.mshrTargetStalls).inc();
        return CacheOutcome::Stall;
    }
    if (it == mshrs_.end() && mshrs_.size() >= config_.numMshrs) {
        stats_.counter(slots_.mshrFullStalls).inc();
        return CacheOutcome::Stall;
    }

    stats_.counter(origin_stats.accesses).inc();
    if (it != mshrs_.end()) {
        // Secondary miss folded into an in-flight fill. Counted only as
        // a merge: the sector was never resident, so classifying it as a
        // capacity/conflict miss (as the everSeen_ test would) skewed
        // the Fig. 14 miss-cause breakdown by the full merge count.
        it->second.targets.push_back(tag);
        stats_.counter(slots_.mshrMerges).inc();
        return CacheOutcome::MissMerged;
    }

    bool compulsory = everSeen_.insert(addr).second;
    stats_
        .counter(compulsory ? origin_stats.missCompulsory
                            : origin_stats.missCapacityConflict)
        .inc();
    if (sectored_) {
        // Sector/line split (only meaningful with multi-sector lines, so
        // the counters are not even created in the seed configuration):
        // every primary read miss is a sector miss; the subset with no
        // matching tag at all also missed the line.
        stats_.counter(origin_stats.sectorMiss).inc();
        if (line == nullptr)
            stats_.counter(origin_stats.lineMiss).inc();
    }
    mshrs_[addr].targets.push_back(tag);
    return CacheOutcome::MissNew;
}

void
Cache::cancelMshr(Addr addr)
{
    mshrs_.erase(sectorAlign(addr));
}

void
Cache::fill(Addr addr, Cycle now, std::vector<std::uint64_t> &targets)
{
    targets.clear();
    addr = sectorAlign(addr);
    auto it = mshrs_.find(addr);
    std::size_t merged = it == mshrs_.end() ? 0 : it->second.targets.size();

    std::uint32_t fill_bits = config_.fillPolicy == CacheFillPolicy::LineFill
                                  ? fullMask_
                                  : std::uint32_t(1) << sectorOf(addr);
    const unsigned set = setIndex(addr);
    const Addr tag = addr / config_.lineBytes;
    const Way way = lookup(set, tag);
    if (way != kNoWay) {
        // Sector fill into an already-tagged line (only reachable with
        // multi-sector lines: a single-sector resident line never has an
        // outstanding MSHR).
        Line &line = setLines(set)[way];
        line.validMask |= fill_bits;
        line.lastUse = now;
        touch(set, way);
    } else {
        // Streaming reservation: allocate the tag only when the merged
        // target count proves reuse; a low-reuse fill answers its
        // targets without touching the tag array.
        bool allocate = config_.streamingThreshold == 0
                        || merged >= config_.streamingThreshold;
        if (allocate) {
            insert(set, tag, fill_bits, now);
            if (config_.streamingThreshold != 0)
                stats_.counter(slots_.streamingAlloc).inc();
        } else {
            stats_.counter(slots_.streamingBypass).inc();
        }
    }

    if (it == mshrs_.end())
        return;
    targets.assign(it->second.targets.begin(), it->second.targets.end());
    mshrs_.erase(it);
}

std::uint64_t
Cache::mshrTargetTotal() const
{
    std::uint64_t total = 0;
    for (const auto &[addr, mshr] : mshrs_)
        total += mshr.targets.size();
    return total;
}

std::vector<Addr>
Cache::mshrAddrs() const
{
    std::vector<Addr> addrs;
    addrs.reserve(mshrs_.size());
    for (const auto &[addr, mshr] : mshrs_)
        addrs.push_back(addr);
    return addrs;
}

void
Cache::checkInvariants(check::Reporter &rep, const std::string &path,
                       bool deep) const
{
    if (mshrs_.size() > config_.numMshrs)
        rep.report(path + ".mshrs",
                   std::to_string(mshrs_.size()) + " MSHRs in use, limit "
                       + std::to_string(config_.numMshrs));
    for (const auto &[addr, mshr] : mshrs_) {
        if (addr != sectorAlign(addr))
            rep.report(path + ".mshrs",
                       "MSHR address 0x" + std::to_string(addr)
                           + " not sector aligned");
        if (mshr.targets.empty())
            rep.report(path + ".mshrs", "MSHR with zero merged targets");
        if (mshr.targets.size() > config_.mshrTargets)
            rep.report(path + ".mshrs",
                       "MSHR holds " + std::to_string(mshr.targets.size())
                           + " targets, limit "
                           + std::to_string(config_.mshrTargets));
    }
    for (const Line &l : lines_) {
        if ((l.validMask & ~fullMask_) != 0)
            rep.report(path + ".lines",
                       "valid mask " + std::to_string(l.validMask)
                           + " has bits beyond the "
                           + std::to_string(sectorsPerLine_)
                           + "-sector line");
        if ((l.dirtyMask & ~l.validMask) != 0)
            rep.report(path + ".lines",
                       "dirty mask " + std::to_string(l.dirtyMask)
                           + " marks invalid sectors (valid mask "
                           + std::to_string(l.validMask) + ")");
    }
    if (!deep)
        return;
    // Deep scan: each set's tag index must hold exactly its valid lines
    // (a stale, missing or duplicate entry makes hits depend on probe
    // order), and its replacement list must order all of its ways by
    // (valid, lastUse, way), or the head is not the LRU victim.
    const Way sentinel = static_cast<Way>(ways_);
    const unsigned num_slots = 1u << indexBits_;
    std::vector<char> listed(ways_);
    for (unsigned set = 0; set < numSets_; ++set) {
        auto in_set = [set] { return " in set " + std::to_string(set); };
        const Line *lines = setLines(set);
        const Way *slots = setSlots(set);
        unsigned indexed = 0;
        bool slots_ok = true;
        for (unsigned s = 0; s < num_slots; ++s) {
            if (slots[s] == kNoWay)
                continue;
            ++indexed;
            if (slots[s] >= ways_ || lines[slots[s]].validMask == 0) {
                rep.report(path + ".index",
                           "slot " + std::to_string(s) + " holds way "
                               + std::to_string(slots[s])
                               + ", not a valid line" + in_set());
                slots_ok = false;
            }
        }
        unsigned valid = 0;
        for (unsigned w = 0; w < ways_; ++w)
            valid += lines[w].validMask != 0;
        if (indexed != valid)
            rep.report(path + ".index",
                       std::to_string(indexed) + " index entries for "
                           + std::to_string(valid) + " valid lines"
                           + in_set());
        // Probing needs in-range ways and an empty slot to stop at.
        if (slots_ok && indexed < num_slots)
            for (unsigned w = 0; w < ways_; ++w)
                if (lines[w].validMask != 0
                    && slots[findSlot(slots, lines, lines[w].tag)] != w)
                    rep.report(path + ".index",
                               "valid way " + std::to_string(w)
                                   + " is not found by its tag "
                                   + std::to_string(lines[w].tag)
                                   + " (duplicate or unindexed)" + in_set());

        const Link *links = setLinks(set);
        std::fill(listed.begin(), listed.end(), 0);
        unsigned count = 0;
        Way prev = sentinel;
        bool list_ok = true;
        for (Way w = links[sentinel].next; w != sentinel;
             prev = w, w = links[w].next) {
            if (w >= ways_ || listed[w] != 0 || links[w].prev != prev) {
                rep.report(path + ".lru", "replacement list broken at way "
                                              + std::to_string(w) + in_set());
                list_ok = false;
                break;
            }
            if (prev != sentinel && !lruBefore(lines, prev, w)) {
                rep.report(path + ".lru",
                           "way " + std::to_string(w) + " follows way "
                               + std::to_string(prev)
                               + " out of (valid, lastUse, way) order"
                               + in_set());
                list_ok = false;
                break;
            }
            listed[w] = 1;
            ++count;
        }
        if (list_ok && (count != ways_ || links[sentinel].prev != prev))
            rep.report(path + ".lru",
                       "replacement list links " + std::to_string(count)
                           + " of " + std::to_string(ways_) + " ways"
                           + in_set());
    }
}

std::uint64_t
Cache::stateDigest() const
{
    check::Digest d;
    // Lines are in a deterministic array: mix in order (cheap, O(lines)).
    // The sector masks join the digest only for sectored caches, so the
    // seed (single-sector) configuration digests exactly as it always
    // did — digest traces stay byte-identical with the policies off.
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
    // MSHRs live in a hash map: XOR-fold per-entry digests so the result
    // is independent of iteration order.
    std::uint64_t fold = 0;
    for (const auto &[addr, mshr] : mshrs_) {
        check::Digest e;
        e.mix(addr);
        for (std::uint64_t t : mshr.targets)
            e.mix(t);
        fold ^= e.value();
    }
    d.mix(fold);
    d.mix(mshrs_.size());
    return d.value();
}

void
Cache::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    std::fill(index_.begin(), index_.end(), kNoWay);
    rebuildLists();
    mshrs_.clear();
    everSeen_.clear();
    stats_.reset();
}

void
Cache::saveState(serial::Writer &w) const
{
    w.u64(lines_.size());
    for (const Line &l : lines_) {
        w.u64(l.tag);
        w.u32(l.validMask);
        w.u32(l.dirtyMask);
        w.u64(l.lastUse);
    }
    std::vector<Addr> mshr_addrs;
    mshr_addrs.reserve(mshrs_.size());
    for (const auto &[addr, mshr] : mshrs_)
        mshr_addrs.push_back(addr);
    std::sort(mshr_addrs.begin(), mshr_addrs.end());
    w.u64(mshr_addrs.size());
    for (Addr addr : mshr_addrs) {
        const Mshr &m = mshrs_.at(addr);
        w.u64(addr);
        w.u64(m.targets.size());
        for (std::uint64_t t : m.targets)
            w.u64(t);
    }
    std::vector<Addr> seen(everSeen_.begin(), everSeen_.end());
    std::sort(seen.begin(), seen.end());
    w.u64(seen.size());
    for (Addr a : seen)
        w.u64(a);
    stats_.saveState(w);
}

void
Cache::loadState(serial::Reader &r)
{
    auto reject = [this](const std::string &why) {
        throw SimError(config_.name + " snapshot: " + why);
    };
    std::uint64_t num_lines = r.u64();
    if (num_lines != lines_.size())
        reject(std::to_string(num_lines) + " lines, the cache has "
               + std::to_string(lines_.size()));
    std::vector<Line> lines(lines_.size());
    for (Line &l : lines) {
        l.tag = r.u64();
        l.validMask = r.u32();
        l.dirtyMask = r.u32();
        l.lastUse = r.u64();
    }
    // Reject line states no saveState can write before rebuilding the
    // tag index, which relies on them: one valid line per (set, tag).
    std::vector<Way> index(index_.size(), kNoWay);
    for (unsigned set = 0; set < numSets_; ++set) {
        const Line *base = &lines[static_cast<std::size_t>(set) * ways_];
        Way *slots = &index[static_cast<std::size_t>(set) << indexBits_];
        for (unsigned w = 0; w < ways_; ++w) {
            const Line &l = base[w];
            auto at = [&] {
                return "set " + std::to_string(set) + " way "
                       + std::to_string(w) + ": ";
            };
            if ((l.validMask & ~fullMask_) != 0)
                reject(at() + "valid mask " + std::to_string(l.validMask)
                       + " has bits beyond the "
                       + std::to_string(sectorsPerLine_) + "-sector line");
            if ((l.dirtyMask & ~l.validMask) != 0)
                reject(at() + "dirty mask " + std::to_string(l.dirtyMask)
                       + " marks sectors outside valid mask "
                       + std::to_string(l.validMask));
            if (l.validMask == 0)
                continue;
            if (l.tag % numSets_ != set)
                reject(at() + "tag " + std::to_string(l.tag)
                       + " maps to set " + std::to_string(l.tag % numSets_));
            unsigned s = findSlot(slots, base, l.tag);
            if (slots[s] != kNoWay)
                reject(at() + "tag " + std::to_string(l.tag)
                       + " duplicates way " + std::to_string(slots[s]));
            slots[s] = static_cast<Way>(w);
        }
    }
    lines_ = std::move(lines);
    index_ = std::move(index);
    rebuildLists();

    mshrs_.clear();
    std::uint64_t num_mshrs = r.u64();
    for (std::uint64_t i = 0; i < num_mshrs; ++i) {
        Addr addr = r.u64();
        Mshr &m = mshrs_[addr];
        std::uint64_t num_targets = r.u64();
        if (num_targets > r.remaining() / 8)
            reject("MSHR with " + std::to_string(num_targets)
                   + " targets overruns the payload");
        m.targets.resize(num_targets);
        for (std::uint64_t &t : m.targets)
            t = r.u64();
    }
    everSeen_.clear();
    std::uint64_t num_seen = r.u64();
    for (std::uint64_t i = 0; i < num_seen; ++i)
        everSeen_.insert(r.u64());
    stats_.loadState(r);
}

} // namespace vksim
