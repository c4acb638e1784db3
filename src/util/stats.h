/**
 * @file
 * Lightweight statistics package: named counters, scalars, and histograms.
 *
 * Every timed component owns counters registered in a StatGroup; the full
 * tree is dumped at end of simulation and consumed by the benchmark
 * harnesses that regenerate the paper's tables and figures.
 */

#ifndef VKSIM_UTIL_STATS_H
#define VKSIM_UTIL_STATS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/serial.h"

namespace vksim {

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; reports count/sum/min/max/mean. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /**
     * Fold another accumulator into this one. Merging per-shard
     * accumulators in a fixed shard order gives results independent of
     * how many threads produced the shards.
     */
    void
    merge(const Accumulator &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        count_ += other.count_;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    /**
     * Overwrite the raw internal state (checkpoint restore). `min` and
     * `max` are the raw stored fields, which are 0 when count is 0 —
     * pass exactly what the matching accessors returned at save time.
     */
    void
    restore(std::uint64_t count, double sum, double min, double max)
    {
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
    }

    void
    saveState(serial::Writer &w) const
    {
        w.u64(count_);
        w.f64(sum_);
        w.f64(min_);
        w.f64(max_);
    }

    void
    loadState(serial::Reader &r)
    {
        count_ = r.u64();
        sum_ = r.f64();
        min_ = r.f64();
        max_ = r.f64();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width bucket histogram over [0, bucket_width * num_buckets);
 * samples beyond the top land in an overflow bucket.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, unsigned num_buckets)
        : bucketWidth_(bucket_width), buckets_(num_buckets, 0)
    {
    }

    /** Record one sample. */
    void
    sample(double v)
    {
        acc_.sample(v);
        auto idx = static_cast<std::uint64_t>(v / bucketWidth_);
        if (idx >= buckets_.size())
            ++overflow_;
        else
            ++buckets_[idx];
    }

    double bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }
    const Accumulator &summary() const { return acc_; }

    /** Value below which `frac` (0..1) of the samples fall (approx.). */
    double percentile(double frac) const;

    /**
     * Fold a histogram with identical geometry into this one (bucket-wise
     * addition). Panics when the bucket layout differs.
     */
    void merge(const Histogram &other);

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        overflow_ = 0;
        acc_.reset();
    }

    /**
     * Overwrite bucket counts and the summary accumulator (checkpoint
     * restore). The bucket count must match this histogram's geometry.
     */
    void
    restore(std::vector<std::uint64_t> buckets, std::uint64_t overflow,
            const Accumulator &summary)
    {
        buckets_ = std::move(buckets);
        overflow_ = overflow;
        acc_ = summary;
    }

    void
    saveState(serial::Writer &w) const
    {
        w.u64(buckets_.size());
        for (std::uint64_t b : buckets_)
            w.u64(b);
        w.u64(overflow_);
        acc_.saveState(w);
    }

    void
    loadState(serial::Reader &r)
    {
        buckets_.resize(r.u64());
        for (std::uint64_t &b : buckets_)
            b = r.u64();
        overflow_ = r.u64();
        acc_.loadState(r);
    }

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    Accumulator acc_;
};

/**
 * A counter name plus a cached binding to that counter in one group, for
 * call sites that bump the same counter every cycle or access: after the
 * first StatGroup::counter(slot) the lookup is a pointer load instead of
 * a string-keyed map search. The counter is still created lazily on that
 * first call, exactly as counter(name) would create it.
 */
class CounterSlot
{
  public:
    explicit CounterSlot(std::string name) : name_(std::move(name)) {}

  private:
    friend class StatGroup;

    std::string name_;
    Counter *counter_ = nullptr;
    std::uint64_t boundTo_ = 0; ///< StatGroup identity (0 = unbound)
};

/**
 * A named bag of statistics. Components create their counters through a
 * group so reports can enumerate everything hierarchically by name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /*
     * A copy or move gives the target a fresh identity, and a move gives
     * the source one too (its counters now live in the target), so no
     * CounterSlot bound before the operation can reach a counter the
     * group no longer owns.
     */
    StatGroup(const StatGroup &other)
        : name_(other.name_), counters_(other.counters_),
          accums_(other.accums_)
    {
    }

    StatGroup(StatGroup &&other) noexcept
        : name_(std::move(other.name_)),
          counters_(std::move(other.counters_)),
          accums_(std::move(other.accums_))
    {
        other.id_ = freshId();
    }

    StatGroup &
    operator=(const StatGroup &other)
    {
        name_ = other.name_;
        counters_ = other.counters_;
        accums_ = other.accums_;
        id_ = freshId();
        return *this;
    }

    StatGroup &
    operator=(StatGroup &&other) noexcept
    {
        name_ = std::move(other.name_);
        counters_ = std::move(other.counters_);
        accums_ = std::move(other.accums_);
        id_ = freshId();
        other.id_ = freshId();
        return *this;
    }

    /** Get-or-create a counter with the given name. */
    Counter &counter(const std::string &name) { return counters_[name]; }

    /**
     * Get-or-create the slot's counter. The map lookup runs only when
     * the slot is unbound or was last bound to a different group
     * identity — another group, or this one before a copy, move or
     * loadState() replaced its counters. reset() keeps every binding.
     */
    Counter &
    counter(CounterSlot &slot)
    {
        if (slot.boundTo_ != id_) {
            slot.counter_ = &counters_[slot.name_];
            slot.boundTo_ = id_;
        }
        return *slot.counter_;
    }

    /** Get-or-create an accumulator with the given name. */
    Accumulator &accum(const std::string &name) { return accums_[name]; }

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Accumulator> &accums() const
    {
        return accums_;
    }

    /** Counter value by name; 0 when absent. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /** Render "name = value" lines, one per stat, prefixed by group name. */
    std::string dump() const;

    void reset();

    /**
     * Serialize / restore every named counter and accumulator
     * (checkpointing). loadState replaces the group's contents with
     * exactly the saved set; the group name itself is construction-time
     * identity and is not serialized.
     */
    void
    saveState(serial::Writer &w) const
    {
        w.u64(counters_.size());
        for (const auto &[name, c] : counters_) {
            w.str(name);
            w.u64(c.value());
        }
        w.u64(accums_.size());
        for (const auto &[name, a] : accums_) {
            w.str(name);
            a.saveState(w);
        }
    }

    void
    loadState(serial::Reader &r)
    {
        id_ = freshId();
        counters_.clear();
        accums_.clear();
        std::uint64_t nc = r.u64();
        for (std::uint64_t i = 0; i < nc; ++i) {
            std::string name = r.str();
            counters_[name].set(r.u64());
        }
        std::uint64_t na = r.u64();
        for (std::uint64_t i = 0; i < na; ++i) {
            std::string name = r.str();
            accums_[name].loadState(r);
        }
    }

  private:
    /**
     * Identities come from one process-wide sequence, never from the
     * group's address: a group built where a destroyed one lived must
     * not match a slot still bound to the old group.
     */
    static std::uint64_t
    freshId()
    {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1);
    }

    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Accumulator> accums_;
    std::uint64_t id_ = freshId();
};

} // namespace vksim

#endif // VKSIM_UTIL_STATS_H
