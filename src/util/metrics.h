/**
 * @file
 * Unified observability registry: hierarchically named counters, gauges,
 * accumulators and histograms with a deterministic, machine-readable
 * dump.
 *
 * Every timed subsystem registers its statistics here (directly or by
 * importing a legacy StatGroup under a dotted prefix) instead of keeping
 * loose struct fields. Per-SM shard registries are folded with merge()
 * in fixed SM order, which extends the parallel-engine determinism
 * contract (DESIGN.md) to the complete metrics dump: toJson() output is
 * byte-identical for every engine thread count.
 *
 * Naming convention: dot-separated hierarchical paths, lower_snake_case
 * segments, e.g. "gpu.l1.hits.shader" or "gpu.rt.warp_latency_hist".
 */

#ifndef VKSIM_UTIL_METRICS_H
#define VKSIM_UTIL_METRICS_H

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "util/stats.h"

namespace vksim {

/** A last-value-wins scalar (derived ratios, configuration echoes). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * The registry. Metrics are created on first access by dotted path; a
 * path permanently belongs to the kind that created it, and re-using it
 * as a different kind throws std::logic_error (name-collision guard).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    /** Get-or-create. Throws std::logic_error on a kind collision. */
    Counter &counter(const std::string &path);
    Gauge &gauge(const std::string &path);
    Accumulator &accum(const std::string &path);

    /**
     * Get-or-create a histogram. The geometry is fixed at creation;
     * re-requesting an existing path with a different geometry throws.
     */
    Histogram &histogram(const std::string &path, double bucket_width = 1.0,
                         unsigned num_buckets = 32);

    /** Counter value by path; 0 when absent or not a counter. */
    std::uint64_t get(const std::string &path) const;

    /** Gauge value by path; 0.0 when absent or not a gauge. */
    double gaugeValue(const std::string &path) const;

    /** Histogram lookup; nullptr when absent or not a histogram. */
    const Histogram *findHistogram(const std::string &path) const;

    bool has(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /**
     * Fold a StatGroup's counters and accumulators in under
     * `prefix + "." + name` (counters add, accumulators merge). Call in
     * fixed shard order for determinism of the double-valued folds.
     */
    void importGroup(const std::string &prefix, const StatGroup &group);

    /**
     * Fold another registry (a per-SM shard) into this one: counters
     * add, accumulators and histograms merge, gauges take the other
     * side's value. Merge shards in fixed SM order (determinism
     * contract).
     */
    void merge(const MetricsRegistry &other);

    /** Reset every metric to its zero state (paths are kept). */
    void reset();

    /**
     * Deterministic JSON dump: one object with "counters", "gauges",
     * "accumulators" and "histograms" sections, keys sorted, doubles in
     * shortest round-trip form. `indent` shifts the whole document right
     * (for embedding in an enclosing object).
     */
    void writeJson(std::ostream &os, unsigned indent = 0) const;
    std::string toJson(unsigned indent = 0) const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Accum,
        Histogram
    };

    struct Entry
    {
        Kind kind = Kind::Counter;
        Counter counter;
        Gauge gauge;
        Accumulator accum;
        std::unique_ptr<Histogram> hist;
    };

    Entry &getOrCreate(const std::string &path, Kind kind);
    const Entry *find(const std::string &path, Kind kind) const;

    std::map<std::string, Entry> entries_;
};

/**
 * Shortest-round-trip decimal rendering of a double (std::to_chars):
 * deterministic for identical bits, so JSON dumps built from
 * deterministic values are byte-stable. Non-finite values render as
 * "null" (JSON has no NaN/Inf).
 */
std::string formatJsonNumber(double v);

} // namespace vksim

#endif // VKSIM_UTIL_METRICS_H
