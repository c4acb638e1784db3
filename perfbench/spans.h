/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Every call the harness makes into a simulator module is wrapped in a
 * Span: name, start, end, parent span and job id. Spans are appended to
 * a vector while the run is going and written out once, as a Chrome
 * trace, when the run ends. A disabled Tracer records nothing, so the
 * untraced run that produces the end-to-end metrics pays one branch per
 * call site.
 *
 * Single-threaded: the harness opens and closes spans only from its
 * main thread (engine worker threads live inside the library calls).
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;    ///< index into Tracer::spans(), -1 = top level
    int job = -1;       ///< job id the span belongs to, -1 = none
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; returns its index. */
    int
    open(const std::string &name, int job)
    {
        SpanRecord s;
        s.name = name;
        s.start = now();
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.job = job >= 0 ? job : (s.parent >= 0 ? spans_[s.parent].job : -1);
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int index)
    {
        spans_[index].end = now();
        stack_.pop_back();
    }

    /** Seconds since construction. */
    double now() const { return secondsSince(epoch_); }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Self time per span name over spans[first, spans().size()): each
     * span's duration minus the time its direct children cover.
     */
    std::map<std::string, double> selfTimes(std::size_t first) const;

    /** Summed duration of top-level spans from index `first` on. */
    double topLevelSeconds(std::size_t first) const;

    /** Write every span as a Chrome-trace "X" event. Returns success. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, int job = -1)
        : tracer_(tracer),
          index_(tracer.enabled() ? tracer.open(name, job) : -1)
    {
    }
    ~Span()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
