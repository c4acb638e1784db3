#include "util/metrics.h"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace vksim {

namespace {

const char *
kindName(int kind)
{
    switch (kind) {
      case 0: return "counter";
      case 1: return "gauge";
      case 2: return "accumulator";
      case 3: return "histogram";
    }
    return "?";
}

/** JSON string escaping for metric paths (they are plain ASCII, but be
 *  correct anyway). */
std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace

std::string
formatJsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

MetricsRegistry::Entry &
MetricsRegistry::getOrCreate(const std::string &path, Kind kind)
{
    if (path.empty())
        throw std::logic_error("empty metric path");
    auto [it, inserted] = entries_.try_emplace(path);
    if (inserted) {
        it->second.kind = kind;
    } else if (it->second.kind != kind) {
        throw std::logic_error(
            "metric path '" + path + "' already registered as a "
            + kindName(static_cast<int>(it->second.kind))
            + ", requested as a " + kindName(static_cast<int>(kind)));
    }
    return it->second;
}

const MetricsRegistry::Entry *
MetricsRegistry::find(const std::string &path, Kind kind) const
{
    auto it = entries_.find(path);
    if (it == entries_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return getOrCreate(path, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return getOrCreate(path, Kind::Gauge).gauge;
}

Accumulator &
MetricsRegistry::accum(const std::string &path)
{
    return getOrCreate(path, Kind::Accum).accum;
}

Histogram &
MetricsRegistry::histogram(const std::string &path, double bucket_width,
                           unsigned num_buckets)
{
    Entry &e = getOrCreate(path, Kind::Histogram);
    if (!e.hist) {
        e.hist = std::make_unique<Histogram>(bucket_width, num_buckets);
    } else if (e.hist->bucketWidth() != bucket_width
               || e.hist->buckets().size() != num_buckets) {
        throw std::logic_error("histogram '" + path
                               + "' re-registered with a different "
                                 "geometry");
    }
    return *e.hist;
}

std::uint64_t
MetricsRegistry::get(const std::string &path) const
{
    const Entry *e = find(path, Kind::Counter);
    return e ? e->counter.value() : 0;
}

double
MetricsRegistry::gaugeValue(const std::string &path) const
{
    const Entry *e = find(path, Kind::Gauge);
    return e ? e->gauge.value() : 0.0;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    const Entry *e = find(path, Kind::Histogram);
    return e ? e->hist.get() : nullptr;
}

bool
MetricsRegistry::has(const std::string &path) const
{
    return entries_.count(path) != 0;
}

void
MetricsRegistry::importGroup(const std::string &prefix,
                             const StatGroup &group)
{
    for (const auto &[name, c] : group.counters())
        counter(prefix + "." + name).inc(c.value());
    for (const auto &[name, a] : group.accums())
        accum(prefix + "." + name).merge(a);
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[path, e] : other.entries_) {
        switch (e.kind) {
          case Kind::Counter:
            counter(path).inc(e.counter.value());
            break;
          case Kind::Gauge:
            gauge(path).set(e.gauge.value());
            break;
          case Kind::Accum:
            accum(path).merge(e.accum);
            break;
          case Kind::Histogram:
            histogram(path, e.hist->bucketWidth(),
                      static_cast<unsigned>(e.hist->buckets().size()))
                .merge(*e.hist);
            break;
        }
    }
}

void
MetricsRegistry::reset()
{
    for (auto &[path, e] : entries_) {
        switch (e.kind) {
          case Kind::Counter: e.counter.reset(); break;
          case Kind::Gauge: e.gauge.reset(); break;
          case Kind::Accum: e.accum.reset(); break;
          case Kind::Histogram: e.hist->reset(); break;
        }
    }
}

void
MetricsRegistry::writeJson(std::ostream &os, unsigned indent) const
{
    const std::string base(indent, ' ');
    const std::string in1 = base + "  ";
    const std::string in2 = base + "    ";

    auto section = [&](const char *title, Kind kind, auto &&emit) {
        os << in1 << '"' << title << "\": {";
        bool first = true;
        for (const auto &[path, e] : entries_) {
            if (e.kind != kind)
                continue;
            os << (first ? "\n" : ",\n") << in2 << jsonQuote(path)
               << ": ";
            emit(e);
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "}";
    };

    os << base << "{\n";
    section("counters", Kind::Counter,
            [&](const Entry &e) { os << e.counter.value(); });
    os << ",\n";
    section("gauges", Kind::Gauge, [&](const Entry &e) {
        os << formatJsonNumber(e.gauge.value());
    });
    os << ",\n";
    section("accumulators", Kind::Accum, [&](const Entry &e) {
        const Accumulator &a = e.accum;
        os << "{\"count\": " << a.count()
           << ", \"sum\": " << formatJsonNumber(a.sum())
           << ", \"min\": " << formatJsonNumber(a.min())
           << ", \"max\": " << formatJsonNumber(a.max())
           << ", \"mean\": " << formatJsonNumber(a.mean()) << "}";
    });
    os << ",\n";
    section("histograms", Kind::Histogram, [&](const Entry &e) {
        const Histogram &h = *e.hist;
        os << "{\"bucket_width\": " << formatJsonNumber(h.bucketWidth())
           << ", \"num_buckets\": " << h.buckets().size()
           << ", \"overflow\": " << h.overflow()
           << ", \"count\": " << h.summary().count()
           << ", \"sum\": " << formatJsonNumber(h.summary().sum())
           << ", \"min\": " << formatJsonNumber(h.summary().min())
           << ", \"max\": " << formatJsonNumber(h.summary().max())
           << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets().size(); ++i)
            os << (i ? ", " : "") << h.buckets()[i];
        os << "]}";
    });
    os << "\n" << base << "}";
}

std::string
MetricsRegistry::toJson(unsigned indent) const
{
    std::ostringstream os;
    writeJson(os, indent);
    return os.str();
}

} // namespace vksim
