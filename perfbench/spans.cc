#include "spans.h"

#include <fstream>

namespace perfbench {

std::map<std::string, double>
Tracer::selfTimes(std::size_t first) const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = first; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            child[spans_[i].parent] += spans_[i].end - spans_[i].start;
    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i)
        self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return self;
}

double
Tracer::topLevelSeconds(std::size_t first) const
{
    double total = 0.0;
    for (std::size_t i = first; i < spans_.size(); ++i)
        if (spans_[i].parent < 0)
            total += spans_[i].end - spans_[i].start;
    return total;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<long long>(s.start * 1e6)
            << ",\"dur\":" << static_cast<long long>((s.end - s.start) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"job\":" << s.job << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
