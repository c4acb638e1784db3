#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "scene/scenegen.h"
#include "util/jsonio.h"

namespace perfbench {

using namespace vksim;

void
SimTotals::add(const RunResult &r, unsigned num_sms)
{
    const MetricsRegistry &m = r.metrics;
    auto both = [&m](const std::string &prefix) {
        return m.get(prefix + ".shader") + m.get(prefix + ".rtunit");
    };
    cycles += r.cycles;
    smCycles += r.cycles * num_sms;
    smCyclesSkipped += r.smCyclesSkipped;
    issued += m.get("gpu.core.issued");
    activeLanes += m.get("gpu.core.issue_active_lanes");
    uopDecodes += r.uopDecodes;
    l1Accesses += both("gpu.l1.accesses");
    l1Hits += both("gpu.l1.hits");
    l1Stalls += m.get("gpu.l1.mshr_target_stalls")
                + m.get("gpu.l1.mshr_full_stalls");
    l2Accesses += both("gpu.l2.accesses");
    l2Hits += both("gpu.l2.hits");
    rowHits += m.get("gpu.dram.row_hits");
    rowMisses += m.get("gpu.dram.row_misses");
    dramRequests += m.get("gpu.dram.requests");
    nodeTests += m.get("gpu.rt.ops_box") + m.get("gpu.rt.ops_triangle");
    rtBusyCycles += m.get("gpu.rt.busy_cycles");
    rtUnitCycles += m.get("gpu.rt.unit_cycles");
    dramBusBusy += m.get("gpu.dram.data_bus_busy");
    dramCycles += m.get("gpu.dram.cycles");
    dramPendingCycles += m.get("gpu.dram.cycles_with_pending");
}

Bench::Bench(Options options)
    : opt_(std::move(options)), tracer_(false),
      injectLeft_(opt_.injectMismatch)
{
    if (opt_.expectedPath.empty())
        return;
    std::string text, error;
    JsonValue doc;
    if (!readFile(opt_.expectedPath, &text, &error)
        || !parseJson(text, &doc, &error))
        throw std::runtime_error("expected digests: " + error);
    const JsonValue *digests = doc.member("digests");
    const JsonValue *mine =
        digests ? digests->member(opt_.workload) : nullptr;
    const JsonValue *seeded =
        mine ? mine->member(std::to_string(opt_.seed)) : nullptr;
    if (seeded == nullptr)
        return; // no recording for this seed: check pass-to-pass only
    for (const auto &[job, value] : seeded->object)
        expected_[job] = value.str;
}

void
Bench::probeHost()
{
    Span span(tracer_, "perfbench.host_probe");
    probeSeconds_.push_back(hostProbeSeconds());
    lastProbe_ = Clock::now();
}

void
Bench::setCycles(const std::string &step, std::uint64_t cycles)
{
    steps()[step].cycles = cycles;
}

void
Bench::fail(const std::string &job, const std::string &why)
{
    failures_.push_back(job + ": " + why);
}

void
Bench::checkImage(const std::string &job, const Image &got,
                  const Image &want)
{
    ++imagesChecked_;
    ImageDiff diff;
    {
        Span span(tracer_, "util.image_compare");
        if (injectLeft_ > 0 && got.width() > 0) {
            --injectLeft_;
            Image corrupted = got;
            corrupted.at(0, 0, 0) += 0.5f;
            diff = compareImages(corrupted, want);
        } else {
            diff = compareImages(got, want);
        }
    }
    const bool match = got.width() == want.width()
                       && got.height() == want.height()
                       && diff.differingPixels == 0;
    if (match) {
        ++imagesMatched_;
    } else {
        char why[96];
        std::snprintf(why, sizeof why,
                      "image differs from the reference in %llu pixels",
                      static_cast<unsigned long long>(diff.differingPixels));
        fail(job, why);
    }
}

void
Bench::checkDigest(const std::string &job, const std::string &digest)
{
    auto first = firstDigests_.emplace(job, digest).first;
    if (!expected_.empty()) {
        auto it = expected_.find(job);
        if (it == expected_.end())
            fail(job, "no recorded stats digest for this seed");
        else if (it->second != digest)
            fail(job, "stats digest " + digest + " != recorded "
                          + it->second);
    } else if (first->second != digest) {
        fail(job, "stats digest " + digest + " != first pass "
                      + first->second);
    }
}

double
Bench::imageMatchFrac() const
{
    return imagesChecked_ == 0 ? 0.0
                               : static_cast<double>(imagesMatched_)
                                     / static_cast<double>(imagesChecked_);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
metricsDigest(Bench &b, const RunResult &r)
{
    Span span(b.tracer(), "util.metrics_json");
    return fnv1aHex(r.metrics.toJson());
}

wl::WorkloadParams
sceneParams(const Bench &b, unsigned size)
{
    wl::WorkloadParams p;
    p.width = size;
    p.height = size;
    p.extScale = b.tiny() ? 0.05f : 0.2f;
    if (b.tiny())
        p.rtv5Detail = 3;
    p.shading.frameSeed = static_cast<std::uint32_t>(b.opt().seed);
    return p;
}

GpuConfig
engineConfig(GpuConfig base, unsigned threads)
{
    base.threads = threads;
    base.checkLevel = check::CheckLevel::Off;
    base.digestTrace = false;
    base.printPerfSummary = false;
    return base;
}

Scene
generateScene(wl::WorkloadId id, const wl::WorkloadParams &params)
{
    using wl::WorkloadId;
    switch (id) {
      case WorkloadId::TRI: return makeTriScene();
      case WorkloadId::REF: return makeRefScene();
      case WorkloadId::EXT: return makeExtScene(params.extScale);
      case WorkloadId::RTV5: return makeRtv5Scene(params.rtv5Detail);
      case WorkloadId::RTV6: return makeRtv6Scene(params.rtv6Prims);
      case WorkloadId::HYB: return makeHybScene();
      case WorkloadId::RQC: return makeRqcScene();
      case WorkloadId::AHA: return makeAhaScene();
      case WorkloadId::ACC: return makeAccScene();
    }
    return makeTriScene();
}

std::vector<std::size_t>
jobOrder(const Bench &b, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    // Fisher-Yates with a fixed generator: the same seed gives the same
    // order with every standard library.
    std::mt19937_64 rng(b.opt().seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

} // namespace perfbench
