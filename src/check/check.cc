#include "check/check.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "util/log.h"

namespace vksim {
namespace check {

bool
parseCheckLevel(const std::string &text, CheckLevel *out)
{
    if (text == "off" || text == "0") {
        *out = CheckLevel::Off;
        return true;
    }
    if (text == "basic" || text == "1") {
        *out = CheckLevel::Basic;
        return true;
    }
    if (text == "full" || text == "2") {
        *out = CheckLevel::Full;
        return true;
    }
    return false;
}

const char *
checkLevelName(CheckLevel level)
{
    switch (level) {
      case CheckLevel::Off: return "off";
      case CheckLevel::Basic: return "basic";
      case CheckLevel::Full: return "full";
    }
    return "?";
}

CheckLevel
defaultCheckLevel()
{
    static const CheckLevel cached = [] {
        CheckLevel level = CheckLevel::Off;
        if (const char *env = std::getenv("VKSIM_CHECK")) {
            if (!parseCheckLevel(env, &level))
                vksim_fatal("VKSIM_CHECK=" + std::string(env)
                            + ": expected off|basic|full");
        }
        return level;
    }();
    return cached;
}

void
Reporter::report(const std::string &path, const std::string &message)
{
    if (!collect_)
        vksim_panic("invariant violation at cycle " + std::to_string(cycle_)
                    + ": " + path + ": " + message);
    violations_.push_back({path, message, cycle_});
}

Cycle
DigestTrace::cycleOf(std::size_t sample) const
{
    // The last frame beginning at or before `sample`; the first frame
    // has no entry and begins at sample 0, cycle `start`.
    std::size_t first = 0;
    Cycle base = start;
    for (const Frame &f : frames) {
        if (f.firstSample > sample)
            break;
        first = f.firstSample;
        base = f.cycleOffset;
    }
    return base + static_cast<Cycle>(sample - first) * period;
}

DigestTrace::Divergence
DigestTrace::firstDivergence(const DigestTrace &other) const
{
    Divergence d;
    if (units != other.units || period != other.period
        || (start > other.start ? start - other.start
                                : other.start - start)
                   % period
               != 0) {
        d.diverged = true;
        return d;
    }
    if (units == 0)
        return d; // both traces empty (digests were not recorded)
    // A frame beginning at a different cycle means an earlier frame ran
    // a different number of cycles: the traces diverge there at the
    // latest, whatever the samples before it show.
    Divergence frame_d;
    for (std::size_t k = 0;
         k < std::max(frames.size(), other.frames.size()); ++k) {
        const Cycle a = k < frames.size() ? frames[k].cycleOffset
                                          : ~Cycle(0);
        const Cycle b = k < other.frames.size()
                            ? other.frames[k].cycleOffset
                            : ~Cycle(0);
        if (a != b) {
            frame_d.diverged = true;
            frame_d.cycle = std::min(a, b);
            break;
        }
    }
    auto first = [&](const Divergence &sampled) {
        return frame_d.diverged
                       && (!sampled.diverged || frame_d.cycle < sampled.cycle)
                   ? frame_d
                   : sampled;
    };
    // Align on the later start: the earlier trace's leading samples have
    // no counterpart in the other and cannot be compared.
    const Cycle common = std::max(start, other.start);
    const std::size_t skip_a =
        static_cast<std::size_t>((common - start) / period) * units;
    const std::size_t skip_b =
        static_cast<std::size_t>((common - other.start) / period) * units;
    const std::size_t n_a = values.size() > skip_a
                                ? values.size() - skip_a
                                : 0;
    const std::size_t n_b = other.values.size() > skip_b
                                ? other.values.size() - skip_b
                                : 0;
    std::size_t n = std::min(n_a, n_b);
    for (std::size_t i = 0; i < n; ++i) {
        if (values[skip_a + i] != other.values[skip_b + i]) {
            d.diverged = true;
            d.cycle = cycleOf((skip_a + i) / units);
            d.unit = static_cast<unsigned>(i % units);
            return first(d);
        }
    }
    if (n_a != n_b) {
        // The first sample present in only one trace, on its timeline.
        d.diverged = true;
        d.cycle = n_a > n_b ? cycleOf((skip_a + n) / units)
                            : other.cycleOf((skip_b + n) / units);
    }
    return first(d);
}

namespace {

// The hook itself is guarded by a mutex (installation is rare, invocation
// reads under the lock); the atomic flag keeps the executor's per-lane
// fast path to a single relaxed load when no hook is installed.
std::mutex g_hook_mutex;
TraverseHook g_hook;
std::atomic<bool> g_hook_active{false};

} // namespace

void
setTraverseHook(TraverseHook hook)
{
    std::lock_guard<std::mutex> lock(g_hook_mutex);
    g_hook = std::move(hook);
    g_hook_active.store(static_cast<bool>(g_hook),
                        std::memory_order_release);
}

bool
traverseHookActive()
{
    return g_hook_active.load(std::memory_order_acquire);
}

void
callTraverseHook(Addr frame_base, const RayTraversal &trav)
{
    std::lock_guard<std::mutex> lock(g_hook_mutex);
    if (g_hook)
        g_hook(frame_base, trav);
}

} // namespace check
} // namespace vksim
