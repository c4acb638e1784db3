#include "gpu/scheduler.h"

#include <algorithm>

#include "util/log.h"
#include "util/simerror.h"

namespace vksim {

EngineScheduler::EngineScheduler(
    std::vector<std::unique_ptr<SmCore>> &sms, bool enabled)
    : sms_(sms), enabled_(enabled)
{
    units_.resize(sms_.size());
    active_.reserve(sms_.size());
    for (unsigned s = 0; s < sms_.size(); ++s)
        active_.push_back(s);
}

void
EngineScheduler::wake(unsigned sm, Cycle resume)
{
    Unit &u = units_[sm];
    if (u.awake)
        return;
    vksim_assert(resume >= u.sleepSince);
    sms_[sm]->settle(u.sleepSince, resume);
    skipped_ += resume - u.sleepSince;
    u.awake = true;
    u.digestValid = false;
    active_.insert(
        std::lower_bound(active_.begin(), active_.end(), sm), sm);
}

void
EngineScheduler::reconcile(Cycle from)
{
    if (!enabled_)
        return;
    std::size_t kept = 0;
    for (unsigned sm : active_) {
        if (sms_[sm]->sleepable()) {
            units_[sm].awake = false;
            units_[sm].sleepSince = from;
        } else {
            active_[kept++] = sm;
        }
    }
    active_.resize(kept);
}

void
EngineScheduler::sleepAt(unsigned sm, Cycle from)
{
    Unit &u = units_[sm];
    if (!u.awake)
        return;
    vksim_assert(sms_[sm]->sleepable());
    u.awake = false;
    u.sleepSince = from;
    active_.erase(
        std::lower_bound(active_.begin(), active_.end(), sm));
}

std::uint64_t
EngineScheduler::digest(unsigned sm)
{
    Unit &u = units_[sm];
    if (u.awake)
        return sms_[sm]->stateDigest();
    if (!u.digestValid) {
        u.digest = sms_[sm]->stateDigest();
        u.digestValid = true;
    }
    return u.digest;
}

void
EngineScheduler::finish(Cycle end)
{
    for (unsigned sm = 0; sm < units_.size(); ++sm)
        wake(sm, end);
}

void
EngineScheduler::saveState(serial::Writer &w) const
{
    w.u64(units_.size());
    for (const Unit &u : units_) {
        w.b(u.awake);
        w.u64(u.sleepSince);
    }
    w.u64(skipped_);
}

void
EngineScheduler::loadState(serial::Reader &r, Cycle at)
{
    std::uint64_t num_units = r.u64();
    if (num_units != units_.size())
        throw SimError("engine snapshot is malformed: it holds "
                       + std::to_string(num_units)
                       + " scheduler units for "
                       + std::to_string(units_.size()) + " SMs");
    active_.clear();
    for (unsigned sm = 0; sm < units_.size(); ++sm) {
        Unit &u = units_[sm];
        u.awake = r.b();
        u.sleepSince = r.u64();
        u.digestValid = false;
        if (!u.awake && u.sleepSince > at)
            throw SimError("engine snapshot is malformed: SM "
                           + std::to_string(sm) + " sleeps from cycle "
                           + std::to_string(u.sleepSince)
                           + ", after the snapshot cycle "
                           + std::to_string(at));
        if (u.awake)
            active_.push_back(sm);
    }
    skipped_ = r.u64();
}

} // namespace vksim
