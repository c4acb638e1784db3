#include "vptx/cflow.h"

#include <algorithm>
#include <bit>

#include "util/log.h"

namespace vksim::vptx {

namespace {

/** Sentinel reconvergence pc for entries that never pop by pc match. */
constexpr std::uint32_t kNoReconv = 0xFFFFFFFFu;

} // namespace

unsigned
popcount(Mask m)
{
    return static_cast<unsigned>(std::popcount(m));
}

void
WarpCflow::init(std::uint32_t start_pc, Mask mask, Mode mode)
{
    mode_ = mode;
    stack_.clear();
    splits_.clear();
    nextId_ = 1;
    stackBlocked_ = false;
    if (mode_ == Mode::Stack) {
        stack_.push_back({start_pc, kNoReconv, mask});
        syncStackTop();
    } else {
        WarpSplit s;
        s.pc = start_pc;
        s.mask = mask;
        s.id = nextId_++;
        splits_.push_back(s);
    }
}

void
WarpCflow::syncStackTop()
{
    splits_.clear();
    if (stack_.empty())
        return;
    WarpSplit s;
    s.pc = stack_.back().pc;
    s.mask = stack_.back().mask;
    s.blocked = stackBlocked_;
    s.id = 0;
    splits_.push_back(s);
}

bool
WarpCflow::waitingAtReconv(const WarpSplit &s) const
{
    if (mode_ == Mode::Stack || s.pc != s.reconv || s.reconv == kNoReconv)
        return false;
    // Wait while a sibling from the same divergence is still on its way.
    for (const WarpSplit &other : splits_)
        if (other.id != s.id && other.reconv == s.reconv
            && other.mask != 0)
            return true;
    return false;
}

unsigned
WarpCflow::runnableCount() const
{
    unsigned n = 0;
    for (const WarpSplit &s : splits_)
        if (!s.blocked && s.mask != 0 && !waitingAtReconv(s))
            ++n;
    return n;
}

int
WarpCflow::runnableSplit(unsigned i) const
{
    unsigned n = 0;
    for (std::size_t idx = 0; idx < splits_.size(); ++idx) {
        const WarpSplit &s = splits_[idx];
        if (!s.blocked && s.mask != 0 && !waitingAtReconv(s)) {
            if (n == i)
                return static_cast<int>(idx);
            ++n;
        }
    }
    vksim_panic("runnableSplit index out of range");
}

void
WarpCflow::advance(int idx, std::uint32_t next_pc)
{
    if (mode_ == Mode::Stack) {
        vksim_assert(idx == 0 && !stack_.empty());
        stack_.back().pc = next_pc;
        // Pop joined entries (possibly several when reconvergence points
        // coincide, e.g. nested ifs ending at the same instruction). The
        // join continuation below already holds the merged mask.
        while (!stack_.empty() && stack_.back().pc == stack_.back().reconv)
            stack_.pop_back();
        syncStackTop();
        return;
    }
    splits_[static_cast<std::size_t>(idx)].pc = next_pc;
    mergeItsSplits();
}

void
WarpCflow::diverge(int idx, std::uint32_t taken_pc, Mask taken,
                   std::uint32_t fallthrough_pc, Mask not_taken,
                   std::uint32_t reconv_pc)
{
    if (taken == 0) {
        advance(idx, fallthrough_pc);
        return;
    }
    if (not_taken == 0) {
        advance(idx, taken_pc);
        return;
    }

    if (mode_ == Mode::Stack) {
        vksim_assert(idx == 0 && !stack_.empty());
        // The current entry becomes the join continuation at reconv_pc,
        // keeping the merged mask of both paths.
        stack_.back().pc = reconv_pc;
        stack_.push_back({fallthrough_pc, reconv_pc, not_taken});
        stack_.push_back({taken_pc, reconv_pc, taken});
        // A path that branches directly to the reconvergence point is
        // already joined (its lanes are in the join continuation below);
        // pop it immediately or those lanes would run ahead past the join.
        while (!stack_.empty() && stack_.back().pc == stack_.back().reconv)
            stack_.pop_back();
        syncStackTop();
        return;
    }

    WarpSplit &s = splits_[static_cast<std::size_t>(idx)];
    s.pc = taken_pc;
    s.mask = taken;
    s.reconv = reconv_pc;
    WarpSplit nt;
    nt.pc = fallthrough_pc;
    nt.mask = not_taken;
    nt.id = nextId_++;
    nt.reconv = reconv_pc;
    splits_.push_back(nt);
    mergeItsSplits();
}

void
WarpCflow::exitLanes(int idx, Mask lanes)
{
    if (mode_ == Mode::Stack) {
        for (StackEntry &e : stack_)
            e.mask &= ~lanes;
        while (!stack_.empty() && stack_.back().mask == 0)
            stack_.pop_back();
        syncStackTop();
        return;
    }
    splits_[static_cast<std::size_t>(idx)].mask &= ~lanes;
    dropEmptySplits();
}

void
WarpCflow::setBlocked(int idx, bool blocked)
{
    splits_[static_cast<std::size_t>(idx)].blocked = blocked;
}

bool
WarpCflow::finished() const
{
    return liveMask() == 0;
}

Mask
WarpCflow::liveMask() const
{
    if (mode_ == Mode::Stack) {
        Mask m = 0;
        for (const StackEntry &e : stack_)
            m |= e.mask;
        return m;
    }
    Mask m = 0;
    for (const WarpSplit &s : splits_)
        m |= s.mask;
    return m;
}

void
WarpCflow::mergeItsSplits()
{
    dropEmptySplits();
    // Merge unblocked splits that arrived at the same pc (the multi-path
    // reconvergence-table effect of ElTantawy et al., simplified).
    for (std::size_t i = 0; i < splits_.size(); ++i) {
        if (splits_[i].blocked || splits_[i].mask == 0)
            continue;
        for (std::size_t j = i + 1; j < splits_.size();) {
            if (!splits_[j].blocked && splits_[j].mask != 0
                && splits_[j].pc == splits_[i].pc) {
                splits_[i].mask |= splits_[j].mask;
                // Joined at the shared reconvergence point: stop waiting.
                if (splits_[i].reconv == splits_[j].reconv
                    && splits_[i].pc == splits_[i].reconv)
                    splits_[i].reconv = kNoReconv;
                else if (splits_[i].reconv != splits_[j].reconv)
                    splits_[i].reconv = kNoReconv;
                splits_.erase(splits_.begin()
                              + static_cast<std::ptrdiff_t>(j));
            } else {
                ++j;
            }
        }
    }
}

void
WarpCflow::blockAt(int idx, std::uint32_t resume_pc)
{
    if (mode_ == Mode::Stack) {
        vksim_assert(idx == 0 && !stack_.empty());
        stack_.back().pc = resume_pc;
        stackBlocked_ = true;
        syncStackTop();
        return;
    }
    WarpSplit &s = splits_[static_cast<std::size_t>(idx)];
    s.pc = resume_pc;
    s.blocked = true;
}

void
WarpCflow::unblockById(int id)
{
    if (mode_ == Mode::Stack) {
        stackBlocked_ = false;
        syncStackTop();
        return;
    }
    int idx = splitIndexById(id);
    vksim_assert(idx >= 0);
    splits_[static_cast<std::size_t>(idx)].blocked = false;
    mergeItsSplits();
}

int
WarpCflow::splitIndexById(int id) const
{
    if (mode_ == Mode::Stack)
        return splits_.empty() ? -1 : 0;
    for (std::size_t i = 0; i < splits_.size(); ++i)
        if (splits_[i].id == id)
            return static_cast<int>(i);
    return -1;
}

void
WarpCflow::checkWellFormed(check::Reporter &rep,
                           const std::string &path) const
{
    if (mode_ == Mode::Stack) {
        // splits_[0] must mirror the stack top exactly.
        if (splits_.size() != (stack_.empty() ? 0u : 1u)) {
            rep.report(path, "stack-top mirror has "
                                 + std::to_string(splits_.size())
                                 + " splits");
            return;
        }
        if (!stack_.empty()) {
            const WarpSplit &s = splits_[0];
            if (s.pc != stack_.back().pc || s.mask != stack_.back().mask
                || s.id != 0 || s.blocked != stackBlocked_)
                rep.report(path, "stack-top mirror out of sync with the "
                                 "stack top");
        }
        for (std::size_t i = 0; i < stack_.size(); ++i) {
            if (stack_[i].mask == 0)
                rep.report(path, "stack entry " + std::to_string(i)
                                     + " has an empty mask");
            // Every deeper entry's lanes are live, so they must still be
            // present in the root join continuation (exit removes a lane
            // from every entry at once).
            if (i > 0 && (stack_[i].mask & ~stack_[0].mask) != 0)
                rep.report(path,
                           "stack entry " + std::to_string(i)
                               + " holds lanes missing from the root");
        }
        return;
    }

    if (!stack_.empty())
        rep.report(path, "ITS mode with a non-empty SIMT stack");
    Mask seen = 0;
    for (std::size_t i = 0; i < splits_.size(); ++i) {
        const WarpSplit &s = splits_[i];
        if (s.mask == 0)
            rep.report(path, "split " + std::to_string(i)
                                 + " has an empty mask");
        if ((s.mask & seen) != 0)
            rep.report(path, "split " + std::to_string(i)
                                 + " overlaps another split's lanes");
        seen |= s.mask;
        if (s.id <= 0 || s.id >= nextId_)
            rep.report(path, "split " + std::to_string(i)
                                 + " has out-of-range id "
                                 + std::to_string(s.id));
        for (std::size_t j = i + 1; j < splits_.size(); ++j)
            if (splits_[j].id == s.id)
                rep.report(path, "duplicate split id "
                                     + std::to_string(s.id));
    }
}

std::uint64_t
WarpCflow::stateDigest() const
{
    check::Digest d;
    d.mix(static_cast<std::uint64_t>(mode_));
    for (const StackEntry &e : stack_) {
        d.mix(e.pc);
        d.mix(e.reconv);
        d.mix(e.mask);
    }
    d.mix(stack_.size());
    for (const WarpSplit &s : splits_) {
        d.mix(s.pc);
        d.mix(s.mask);
        d.mix(s.blocked);
        d.mix(static_cast<std::uint64_t>(s.id));
        d.mix(s.reconv);
    }
    d.mix(splits_.size());
    d.mix(static_cast<std::uint64_t>(nextId_));
    d.mix(stackBlocked_);
    return d.value();
}

void
WarpCflow::dropEmptySplits()
{
    splits_.erase(std::remove_if(splits_.begin(), splits_.end(),
                                 [](const WarpSplit &s) {
                                     return s.mask == 0;
                                 }),
                  splits_.end());
}

void
WarpCflow::saveState(serial::Writer &w) const
{
    w.u8(mode_ == Mode::Its ? 1 : 0);
    w.u64(stack_.size());
    for (const StackEntry &e : stack_) {
        w.u32(e.pc);
        w.u32(e.reconv);
        w.u32(e.mask);
    }
    w.u64(splits_.size());
    for (const WarpSplit &s : splits_) {
        w.u32(s.pc);
        w.u32(s.mask);
        w.b(s.blocked);
        w.i32(s.id);
        w.u32(s.reconv);
    }
    w.i32(nextId_);
    w.b(stackBlocked_);
}

void
WarpCflow::loadState(serial::Reader &r)
{
    const std::uint8_t mode = r.u8();
    if (mode > 1)
        throw SimError("control-flow snapshot: bad mode byte");
    mode_ = mode ? Mode::Its : Mode::Stack;
    stack_.resize(r.count(12, "reconvergence stack entries"));
    for (StackEntry &e : stack_) {
        e.pc = r.u32();
        e.reconv = r.u32();
        e.mask = r.u32();
    }
    splits_.resize(r.count(17, "warp splits"));
    for (WarpSplit &s : splits_) {
        s.pc = r.u32();
        s.mask = r.u32();
        s.blocked = r.b();
        s.id = r.i32();
        s.reconv = r.u32();
    }
    nextId_ = r.i32();
    stackBlocked_ = r.b();
}

} // namespace vksim::vptx
