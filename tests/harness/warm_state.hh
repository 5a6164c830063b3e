/**
 * @file
 * Warm-state digest: what a hierarchy's levels hold, in a form two
 * runs can compare. Per level and set, the resident frames in
 * replacement order (least recently used first) with their dirty
 * masks and prefetched flags, or, on a tile level, their word-valid
 * and word-dirty masks; per level, the stride prefetcher's training
 * table. Replacement order rather than raw recency stamps, so two
 * runs whose clocks tick differently (a timed run against a
 * functional one) still compare.
 */

#ifndef MDA_TESTS_HARNESS_WARM_STATE_HH
#define MDA_TESTS_HARNESS_WARM_STATE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/hierarchy.hh"

namespace mda::test
{

/** One resident frame. */
struct FrameState
{
    /** Line id * 2 + orientation, or the tile of a tile frame. */
    std::uint64_t key = 0;
    /** Word-valid mask of a tile frame (0xff for a line). */
    std::uint64_t valid = 0;
    /** Dirty word mask (line) or word-dirty mask (tile). */
    std::uint64_t dirty = 0;
    bool prefetched = false;

    bool operator==(const FrameState &) const = default;
};

/** One level's digest. */
struct LevelState
{
    std::string name;
    /** Per set, the resident frames, least recently used first. */
    std::vector<std::vector<FrameState>> sets;
    /** Stride-prefetcher table: pc, last address, stride, confidence
     *  per slot (empty for a tile level). */
    std::vector<std::vector<std::uint64_t>> prefetcher;
};

/** Frames of @p set in @p storage, least recently used first. */
template <typename Storage, typename Describe>
std::vector<FrameState>
residentFrames(const Storage &storage, std::uint64_t set,
               Describe &&describe)
{
    std::vector<std::pair<std::uint64_t, FrameState>> frames;
    for (unsigned way = 0; way < storage.ways(); ++way) {
        StorageSlot slot = storage.slotOf(set, way);
        if (storage.valid(slot))
            frames.emplace_back(storage.lruStamp(slot), describe(slot));
    }
    std::sort(frames.begin(), frames.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::vector<FrameState> out;
    for (const auto &frame : frames)
        out.push_back(frame.second);
    return out;
}

/** Digest every level of @p hier, CPU side first. */
inline std::vector<LevelState>
warmState(const Hierarchy &hier)
{
    std::vector<LevelState> levels;
    for (std::size_t n = 0; n < hier.levels().size(); ++n) {
        LevelState level;
        level.name = hier.levels()[n]->name();
        if (const LineCache *line = hier.lineCache(n)) {
            const LineStorage &st = line->storage();
            for (std::uint64_t set = 0; set < st.numSets(); ++set) {
                level.sets.push_back(residentFrames(
                    st, set, [&](StorageSlot slot) {
                        OrientedLine held = st.line(slot);
                        return FrameState{
                            held.id * 2 +
                                static_cast<std::uint64_t>(held.orient),
                            0xff, st.dirtyMask(slot),
                            st.prefetched(slot)};
                    }));
            }
            for (const auto &e : line->prefetcher().table()) {
                level.prefetcher.push_back(
                    {e.pc, e.lastAddr,
                     static_cast<std::uint64_t>(e.stride), e.confidence});
            }
        } else if (const TileCache *tile = hier.tileCache(n)) {
            const TileStorage &st = tile->storage();
            for (std::uint64_t set = 0; set < st.numSets(); ++set) {
                level.sets.push_back(residentFrames(
                    st, set, [&](StorageSlot slot) {
                        return FrameState{st.tile(slot),
                                          st.wordValid(slot),
                                          st.wordDirty(slot), false};
                    }));
            }
        }
        levels.push_back(std::move(level));
    }
    return levels;
}

/** How two digests differ, counted per category. */
struct WarmStateDiff
{
    std::uint64_t resident = 0;   ///< frames held by one side only
    std::uint64_t order = 0;      ///< sets, same frames, other order
    std::uint64_t dirty = 0;      ///< common frames, other dirty mask
    std::uint64_t valid = 0;      ///< common frames, other valid mask
    std::uint64_t prefetched = 0; ///< common frames, other flag
    std::uint64_t prefetcher = 0; ///< table slots that differ
    std::uint64_t shape = 0;      ///< levels or set counts that differ
    /** Where the first difference is ("l2 set 17: ..."). */
    std::string first;

    bool
    empty() const
    {
        return resident + order + dirty + valid + prefetched +
                   prefetcher + shape ==
               0;
    }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "resident " << resident << ", order " << order
           << ", dirty " << dirty << ", valid " << valid
           << ", prefetched " << prefetched << ", prefetcher "
           << prefetcher << ", shape " << shape << "; first: " << first;
        return os.str();
    }
};

inline WarmStateDiff
diffWarmState(const std::vector<LevelState> &a,
              const std::vector<LevelState> &b)
{
    WarmStateDiff diff;
    auto note = [&](std::uint64_t &counter, const std::string &where) {
        if (diff.empty())
            diff.first = where;
        ++counter;
    };
    if (a.size() != b.size()) {
        note(diff.shape, "level count");
        return diff;
    }
    for (std::size_t n = 0; n < a.size(); ++n) {
        const LevelState &la = a[n], &lb = b[n];
        if (la.sets.size() != lb.sets.size() ||
            la.prefetcher.size() != lb.prefetcher.size()) {
            note(diff.shape, la.name + " geometry");
            continue;
        }
        for (std::size_t s = 0; s < la.sets.size(); ++s) {
            const auto &fa = la.sets[s], &fb = lb.sets[s];
            if (fa == fb)
                continue;
            const std::string where =
                la.name + " set " + std::to_string(s);
            std::map<std::uint64_t, FrameState> ma, mb;
            for (const FrameState &f : fa)
                ma[f.key] = f;
            for (const FrameState &f : fb)
                mb[f.key] = f;
            bool same_frames = ma.size() == mb.size();
            for (const auto &[key, f] : ma) {
                auto it = mb.find(key);
                if (it == mb.end()) {
                    note(diff.resident, where + ": key " +
                                            std::to_string(key) +
                                            " only in the first");
                    same_frames = false;
                    continue;
                }
                if (f.dirty != it->second.dirty)
                    note(diff.dirty, where + ": dirty mask");
                if (f.valid != it->second.valid)
                    note(diff.valid, where + ": valid mask");
                if (f.prefetched != it->second.prefetched)
                    note(diff.prefetched, where + ": prefetched flag");
            }
            for (const auto &[key, f] : mb) {
                if (!ma.count(key)) {
                    note(diff.resident, where + ": key " +
                                            std::to_string(key) +
                                            " only in the second");
                    same_frames = false;
                }
            }
            bool same_order = fa.size() == fb.size();
            for (std::size_t k = 0; same_order && k < fa.size(); ++k)
                same_order = fa[k].key == fb[k].key;
            if (same_frames && !same_order)
                note(diff.order, where + ": replacement order");
        }
        for (std::size_t k = 0; k < la.prefetcher.size(); ++k) {
            if (la.prefetcher[k] != lb.prefetcher[k]) {
                note(diff.prefetcher,
                     la.name + " prefetcher slot " + std::to_string(k));
            }
        }
    }
    return diff;
}

} // namespace mda::test

#endif // MDA_TESTS_HARNESS_WARM_STATE_HH
