/**
 * @file
 * Set-associative storage for oriented cache lines and sparse tiles,
 * in structure-of-arrays layout.
 *
 * Identity is the full OrientedLine (orientation + line id); the set
 * index is supplied by the cache (Different-Set vs Same-Set mapping is
 * a property of the cache, not the storage). Entries carry real data
 * plus a per-word dirty mask — the paper's "1 extra dirty bit per
 * word" that enables partial writebacks under false sharing of
 * intersecting lines.
 *
 * Layout: one parallel vector per metadata field, indexed by a flat
 * slot = set * ways + way. The tag array packs (line id, orientation)
 * into a single 64-bit key whose invalid sentinel can never collide
 * with a real line, so the lookup hot path — find(), victim(),
 * victimForInstall(), the crossing-line presence sweep — is a
 * single-compare linear scan over one contiguous array instead of a
 * pointer walk over multi-field objects. Recency doubles as the valid
 * encoding for victim search: invalid slots hold stamp 0 and live
 * stamps start at 1, so "first invalid way, else LRU" is one strict-<
 * minimum scan.
 */

#ifndef MDA_CACHE_STORAGE_HH
#define MDA_CACHE_STORAGE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/orientation.hh"
#include "sim/packet.hh"

namespace mda
{

/** Flat frame index into a storage's parallel arrays. */
using StorageSlot = std::uint32_t;

/** "No frame": find() misses and every-way-pinned allocations. */
inline constexpr StorageSlot kNoSlot = ~StorageSlot{0};

/** What one sweep of a set found (the storages' probe()). */
struct SetProbe
{
    /** The frame holding the looked-up line or tile, or kNoSlot. */
    StorageSlot hit = kNoSlot;
    /** On a miss, the frame to replace; kNoSlot on a hit. */
    StorageSlot victim = kNoSlot;
};

/**
 * The presence probe and the victim choice in one sweep of a set whose
 * first frame is @p first: stop at the frame tagged @p key, else name
 * the first frame with the lowest recency stamp. Invalid frames hold
 * stamp 0 and live stamps start at 1, so that is the first invalid
 * frame if there is one, else the LRU frame.
 */
inline SetProbe
probeSet(const std::uint64_t *tags, const std::uint64_t *stamps,
         unsigned ways, std::uint64_t key, StorageSlot first)
{
    unsigned best = 0;
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == key)
            return {first + w, kNoSlot};
        if (stamps[w] < stamps[best])
            best = w;
    }
    return {kNoSlot, first + best};
}

/** SoA set-associative array of oriented-line frames. */
class LineStorage
{
  public:
    LineStorage(std::uint64_t num_sets, unsigned ways)
        : _sets(num_sets), _ways(ways),
          _keys(num_sets * ways, invalidKey),
          _lru(num_sets * ways, 0),
          _dirty(num_sets * ways, 0),
          _prefetched(num_sets * ways, 0),
          _data(num_sets * ways),
          _occMask(std::bit_ceil(std::min<std::uint64_t>(
                       num_sets * ways * 16, 1 << 16)) - 1)
    {
        mda_assert(num_sets > 0 && ways > 0, "empty storage");
        for (auto &occ : _tileOcc)
            occ.assign(_occMask + 1, 0);
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned ways() const { return _ways; }

    /**
     * Tag-array key of @p line: id and orientation packed so one
     * 64-bit compare decides both identity and validity. The key
     * shares the line's field layout shifted up one bit —
     * (tile << 4) | (index << 1) | orient — which is what lets the
     * crossing-line sweep match a whole tile with one shift.
     */
    static std::uint64_t
    packedKey(const OrientedLine &line)
    {
        // < 2^62 keeps the key clear of the invalid sentinel AND
        // keeps (tile << 4) in crossingMask() unambiguous against it.
        mda_assert(line.id < (std::uint64_t{1} << 62),
                   "line id collides with the invalid-key sentinel");
        return (line.id << 1) |
               (line.orient == Orientation::Col ? 1u : 0u);
    }

    /** Inverse of packedKey(). @pre valid(slot) */
    OrientedLine
    line(StorageSlot slot) const
    {
        std::uint64_t key = _keys[slot];
        mda_assert(key != invalidKey, "line() on an invalid slot");
        return OrientedLine(
            (key & 1) ? Orientation::Col : Orientation::Row, key >> 1);
    }

    bool valid(StorageSlot slot) const
    {
        return _keys[slot] != invalidKey;
    }

    /** Flat slot of (@p set, @p way). */
    StorageSlot
    slotOf(std::uint64_t set, unsigned way) const
    {
        mda_assert(set < _sets && way < _ways, "frame out of range");
        return static_cast<StorageSlot>(set * _ways + way);
    }

    /** Find the valid slot holding exactly @p line in @p set. */
    StorageSlot
    find(std::uint64_t set, const OrientedLine &line) const
    {
        std::uint64_t key = packedKey(line);
        const std::uint64_t *tags = &_keys[set * _ways];
        for (unsigned w = 0; w < _ways; ++w)
            if (tags[w] == key)
                return static_cast<StorageSlot>(set * _ways + w);
        return kNoSlot;
    }

    /**
     * Pick a victim frame in @p set: an invalid way if one exists,
     * else the LRU valid way. Invalid slots hold recency 0 (live
     * stamps start at 1) and the scan keeps the first strict minimum,
     * so one pass realizes both preferences. Never returns kNoSlot.
     */
    StorageSlot
    victim(std::uint64_t set) const
    {
        const std::uint64_t *stamps = &_lru[set * _ways];
        unsigned best = 0;
        for (unsigned w = 1; w < _ways; ++w)
            if (stamps[w] < stamps[best])
                best = w;
        return static_cast<StorageSlot>(set * _ways + best);
    }

    /**
     * find() and victim() in one sweep of @p set: a miss has seen
     * every recency stamp, so it also names the victim. The functional
     * walk installs a missing line with no second sweep; the victim
     * stays current until this set's frames change.
     */
    SetProbe
    probe(std::uint64_t set, const OrientedLine &line) const
    {
        return probeSet(&_keys[set * _ways], &_lru[set * _ways], _ways,
                        packedKey(line), slotOf(set, 0));
    }

    /**
     * victim() fused with a duplicate check: one sweep of @p set that
     * both picks the victim (same policy as victim()) and panics if
     * @p line is already present. The fill path uses this instead of
     * a lookup-assert plus a second victim scan.
     */
    StorageSlot
    victimForInstall(std::uint64_t set, const OrientedLine &line) const
    {
        std::uint64_t key = packedKey(line);
        const std::uint64_t *tags = &_keys[set * _ways];
        const std::uint64_t *stamps = &_lru[set * _ways];
        unsigned best = 0;
        for (unsigned w = 0; w < _ways; ++w) {
            mda_assert(tags[w] != key,
                       "fill for an already-present line");
            if (stamps[w] < stamps[best])
                best = w;
        }
        return static_cast<StorageSlot>(set * _ways + best);
    }

    /**
     * One sweep of @p set collecting the crossing lines of @p tile:
     * returns a bit per tile-local index k whose line (@p cross, tile
     * << 3 | k) is resident, with the slots in @p slots. Because the
     * packed key is (tile << 4) | (index << 1) | orient, matching a
     * (tile, orientation) pair is one shift-compare per way — the
     * Fig. 9 duplicate probe as a mask intersection over the tag
     * array. Correct for any mapping whose crossing lines share the
     * set (Same-Set); Different-Set callers probe per word instead.
     */
    std::uint8_t
    crossingMask(std::uint64_t set, Orientation cross,
                 std::uint64_t tile,
                 std::array<StorageSlot, lineWords> &slots) const
    {
        std::uint64_t want = (tile << 4) |
                             (cross == Orientation::Col ? 1u : 0u);
        const std::uint64_t *tags = &_keys[set * _ways];
        std::uint8_t mask = 0;
        for (unsigned w = 0; w < _ways; ++w) {
            std::uint64_t key = tags[w];
            // Clear the index field; invalid keys keep their high
            // bits and can never equal a real (tile, orient) pattern.
            if ((key & ~std::uint64_t{0xe}) != want)
                continue;
            unsigned idx = static_cast<unsigned>((key >> 1) & 7);
            mask |= static_cast<std::uint8_t>(1u << idx);
            slots[idx] = static_cast<StorageSlot>(set * _ways + w);
        }
        return mask;
    }

    /** Update recency on @p slot. */
    void touch(StorageSlot slot) { _lru[slot] = ++_clock; }

    std::uint64_t lruStamp(StorageSlot slot) const
    {
        return _lru[slot];
    }

    /** Mark @p slot invalid and clean. */
    void
    invalidate(StorageSlot slot)
    {
        if (_keys[slot] != invalidKey) {
            OrientedLine old = line(slot);
            if (old.orient == Orientation::Col)
                --_validColLines;
            else
                --_validRowLines;
            --occSlot(old);
            if (_shadowEnabled)
                _shadow.erase(_keys[slot]);
        }
        _keys[slot] = invalidKey;
        _lru[slot] = 0;
        _dirty[slot] = 0;
    }

    /**
     * Install @p line into @p slot (which must be invalid).
     *
     * The recycled data block is NOT cleared: every installer (fill,
     * full-line write allocation) overwrites all 64 bytes immediately
     * after, so zeroing here would be pure overhead on the fill path.
     * A new caller that installs without writing the whole block must
     * clear it itself.
     */
    void
    install(StorageSlot slot, const OrientedLine &line)
    {
        mda_assert(_keys[slot] == invalidKey,
                   "installing over a valid entry");
        _keys[slot] = packedKey(line);
        _prefetched[slot] = 0;
        _dirty[slot] = 0;
        touch(slot);
        if (line.orient == Orientation::Col)
            ++_validColLines;
        else
            ++_validRowLines;
        ++occSlot(line);
        if (_shadowEnabled)
            _shadow[_keys[slot]] = slot;
    }

    // ---- per-slot metadata ----

    bool dirty(StorageSlot slot) const { return _dirty[slot] != 0; }
    std::uint8_t dirtyMask(StorageSlot slot) const
    {
        return _dirty[slot];
    }
    void setDirtyMask(StorageSlot slot, std::uint8_t mask)
    {
        _dirty[slot] = mask;
    }

    bool prefetched(StorageSlot slot) const
    {
        return _prefetched[slot] != 0;
    }
    void setPrefetched(StorageSlot slot, bool p)
    {
        _prefetched[slot] = p ? 1 : 0;
    }

    // ---- data plane ----

    std::uint8_t *data(StorageSlot slot) { return _data[slot].data(); }
    const std::uint8_t *data(StorageSlot slot) const
    {
        return _data[slot].data();
    }

    std::uint64_t
    word(StorageSlot slot, unsigned k) const
    {
        std::uint64_t v;
        std::memcpy(&v, _data[slot].data() + k * wordBytes, wordBytes);
        return v;
    }

    void
    setWord(StorageSlot slot, unsigned k, std::uint64_t v,
            bool mark_dirty)
    {
        std::memcpy(_data[slot].data() + k * wordBytes, &v, wordBytes);
        if (mark_dirty)
            _dirty[slot] |= static_cast<std::uint8_t>(1u << k);
    }

    /**
     * Whether any valid line of orientation @p o and tile @p tile may
     * be resident. Tiles alias into a fixed table, so `true` can be a
     * false positive (caller probes and finds nothing) but `false` is
     * exact — the basis for skipping crossing-line probe sweeps.
     */
    bool
    mayHoldTileLines(Orientation o, std::uint64_t tile) const
    {
        const auto &occ = _tileOcc[o == Orientation::Col];
        return occ[tile & _occMask] != 0;
    }

    /** Currently valid column-oriented lines (Fig. 15 occupancy). */
    std::uint64_t validColLines() const { return _validColLines; }
    std::uint64_t validRowLines() const { return _validRowLines; }

    // ---- debug shadow map ----

    /**
     * Maintain an ordered key -> slot shadow map alongside the SoA
     * arrays (fuzz/debug only; not free). shadowViolations() then
     * cross-checks the two representations so any divergence —
     * a tag update that skipped the bookkeeping, a stale shadow
     * entry — surfaces as a named violation.
     */
    void
    enableShadow()
    {
        _shadowEnabled = true;
        _shadow.clear();
        for (StorageSlot s = 0;
             s < static_cast<StorageSlot>(_keys.size()); ++s)
            if (_keys[s] != invalidKey)
                _shadow[_keys[s]] = s;
    }

    bool shadowEnabled() const { return _shadowEnabled; }

    /** Divergence between the SoA tag array and the shadow map. */
    std::vector<std::string>
    shadowViolations() const
    {
        std::vector<std::string> violations;
        if (!_shadowEnabled)
            return violations;
        std::size_t live = 0;
        for (StorageSlot s = 0;
             s < static_cast<StorageSlot>(_keys.size()); ++s) {
            if (_keys[s] == invalidKey)
                continue;
            ++live;
            auto it = _shadow.find(_keys[s]);
            if (it == _shadow.end()) {
                violations.push_back(
                    "slot " + std::to_string(s) + " (key " +
                    std::to_string(_keys[s]) +
                    ") missing from the shadow map");
            } else if (it->second != s) {
                violations.push_back(
                    "key " + std::to_string(_keys[s]) +
                    " shadow-mapped to slot " +
                    std::to_string(it->second) + ", stored in slot " +
                    std::to_string(s));
            }
        }
        if (live != _shadow.size()) {
            violations.push_back(
                "shadow map holds " + std::to_string(_shadow.size()) +
                " keys, tag array holds " + std::to_string(live));
        }
        return violations;
    }

    // ---- test-only corruption hooks ----

    /** Mutable dirty mask (invariant-detection tests only). */
    std::uint8_t &testDirtyMask(StorageSlot slot)
    {
        return _dirty[slot];
    }

    /** Drop a frame WITHOUT bookkeeping (invariant-detection tests:
     *  occupancy counters and shadow map deliberately go stale). */
    void testCorruptInvalidate(StorageSlot slot)
    {
        _keys[slot] = invalidKey;
        _lru[slot] = 0;
    }

  private:
    static constexpr std::uint64_t invalidKey = ~std::uint64_t{0};

    std::uint32_t &
    occSlot(const OrientedLine &line)
    {
        return _tileOcc[line.orient == Orientation::Col]
                       [line.tile() & _occMask];
    }

    std::uint64_t _sets;
    unsigned _ways;
    /** Packed (id, orientation) tags; invalidKey marks a free frame. */
    std::vector<std::uint64_t> _keys;
    /** Recency stamps; 0 on invalid frames, live stamps start at 1. */
    std::vector<std::uint64_t> _lru;
    std::vector<std::uint8_t> _dirty;
    std::vector<std::uint8_t> _prefetched;
    /** Data plane, parallel to the metadata arrays. */
    std::vector<std::array<std::uint8_t, lineBytes>> _data;
    /** Tile-occupancy table size - 1: a power of two, 16 buckets per
     *  frame (at most 1/16 occupied) up to 2^16. Sized by capacity, a
     *  small cache does not zero 512 KiB when it is built. */
    std::uint64_t _occMask;
    /** Valid-line counts per (orientation, aliased tile); updated on
     *  install/invalidate only, so the counts are simulation state,
     *  never address-derived. */
    std::array<std::vector<std::uint32_t>, 2> _tileOcc;
    std::uint64_t _clock = 0;
    std::uint64_t _validColLines = 0;
    std::uint64_t _validRowLines = 0;
    /** std::map, not unordered_map: iterated by shadowViolations()
     *  into output (DET-2 ordered-iteration default). */
    std::map<std::uint64_t, StorageSlot> _shadow;
    bool _shadowEnabled = false;
};

/**
 * SoA set-associative array of sparse 512 B tile frames (the 2P2L
 * physically-2-D storage). Same layout discipline as LineStorage:
 * tile tags with an uncollidable invalid sentinel, recency stamps
 * doubling as the valid encoding, per-word presence/dirty masks and
 * the data plane in parallel vectors. Victim choice stays in
 * TileCache (it depends on MSHR fill pins).
 */
class TileStorage
{
  public:
    TileStorage(std::uint64_t num_sets, unsigned ways)
        : _sets(num_sets), _ways(ways),
          _tags(num_sets * ways, invalidTag),
          _lru(num_sets * ways, 0),
          _wordValid(num_sets * ways, 0),
          _wordDirty(num_sets * ways, 0),
          _data(num_sets * ways)
    {
        mda_assert(num_sets > 0 && ways > 0, "empty tile storage");
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned ways() const { return _ways; }

    StorageSlot
    slotOf(std::uint64_t set, unsigned way) const
    {
        mda_assert(set < _sets && way < _ways, "frame out of range");
        return static_cast<StorageSlot>(set * _ways + way);
    }

    bool valid(StorageSlot slot) const
    {
        return _tags[slot] != invalidTag;
    }

    std::uint64_t tile(StorageSlot slot) const
    {
        mda_assert(_tags[slot] != invalidTag,
                   "tile() on an invalid slot");
        return _tags[slot];
    }

    /** Find the valid slot holding @p tile in @p set. */
    StorageSlot
    find(std::uint64_t set, std::uint64_t tile) const
    {
        mda_assert(tile != invalidTag, "tile id collides with sentinel");
        const std::uint64_t *tags = &_tags[set * _ways];
        for (unsigned w = 0; w < _ways; ++w)
            if (tags[w] == tile)
                return static_cast<StorageSlot>(set * _ways + w);
        return kNoSlot;
    }

    /**
     * find() plus, on a miss, the unpinned victim choice in the same
     * sweep of @p set: the first invalid frame, else the LRU frame.
     * (Pinning is a timed-mode concern; TileCache::allocFrame chooses
     * its own victim.)
     */
    SetProbe
    probe(std::uint64_t set, std::uint64_t tile) const
    {
        mda_assert(tile != invalidTag, "tile id collides with sentinel");
        return probeSet(&_tags[set * _ways], &_lru[set * _ways], _ways,
                        tile, slotOf(set, 0));
    }

    void touch(StorageSlot slot) { _lru[slot] = ++_clock; }
    std::uint64_t lruStamp(StorageSlot slot) const
    {
        return _lru[slot];
    }

    /** Claim @p slot (must be free) for @p tile: empty masks, zeroed
     *  data, recency touched. */
    void
    installFrame(StorageSlot slot, std::uint64_t tile)
    {
        mda_assert(_tags[slot] == invalidTag,
                   "installing over a valid frame");
        _tags[slot] = tile;
        _wordValid[slot] = 0;
        _wordDirty[slot] = 0;
        _data[slot].fill(0);
        touch(slot);
    }

    /** Release @p slot: masks cleared, tag freed. */
    void
    invalidate(StorageSlot slot)
    {
        _tags[slot] = invalidTag;
        _lru[slot] = 0;
        _wordValid[slot] = 0;
        _wordDirty[slot] = 0;
    }

    std::uint64_t wordValid(StorageSlot slot) const
    {
        return _wordValid[slot];
    }
    std::uint64_t wordDirty(StorageSlot slot) const
    {
        return _wordDirty[slot];
    }
    void orWordValid(StorageSlot slot, std::uint64_t mask)
    {
        _wordValid[slot] |= mask;
    }
    void orWordDirty(StorageSlot slot, std::uint64_t mask)
    {
        _wordDirty[slot] |= mask;
    }

    std::uint64_t
    word(StorageSlot slot, unsigned bit) const
    {
        std::uint64_t v;
        std::memcpy(&v, _data[slot].data() + bit * wordBytes,
                    wordBytes);
        return v;
    }

    void
    setWord(StorageSlot slot, unsigned bit, std::uint64_t v)
    {
        std::memcpy(_data[slot].data() + bit * wordBytes, &v,
                    wordBytes);
    }

    // ---- test-only corruption hooks ----

    std::uint64_t &testWordValid(StorageSlot slot)
    {
        return _wordValid[slot];
    }
    std::uint64_t &testWordDirty(StorageSlot slot)
    {
        return _wordDirty[slot];
    }

  private:
    static constexpr std::uint64_t invalidTag = ~std::uint64_t{0};

    std::uint64_t _sets;
    unsigned _ways;
    /** Tile-id tags; invalidTag marks a free frame. */
    std::vector<std::uint64_t> _tags;
    /** Recency stamps; 0 on invalid frames, live stamps start at 1. */
    std::vector<std::uint64_t> _lru;
    /** Bit (r*8 + c): word (r, c) of the tile is present. */
    std::vector<std::uint64_t> _wordValid;
    /** Bit (r*8 + c): word (r, c) is dirty. */
    std::vector<std::uint64_t> _wordDirty;
    std::vector<std::array<std::uint8_t, tileBytes>> _data;
    std::uint64_t _clock = 0;
};

} // namespace mda

#endif // MDA_CACHE_STORAGE_HH
