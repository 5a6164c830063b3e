/**
 * @file
 * LineCache: physically 1-D caches — the 1P1L baseline and the
 * paper's logically 2-D (1P2L) designs.
 *
 * The mapping mode selects the design point:
 *
 *  - OneD: conventional cache. Only row lines exist; column-preference
 *    annotations are ignored (the baseline ISA has no column ops) and
 *    an optional stride prefetcher may be attached.
 *
 *  - TwoDDiffSet: 1P2L with Different-Set mapping (paper Fig. 8 top).
 *    Row and column lines index different sets; the preferred
 *    orientation is probed first and cross-orientation checks cost
 *    extra sequential tag accesses (+1 for scalars, +8 for SIMD and
 *    for writes' duplicate eviction probes).
 *
 *  - TwoDSameSet: 1P2L with Same-Set mapping: all 16 lines of a tile
 *    share a set, so one set access sees both orientations (no extra
 *    probe latency) at the cost of heavier conflict pressure.
 *
 * Both 2-D modes implement the writeback-based duplicate-coherence
 * policy of Fig. 9 with per-word dirty bits:
 *   - duplicates (a word present in intersecting row and column lines)
 *     may coexist while every copy is clean;
 *   - a write evicts every other copy of the written word (dirty
 *     crossing words are written back first);
 *   - before a fill is requested, dirty crossing words are written
 *     back (Modified -> Clean) so the fill observes them downstream.
 */

#ifndef MDA_CORE_LINE_CACHE_HH
#define MDA_CORE_LINE_CACHE_HH

#include "cache/cache_base.hh"
#include "cache/prefetcher.hh"
#include "cache/storage.hh"
#include "sim/fastmod.hh"

namespace mda
{

/** Set-mapping / dimensionality mode of a LineCache. */
enum class LineMapping : std::uint8_t
{
    OneD,        ///< Baseline 1P1L.
    TwoDDiffSet, ///< 1P2L, rows/columns in different sets.
    TwoDSameSet, ///< 1P2L, a tile's 16 lines share one set.
};

/** Printable mapping name. */
constexpr const char *
mappingName(LineMapping m)
{
    switch (m) {
      case LineMapping::OneD: return "1P1L";
      case LineMapping::TwoDDiffSet: return "1P2L";
      case LineMapping::TwoDSameSet: return "1P2L_SameSet";
    }
    return "?";
}

/** Physically 1-D cache level (baseline or logically 2-D). */
class LineCache : public CacheBase
{
  public:
    LineCache(const std::string &name, EventQueue &eq,
              stats::StatGroup &sg, const CacheConfig &config,
              LineMapping mapping);

    LineMapping mapping() const { return _mapping; }

    /** Storage access for occupancy probes and tests. */
    LineStorage &storage() { return _storage; }
    const LineStorage &storage() const { return _storage; }

    /** The stride prefetcher (trained only when config().prefetch). */
    const StridePrefetcher &prefetcher() const { return _prefetcher; }

    /** Set index of @p line under this cache's mapping mode. */
    std::uint64_t
    setFor(const OrientedLine &line) const
    {
        // The baseline indexes conventionally (low line-address bits),
        // inheriting the classic pathology of power-of-two-strided
        // walks: a row-major matrix column maps to a few sets and
        // thrashes. The 2-D designs cannot index that way at all —
        // under the tiled layout consecutive lines of a logical row or
        // column differ by 8 in line id, and narrow workloads (the
        // HTAP fields) touch only a thin band of tile columns — so
        // they realize Fig. 8's composed index as a hash of the tile
        // ("index high") bits, spreading the intra-tile index in
        // Different-Set mode.
        if (_mapping == LineMapping::OneD)
            return _setMod.mod(line.id);
        std::uint64_t tile_hash =
            (line.tile() * 0x9e3779b97f4a7c15ULL) >> 24;
        if (_mapping == LineMapping::TwoDSameSet)
            return _setMod.mod(tile_hash);
        return _setMod.mod(tile_hash ^ (line.index() * 0x9e3779b9ULL));
    }

    /** Structural invariants (mda_fuzz hook): dirty bits only on
     *  valid entries, a dirty word exclusive within this level (no
     *  second copy — clean or dirty — in an intersecting line, the
     *  Fig. 9 write-evicts-duplicates policy), no duplicate entries
     *  for one oriented line, and orientation occupancy counters
     *  consistent with the frames. */
    std::vector<std::string> checkInvariants() const override;

    /** Fraction of valid lines that are column-oriented (Fig. 15). */
    double
    colOccupancy() const
    {
        return static_cast<double>(_storage.validColLines()) /
               static_cast<double>(_config.numLines());
    }

    /**
     * Sampled-simulation fast-forward: apply the access's state
     * effects (replacement, dirty bits, Fig. 9 duplicate coherence,
     * prefetcher training) synchronously, with no timing, MSHRs, or
     * statistics. Misses recurse into the downstream device.
     */
    void functionalAccess(const FunctionalReq &req) override;
    void functionalWriteback(const OrientedLine &line,
                             std::uint8_t mask) override;

  protected:
    void handleDemand(PacketPtr pkt) override;
    void handleWriteback(PacketPtr pkt) override;
    void handleFill(PacketPtr pkt) override;

  private:
    bool is2D() const { return _mapping != LineMapping::OneD; }
    bool chargesProbes() const
    {
        return _mapping == LineMapping::TwoDDiffSet;
    }

    /** Slot of @p line, or kNoSlot. */
    StorageSlot lookup(const OrientedLine &line);

    /** Write back @p slot's dirty words (partial) and mark it clean. */
    void writebackDirty(StorageSlot slot);

    /** Evict a valid slot: write back dirty words, invalidate. */
    void evict(StorageSlot slot);

    /**
     * Prepare the cache for writing/filling the words of @p line:
     * for each covered word, write back a dirty crossing copy
     * (Modified -> Clean) and, for words in @p written_mask,
     * invalidate the crossing copy entirely (write to duplicate).
     * Returns the number of tag probes performed.
     */
    unsigned prepareLine(const OrientedLine &line,
                         std::uint8_t covered_mask,
                         std::uint8_t written_mask);

    /** Fig. 9 dup actions for one crossing copy at @p slot. */
    void dupActions(StorageSlot slot, const OrientedLine &cross,
                    Addr word, bool written);

    /** Copy requested data out of @p slot into @p pkt's payload. */
    void copyOut(StorageSlot slot, Packet &pkt);

    /** Apply @p pkt's write data into @p slot (sets dirty bits). */
    void performWrite(StorageSlot slot, const Packet &pkt);

    /** Record a hit on a prefetched line. */
    void notePrefetchUse(StorageSlot slot);

    /** Feed the stride prefetcher and issue candidate fills. */
    void train(const Packet &pkt);

    // ---- functional (fast-forward) mirrors: state, no timing ----

    /** Evict @p slot, forwarding dirty words down functionally. */
    void functionalEvict(StorageSlot slot);

    /** prepareLine()'s state effects without probes or stats.
     *  Returns whether it invalidated any frame. */
    bool functionalDupSweep(const OrientedLine &line,
                            std::uint8_t covered_mask,
                            std::uint8_t written_mask);

    /** Fetch @p line (recursing down) and install it in @p victim,
     *  evicting the frame's occupant. */
    void functionalFill(const OrientedLine &line, StorageSlot victim);

    /** Gather-hit probe: if every word of @p mask sits in a crossing
     *  line, touch those sources and return true (no fill needed). */
    bool gatherTouch(const OrientedLine &line, std::uint8_t mask);

    LineMapping _mapping;
    LineStorage _storage;
    /** Reciprocal for the `% numSets` in setFor() — on the lookup
     *  hot path, and the set count need not be a power of two. */
    FastMod _setMod;
    StridePrefetcher _prefetcher;

    stats::Scalar _gatherHits;
    stats::Scalar _dupWritebacks;
    stats::Scalar _dupEvictions;
    stats::Scalar _fullLineWriteAllocs;
};

} // namespace mda

#endif // MDA_CORE_LINE_CACHE_HH
