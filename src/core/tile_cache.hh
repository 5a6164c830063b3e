/**
 * @file
 * TileCache: the physically 2-D, logically 2-D (2P2L) sparse cache.
 *
 * Built on an on-chip MDA (crosspoint STT) array: the unit of
 * allocation is an 8x8-line 2-D block (512 B tile), but blocks fill
 * *sparsely* — one oriented line at a time, on demand — so the large
 * allocation unit does not force large transfers (paper Section IV,
 * "2P2L Sparse"). There is no data duplication and no orientation
 * metadata: a word is simply present or absent in the tile.
 *
 * Presence/dirtiness is tracked per word (a refinement of the paper's
 * 16 per-line valid bits, needed to absorb the partial writebacks the
 * 1P2L levels generate from per-word dirty bits). Writes validate
 * words directly — a writeback or store never forces a read fill, and
 * never-filled words elide writeback entirely: the paper's sparse
 * bandwidth advantages.
 *
 * Frames with in-flight fills are pinned (never chosen as victims) so
 * a fill can never resurrect stale data over newer evicted words.
 */

#ifndef MDA_CORE_TILE_CACHE_HH
#define MDA_CORE_TILE_CACHE_HH

#include <array>
#include <vector>

#include "cache/cache_base.hh"
#include "cache/storage.hh"
#include "sim/fastmod.hh"

namespace mda
{

/** Bit position of word (r, c) in a tile's 64-bit masks. */
constexpr unsigned
tileWordBit(unsigned row, unsigned col)
{
    return row * lineWords + col;
}

/** 64-bit tile mask covered by @p word_mask of @p line. */
constexpr std::uint64_t
tileMaskFor(const OrientedLine &line, std::uint8_t word_mask)
{
    std::uint64_t mask = 0;
    for (unsigned k = 0; k < lineWords; ++k) {
        if (!(word_mask & (1u << k)))
            continue;
        unsigned bit = (line.orient == Orientation::Row)
                           ? tileWordBit(line.index(), k)
                           : tileWordBit(k, line.index());
        mask |= (1ULL << bit);
    }
    return mask;
}

/** Fill policy of a 2P2L cache (paper Section IV-A taxonomy). */
enum class TileFillPolicy : std::uint8_t
{
    Sparse, ///< Fill one oriented line at a time, on demand.
    Dense,  ///< A miss streams the whole 2-D block ("all rows/columns
            ///  within the 2-D block will follow after the one
            ///  generating the initial miss").
};

/** Sparse or dense 2P2L cache level (the paper's Design 2 LLC). */
class TileCache : public CacheBase
{
  public:
    TileCache(const std::string &name, EventQueue &eq,
              stats::StatGroup &sg, const CacheConfig &config,
              TileFillPolicy fill = TileFillPolicy::Sparse);

    TileFillPolicy fillPolicy() const { return _fill; }

    /** Extra write latency for asymmetric on-chip NVM (Fig. 16). */
    void setWritePenalty(Cycles penalty) { _writePenalty = penalty; }
    Cycles writePenalty() const { return _writePenalty; }

    /** Frames (for tests). */
    std::uint64_t numSets() const { return _sets; }

    /** Presence-bit population (interval-stats occupancy gauge). */
    std::uint64_t presentWords() const { return _presentWords; }

    /** Set index of @p tile (hashed; exposed for tests). */
    std::uint64_t
    setFor(std::uint64_t tile) const
    {
        // Same index hashing rationale as LineCache::setFor: narrow
        // tile bands (HTAP fields) would otherwise collapse into a few
        // sets.
        return _setMod.mod((tile * 0x9e3779b97f4a7c15ULL) >> 24);
    }

    /** Structural invariants (mda_fuzz hook): presence/dirty masks
     *  zero on invalid frames, dirty bits only on present words,
     *  no duplicate frames for one tile, and the incremental
     *  presence-bit population equal to a full recount. */
    std::vector<std::string> checkInvariants() const override;

    /** Storage access for tests/fuzz corruption probes. */
    TileStorage &storage() { return _storage; }
    const TileStorage &storage() const { return _storage; }

    /**
     * Sampled-simulation fast-forward: apply the access's state
     * effects (frame replacement, word presence/dirty bits, sparse
     * fills, dense block streaming) synchronously, with no timing,
     * MSHRs, or statistics beyond the presence gauge.
     */
    void functionalAccess(const FunctionalReq &req) override;
    void functionalWriteback(const OrientedLine &line,
                             std::uint8_t mask) override;

  protected:
    void handleDemand(PacketPtr pkt) override;
    void handleWriteback(PacketPtr pkt) override;
    void handleFill(PacketPtr pkt) override;

  private:
    /** Slot of @p tile's frame, or kNoSlot. */
    StorageSlot find(std::uint64_t tile);

    /** True when any in-flight fill targets @p tile (frame pinned). */
    bool pinned(std::uint64_t tile) const;

    /**
     * Find-or-allocate the frame for @p tile; evicts an unpinned
     * victim if needed. Returns kNoSlot when every way is pinned.
     */
    StorageSlot allocFrame(std::uint64_t tile);

    /** Write back all dirty words (per-row partial writebacks) and
     *  invalidate the frame. */
    void evictFrame(StorageSlot slot);

    void copyOut(StorageSlot slot, Packet &pkt);
    void performWrite(StorageSlot slot, const Packet &pkt);

    /** Dense mode: stream the rest of @p line's block. */
    void streamBlock(const OrientedLine &line);

    /** Keep the running presence-bit population in sync (trace
     *  counter + wordsPresent stat) across validate/fill/evict. */
    void notePresenceDelta(std::int64_t delta);

    // ---- functional (fast-forward) mirrors: state, no timing ----

    /** allocFrame() without MSHR pinning (no fills are in flight),
     *  from @p probe, one sweep of @p tile's set. */
    StorageSlot functionalAllocFrame(std::uint64_t tile,
                                     const SetProbe &probe);

    /** Evict @p slot, forwarding dirty rows down functionally. */
    void functionalEvictFrame(StorageSlot slot);

    /** Fetch @p line below and validate its absent words. */
    void functionalFillLine(const OrientedLine &line, StorageSlot slot);

    std::uint64_t _sets;
    /** Reciprocal for the `% _sets` in setFor() (lookup hot path;
     *  tile-set counts need not be powers of two). */
    FastMod _setMod;
    TileFillPolicy _fill;
    TileStorage _storage;
    Cycles _writePenalty = 0;

    /** Valid (present) words across all frames, maintained
     *  incrementally for the presence-bit counter track. */
    std::uint64_t _presentWords = 0;

    stats::Scalar _denseBlockStreams;
    stats::Scalar _writeValidates;
    stats::Scalar _sparseLineFills;
    stats::Scalar _writebackBytesElided;
    stats::Scalar _frameEvictions;
    stats::Scalar _wordsPresent;
};

} // namespace mda

#endif // MDA_CORE_TILE_CACHE_HH
