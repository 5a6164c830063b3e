/**
 * @file
 * Hierarchy: the cache levels, the MDA main memory below them, the
 * packet pool they share, and the wiring between them, built from one
 * list of LevelSpecs. System, the fuzz oracle and the unit-test rig
 * all build their caches here; specsFor() is the one place a paper
 * design point turns into level shapes.
 */

#ifndef MDA_HARNESS_HIERARCHY_HH
#define MDA_HARNESS_HIERARCHY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/line_cache.hh"
#include "core/tile_cache.hh"
#include "mem/mda_memory.hh"
#include "sim/packet_pool.hh"
#include "system_config.hh"

namespace mda
{

/** One cache level: name, geometry, and which cache realizes it. */
struct LevelSpec
{
    /** Stats and probe prefix ("l1", "llc", ...). */
    std::string name;
    CacheConfig cache;

    /** A 2P2L TileCache; otherwise a LineCache. */
    bool tile = false;

    /** Set mapping of a LineCache level. */
    LineMapping mapping = LineMapping::TwoDDiffSet;

    /** Fill policy and extra write latency (Fig. 16) of a TileCache
     *  level. */
    TileFillPolicy fill = TileFillPolicy::Sparse;
    Cycles tileWritePenalty = 0;

    /** LineCache level: every invariant sweep also audits the SoA tag
     *  arrays against the debug shadow map (the fuzz oracle's
     *  checks). */
    bool shadowAudit = false;
};

/** Name of level @p idx, CPU side first: "l1", "l2", ... */
std::string levelName(std::size_t idx);

/**
 * Levels "l1".."lN" realizing @p config's design point over @p caches
 * (CPU side first; the last is the LLC): the design's line mapping, a
 * sparse or dense 2P2L LLC carrying config.tileWritePenalty, stride
 * prefetching of config.prefetchDegree (0 = off) at the non-LLC levels
 * of the 1P1L baseline, and gather hits below L1 when
 * config.gatherHits.
 */
std::vector<LevelSpec> specsFor(const SystemConfig &config,
                                const std::vector<CacheConfig> &caches);

/** Caches over an MDA memory: specs[0] (CPU side) -> ... -> memory. */
class Hierarchy
{
  public:
    Hierarchy(EventQueue &eq, stats::StatGroup &sg,
              const std::vector<LevelSpec> &specs,
              const MemTimingParams &timing =
                  MemTimingParams::sttDefault(),
              const MemTopologyParams &topo = MemTopologyParams{});

    /** Where the CPU sends: the first level, or the memory itself
     *  when there are no levels. */
    MemDevice &
    top()
    {
        return _levels.empty() ? static_cast<MemDevice &>(_memory)
                               : *_levels.front();
    }

    /** Deliver top()'s responses and retries to @p cpu. */
    void attach(MemClient &cpu) { top().setUpstream(&cpu); }

    /** The levels, CPU side first. */
    const std::vector<std::unique_ptr<CacheBase>> &
    levels() const
    {
        return _levels;
    }

    /** Level @p idx as a LineCache / TileCache (nullptr if not one). */
    LineCache *
    lineCache(std::size_t idx) const
    {
        return dynamic_cast<LineCache *>(_levels[idx].get());
    }

    TileCache *
    tileCache(std::size_t idx) const
    {
        return dynamic_cast<TileCache *>(_levels[idx].get());
    }

    MdaMemory &memory() { return _memory; }
    PacketPool &pool() { return _pool; }

    /** Register every level's and the memory's packet-lifecycle probe
     *  points with @p pm. */
    void regProbes(probe::ProbeManager &pm);

  private:
    /** Declared first so the levels and the memory drop the packets
     *  they hold while the slabs are still alive. */
    PacketPool _pool;
    MdaMemory _memory;
    std::vector<std::unique_ptr<CacheBase>> _levels;
};

} // namespace mda

#endif // MDA_HARNESS_HIERARCHY_HH
