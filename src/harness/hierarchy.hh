/**
 * @file
 * Hierarchy: the cache levels, the MDA main memory below them, the
 * packet pool they share, and the wiring between them, built from one
 * list of LevelSpecs. System, the fuzz oracle and the unit-test rig
 * all build their caches here; specsFor() is the one place a paper
 * design point turns into level shapes. Sampled runs fast-forward
 * through it too (fastForward(), a level pipeline).
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

class TraceCpu;
class WarmingPipeline;

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

    /** Joins the fast-forward threads, if they run. */
    ~Hierarchy();

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

    /**
     * cpu.fastForward(@p count), the sampled run's functional
     * fast-forward, with each level below L1 applying its share on
     * its own thread (see warming.hh). Every level sees the calls of
     * the synchronous walk in the same order and ends the stretch in
     * the same state. The first pipelined stretch starts the
     * threads; endWarming() joins them. With fewer than two levels,
     * or no free host threads for the helpers (HostThreads), this is
     * cpu.fastForward(@p count).
     */
    std::uint64_t fastForward(TraceCpu &cpu, std::uint64_t count);

    /** Helper threads fastForward() has running (0 or levels - 1). */
    std::size_t
    warmingThreads() const
    {
        return _warming ? _levels.size() - 1 : 0;
    }

    /** Join the fast-forward threads, if they run. */
    void endWarming();

  private:
    /** Declared first so the levels and the memory drop the packets
     *  they hold while the slabs are still alive. */
    PacketPool _pool;
    MdaMemory _memory;
    std::vector<std::unique_ptr<CacheBase>> _levels;

    /** Declared after the levels so its threads stop first. */
    std::unique_ptr<WarmingPipeline> _warming;
};

} // namespace mda

#endif // MDA_HARNESS_HIERARCHY_HH
