#include "hierarchy.hh"

#include "trace_cpu.hh"
#include "warming.hh"

namespace mda
{

std::string
levelName(std::size_t idx)
{
    return "l" + std::to_string(idx + 1);
}

std::vector<LevelSpec>
specsFor(const SystemConfig &config,
         const std::vector<CacheConfig> &caches)
{
    const DesignPoint d = config.design;
    const bool tile_llc = (d == DesignPoint::D2_2P2L ||
                           d == DesignPoint::D2_2P2L_Dense);
    const bool prefetch =
        (d == DesignPoint::D0_1P1L && config.prefetchDegree > 0);
    std::vector<LevelSpec> specs;
    for (std::size_t n = 0; n < caches.size(); ++n) {
        LevelSpec spec;
        spec.name = levelName(n);
        spec.cache = caches[n];
        bool is_llc = (n + 1 == caches.size());
        if (prefetch && !is_llc) {
            spec.cache.prefetch = true;
            spec.cache.prefetchDegree = config.prefetchDegree;
        }
        if (config.gatherHits && n > 0)
            spec.cache.gatherHits = true;
        if (d == DesignPoint::D0_1P1L)
            spec.mapping = LineMapping::OneD;
        else if (d == DesignPoint::D1_1P2L_SameSet)
            spec.mapping = LineMapping::TwoDSameSet;
        spec.tile = is_llc && tile_llc;
        if (d == DesignPoint::D2_2P2L_Dense)
            spec.fill = TileFillPolicy::Dense;
        spec.tileWritePenalty = config.tileWritePenalty;
        specs.push_back(std::move(spec));
    }
    return specs;
}

Hierarchy::Hierarchy(EventQueue &eq, stats::StatGroup &sg,
                     const std::vector<LevelSpec> &specs,
                     const MemTimingParams &timing,
                     const MemTopologyParams &topo)
    : _memory("mem", eq, sg, timing, topo)
{
    _memory.setPacketPool(&_pool);
    for (const LevelSpec &spec : specs) {
        std::unique_ptr<CacheBase> cache;
        if (spec.tile) {
            auto tile = std::make_unique<TileCache>(
                spec.name, eq, sg, spec.cache, spec.fill);
            tile->setWritePenalty(spec.tileWritePenalty);
            cache = std::move(tile);
        } else {
            auto line = std::make_unique<LineCache>(
                spec.name, eq, sg, spec.cache, spec.mapping);
            if (spec.shadowAudit)
                line->storage().enableShadow();
            cache = std::move(line);
        }
        cache->setPacketPool(&_pool);
        _levels.push_back(std::move(cache));
    }
    // Wire the chain: levels[0] -> ... -> levels[n-1] -> memory.
    for (std::size_t n = 0; n < _levels.size(); ++n) {
        MemDevice *below =
            (n + 1 < _levels.size())
                ? static_cast<MemDevice *>(_levels[n + 1].get())
                : static_cast<MemDevice *>(&_memory);
        _levels[n]->setDownstream(below);
        below->setUpstream(_levels[n].get());
    }
}

Hierarchy::~Hierarchy() = default;

void
Hierarchy::regProbes(probe::ProbeManager &pm)
{
    for (auto &cache : _levels)
        cache->regProbes(pm);
    _memory.regProbes(pm);
}

std::uint64_t
Hierarchy::fastForward(TraceCpu &cpu, std::uint64_t count)
{
    if (_levels.size() < 2)
        return cpu.fastForward(count);
    HostThreads helpers(static_cast<unsigned>(_levels.size()) - 1, true);
    if (!helpers.held())
        return cpu.fastForward(count);
    if (!_warming)
        _warming = std::make_unique<WarmingPipeline>(_levels);
    return _warming->fastForward(cpu, count);
}

void
Hierarchy::endWarming()
{
    _warming.reset();
}

} // namespace mda
