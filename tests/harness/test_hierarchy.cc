/** @file Tests for the one hierarchy builder: specsFor() and Hierarchy. */

#include <gtest/gtest.h>

#include "harness/hierarchy.hh"

namespace mda
{
namespace
{

std::vector<CacheConfig>
tableI()
{
    return {CacheConfig::l1D(), CacheConfig::l2(), CacheConfig::l3()};
}

TEST(SpecsFor, BaselinePrefetchesAboveTheLlc)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::D0_1P1L;
    cfg.prefetchDegree = 3;
    std::vector<LevelSpec> specs = specsFor(cfg, tableI());
    ASSERT_EQ(specs.size(), 3u);
    for (std::size_t n = 0; n < specs.size(); ++n) {
        EXPECT_EQ(specs[n].name, levelName(n));
        EXPECT_FALSE(specs[n].tile);
        EXPECT_EQ(specs[n].mapping, LineMapping::OneD);
        EXPECT_EQ(specs[n].cache.prefetch, n + 1 < specs.size());
    }
    EXPECT_EQ(specs[1].cache.prefetchDegree, 3u);

    cfg.prefetchDegree = 0; // the ablation's "no prefetcher"
    for (const LevelSpec &spec : specsFor(cfg, tableI()))
        EXPECT_FALSE(spec.cache.prefetch);
}

TEST(SpecsFor, OneP2LDesignsPickTheirMappingAndNeverPrefetch)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::D1_1P2L_SameSet;
    for (const LevelSpec &spec : specsFor(cfg, tableI())) {
        EXPECT_FALSE(spec.tile);
        EXPECT_EQ(spec.mapping, LineMapping::TwoDSameSet);
        EXPECT_FALSE(spec.cache.prefetch);
    }
    cfg.design = DesignPoint::D1_1P2L;
    for (const LevelSpec &spec : specsFor(cfg, tableI()))
        EXPECT_EQ(spec.mapping, LineMapping::TwoDDiffSet);
}

TEST(SpecsFor, TwoP2LDesignsEndInATileCache)
{
    SystemConfig cfg;
    cfg.tileWritePenalty = 20;
    for (auto [design, fill] :
         {std::pair{DesignPoint::D2_2P2L, TileFillPolicy::Sparse},
          std::pair{DesignPoint::D2_2P2L_Dense, TileFillPolicy::Dense}}) {
        cfg.design = design;
        std::vector<LevelSpec> specs =
            specsFor(cfg, {CacheConfig::l1D(), CacheConfig::l2()});
        ASSERT_EQ(specs.size(), 2u);
        EXPECT_FALSE(specs[0].tile);
        EXPECT_EQ(specs[0].mapping, LineMapping::TwoDDiffSet);
        EXPECT_TRUE(specs[1].tile);
        EXPECT_EQ(specs[1].fill, fill);
        EXPECT_EQ(specs[1].tileWritePenalty, 20u);
    }
}

TEST(SpecsFor, GatherHitsOnlyBelowL1)
{
    SystemConfig cfg;
    cfg.gatherHits = true;
    std::vector<LevelSpec> specs = specsFor(cfg, tableI());
    EXPECT_FALSE(specs[0].cache.gatherHits);
    EXPECT_TRUE(specs[1].cache.gatherHits);
    EXPECT_TRUE(specs[2].cache.gatherHits);
}

TEST(Hierarchy, BuildsEachSpecAsItsCache)
{
    EventQueue eq;
    stats::StatGroup sg;
    SystemConfig cfg;
    cfg.design = DesignPoint::D2_2P2L_Dense;
    cfg.tileWritePenalty = 7;
    Hierarchy hier(eq, sg, specsFor(cfg, tableI()));
    ASSERT_EQ(hier.levels().size(), 3u);
    EXPECT_EQ(&hier.top(),
              static_cast<MemDevice *>(hier.levels().front().get()));
    for (std::size_t n = 0; n < 2; ++n) {
        ASSERT_NE(hier.lineCache(n), nullptr);
        EXPECT_EQ(hier.tileCache(n), nullptr);
        EXPECT_EQ(hier.lineCache(n)->name(), levelName(n));
        EXPECT_EQ(hier.lineCache(n)->packetPool(), &hier.pool());
    }
    TileCache *llc = hier.tileCache(2);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->name(), "l3");
    EXPECT_EQ(llc->fillPolicy(), TileFillPolicy::Dense);
    EXPECT_EQ(llc->writePenalty(), 7u);
    EXPECT_EQ(hier.memory().packetPool(), &hier.pool());
}

TEST(Hierarchy, WithoutLevelsTheCpuTalksToMemory)
{
    EventQueue eq;
    stats::StatGroup sg;
    Hierarchy hier(eq, sg, {});
    EXPECT_TRUE(hier.levels().empty());
    EXPECT_EQ(&hier.top(), static_cast<MemDevice *>(&hier.memory()));
}

} // namespace
} // namespace mda
