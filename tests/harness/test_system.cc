/** @file Tests for system assembly and the run loop. */

#include <gtest/gtest.h>

#include "harness/runner.hh"

namespace mda
{
namespace
{

RunSpec
tinySpec(DesignPoint design, const std::string &workload = "sgemm")
{
    RunSpec spec;
    spec.workload = workload;
    spec.n = 16;
    spec.system.design = design;
    spec.system.checkData = true;
    return spec;
}

TEST(System, BaselineRunsClean)
{
    auto result = runOne(tinySpec(DesignPoint::D0_1P1L));
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ops, 0u);
    EXPECT_EQ(result.checkFailures, 0u);
    EXPECT_GT(result.l1HitRate, 0.5);
}

TEST(System, AllDesignPointsRunClean)
{
    for (auto design :
         {DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
          DesignPoint::D1_1P2L_SameSet, DesignPoint::D2_2P2L}) {
        auto result = runOne(tinySpec(design));
        EXPECT_GT(result.cycles, 0u) << designName(design);
        EXPECT_EQ(result.checkFailures, 0u) << designName(design);
    }
}

TEST(SystemDeathTest, Design3IsDeferred)
{
    // Design 3 has no DesignPoint: the one design-name parser (the
    // CLI's and the fuzzer's) rejects its name.
    DesignPoint d;
    EXPECT_EXIT(designFromName("2P2L_L1", d),
                ::testing::ExitedWithCode(1), "future work");
}

TEST(System, TwoLevelHierarchy)
{
    RunSpec spec = tinySpec(DesignPoint::D1_1P2L);
    spec.system.threeLevel = false;
    auto result = runOne(spec);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_EQ(result.checkFailures, 0u);
}

TEST(System, OccupancySamplingProducesSeries)
{
    RunSpec spec = tinySpec(DesignPoint::D1_1P2L);
    spec.system.occupancySamplePeriod = 100;
    PreparedRun run(spec);
    run.system.run();
    const auto &series =
        run.system.statGroup().timeSeries("l1.colOccupancy");
    EXPECT_GT(series.points().size(), 2u);
    bool nonzero = false;
    for (const auto &point : series.points())
        nonzero |= (point.second > 0.0);
    EXPECT_TRUE(nonzero); // sgemm keeps some columns resident
}

TEST(System, ScaledConfigPreservesRatios)
{
    SystemConfig cfg;
    cfg.l1Size = 32 * 1024;
    cfg.l2Size = 256 * 1024;
    cfg.l3Size = 1024 * 1024;
    auto scaled = cfg.scaledForInput(128); // factor 16
    EXPECT_EQ(scaled.l1Size, 4096u); // clamped at the 4 KiB floor
    EXPECT_EQ(scaled.l2Size, 16u * 1024);
    EXPECT_EQ(scaled.l3Size, 64u * 1024);
    // Paper-size inputs are unscaled.
    auto full = cfg.scaledForInput(512);
    EXPECT_EQ(full.l3Size, 1024u * 1024);
}

TEST(System, WritePenaltyOnlyAffects2P2L)
{
    RunSpec spec = tinySpec(DesignPoint::D2_2P2L);
    spec.system.checkData = false;
    spec.n = 32;
    auto base = runOne(spec);
    spec.system.tileWritePenalty = 20;
    auto slow = runOne(spec);
    EXPECT_GE(slow.cycles, base.cycles);
}

TEST(System, FasterMemoryReducesCycles)
{
    RunSpec spec = tinySpec(DesignPoint::D0_1P1L);
    spec.system.checkData = false;
    spec.n = 32;
    auto base = runOne(spec);
    spec.system.memTiming = MemTimingParams::sttFast();
    auto fast = runOne(spec);
    EXPECT_LT(fast.cycles, base.cycles);
}

TEST(System, RunResultFieldsPopulated)
{
    auto result = runOne(tinySpec(DesignPoint::D1_1P2L));
    EXPECT_GT(result.llcAccesses, 0u);
    EXPECT_GT(result.memBytes, 0u);
}

} // namespace
} // namespace mda
