/** @file Differential-oracle behaviour on clean and rejected inputs. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "fuzz/oracle.hh"
#include "fuzz/scenario.hh"

namespace mda::fuzz
{
namespace
{

GenLimits
smallLimits()
{
    GenLimits limits;
    limits.maxOps = 48;
    limits.minOps = 8;
    limits.maxTiles = 5;
    return limits;
}

TEST(Oracle, CleanModelPassesAcrossSeeds)
{
    OracleOptions opts;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        Scenario s = generateScenario(seed, smallLimits());
        auto failures = runOracle(s, opts);
        ASSERT_TRUE(failures.empty())
            << "seed " << seed << ": " << failureText(failures[0]);
    }
}

TEST(Oracle, BaselineApplicabilityTracksColumnVectors)
{
    Scenario s = generateScenario(17, smallLimits());
    s.trace.clear();
    TraceOp op;
    op.vector = true;
    op.orient = Orientation::Row;
    s.trace.push_back(op);
    EXPECT_TRUE(designApplicable(DesignPoint::D0_1P1L, s.trace));
    op.orient = Orientation::Col;
    s.trace.push_back(op);
    EXPECT_FALSE(designApplicable(DesignPoint::D0_1P1L, s.trace));
    // 2-D designs express anything.
    EXPECT_TRUE(designApplicable(DesignPoint::D1_1P2L, s.trace));
    EXPECT_TRUE(designApplicable(DesignPoint::D2_2P2L, s.trace));
}

TEST(OracleDeathTest, DeferredDesign3IsRejected)
{
    // A repro naming Design 3 never reaches the oracle: reading the
    // file rejects the design name.
    Scenario s = generateScenario(1, smallLimits());
    s.config.designs = {DesignPoint::D1_1P2L};
    std::string text = reproText(s);
    text.replace(text.find("designs 1P2L\n"), 12, "designs 2P2L_L1");
    std::string path = ::testing::TempDir() + "design3.repro";
    std::ofstream(path) << text;
    EXPECT_EXIT(readReproFile(path), ::testing::ExitedWithCode(1),
                "deferred");
    std::remove(path.c_str());
}

TEST(OracleDeathTest, InapplicableBaselineIsRejected)
{
    Scenario s = generateScenario(1, smallLimits());
    s.config.designs = {DesignPoint::D0_1P1L};
    TraceOp op;
    op.vector = true;
    op.orient = Orientation::Col;
    s.trace.push_back(op);
    OracleOptions opts;
    EXPECT_EXIT(runOracle(s, opts), ::testing::ExitedWithCode(1),
                "column vector");
}

TEST(OracleDeathTest, EmptyTraceIsRejected)
{
    Scenario s = generateScenario(1, smallLimits());
    s.trace.clear();
    OracleOptions opts;
    EXPECT_EXIT(runOracle(s, opts), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace mda::fuzz
