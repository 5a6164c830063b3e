/** @file Scenario generation determinism and repro round trips. */

#include <gtest/gtest.h>

#include "fuzz/scenario.hh"

namespace mda::fuzz
{
namespace
{

GenLimits
smallLimits()
{
    GenLimits limits;
    limits.maxOps = 64;
    limits.minOps = 8;
    limits.maxTiles = 6;
    return limits;
}

TEST(Scenario, GenerationIsDeterministic)
{
    GenLimits limits = smallLimits();
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        Scenario a = generateScenario(seed, limits);
        Scenario b = generateScenario(seed, limits);
        EXPECT_EQ(reproText(a), reproText(b)) << "seed " << seed;
    }
}

TEST(Scenario, DifferentSeedsDiffer)
{
    GenLimits limits = smallLimits();
    EXPECT_NE(reproText(generateScenario(1, limits)),
              reproText(generateScenario(2, limits)));
}

TEST(Scenario, RespectsGenerationLimits)
{
    GenLimits limits = smallLimits();
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        Scenario s = generateScenario(seed, limits);
        EXPECT_GE(s.trace.size(), limits.minOps);
        EXPECT_LE(s.trace.size(), limits.maxOps);
        EXPECT_LE(s.config.tiles, limits.maxTiles);
        EXPECT_GE(s.config.levels.size(), 1u);
        EXPECT_LE(s.config.levels.size(), 3u);
        EXPECT_FALSE(s.config.designs.empty());
        for (const TraceOp &op : s.trace) {
            // Writes are always serialized: the generator never
            // batches one.
            if (op.write)
                EXPECT_FALSE(op.concurrent);
        }
    }
}

TEST(Scenario, ReproTextRoundTrips)
{
    GenLimits limits = smallLimits();
    for (std::uint64_t seed : {3ull, 7ull, 99ull, 12345ull}) {
        Scenario s = generateScenario(seed, limits);
        std::string text = reproText(s);
        Scenario back = parseRepro(text);
        EXPECT_EQ(reproText(back), text) << "seed " << seed;
        EXPECT_EQ(back.seed, s.seed);
        EXPECT_EQ(back.trace.size(), s.trace.size());
        EXPECT_EQ(back.config.designs, s.config.designs);
    }
}

TEST(Scenario, DesignFromNameCoversFigureNames)
{
    DesignPoint d;
    ASSERT_TRUE(designFromName("1P1L", d));
    EXPECT_EQ(d, DesignPoint::D0_1P1L);
    ASSERT_TRUE(designFromName("1P2L_SameSet", d));
    EXPECT_EQ(d, DesignPoint::D1_1P2L_SameSet);
    ASSERT_TRUE(designFromName("2P2L_Dense", d));
    EXPECT_EQ(d, DesignPoint::D2_2P2L_Dense);
    EXPECT_FALSE(designFromName("3P3L", d));
    EXPECT_FALSE(designFromName("", d));
}

using ScenarioDeath = Scenario;

TEST(ScenarioDeathTest, MalformedReproIsFatal)
{
    EXPECT_EXIT(parseRepro("not a repro at all\n"),
                ::testing::ExitedWithCode(1), "malformed repro");
}

TEST(ScenarioDeathTest, ReproWithoutDesignsIsFatal)
{
    Scenario s = generateScenario(5, smallLimits());
    std::string text = reproText(s);
    // Strip the designs line: structurally valid text, unusable input.
    std::string cut;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t eol = text.find('\n', pos);
        std::string line = text.substr(pos, eol - pos);
        if (line.rfind("designs", 0) != 0)
            cut += line + "\n";
        pos = eol + 1;
    }
    EXPECT_EXIT(parseRepro(cut), ::testing::ExitedWithCode(1),
                "malformed repro");
}

} // namespace
} // namespace mda::fuzz
