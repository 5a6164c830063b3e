/**
 * @file
 * BenchOptions::parse argument handling: a value-taking flag as the
 * final argv entry, or a malformed value, must die with a diagnostic,
 * never silently run the wrong configuration.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"

namespace mda::bench
{
namespace
{

BenchOptions
parseArgs(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return BenchOptions::parse(
        static_cast<int>(args.size()),
        const_cast<char **>(const_cast<const char **>(args.data())));
}

TEST(BenchOptions, ParsesFullCommandLine)
{
    auto opts = parseArgs({"--n", "64", "--jobs", "3", "--workloads",
                           "sgemm,htap1", "--stats-json", "out.json"});
    EXPECT_EQ(opts.n, 64);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.workloads,
              (std::vector<std::string>{"sgemm", "htap1"}));
    EXPECT_EQ(opts.statsJsonPath, "out.json");
}

TEST(BenchOptionsDeathTest, MissingValueIsFatal)
{
    // Each value-taking flag, dangling as the final argv entry.
    EXPECT_EXIT(parseArgs({"--n"}), testing::ExitedWithCode(1),
                "missing value for --n");
    EXPECT_EXIT(parseArgs({"--quick", "--workloads"}),
                testing::ExitedWithCode(1),
                "missing value for --workloads");
    EXPECT_EXIT(parseArgs({"--stats-json"}),
                testing::ExitedWithCode(1),
                "missing value for --stats-json");
    EXPECT_EXIT(parseArgs({"--debug-flags"}),
                testing::ExitedWithCode(1),
                "missing value for --debug-flags");
    EXPECT_EXIT(parseArgs({"--jobs"}), testing::ExitedWithCode(1),
                "missing value for --jobs");
}

TEST(BenchOptions, JobsAcceptsZero)
{
    // 0 is a count too: it asks for every hardware thread.
    EXPECT_EQ(parseArgs({"--jobs", "0"}).jobs, 0u);
}

TEST(BenchOptionsDeathTest, MalformedJobsIsFatal)
{
    // A sign, letters, a suffix, overflow, nothing: no worker count.
    for (const char *bad : {"-1", "abc", "4x", "99999999999", ""}) {
        EXPECT_EXIT(parseArgs({"--jobs", bad}),
                    testing::ExitedWithCode(1),
                    std::string("--jobs takes a worker count .*got '") +
                        bad + "'")
            << bad;
    }
}

TEST(BenchOptionsDeathTest, MalformedNumbersAreFatal)
{
    // Every numeric flag reads its whole value as a decimal.
    for (const char *flag : {"--n", "--stats-interval", "--sample-period",
                             "--sample-window"}) {
        for (const char *bad : {"abc", "64x", "-8", "1e3", ""}) {
            EXPECT_EXIT(parseArgs({flag, bad}), testing::ExitedWithCode(1),
                        std::string(flag) +
                            " takes a decimal number, got '" + bad + "'")
                << flag << " " << bad;
        }
    }
}

TEST(BenchOptionsDeathTest, UnwritableStatsOutputIsFatalBeforeRunning)
{
    // Fatal when the runner is built, before any cell could run.
    EXPECT_EXIT(CellRunner(parseArgs(
                    {"--stats-json", "/nonexistent/dir/x.json"})),
                testing::ExitedWithCode(1),
                "cannot write stats JSON: /nonexistent/dir/x.json");
    EXPECT_EXIT(CellRunner(parseArgs(
                    {"--stats-interval", "5000", "--stats-jsonl",
                     "/nonexistent/dir/x.jsonl"})),
                testing::ExitedWithCode(1),
                "cannot write stats JSONL: /nonexistent/dir/x.jsonl");
}

TEST(BenchOptions, TraceFlagsSetModeAndDirectory)
{
    auto capture = parseArgs({"--trace-capture", "traces"});
    EXPECT_EQ(capture.traceCaptureDir, "traces");
    auto spec = capture.spec("sgemm", DesignPoint::D1_1P2L);
    EXPECT_EQ(spec.system.traceMode, TraceMode::Capture);
    EXPECT_EQ(spec.system.traceDir, "traces");

    auto replay = parseArgs({"--trace-replay", "traces"});
    spec = replay.spec("sgemm", DesignPoint::D1_1P2L);
    EXPECT_EQ(spec.system.traceMode, TraceMode::Replay);
    EXPECT_EQ(spec.system.traceDir, "traces");
}

TEST(BenchOptionsDeathTest, CaptureAndReplayAreExclusive)
{
    EXPECT_EXIT(parseArgs({"--trace-capture", "a", "--trace-replay",
                           "b"}),
                testing::ExitedWithCode(1), "mutually exclusive");
    EXPECT_EXIT(parseArgs({"--trace-capture"}),
                testing::ExitedWithCode(1),
                "missing value for --trace-capture");
    EXPECT_EXIT(parseArgs({"--trace-replay"}),
                testing::ExitedWithCode(1),
                "missing value for --trace-replay");
}

TEST(BenchOptionsDeathTest, BadDimensionIsFatal)
{
    EXPECT_EXIT(parseArgs({"--n", "12"}), testing::ExitedWithCode(1),
                "multiple of 8");
}

TEST(BenchOptionsDeathTest, TracingRefusesExplicitParallelism)
{
    EXPECT_EXIT(parseArgs({"--debug-flags", "Cache", "--jobs", "4"}),
                testing::ExitedWithCode(1), "requires --jobs 1");
}

TEST(BenchOptions, TracingDowngradesImplicitParallelism)
{
    // In a child process so the enabled flag cannot leak into other
    // tests (EXPECT_EXIT forks).
    EXPECT_EXIT(
        {
            auto opts = parseArgs({"--debug-flags", "Cache"});
            std::exit(opts.jobs == 1 ? 0 : 1);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace mda::bench
