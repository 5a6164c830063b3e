/**
 * @file
 * End-to-end checks of the mda_fuzz binary: out-of-range and unknown
 * CLI values must fail fast with an explanatory fatal(), and a tiny
 * clean campaign must exit 0. The binary path comes from CMake via
 * MDA_FUZZ_BIN.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace
{

struct RunResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr
};

RunResult
run(const std::string &args)
{
    std::string cmd = std::string(MDA_FUZZ_BIN) + " " + args + " 2>&1";
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return r;
    }
    char buf[512];
    while (fgets(buf, sizeof(buf), pipe))
        r.output += buf;
    int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

void
expectFatal(const std::string &args, const std::string &needle)
{
    RunResult r = run(args);
    EXPECT_EQ(r.exitCode, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(needle), std::string::npos)
        << args << " output:\n" << r.output;
}

TEST(FuzzCli, RejectsOutOfRangeValues)
{
    expectFatal("--iterations 0", "--iterations must be in");
    expectFatal("--iterations 1000001", "--iterations must be in");
    expectFatal("--jobs 2000", "--jobs must be in");
    expectFatal("--max-ops 0", "--max-ops must be in");
    expectFatal("--max-tiles 65", "--max-tiles must be in");
    expectFatal("--shrink-runs 100001", "--shrink-runs must be in");
    expectFatal("--min-ops 50 --max-ops 10", "exceeds --max-ops");
}

TEST(FuzzCli, RejectsMalformedOptions)
{
    expectFatal("--bogus-flag", "unknown option");
    expectFatal("--seed", "missing value");
    expectFatal("--designs NoSuchDesign", "unknown design point");
    // Numbers are whole decimals: no silent seed 0, no dropped suffix.
    expectFatal("--seed abc", "--seed takes a decimal number, got 'abc'");
    expectFatal("--start 0x10", "--start takes a decimal number");
    expectFatal("--iterations 2x", "--iterations takes a decimal number");
    expectFatal("--jobs 1x", "--jobs takes a decimal number, got '1x'");
    expectFatal("--jobs -1", "--jobs takes a decimal number");
    expectFatal("--max-ops ''", "--max-ops takes a decimal number");
}

TEST(FuzzCli, RejectsDeferredDesign3)
{
    expectFatal("--designs 2P2L_L1", "deferred");
}

TEST(FuzzCli, TinyCampaignRunsClean)
{
    RunResult r =
        run("--seed 3 --iterations 2 --max-ops 24 --min-ops 8");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("2 iteration(s) clean"),
              std::string::npos)
        << r.output;
}

TEST(FuzzCli, MissingReproFileIsFatal)
{
    expectFatal("--repro-file /nonexistent/path.repro", "repro");
}

} // namespace
