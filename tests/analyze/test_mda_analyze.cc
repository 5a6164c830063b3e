/**
 * @file
 * Self-tests for the mda-analyze tokenizer engine: every rule has a
 * violation fixture with golden finding assertions, a suppressed
 * fixture (reasoned allows, must analyze clean), and a clean fixture
 * pinning the sanctioned patterns from the real tree so the analyzer
 * can never regress into flagging them. The interprocedural pair
 * proves release summaries cross translation-unit boundaries. The
 * binary path and fixture dir come from CMake via MDA_ANALYZE_BIN /
 * MDA_ANALYZE_FIXTURES.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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
    std::string cmd =
        std::string(MDA_ANALYZE_BIN) + " " + args + " 2>&1";
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

std::string
fixture(const std::string &name)
{
    return std::string(MDA_ANALYZE_FIXTURES) + "/" + name;
}

/** Analyze one or more fixtures (space-separated names). */
RunResult
analyzeFixtures(const std::string &names)
{
    std::string args = "--root " + std::string(MDA_SOURCE_ROOT);
    std::string rest = names;
    while (!rest.empty()) {
        std::size_t sp = rest.find(' ');
        args += " " + fixture(rest.substr(0, sp));
        rest = sp == std::string::npos ? "" : rest.substr(sp + 1);
    }
    return run(args);
}

/** Golden assertion: the output contains "<file>:<line>: [<rule>]". */
void
expectFinding(const RunResult &r, const std::string &file, int line,
              const std::string &rule)
{
    std::string needle =
        file + ":" + std::to_string(line) + ": [" + rule + "]";
    EXPECT_NE(r.output.find(needle), std::string::npos)
        << "missing finding '" << needle << "' in:\n" << r.output;
}

int
countFindings(const RunResult &r, const std::string &rule)
{
    std::string needle = "[" + rule + "]";
    int n = 0;
    for (std::size_t pos = 0;
         (pos = r.output.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
        ++n;
    }
    return n;
}

const std::string fixprefix = "tests/analyze/fixtures/";

// ---------------------------------------------------------------------
// LIF-1: double release / leak.

TEST(MdaAnalyze, Lif1CatchesDoubleReleaseDiscardAndLeak)
{
    RunResult r = analyzeFixtures("lif1_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "lif1_violation.cc";
    expectFinding(r, f, 12, "LIF-1"); // Second pool.release(raw).
    expectFinding(r, f, 18, "LIF-1"); // Discarded .release() result.
    expectFinding(r, f, 26, "LIF-1"); // Leak on the early return.
    EXPECT_EQ(countFindings(r, "LIF-1"), 3) << r.output;
}

TEST(MdaAnalyze, Lif1CrossesTranslationUnits)
{
    // The acceptance case: the caller unwraps the packet, drain() —
    // defined in the OTHER file — releases it, and the caller's
    // second release is flagged via drain()'s summary.
    RunResult r = analyzeFixtures(
        "lif1_interproc.cc lif1_interproc_sink.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    expectFinding(r, fixprefix + "lif1_interproc.cc", 15, "LIF-1");
    // callerClean (one hand-off) and the sink file itself are clean.
    EXPECT_EQ(countFindings(r, "LIF-1"), 1) << r.output;
}

TEST(MdaAnalyze, Lif1InterprocNeedsTheCalleeFile)
{
    // Without the sink file, drain() has no summary: the analyzer
    // must assume it took ownership and stay quiet (conservative).
    RunResult r = analyzeFixtures("lif1_interproc.cc");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

// ---------------------------------------------------------------------
// LIF-2: use-after-release.

TEST(MdaAnalyze, Lif2CatchesUseAfterRelease)
{
    RunResult r = analyzeFixtures("lif2_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "lif2_violation.cc";
    expectFinding(r, f, 11, "LIF-2"); // raw->addr after release.
    expectFinding(r, f, 20, "LIF-2"); // Released on one path only.
    EXPECT_EQ(countFindings(r, "LIF-2"), 2) << r.output;
}

// ---------------------------------------------------------------------
// LIF-3: escaping reference captures.

TEST(MdaAnalyze, Lif3CatchesReferenceCapturesInCallbacks)
{
    RunResult r = analyzeFixtures("lif3_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "lif3_violation.cc";
    expectFinding(r, f, 20, "LIF-3"); // [&] into schedule().
    expectFinding(r, f, 27, "LIF-3"); // [&hits] into scheduleAfter().
    expectFinding(r, f, 34, "LIF-3"); // [&state] into InlineCallback.
    EXPECT_EQ(countFindings(r, "LIF-3"), 3) << r.output;
}

// ---------------------------------------------------------------------
// CONC-1: mutable statics.

TEST(MdaAnalyze, Conc1CatchesEveryMutableStaticShape)
{
    RunResult r = analyzeFixtures("conc1_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "conc1_violation.cc";
    expectFinding(r, f, 10, "CONC-1"); // Namespace-scope int.
    expectFinding(r, f, 11, "CONC-1"); // Namespace-scope string.
    expectFinding(r, f, 13, "CONC-1"); // extern mutable.
    expectFinding(r, f, 20, "CONC-1"); // Function-local static.
    expectFinding(r, f, 27, "CONC-1"); // Static object.
    expectFinding(r, f, 33, "CONC-1"); // Class static.
    EXPECT_EQ(countFindings(r, "CONC-1"), 6) << r.output;
}

// ---------------------------------------------------------------------
// CONC-2: sweep-worker confinement.

TEST(MdaAnalyze, Conc2CatchesSharedWritesFromWorkers)
{
    RunResult r = analyzeFixtures("conc2_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "conc2_violation.cc";
    expectFinding(r, f, 26, "CONC-2"); // Member scalar write.
    expectFinding(r, f, 27, "CONC-2"); // Member container write.
    expectFinding(r, f, 35, "CONC-2"); // Via called method (depth 1).
    expectFinding(r, f, 45, "CONC-2"); // By-ref captured accumulator.
    expectFinding(r, f, 64, "CONC-2"); // The same, via forEach(cells).
    EXPECT_EQ(countFindings(r, "CONC-2"), 5) << r.output;
}

// ---------------------------------------------------------------------
// CONC-3: non-atomic RMW of atomics.

TEST(MdaAnalyze, Conc3CatchesNonAtomicRmw)
{
    RunResult r = analyzeFixtures("conc3_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "conc3_violation.cc";
    expectFinding(r, f, 12, "CONC-3"); // counter = counter + 1.
    expectFinding(r, f, 18, "CONC-3"); // store(load()).
    EXPECT_EQ(countFindings(r, "CONC-3"), 2) << r.output;
}

// ---------------------------------------------------------------------
// Clean fixtures: the sanctioned patterns must never be flagged.

TEST(MdaAnalyze, CleanFixturesProduceNoFindings)
{
    for (const char *name :
         {"lif1_clean.cc", "lif2_clean.cc", "lif3_clean.cc",
          "conc1_clean.cc", "conc2_clean.cc", "conc3_clean.cc"}) {
        RunResult r = analyzeFixtures(name);
        EXPECT_EQ(r.exitCode, 0) << name << ":\n" << r.output;
        EXPECT_NE(r.output.find("mda-analyze: clean"),
                  std::string::npos)
            << name << ":\n" << r.output;
    }
}

// ---------------------------------------------------------------------
// Suppression: reasoned allows waive findings and count as used.

TEST(MdaAnalyze, SuppressedFixturesAnalyzeClean)
{
    for (const char *name :
         {"lif1_suppressed.cc", "lif2_suppressed.cc",
          "lif3_suppressed.cc", "conc1_suppressed.cc",
          "conc2_suppressed.cc", "conc3_suppressed.cc"}) {
        RunResult r = analyzeFixtures(name);
        EXPECT_EQ(r.exitCode, 0) << name << ":\n" << r.output;
        EXPECT_EQ(countFindings(r, "SUP-1"), 0)
            << name << ":\n" << r.output;
    }
}

TEST(MdaAnalyze, Sup1FlagsStaleUnreasonedAndUnknownAllows)
{
    RunResult r = analyzeFixtures("stale_allow.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "stale_allow.cc";
    expectFinding(r, f, 11, "SUP-1"); // Reasoned allow, no finding.
    expectFinding(r, f, 15, "SUP-1"); // Allow without a reason.
    expectFinding(r, f, 18, "SUP-1"); // LIF-9: unknown rule.
    EXPECT_EQ(countFindings(r, "SUP-1"), 3) << r.output;
}

// ---------------------------------------------------------------------
// Baselines: line-number-free grandfathering with staleness checks.

TEST(MdaAnalyze, BaselineRoundTrip)
{
    std::string baseline =
        ::testing::TempDir() + "/mda_analyze_baseline.txt";
    RunResult w = run("--root " + std::string(MDA_SOURCE_ROOT) +
                      " --write-baseline " + baseline + " " +
                      fixture("conc1_violation.cc"));
    EXPECT_EQ(w.exitCode, 1) << w.output;

    RunResult r = run("--root " + std::string(MDA_SOURCE_ROOT) +
                      " --baseline " + baseline + " " +
                      fixture("conc1_violation.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("baseline-suppressed"),
              std::string::npos)
        << r.output;
    std::remove(baseline.c_str());
}

TEST(MdaAnalyze, StaleBaselineEntriesError)
{
    // A baseline entry matching nothing must fail the run loudly,
    // not silently pass.
    std::string baseline =
        ::testing::TempDir() + "/mda_analyze_stale_baseline.txt";
    {
        std::ofstream out(baseline);
        out << "CONC-1\tno/such/file.cc\tghost\n";
    }
    RunResult r = run("--root " + std::string(MDA_SOURCE_ROOT) +
                      " --baseline " + baseline + " " +
                      fixture("conc1_clean.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("stale baseline entry"),
              std::string::npos)
        << r.output;
    std::remove(baseline.c_str());
}

// ---------------------------------------------------------------------
// Driver plumbing.

TEST(MdaAnalyze, ListRulesNamesEveryFamily)
{
    RunResult r = run("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    for (const char *rule : {"LIF-1", "LIF-2", "LIF-3", "CONC-1",
                             "CONC-2", "CONC-3", "SUP-1"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "missing " << rule << " in:\n" << r.output;
    }
}

TEST(MdaAnalyze, UnknownOptionFailsFast)
{
    RunResult r = run("--no-such-option");
    EXPECT_EQ(r.exitCode, 2) << r.output;
}

} // namespace
