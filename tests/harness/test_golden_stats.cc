/**
 * @file
 * Golden-stats pinning: the SoA metadata refactor must be invisible
 * in every statistic. The committed archives under tests/harness/
 * golden/ were captured from the pre-refactor (per-line-object)
 * build; this suite re-runs all 10 zoo+paper workloads through the
 * CellRunner archive path and asserts the emitted --stats-json bytes
 * match the goldens exactly — at --jobs 1 and at --jobs 4, on a
 * LineCache design and on the TileCache (2P2L) design. A second
 * suite pins the hierarchy-builder paths the paper designs leave
 * unexercised (GoldenVariants, three workloads each).
 *
 * Regenerating (only legitimate when a PR deliberately changes
 * simulated behavior or the stats schema):
 *
 *   MDA_UPDATE_GOLDEN=1 ./build/tests/harness/test_golden_stats
 *
 * writes fresh archives into the source tree; commit them with the
 * behavior change that motivated the refresh.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "workloads/kernels.hh"

namespace mda
{
namespace
{

#ifndef MDA_GOLDEN_DIR
#error "MDA_GOLDEN_DIR must point at tests/harness/golden"
#endif

/** All 10 workloads: the 7 paper kernels plus the serving zoo. */
std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &name : workloads::zooWorkloadNames())
        names.push_back(name);
    return names;
}

std::vector<RunSpec>
goldenSpecs(DesignPoint design,
            const std::vector<std::string> &workloads = allWorkloads())
{
    std::vector<RunSpec> specs;
    for (const auto &workload : workloads) {
        RunSpec spec;
        spec.workload = workload;
        // spmv's hot-column set needs n >= 32; one size for all keeps
        // the archive layout obvious.
        spec.n = 32;
        spec.system.design = design;
        specs.push_back(spec);
    }
    return specs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return {};
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Run @p specs through the archive sweep with @p jobs workers and
 *  return the archive's bytes. */
std::string
archiveBytes(const std::string &tag, const std::vector<RunSpec> &specs,
             unsigned jobs)
{
    std::string path = testing::TempDir() + "golden_archive_" + tag +
                       "_j" + std::to_string(jobs) + ".json";
    {
        bench::CellRunner runner(path, jobs);
        runner.warm(specs);
        for (const auto &spec : specs)
            runner(spec);
    } // archive written on destruction
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

bool
updateRequested()
{
    const char *env = std::getenv("MDA_UPDATE_GOLDEN");
    return env && std::string(env) != "0";
}

/** Expect the archive of @p specs at --jobs 1 and at --jobs 4 to
 *  equal the committed golden stats_<tag>_n32.json (or regenerate
 *  that golden when MDA_UPDATE_GOLDEN is set). */
void
expectGolden(const std::string &tag, const std::vector<RunSpec> &specs)
{
    std::string path =
        std::string(MDA_GOLDEN_DIR) + "/stats_" + tag + "_n32.json";
    std::string j1 = archiveBytes(tag, specs, 1);
    ASSERT_FALSE(j1.empty());

    if (updateRequested()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os.good()) << path;
        os << j1;
        GTEST_SKIP() << "golden regenerated: " << path;
    }

    std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden archive " << path
        << " (regenerate with MDA_UPDATE_GOLDEN=1)";

    EXPECT_EQ(golden, j1)
        << tag << ": jobs=1 archive diverged from the golden";

    std::string j4 = archiveBytes(tag, specs, 4);
    EXPECT_EQ(golden, j4)
        << tag << ": jobs=4 archive diverged from the golden";
}

class GoldenStats : public testing::TestWithParam<DesignPoint>
{
};

TEST_P(GoldenStats, ByteIdenticalAtJobs1AndJobs4)
{
    DesignPoint design = GetParam();
    expectGolden(designName(design), goldenSpecs(design));
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, GoldenStats,
    testing::Values(DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
                    DesignPoint::D1_1P2L_SameSet,
                    DesignPoint::D2_2P2L),
    [](const testing::TestParamInfo<DesignPoint> &param_info) {
        std::string name = designName(param_info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * Hierarchy shapes the four paper-design goldens never build: the
 * dense 2P2L fill and one knob per bench that turns it (fig13's
 * two-level hierarchy, gather hits, no prefetcher, no MSHR
 * coalescing, fig16's 2P2L write penalty). Three workloads each keep
 * the archives small.
 */
struct Variant
{
    const char *tag;
    DesignPoint design;
    void (*tweak)(SystemConfig &);
};

const Variant goldenVariants[] = {
    {"2P2L_Dense", DesignPoint::D2_2P2L_Dense, [](SystemConfig &) {}},
    {"1P2L_twoLevel", DesignPoint::D1_1P2L,
     [](SystemConfig &c) { c.threeLevel = false; }},
    {"1P2L_gatherHits", DesignPoint::D1_1P2L,
     [](SystemConfig &c) { c.gatherHits = true; }},
    {"1P1L_noPrefetch", DesignPoint::D0_1P1L,
     [](SystemConfig &c) { c.prefetchDegree = 0; }},
    {"1P1L_noMshrCoalescing", DesignPoint::D0_1P1L,
     [](SystemConfig &c) { c.disableMshrCoalescing = true; }},
    {"2P2L_writePenalty20", DesignPoint::D2_2P2L,
     [](SystemConfig &c) { c.tileWritePenalty = 20; }},
};

/** Print a variant by its tag: its pointers would make the test name
 *  differ from build to build. */
void
PrintTo(const Variant &v, std::ostream *os)
{
    *os << v.tag;
}

class GoldenVariants : public testing::TestWithParam<Variant>
{
};

TEST_P(GoldenVariants, ByteIdenticalAtJobs1AndJobs4)
{
    const Variant &v = GetParam();
    std::vector<RunSpec> specs =
        goldenSpecs(v.design, {"sgemm", "ssyrk", "kv"});
    for (RunSpec &spec : specs)
        v.tweak(spec.system);
    expectGolden(v.tag, specs);
}

INSTANTIATE_TEST_SUITE_P(
    BuilderPaths, GoldenVariants, testing::ValuesIn(goldenVariants),
    [](const testing::TestParamInfo<Variant> &param_info) {
        return std::string(param_info.param.tag);
    });

} // namespace
} // namespace mda
