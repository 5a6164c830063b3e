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
 * unexercised (GoldenVariants, three workloads each), and a third the
 * sampled runs' functional fast-forward (GoldenSampled).
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

#include <cstdint>
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
 *  equal the committed golden stats_<tag>_n<n>.json, n being the
 *  specs' input size (or regenerate that golden when
 *  MDA_UPDATE_GOLDEN is set). */
void
expectGolden(const std::string &tag, const std::vector<RunSpec> &specs)
{
    std::string path = std::string(MDA_GOLDEN_DIR) + "/stats_" + tag +
                       "_n" + std::to_string(specs.front().n) + ".json";
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

/**
 * Sampled runs: every fast-forward walk (the 1P1L prefetcher, 1P2L,
 * Same-Set, the 2P2L tile LLC) and a two-level hierarchy, at n=64
 * with a 1000-op period and a 100-op window. The IR kernels
 * fast-forward through dozens of stretches, and in every archive some
 * trace runs out inside a stretch, so a short last stretch is pinned
 * too.
 */
struct SampledShape
{
    const char *tag;
    DesignPoint design;
    bool threeLevel;
};

const SampledShape sampledShapes[] = {
    {"1P1L", DesignPoint::D0_1P1L, true},
    {"1P2L", DesignPoint::D1_1P2L, true},
    {"1P2L_SameSet", DesignPoint::D1_1P2L_SameSet, true},
    {"2P2L", DesignPoint::D2_2P2L, true},
    {"1P2L_twoLevel", DesignPoint::D1_1P2L, false},
};

void
PrintTo(const SampledShape &s, std::ostream *os)
{
    *os << s.tag;
}

constexpr std::uint64_t sampledPeriod = 1000;
constexpr std::uint64_t sampledWindow = 100;

/** The (windows, totalOps) pair of every cell's sampling meta (an
 *  escaped JSON string inside the archive). */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
samplingExtents(const std::string &archive)
{
    auto number_after = [&](const std::string &key,
                            std::size_t &pos) -> std::uint64_t {
        pos = archive.find(key, pos);
        if (pos == std::string::npos)
            return std::uint64_t{0};
        pos += key.size();
        return std::strtoull(archive.c_str() + pos, nullptr, 10);
    };
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    std::size_t pos = 0;
    while (true) {
        std::uint64_t windows = number_after("\\\"windows\\\":", pos);
        if (pos == std::string::npos)
            break;
        std::uint64_t total = number_after("\\\"totalOps\\\":", pos);
        if (pos == std::string::npos)
            break;
        out.emplace_back(windows, total);
    }
    return out;
}

class GoldenSampled : public testing::TestWithParam<SampledShape>
{
};

TEST_P(GoldenSampled, ByteIdenticalAtJobs1AndJobs4)
{
    const SampledShape &shape = GetParam();
    std::vector<RunSpec> specs =
        goldenSpecs(shape.design, {"sgemm", "ssyrk", "kv"});
    for (RunSpec &spec : specs) {
        spec.n = 64;
        spec.system.threeLevel = shape.threeLevel;
        spec.system.samplePeriod = sampledPeriod;
        spec.system.sampleWindow = sampledWindow;
    }
    expectGolden(std::string("sampled_") + shape.tag, specs);

    // The archive exercises what it claims to: the IR kernels run
    // dozens of stretches (kv's 2048 ops make two windows), and some
    // trace ends after a window, inside a stretch.
    std::string golden =
        readFile(std::string(MDA_GOLDEN_DIR) + "/stats_sampled_" +
                 shape.tag + "_n64.json");
    auto extents = samplingExtents(golden);
    ASSERT_EQ(extents.size(), specs.size());
    std::size_t long_cells = 0;
    bool ends_mid_stretch = false;
    for (auto [windows, total_ops] : extents) {
        long_cells += windows >= 20;
        ends_mid_stretch |=
            total_ops % sampledPeriod > 2 * sampledWindow;
    }
    EXPECT_GE(long_cells, 2u);
    EXPECT_TRUE(ends_mid_stretch);
}

INSTANTIATE_TEST_SUITE_P(
    FastForward, GoldenSampled, testing::ValuesIn(sampledShapes),
    [](const testing::TestParamInfo<SampledShape> &param_info) {
        return std::string(param_info.param.tag);
    });

} // namespace
} // namespace mda
