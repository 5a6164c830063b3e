/**
 * @file
 * The level-pipelined fast-forward (Hierarchy::fastForward) against
 * the synchronous walk (TraceCpu::fastForward): after the same
 * stretches, every level of a pipelined System holds exactly the warm
 * state of its synchronous twin (warm_state.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/runner.hh"
#include "harness/warming.hh"
#include "warm_state.hh"
#include "workloads/kernels.hh"

namespace mda
{
namespace
{

/** A stretch length that means "the rest of the trace". */
constexpr std::uint64_t rest = ~std::uint64_t{0};

/**
 * Run @p spec's stream on a pipelined System and on a synchronous
 * twin in the same stretches, comparing their warm state after each
 * one: a zero-op stretch, 64 one-op stretches, then 64ths of
 * the trace until it runs out, and stretches after that.
 */
void
expectSameWarmState(const RunSpec &spec)
{
    const std::uint64_t slice =
        std::max<std::uint64_t>(streamLengthHint(spec) / 64, 1);
    std::vector<std::uint64_t> plan(65, 1);
    plan.front() = 0;

    PreparedRun piped(spec);
    PreparedRun plain(spec);
    Hierarchy &hier = piped.system.hierarchy();
    std::uint64_t total = 0;
    for (std::size_t s = 0;; ++s) {
        std::uint64_t ops = s < plan.size() ? plan[s] : slice;
        std::uint64_t applied = hier.fastForward(piped.system.cpu(), ops);
        ASSERT_EQ(applied, plain.system.cpu().fastForward(ops));
        total += applied;
        test::WarmStateDiff diff = test::diffWarmState(
            test::warmState(hier),
            test::warmState(plain.system.hierarchy()));
        ASSERT_TRUE(diff.empty())
            << spec.workload << " after " << total << " ops: "
            << diff.str();
        if (applied < ops)
            break;
    }
    for (std::uint64_t ops : {0, 5})
        EXPECT_EQ(hier.fastForward(piped.system.cpu(), ops), 0u);
    // Nothing else simulates in this process, so on a host with
    // three hardware threads the helpers had room and ran.
    if (std::thread::hardware_concurrency() >= 3) {
        EXPECT_EQ(hier.warmingThreads(), hier.levels().size() - 1);
    }
    hier.endWarming();
    EXPECT_EQ(hier.warmingThreads(), 0u);
    EXPECT_EQ(piped.system.cpu().fastForwardedOps(), total);
    EXPECT_GT(total, 64u + 32 * slice) << "the trace ended early";
}

RunSpec
specFor(const std::string &workload, DesignPoint design)
{
    RunSpec spec;
    spec.workload = workload;
    spec.n = 32;
    spec.system.design = design;
    return spec;
}

std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &name : workloads::zooWorkloadNames())
        names.push_back(name);
    return names;
}

class PipelinedWarming
    : public testing::TestWithParam<std::tuple<std::string, DesignPoint>>
{
};

TEST_P(PipelinedWarming, LeavesTheStateOfTheSynchronousWalk)
{
    const auto &[workload, design] = GetParam();
    expectSameWarmState(specFor(workload, design));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PipelinedWarming,
    testing::Combine(testing::ValuesIn(allWorkloads()),
                     testing::Values(DesignPoint::D0_1P1L,
                                     DesignPoint::D1_1P2L,
                                     DesignPoint::D1_1P2L_SameSet,
                                     DesignPoint::D2_2P2L)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_" +
               designName(std::get<1>(param_info.param));
    });

TEST(PipelinedWarming, TwoLevelHierarchy)
{
    for (DesignPoint design : {DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
                               DesignPoint::D2_2P2L}) {
        for (const char *workload : {"sgemm", "kv"}) {
            RunSpec spec = specFor(workload, design);
            spec.system.threeLevel = false;
            SCOPED_TRACE(std::string(workload) + " " +
                         designName(design));
            expectSameWarmState(spec);
        }
    }
}

/** With every host thread taken, a stretch takes the synchronous
 *  walk on the calling thread: no helper starts, same state. */
TEST(PipelinedWarming, BusyHostFastForwardsSynchronously)
{
    HostThreads all(std::thread::hardware_concurrency());
    RunSpec spec = specFor("sgemm", DesignPoint::D1_1P2L);
    PreparedRun piped(spec);
    PreparedRun plain(spec);
    Hierarchy &hier = piped.system.hierarchy();
    EXPECT_EQ(hier.fastForward(piped.system.cpu(), rest),
              plain.system.cpu().fastForward(rest));
    EXPECT_EQ(hier.warmingThreads(), 0u);
    EXPECT_TRUE(test::diffWarmState(test::warmState(hier),
                                    test::warmState(
                                        plain.system.hierarchy()))
                    .empty());
}

/** The digest sees what it must: one flipped dirty bit, one frame
 *  missing, and one recency swap each show up in their category. */
TEST(WarmStateDigest, SeesEveryCategory)
{
    RunSpec spec = specFor("sgemm", DesignPoint::D1_1P2L);
    PreparedRun run(spec);
    run.system.cpu().fastForward(rest);
    const auto base = test::warmState(run.system.hierarchy());

    auto first_full_set = [&](std::size_t level) {
        for (std::size_t s = 0; s < base[level].sets.size(); ++s)
            if (base[level].sets[s].size() >= 2)
                return s;
        ADD_FAILURE() << "no set with two frames";
        return std::size_t{0};
    };
    const std::size_t set = first_full_set(1);

    auto dirtied = base;
    dirtied[1].sets[set][0].dirty ^= 1;
    EXPECT_EQ(test::diffWarmState(base, dirtied).dirty, 1u);

    auto dropped = base;
    dropped[1].sets[set].erase(dropped[1].sets[set].begin());
    EXPECT_EQ(test::diffWarmState(base, dropped).resident, 1u);

    auto swapped = base;
    std::swap(swapped[1].sets[set][0], swapped[1].sets[set][1]);
    test::WarmStateDiff diff = test::diffWarmState(base, swapped);
    EXPECT_EQ(diff.order, 1u);
    EXPECT_EQ(diff.first, "l2 set " + std::to_string(set) +
                              ": replacement order");

    EXPECT_TRUE(test::diffWarmState(base, base).empty());
}

} // namespace
} // namespace mda
