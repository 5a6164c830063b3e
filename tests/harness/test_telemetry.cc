/**
 * @file
 * Telemetry (LatencyAccountant) tests: the per-stage breakdown must
 * sum exactly to the end-to-end latency the CPU already measures, and
 * turning telemetry on must not move a single simulation statistic.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/packet_pool.hh"

namespace mda
{
namespace
{

RunSpec
telemetrySpec(bool telemetry)
{
    RunSpec spec;
    spec.workload = "htap1"; // mixed row/col, misses at every level
    spec.n = 32;
    spec.system.design = DesignPoint::D1_1P2L;
    spec.system.telemetry = telemetry;
    return spec;
}

/** Sum of (sum, count) over both orientations of one level x stage. */
std::pair<double, double>
stageTotals(const stats::StatGroup &sg, const std::string &level,
            const std::string &stage)
{
    double sum = 0.0, count = 0.0;
    for (const char *orient : {"row", "col"}) {
        const auto &d = sg.distribution("telemetry." + level + "." +
                                        orient + "." + stage);
        sum += d.sum();
        count += d.count();
    }
    return {sum, count};
}

TEST(Telemetry, StageSumsMatchEndToEndLatency)
{
    PreparedRun run(telemetrySpec(true));
    run.system.run();
    const auto &sg = run.system.statGroup();

    // The L1 serves every demand access the CPU times, so its four
    // stages partition cpu.loadLatency exactly: equal sample counts,
    // and stage sums that add up to the end-to-end sum.
    const auto &e2e = sg.distribution("cpu.loadLatency");
    ASSERT_GT(e2e.count(), 0u);

    double stage_sum = 0.0;
    for (const char *stage : {"queue", "lookup", "mshr", "deliver"}) {
        auto [sum, count] = stageTotals(sg, "l1", stage);
        EXPECT_DOUBLE_EQ(count, static_cast<double>(e2e.count()))
            << stage;
        stage_sum += sum;
    }
    EXPECT_DOUBLE_EQ(stage_sum, e2e.sum());
    EXPECT_DOUBLE_EQ(sg.scalar("telemetry.l1.requests"),
                     static_cast<double>(e2e.count()));
}

TEST(Telemetry, EveryLevelAccountsRequests)
{
    PreparedRun run(telemetrySpec(true));
    run.system.run();
    const auto &sg = run.system.statGroup();

    // A capacity-stressed htap run misses at L1 and L2, so every
    // level of the 1P2L hierarchy (and memory) serves requests, and
    // each level's stage counts equal its request count.
    for (const std::string level : {"l1", "l2", "l3", "mem"}) {
        double requests = sg.scalar("telemetry." + level + ".requests");
        EXPECT_GT(requests, 0.0) << level;
        for (const char *stage :
             {"queue", "lookup", "mshr", "deliver"}) {
            auto [sum, count] = stageTotals(sg, level, stage);
            (void)sum;
            EXPECT_DOUBLE_EQ(count, requests)
                << level << "." << stage;
        }
    }
}

TEST(Telemetry, OffDoesNotChangeStats)
{
    // Telemetry is pure observation: with it off (the default) the
    // run must be indistinguishable from before the probes existed,
    // and with it on every pre-existing statistic keeps its value.
    PreparedRun on(telemetrySpec(true));
    auto r_on = on.system.run();
    PreparedRun off(telemetrySpec(false));
    auto r_off = off.system.run();

    EXPECT_EQ(r_on.cycles, r_off.cycles);
    EXPECT_EQ(r_on.ops, r_off.ops);
    EXPECT_EQ(r_on.llcAccesses, r_off.llcAccesses);
    EXPECT_EQ(r_on.memBytes, r_off.memBytes);

    // The off-run's scalar set is the pre-telemetry one; each of its
    // names must exist in the on-run with an identical value.
    for (const auto &name : off.system.statGroup().scalarNames()) {
        EXPECT_DOUBLE_EQ(on.system.statGroup().scalar(name),
                         off.system.statGroup().scalar(name))
            << name;
    }
}

TEST(Telemetry, StatsExistOnlyWhenEnabled)
{
    PreparedRun off(telemetrySpec(false));
    EXPECT_FALSE(
        off.system.statGroup().hasScalar("telemetry.l1.requests"));
    PreparedRun on(telemetrySpec(true));
    EXPECT_TRUE(
        on.system.statGroup().hasScalar("telemetry.l1.requests"));
}

TEST(Telemetry, RepeatedRunsAreIdentical)
{
    PreparedRun a(telemetrySpec(true));
    a.system.run();
    PreparedRun b(telemetrySpec(true));
    b.system.run();
    const auto &sa = a.system.statGroup();
    const auto &sb = b.system.statGroup();
    for (const auto &name : sa.scalarNames())
        EXPECT_DOUBLE_EQ(sa.scalar(name), sb.scalar(name)) << name;
    for (const std::string level : {"l1", "l2", "l3", "mem"}) {
        for (const char *stage :
             {"queue", "lookup", "mshr", "deliver"}) {
            auto ta = stageTotals(sa, level, stage);
            auto tb = stageTotals(sb, level, stage);
            EXPECT_DOUBLE_EQ(ta.first, tb.first)
                << level << "." << stage;
            EXPECT_DOUBLE_EQ(ta.second, tb.second)
                << level << "." << stage;
        }
    }
}

/**
 * The accountant's open-request table is indexed by pool slot, and
 * slots churn hardest on larger runs with prefetching or tile LLCs:
 * every request must still be attributed to the level that served it,
 * and every slot must be closed by the end of the run.
 */
class TelemetrySlotChurn : public ::testing::TestWithParam<DesignPoint>
{};

TEST_P(TelemetrySlotChurn, AccountsEveryRequestAndClosesEverySlot)
{
    RunSpec spec;
    spec.workload = "ssyrk";
    spec.n = 64;
    spec.system.design = GetParam(); // 1P1L runs the stride prefetcher
    spec.system.telemetry = true;
    PreparedRun run(spec);
    run.system.run();
    const auto &sg = run.system.statGroup();

    const auto &e2e = sg.distribution("cpu.loadLatency");
    ASSERT_GT(e2e.count(), 0u);
    double stage_sum = 0.0;
    for (const char *stage : {"queue", "lookup", "mshr", "deliver"})
        stage_sum += stageTotals(sg, "l1", stage).first;
    EXPECT_DOUBLE_EQ(stage_sum, e2e.sum());

    // Each level serves exactly the demands it accepted, and those
    // are the fills the level above received (memory: its reads).
    EXPECT_DOUBLE_EQ(sg.scalar("telemetry.l1.requests"),
                     sg.scalar("cpu.ops"));
    for (const std::string level : {"l1", "l2", "l3"}) {
        EXPECT_DOUBLE_EQ(sg.scalar("telemetry." + level + ".requests"),
                         sg.scalar(level + ".demandAccesses"))
            << level;
    }
    EXPECT_DOUBLE_EQ(sg.scalar("telemetry.l2.requests"),
                     sg.scalar("l1.fills"));
    EXPECT_DOUBLE_EQ(sg.scalar("telemetry.l3.requests"),
                     sg.scalar("l2.fills"));
    EXPECT_DOUBLE_EQ(sg.scalar("telemetry.mem.requests"),
                     sg.scalar("l3.fills"));
    EXPECT_DOUBLE_EQ(sg.scalar("telemetry.mem.requests"),
                     sg.scalar("mem.readReqs"));
    for (const std::string level : {"l1", "l2", "l3", "mem"}) {
        double requests = sg.scalar("telemetry." + level + ".requests");
        EXPECT_GT(requests, 0.0) << level;
        EXPECT_DOUBLE_EQ(stageTotals(sg, level, "queue").second,
                         requests)
            << level;
    }

    ASSERT_NE(run.system.latencyAccountant(), nullptr);
    EXPECT_EQ(run.system.latencyAccountant()->openRequests(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, TelemetrySlotChurn,
    ::testing::Values(DesignPoint::D0_1P1L,
                      DesignPoint::D1_1P2L_SameSet,
                      DesignPoint::D2_2P2L),
    [](const auto &test) { return std::string(designName(test.param)); });

TEST(TelemetryDeathTest, ReopeningAnOpenSlotPanics)
{
    PreparedRun run(telemetrySpec(true));
    auto *accepted = run.system.probeManager()
                         .findTyped<probe::PacketEvent>("l1.accepted");
    ASSERT_NE(accepted, nullptr);
    auto pkt = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row, 0,
                                  0, &run.system.packetPool());
    accepted->fire(probe::PacketEvent{pkt.get(), 0, 0});
    EXPECT_DEATH(accepted->fire(probe::PacketEvent{pkt.get(), 1, 0}),
                 "still open");
}

TEST(Telemetry, ProbesRegisteredForEveryComponent)
{
    // The probe directory is always populated (probes are free when
    // unobserved); spot-check the catalog the accountant depends on.
    PreparedRun run(telemetrySpec(false));
    auto &pm = run.system.probeManager();
    for (const char *name :
         {"cpu.issued", "cpu.retired", "l1.accepted", "l1.mshrQueued",
          "l1.responded", "l2.accepted", "l3.accepted", "mem.accepted",
          "mem.issued", "mem.responded"}) {
        EXPECT_NE(pm.find(name), nullptr) << name;
    }
}

} // namespace
} // namespace mda
