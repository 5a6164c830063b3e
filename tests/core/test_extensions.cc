/** @file Tests for the extension features: dense 2P2L fill, gather
 *  hits, and memory sub-row buffers. */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "test_rig.hh"

namespace mda::testing
{
namespace
{

// ---------------- dense 2P2L ----------------

struct DenseTileRig : public ::testing::Test
{
    DenseTileRig()
    {
        CacheConfig cfg = tinyCache(4096, 2);
        cfg.mshrs = 16; // room for the block stream
        rig.addTileCache(cfg, "llc", TileFillPolicy::Dense);
        rig.connect();
    }
    TestRig rig;
};

TEST_F(DenseTileRig, MissStreamsWholeBlock)
{
    OrientedLine row(Orientation::Row, (3ull << 3) | 2);
    rig.readLine(row);
    // All eight rows of the tile were transferred, not just one.
    EXPECT_EQ(rig.stat("mem.bytesRead"), 512.0);
    EXPECT_EQ(rig.stat("llc.denseBlockStreams"), 1.0);
    // The other rows now hit without further traffic.
    double misses = rig.stat("llc.demandMisses");
    for (unsigned r = 0; r < tileLines; ++r)
        rig.readLine(OrientedLine(Orientation::Row, (3ull << 3) | r));
    EXPECT_EQ(rig.stat("llc.demandMisses"), misses);
    EXPECT_EQ(rig.stat("mem.bytesRead"), 512.0);
    // And so do crossing columns (the dense block is fully present).
    rig.readLine(OrientedLine(Orientation::Col, (3ull << 3) | 5));
    EXPECT_EQ(rig.stat("llc.demandMisses"), misses);
}

TEST_F(DenseTileRig, WritebackMissAlsoStreams)
{
    auto wb = Packet::makeWriteback(
        OrientedLine(Orientation::Row, (9ull << 3) | 1), 0x0f, 0);
    wb->setWord(0, 1);
    wb->wordMask = 0x0f;
    rig.send(std::move(wb));
    rig.eq.run();
    // Dense policy pays to fetch the rest of the block.
    EXPECT_EQ(rig.stat("llc.denseBlockStreams"), 1.0);
    EXPECT_GT(rig.stat("mem.bytesRead"), 0.0);
}

TEST(DenseVsSparse, SparseMovesFewerBytes)
{
    RunSpec spec;
    spec.workload = "htap2"; // sparse-friendly random rows
    spec.n = 32;
    spec.system.design = DesignPoint::D2_2P2L;
    auto sparse = runOne(spec);
    spec.system.design = DesignPoint::D2_2P2L_Dense;
    auto dense = runOne(spec);
    EXPECT_LT(sparse.memBytes, dense.memBytes);
}

TEST(DenseVsSparse, DenseRunsClean)
{
    for (const auto &workload : {"sgemm", "sobel", "htap1"}) {
        RunSpec spec;
        spec.workload = workload;
        spec.n = 24;
        spec.system.design = DesignPoint::D2_2P2L_Dense;
        spec.system.checkData = true;
        auto result = runOne(spec);
        EXPECT_EQ(result.checkFailures, 0u) << workload;
    }
}

// ---------------- gather hits ----------------

struct GatherRig : public ::testing::Test
{
    GatherRig()
    {
        CacheConfig cfg = tinyCache(4096, 4);
        cfg.gatherHits = true;
        rig.addLineCache(cfg, LineMapping::TwoDDiffSet, "l2");
        rig.connect();
    }
    TestRig rig;
};

TEST_F(GatherRig, LineAssembledFromCrossingLines)
{
    // Fill all eight rows of a tile, then request a column line: all
    // of its words are present in the row lines.
    for (unsigned r = 0; r < tileLines; ++r) {
        auto vals = std::array<std::uint64_t, lineWords>{};
        for (unsigned c = 0; c < lineWords; ++c)
            vals[c] = r * 10 + c;
        rig.writeLine(OrientedLine(Orientation::Row, (5ull << 3) | r),
                      vals);
    }
    double reads_before = rig.stat("mem.readReqs");
    auto col = rig.readLine(OrientedLine(Orientation::Col,
                                         (5ull << 3) | 3));
    EXPECT_EQ(rig.stat("l2.gatherHits"), 1.0);
    EXPECT_EQ(rig.stat("mem.readReqs"), reads_before); // no fill
    for (unsigned r = 0; r < lineWords; ++r)
        EXPECT_EQ(col[r], r * 10 + 3);
}

TEST_F(GatherRig, PartialCoverageStillMisses)
{
    rig.writeLine(OrientedLine(Orientation::Row, (6ull << 3) | 0),
                  {1, 1, 1, 1, 1, 1, 1, 1});
    double reads_before = rig.stat("mem.readReqs");
    rig.readLine(OrientedLine(Orientation::Col, (6ull << 3) | 2));
    EXPECT_EQ(rig.stat("l2.gatherHits"), 0.0);
    EXPECT_EQ(rig.stat("mem.readReqs"), reads_before + 1);
}

TEST(GatherHitsEndToEnd, CleanWithCheckerOn)
{
    RunSpec spec;
    spec.workload = "ssyrk";
    spec.n = 24;
    spec.system.design = DesignPoint::D1_1P2L;
    spec.system.checkData = true;
    spec.system.gatherHits = true;
    auto result = runOne(spec);
    EXPECT_EQ(result.checkFailures, 0u);
}

// ---------------- sub-row buffers ----------------

TEST(SubRowBuffers, ExtraBuffersKeepMoreRowsOpen)
{
    MemTopologyParams topo;
    topo.subRowBuffers = 2;
    TestRig rig(topo);
    rig.connect(); // memory only

    // Two different rows of the same bank, touched alternately.
    OrientedLine a(Orientation::Row, (0ull << 3) | 0);
    OrientedLine b(Orientation::Row, (0ull << 3) | 7);
    rig.readLine(a);
    rig.readLine(b);
    rig.readLine(a);
    rig.readLine(b);
    // With two buffers, the second round hits both.
    EXPECT_EQ(rig.stat("mem.rowBufHits"), 2.0);

    TestRig single;
    single.connect();
    single.readLine(a);
    single.readLine(b);
    single.readLine(a);
    single.readLine(b);
    EXPECT_EQ(single.stat("mem.rowBufHits"), 0.0);
}

TEST(SubRowBuffers, NeverHurtAndBounded)
{
    // The paper implemented multiple sub-row buffers and found <1%
    // impact for single-threaded runs (Section IX). Our scaled-down
    // memory is more activation-bound, so the effect is larger here;
    // assert the qualitative property: extra buffers only help, and
    // the effect stays well below the MDA designs' 3-4x.
    RunSpec spec;
    spec.workload = "sgemm";
    spec.n = 48;
    spec.system.design = DesignPoint::D0_1P1L;
    auto base = runOne(spec);
    spec.system.memTopo.subRowBuffers = 4;
    auto multi = runOne(spec);
    EXPECT_LE(multi.cycles, base.cycles);
    double delta = 1.0 - static_cast<double>(multi.cycles) /
                             static_cast<double>(base.cycles);
    EXPECT_LT(delta, 0.30);
}

} // namespace
} // namespace mda::testing
