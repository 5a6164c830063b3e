/** @file Behavioural tests for the baseline (1P1L) LineCache. */

#include <gtest/gtest.h>

#include "test_rig.hh"

namespace mda::testing
{
namespace
{

struct BaselineRig : public ::testing::Test
{
    BaselineRig()
    {
        CacheConfig cfg = tinyCache(4096, 4);
        cfg.prefetch = true;
        cfg.prefetchDegree = 4;
        rig.addLineCache(cfg, LineMapping::OneD, "l1");
        rig.connect();
    }
    TestRig rig;
};

TEST_F(BaselineRig, ReadMissFillsRowLine)
{
    rig.mem().store().writeWord(0x4008, 55);
    EXPECT_EQ(rig.readWord(0x4008), 55u);
    EXPECT_EQ(rig.stat("l1.demandMisses"), 1.0);
    // Neighbours in the same row line hit.
    rig.readWord(0x4000);
    rig.readWord(0x4038);
    EXPECT_EQ(rig.stat("l1.demandMisses"), 1.0);
    EXPECT_EQ(rig.stat("l1.demandHits"), 2.0);
}

TEST_F(BaselineRig, ColumnPreferenceIsIgnored)
{
    // Scalar with column annotation still fetches a row line.
    rig.readWord(0x8000, Orientation::Col);
    EXPECT_EQ(rig.stat("mem.rowAccesses"), 1.0);
    EXPECT_EQ(rig.stat("mem.colAccesses"), 0.0);
    // Row neighbour hits; column neighbour (64 B away, same tile)
    // misses.
    double misses = rig.stat("l1.demandMisses");
    rig.readWord(0x8010, Orientation::Col);
    EXPECT_EQ(rig.stat("l1.demandMisses"), misses);
    rig.readWord(0x8040, Orientation::Col);
    EXPECT_EQ(rig.stat("l1.demandMisses"), misses + 1);
}

TEST_F(BaselineRig, WriteAllocateAndWriteback)
{
    rig.writeWord(0x1000, 0xbeef);
    EXPECT_EQ(rig.stat("l1.writeMisses"), 1.0);
    EXPECT_EQ(rig.readWord(0x1000), 0xbeefu);
    // Not yet in memory (write-back).
    EXPECT_EQ(rig.mem().store().readWord(0x1000), 0u);
    // Evict by conflict.
    auto *l1 = &rig.lineCache(0);
    OrientedLine line = OrientedLine::containing(0x1000,
                                                 Orientation::Row);
    for (const auto &conflict : conflictingRowLines(*l1, line, 4))
        rig.readLine(conflict);
    EXPECT_EQ(rig.mem().store().readWord(0x1000), 0xbeefu);
}

TEST_F(BaselineRig, StridePrefetcherCoversUnitStrideStream)
{
    // Walk words with an 8 B stride under one PC: after training, the
    // prefetcher should run ahead and convert misses into hits.
    for (unsigned n = 0; n < 256; ++n) {
        auto pkt = Packet::makeScalar(MemCmd::Read, 0x20000 + n * 8,
                                      Orientation::Row, 42,
                                      rig.eq.curTick());
        rig.sendAndWait(std::move(pkt));
    }
    EXPECT_GT(rig.stat("l1.prefetchesIssued"), 10.0);
    EXPECT_GT(rig.stat("l1.prefetchesUseful"), 10.0);
    // Far fewer demand misses than the 32 lines touched.
    EXPECT_LT(rig.stat("l1.demandMisses"), 10.0);
}

TEST_F(BaselineRig, PrefetcherCoversLargeStrideButFetchesFullLines)
{
    // Column-style walk: 4 KiB stride (as in a row-major matrix
    // column). Prefetch hides latency but each element still costs a
    // full line from memory — the paper's bandwidth argument.
    for (unsigned n = 0; n < 64; ++n) {
        auto pkt = Packet::makeScalar(MemCmd::Read, 0x100000 + n * 4096,
                                      Orientation::Row, 43,
                                      rig.eq.curTick());
        rig.sendAndWait(std::move(pkt));
    }
    EXPECT_GT(rig.stat("l1.prefetchesUseful"), 30.0);
    // Memory still transferred ~a line per element.
    EXPECT_GE(rig.stat("mem.bytesRead"), 64.0 * lineBytes * 0.9);
}

TEST_F(BaselineRig, VectorRowAccessesWork)
{
    OrientedLine line(Orientation::Row, 77);
    std::array<std::uint64_t, lineWords> vals{9, 8, 7, 6, 5, 4, 3, 2};
    rig.writeLine(line, vals);
    auto out = rig.readLine(line);
    EXPECT_EQ(out, vals);
}

using BaselineDeathTest = BaselineRig;

TEST_F(BaselineDeathTest, ColumnVectorPanics)
{
    auto pkt = Packet::makeVector(MemCmd::Read,
                                  OrientedLine(Orientation::Col, 8), 1,
                                  0);
    EXPECT_DEATH(
        {
            rig.send(std::move(pkt));
            rig.eq.run();
        },
        "column line access");
}

} // namespace
} // namespace mda::testing
