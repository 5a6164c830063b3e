/**
 * @file
 * Regression tests for the subtle ordering rules: overlapping-word
 * accesses across orientations while fills are in flight, writeback
 * vs fill races, and the pre-fill dirty-crossing propagation.
 */

#include <gtest/gtest.h>

#include "test_rig.hh"

namespace mda::testing
{
namespace
{

struct OrderingRig : public ::testing::Test
{
    OrderingRig()
    {
        rig.addLineCache(tinyCache(2048, 2), LineMapping::TwoDDiffSet,
                         "l1");
        rig.addLineCache(tinyCache(8192, 4), LineMapping::TwoDDiffSet,
                         "l2");
        rig.connect();
    }
    TestRig rig;
};

TEST_F(OrderingRig, WriteDeferredBehindInFlightCrossingFill)
{
    // Start a column fill; write the crossing word before it returns.
    OrientedLine col(Orientation::Col, (4ull << 3) | 2);
    Addr w = col.wordAddr(5); // word (5, 2) of tile 4
    rig.mem().store().writeWord(w, 0x1111);

    auto rd = Packet::makeVector(MemCmd::Read, col, 1, 0);
    rig.send(std::move(rd));
    // Crossing ROW write to the shared word while the fill is in
    // flight: must be deferred and applied after the fill.
    auto wr = Packet::makeScalar(MemCmd::Write, w, Orientation::Row, 2,
                                 0);
    wr->setWord(0, 0x2222);
    rig.send(std::move(wr));
    rig.eq.run();

    ASSERT_EQ(rig.cpu.responses.size(), 2u);
    EXPECT_GE(rig.stat("l1.deferrals"), 1.0);
    // The fill's response carries the pre-write value (it was issued
    // first); the final state carries the write.
    EXPECT_EQ(rig.readWord(w, Orientation::Row), 0x2222u);
    EXPECT_EQ(rig.readWord(w, Orientation::Col), 0x2222u);
}

TEST_F(OrderingRig, DirtyWordSurvivesCrossingFillRoundTrip)
{
    // Dirty a row word at L1, then read the crossing column: the
    // dirty value must be written down ahead of the column fill so
    // the returned column carries it — through TWO cache levels.
    Addr w = tileBase(9) + 3 * lineBytes + 6 * wordBytes;
    rig.writeWord(w, 0xabcd, Orientation::Row);
    auto col = rig.readLine(
        OrientedLine::containing(w, Orientation::Col));
    EXPECT_EQ(col[3], 0xabcdu);
    // And the value is durable once both lines get evicted.
    EXPECT_EQ(rig.readWord(w, Orientation::Col), 0xabcdu);
}

TEST_F(OrderingRig, WritebackDeferredBehindCrossingFill)
{
    // L2 scenario driven directly: in-flight column fill at L1 plus
    // an arriving row writeback that intersects it.
    OrientedLine col(Orientation::Col, (12ull << 3) | 1);
    auto rd = Packet::makeVector(MemCmd::Read, col, 1, 0);
    rig.send(std::move(rd));

    OrientedLine row(Orientation::Row, (12ull << 3) | 4);
    auto wb = Packet::makeWriteback(row, 0xff, 0);
    for (unsigned k = 0; k < lineWords; ++k)
        wb->setWord(k, 900 + k);
    wb->wordMask = 0xff;
    rig.send(std::move(wb));
    rig.eq.run();

    // Both complete; the writeback's value wins at the intersection.
    EXPECT_EQ(rig.readWord(row.wordAddr(1), Orientation::Row), 901u);
    EXPECT_EQ(rig.readWord(col.wordAddr(4), Orientation::Col), 901u);
}

TEST_F(OrderingRig, BackToBackWritesBothOrientationsSerialize)
{
    Addr w = tileBase(20) + 2 * lineBytes + 2 * wordBytes;
    // Fire two writes to the same word through different orientations
    // without waiting; the second (column) must land last.
    auto w1 = Packet::makeScalar(MemCmd::Write, w, Orientation::Row, 1,
                                 0);
    w1->setWord(0, 1);
    auto w2 = Packet::makeScalar(MemCmd::Write, w, Orientation::Col, 2,
                                 0);
    w2->setWord(0, 2);
    rig.send(std::move(w1));
    rig.send(std::move(w2));
    rig.eq.run();
    EXPECT_EQ(rig.readWord(w, Orientation::Row), 2u);
}

TEST_F(OrderingRig, EvictionDuringCrossingFillKeepsData)
{
    // Dirty several words of a row line; trigger a crossing column
    // fill AND enough conflicting fills to evict the row line while
    // the column is in flight. Nothing may be lost.
    OrientedLine row(Orientation::Row, (30ull << 3) | 0);
    for (unsigned k = 0; k < lineWords; ++k)
        rig.writeWord(row.wordAddr(k), 3000 + k, Orientation::Row);
    auto *l1 = &rig.lineCache(0);

    auto col_rd = Packet::makeVector(
        MemCmd::Read, OrientedLine(Orientation::Col, (30ull << 3) | 7),
        1, 0);
    rig.send(std::move(col_rd));
    for (const auto &line : conflictingRowLines(*l1, row, 3)) {
        auto fill_rd = Packet::makeVector(MemCmd::Read, line, 2, 0);
        rig.send(std::move(fill_rd));
    }
    rig.eq.run();
    for (unsigned k = 0; k < lineWords; ++k)
        EXPECT_EQ(rig.readWord(row.wordAddr(k), Orientation::Row),
                  3000u + k);
}

} // namespace
} // namespace mda::testing
