/** @file Behavioural tests for the 1P2L LineCache designs. */

#include <gtest/gtest.h>

#include "test_rig.hh"

namespace mda::testing
{
namespace
{

/** Word address (r, c) of tile @p tile. */
Addr
wordAddr(std::uint64_t tile, unsigned r, unsigned c)
{
    return tileBase(tile) + r * lineBytes + c * wordBytes;
}

struct OneLevelRig : public ::testing::Test
{
    OneLevelRig()
    {
        rig.addLineCache(tinyCache(4096, 4), LineMapping::TwoDDiffSet,
                         "l1");
        rig.connect();
    }
    TestRig rig;
    LineCache &l1() { return rig.lineCache(0); }
};

TEST_F(OneLevelRig, ColumnMissFillsColumnLine)
{
    // Prime memory.
    for (unsigned r = 0; r < 8; ++r)
        rig.mem().store().writeWord(wordAddr(5, r, 3), 100 + r);
    EXPECT_EQ(rig.readWord(wordAddr(5, 2, 3), Orientation::Col), 102u);
    // The fill brought the whole column: the other words now hit.
    double misses = rig.stat("l1.demandMisses");
    for (unsigned r = 0; r < 8; ++r)
        EXPECT_EQ(rig.readWord(wordAddr(5, r, 3), Orientation::Col),
                  100u + r);
    EXPECT_EQ(rig.stat("l1.demandMisses"), misses);
    EXPECT_EQ(rig.stat("mem.readReqs"), 1.0);
    EXPECT_EQ(rig.stat("mem.colAccesses"), 1.0);
}

TEST_F(OneLevelRig, MshrCoalescesColumnMisses)
{
    // Fire 8 scalar column-preference reads down one column without
    // waiting: they should coalesce into a single memory fetch.
    for (unsigned r = 0; r < 8; ++r) {
        auto pkt = Packet::makeScalar(MemCmd::Read, wordAddr(9, r, 1),
                                      Orientation::Col, 7,
                                      rig.eq.curTick());
        rig.send(std::move(pkt));
    }
    rig.eq.run();
    EXPECT_EQ(rig.cpu.responses.size(), 8u);
    EXPECT_EQ(rig.stat("mem.readReqs"), 1.0);
    EXPECT_EQ(rig.stat("l1.mshrCoalesced"), 7.0);
}

TEST_F(OneLevelRig, MisOrientedScalarHit)
{
    // Fill a row line, then ask for one of its words column-first.
    rig.readWord(wordAddr(2, 4, 0), Orientation::Row);
    double fills = rig.stat("mem.readReqs");
    rig.readWord(wordAddr(2, 4, 6), Orientation::Col);
    EXPECT_EQ(rig.stat("mem.readReqs"), fills); // no new fill
    EXPECT_EQ(rig.stat("l1.misOrientedHits"), 1.0);
}

TEST_F(OneLevelRig, VectorRequiresMatchingOrientation)
{
    rig.readWord(wordAddr(2, 4, 0), Orientation::Row); // row line in
    // A column vector crossing it must still fetch the column line.
    rig.readLine(OrientedLine::containing(wordAddr(2, 4, 0),
                                          Orientation::Col));
    EXPECT_EQ(rig.stat("mem.readReqs"), 2.0);
    // Both lines now co-reside (clean duplication of the crossing
    // word is allowed by the Fig. 9 policy).
    EXPECT_EQ(rig.stat("l1.dupEvictions"), 0.0);
}

TEST_F(OneLevelRig, WriteEvictsDuplicateCopy)
{
    Addr w = wordAddr(3, 1, 1);
    rig.readWord(w, Orientation::Row);
    rig.readLine(OrientedLine::containing(w, Orientation::Col));
    // Clean duplication exists; now write the shared word.
    rig.writeWord(w, 0xabc, Orientation::Row);
    EXPECT_EQ(rig.stat("l1.dupEvictions"), 1.0);
    // The surviving copy serves the read with the new value.
    EXPECT_EQ(rig.readWord(w, Orientation::Row), 0xabcu);
    EXPECT_EQ(rig.readWord(w, Orientation::Col), 0xabcu);
}

TEST_F(OneLevelRig, DirtyCrossingWordWrittenBackBeforeFill)
{
    Addr w = wordAddr(6, 2, 5);
    rig.writeWord(w, 0x777, Orientation::Row); // row line dirty at w
    // Column vector read crossing w: the dirty word must reach
    // memory before the column fill is serviced.
    auto values = rig.readLine(
        OrientedLine::containing(w, Orientation::Col));
    EXPECT_EQ(values[2], 0x777u); // word index 2 = row 2
    EXPECT_EQ(rig.stat("l1.dupWritebacks"), 1.0);
    EXPECT_EQ(rig.mem().store().readWord(w), 0x777u);
}

TEST_F(OneLevelRig, PartialWritebackOnlyMovesDirtyWords)
{
    Addr base = wordAddr(10, 0, 0);
    rig.writeWord(base + 8, 1, Orientation::Row);
    rig.writeWord(base + 24, 2, Orientation::Row);
    double bytes_before = rig.stat("mem.bytesWritten");
    // Force eviction of tile 10's row 0 by filling its set with
    // conflicting row lines.
    OrientedLine victim_line =
        OrientedLine::containing(base, Orientation::Row);
    for (const auto &line : conflictingRowLines(l1(), victim_line, 5))
        rig.readLine(line);
    rig.eq.run();
    // Two dirty words = 16 bytes written back.
    EXPECT_EQ(rig.stat("mem.bytesWritten") - bytes_before, 16.0);
}

TEST_F(OneLevelRig, FullLineVectorWriteNeedsNoFetch)
{
    std::array<std::uint64_t, lineWords> vals{1, 2, 3, 4, 5, 6, 7, 8};
    OrientedLine line(Orientation::Col, (20ull << 3) | 2);
    rig.writeLine(line, vals);
    EXPECT_EQ(rig.stat("mem.readReqs"), 0.0);
    EXPECT_EQ(rig.stat("l1.fullLineWriteAllocs"), 1.0);
    for (unsigned k = 0; k < lineWords; ++k)
        EXPECT_EQ(rig.readWord(line.wordAddr(k), Orientation::Col),
                  vals[k]);
}

TEST_F(OneLevelRig, DiffSetChargesExtraProbeLatency)
{
    // A mis-oriented scalar hit pays one extra tag access.
    Addr w = wordAddr(30, 3, 3);
    rig.readWord(w, Orientation::Row);
    Tick t0 = rig.eq.curTick();
    auto pkt = Packet::makeScalar(MemCmd::Read, w, Orientation::Row, 1,
                                  t0);
    rig.send(std::move(pkt));
    rig.eq.run();
    Tick preferred_hit = rig.eq.curTick() - t0;
    rig.cpu.responses.clear();

    t0 = rig.eq.curTick();
    auto pkt2 = Packet::makeScalar(MemCmd::Read, w, Orientation::Col, 1,
                                   t0);
    rig.send(std::move(pkt2));
    rig.eq.run();
    Tick cross_hit = rig.eq.curTick() - t0;
    EXPECT_EQ(cross_hit, preferred_hit + 1); // tagLatency = 1 in tiny
}

TEST_F(OneLevelRig, LruEvictionWithinSet)
{
    // Fill ways+1 lines mapping to one set; the first one leaves.
    OrientedLine first(Orientation::Row, 0);
    rig.readLine(first);
    for (const auto &line : conflictingRowLines(l1(), first, 4))
        rig.readLine(line);
    EXPECT_EQ(rig.stat("l1.evictions"), 1.0);
    double misses = rig.stat("l1.demandMisses");
    rig.readLine(first); // misses again
    EXPECT_EQ(rig.stat("l1.demandMisses"), misses + 1);
}

struct SameSetRig : public ::testing::Test
{
    SameSetRig()
    {
        rig.addLineCache(tinyCache(4096, 4), LineMapping::TwoDSameSet,
                         "l1");
        rig.connect();
    }
    TestRig rig;
};

TEST_F(SameSetRig, TileLinesShareOneSet)
{
    // 4 ways; reading 5 lines of one tile must evict.
    for (unsigned r = 0; r < 4; ++r)
        rig.readLine(OrientedLine(Orientation::Row, (1ull << 3) | r));
    EXPECT_EQ(rig.stat("l1.evictions"), 0.0);
    rig.readLine(OrientedLine(Orientation::Col, (1ull << 3) | 0));
    EXPECT_EQ(rig.stat("l1.evictions"), 1.0);
}

TEST_F(SameSetRig, NoExtraProbeLatencyOnCrossHit)
{
    Addr w = tileBase(8) + 2 * lineBytes + 5 * wordBytes;
    rig.readWord(w, Orientation::Row);
    Tick t0 = rig.eq.curTick();
    auto pkt = Packet::makeScalar(MemCmd::Read, w, Orientation::Row, 1,
                                  t0);
    rig.send(std::move(pkt));
    rig.eq.run();
    Tick preferred_hit = rig.eq.curTick() - t0;
    rig.cpu.responses.clear();
    t0 = rig.eq.curTick();
    auto pkt2 = Packet::makeScalar(MemCmd::Read, w, Orientation::Col, 1,
                                   t0);
    rig.send(std::move(pkt2));
    rig.eq.run();
    Tick cross_hit = rig.eq.curTick() - t0;
    EXPECT_EQ(cross_hit, preferred_hit); // same-set sees both
}

TEST_F(OneLevelRig, ColOccupancyTracksColumnLines)
{
    EXPECT_DOUBLE_EQ(l1().colOccupancy(), 0.0);
    rig.readLine(OrientedLine(Orientation::Col, (40ull << 3) | 1));
    rig.readLine(OrientedLine(Orientation::Col, (41ull << 3) | 1));
    rig.readLine(OrientedLine(Orientation::Row, (42ull << 3) | 1));
    EXPECT_DOUBLE_EQ(l1().colOccupancy(),
                     2.0 / static_cast<double>(
                               l1().config().numLines()));
}

} // namespace
} // namespace mda::testing
