/** @file Behavioural tests for the sparse 2P2L TileCache. */

#include <gtest/gtest.h>

#include "test_rig.hh"

namespace mda::testing
{
namespace
{

struct TileRig : public ::testing::Test
{
    TileRig()
    {
        // 4 KiB => 8 frames; 2-way => 4 sets.
        CacheConfig cfg = tinyCache(4096, 2);
        rig.addTileCache(cfg, "llc");
        rig.connect();
    }
    TestRig rig;
    TileCache &llc() { return rig.tileCache(0); }
};

TEST_F(TileRig, SparseRowFillThenHit)
{
    for (unsigned c = 0; c < 8; ++c)
        rig.mem().store().writeWord(tileBase(3) + 2 * 64 + c * 8,
                                   300 + c);
    OrientedLine row(Orientation::Row, (3ull << 3) | 2);
    auto vals = rig.readLine(row);
    for (unsigned c = 0; c < 8; ++c)
        EXPECT_EQ(vals[c], 300u + c);
    EXPECT_EQ(rig.stat("llc.demandMisses"), 1.0);
    // Only one line of the tile was transferred.
    EXPECT_EQ(rig.stat("mem.bytesRead"), 64.0);
    // Re-read hits.
    rig.readLine(row);
    EXPECT_EQ(rig.stat("llc.demandHits"), 1.0);
}

TEST_F(TileRig, CrossingLineSharesTheIntersectionWord)
{
    OrientedLine row(Orientation::Row, (3ull << 3) | 2);
    OrientedLine col(Orientation::Col, (3ull << 3) | 5);
    rig.readLine(row);
    double bytes = rig.stat("mem.bytesRead");
    rig.readLine(col); // partial: word (2,5) already present
    EXPECT_EQ(rig.stat("llc.partialHits"), 1.0);
    // Full line still fetched from memory (fill skips the valid word
    // at merge time).
    EXPECT_EQ(rig.stat("mem.bytesRead"), bytes + 64.0);
    // Scalar reads of both lines' words now hit.
    double misses = rig.stat("llc.demandMisses");
    rig.readWord(tileBase(3) + 2 * 64 + 5 * 8);
    EXPECT_EQ(rig.stat("llc.demandMisses"), misses);
}

TEST_F(TileRig, WriteValidatesWithoutFetch)
{
    rig.writeWord(tileBase(7) + 3 * 64 + 4 * 8, 0xfeed);
    EXPECT_EQ(rig.stat("mem.readReqs"), 0.0);
    EXPECT_EQ(rig.stat("llc.writeValidates"), 1.0);
    EXPECT_EQ(rig.readWord(tileBase(7) + 3 * 64 + 4 * 8), 0xfeedu);
    // Still only zero memory reads: the read hit the validated word.
    EXPECT_EQ(rig.stat("mem.readReqs"), 0.0);
}

TEST_F(TileRig, WritebackFromAboveMergesSparsely)
{
    OrientedLine col(Orientation::Col, (9ull << 3) | 1);
    auto wb = Packet::makeWriteback(col, 0b00001010, 0);
    wb->setWord(1, 11);
    wb->setWord(3, 33);
    wb->wordMask = 0b00001010;
    rig.send(std::move(wb));
    rig.eq.run();
    EXPECT_EQ(rig.stat("mem.readReqs"), 0.0);
    EXPECT_EQ(rig.readWord(col.wordAddr(1), Orientation::Col), 11u);
    EXPECT_EQ(rig.readWord(col.wordAddr(3), Orientation::Col), 33u);
}

TEST_F(TileRig, EvictionWritesBackOnlyDirtyWords)
{
    rig.writeWord(tileBase(0) + 0, 1);
    rig.writeWord(tileBase(0) + 3 * 64 + 2 * 8, 2);
    double bytes = rig.stat("mem.bytesWritten");
    // Evict tile 0 by touching 2 more tiles that hash to its set
    // (2 ways per set).
    std::uint64_t target = llc().setFor(0);
    unsigned filled = 0;
    for (std::uint64_t tile = 1; filled < 2; ++tile) {
        if (llc().setFor(tile) != target)
            continue;
        rig.readLine(OrientedLine(Orientation::Row, tile << 3));
        ++filled;
    }
    EXPECT_EQ(rig.stat("llc.frameEvictions"), 1.0);
    // Two dirty words = 16 bytes, as two partial row writebacks.
    EXPECT_EQ(rig.stat("mem.bytesWritten") - bytes, 16.0);
    EXPECT_EQ(rig.mem().store().readWord(tileBase(0)), 1u);
    EXPECT_EQ(rig.mem().store().readWord(tileBase(0) + 3 * 64 + 2 * 8),
              2u);
}

TEST_F(TileRig, ColumnFillMergesIntoBlockWithPresentDirtyRow)
{
    // Seed memory for row 2 and column 5 of tile 3 (the intersection
    // word (2,5) keeps the column loop's value, 502).
    for (unsigned k = 0; k < 8; ++k) {
        rig.mem().store().writeWord(tileBase(3) + 2 * 64 + k * 8,
                                   200 + k);
        rig.mem().store().writeWord(tileBase(3) + k * 64 + 5 * 8,
                                   500 + k);
    }
    OrientedLine row(Orientation::Row, (3ull << 3) | 2);
    rig.readLine(row); // row 2 present, clean
    // Dirty the intersection word with a newer-than-memory value.
    rig.writeWord(tileBase(3) + 2 * 64 + 5 * 8, 0xd1);

    // The column fill must merge around the present word: absent
    // words take memory data, the dirty intersection keeps the write.
    OrientedLine col(Orientation::Col, (3ull << 3) | 5);
    auto vals = rig.readLine(col);
    for (unsigned k = 0; k < 8; ++k)
        EXPECT_EQ(vals[k], k == 2 ? 0xd1u : 500u + k) << "word " << k;
    // The dirty bit survived the merge: a row-path read still sees
    // the written value and the structural invariants hold.
    EXPECT_EQ(rig.readWord(tileBase(3) + 2 * 64 + 5 * 8), 0xd1u);
    EXPECT_TRUE(llc().checkInvariants().empty());
}

TEST_F(TileRig, PartialBlockEvictionWritesBackOnlyDirtyWords)
{
    // A partially-present block: row 1 present-clean, two dirty words
    // in rows 4 and 6, the remaining 54 words never filled.
    for (unsigned k = 0; k < 8; ++k)
        rig.mem().store().writeWord(tileBase(0) + 64 + k * 8, 100 + k);
    rig.readLine(OrientedLine(Orientation::Row, 1));
    rig.writeWord(tileBase(0) + 4 * 64 + 3 * 8, 0xa);
    rig.writeWord(tileBase(0) + 6 * 64 + 7 * 8, 0xb);
    double bytes = rig.stat("mem.bytesWritten");
    double elided = rig.stat("llc.writebackBytesElided");

    std::uint64_t target = llc().setFor(0);
    unsigned filled = 0;
    for (std::uint64_t tile = 1; filled < 2; ++tile) {
        if (llc().setFor(tile) != target)
            continue;
        rig.readLine(OrientedLine(Orientation::Row, tile << 3));
        ++filled;
    }
    EXPECT_EQ(rig.stat("llc.frameEvictions"), 1.0);
    // Only the two dirty words moved (two 8-byte partial row
    // writebacks); the clean present row and the 54 never-filled
    // words were elided.
    EXPECT_EQ(rig.stat("mem.bytesWritten") - bytes, 16.0);
    EXPECT_EQ(rig.stat("llc.writebackBytesElided") - elided,
              54.0 * wordBytes);
    EXPECT_EQ(rig.mem().store().readWord(tileBase(0) + 4 * 64 + 3 * 8),
              0xau);
    EXPECT_EQ(rig.mem().store().readWord(tileBase(0) + 6 * 64 + 7 * 8),
              0xbu);
    // The clean row's memory copy is untouched (never re-written).
    EXPECT_EQ(rig.mem().store().readWord(tileBase(0) + 64), 100u);
    EXPECT_TRUE(llc().checkInvariants().empty());
}

TEST_F(TileRig, WriteDuringInFlightFillIsNotClobbered)
{
    // Start a column fill, then write one of its words before the
    // fill returns; the fill must skip the validated word.
    OrientedLine col(Orientation::Col, (2ull << 3) | 6);
    rig.mem().store().writeWord(col.wordAddr(0), 0xaaa);
    rig.mem().store().writeWord(col.wordAddr(4), 0xbbb);
    auto rd = Packet::makeVector(MemCmd::Read, col, 1, 0);
    rig.send(std::move(rd));
    // Write word 4 while the fill is in flight (no eq.run yet).
    auto wr = Packet::makeScalar(MemCmd::Write, col.wordAddr(4),
                                 Orientation::Col, 2, 0);
    wr->setWord(0, 0xccc);
    rig.send(std::move(wr));
    rig.eq.run();
    ASSERT_EQ(rig.cpu.responses.size(), 2u);
    EXPECT_EQ(rig.readWord(col.wordAddr(4), Orientation::Col), 0xcccu);
    EXPECT_EQ(rig.readWord(col.wordAddr(0), Orientation::Col), 0xaaau);
}

TEST_F(TileRig, WritePenaltyAddsLatency)
{
    // Two identical writes, with and without the Fig. 16 penalty.
    Tick t0 = rig.eq.curTick();
    rig.writeWord(tileBase(30), 1);
    Tick base = rig.eq.curTick() - t0;
    llc().setWritePenalty(20);
    t0 = rig.eq.curTick();
    rig.writeWord(tileBase(31), 1);
    Tick slow = rig.eq.curTick() - t0;
    EXPECT_EQ(slow, base + 20);
}

TEST_F(TileRig, NoOrientationMetadataNeeded)
{
    // The same word is reachable through either orientation with no
    // duplication: write via row, read via column.
    Addr w = tileBase(12) + 5 * 64 + 1 * 8;
    rig.writeWord(w, 0x123, Orientation::Row);
    EXPECT_EQ(rig.readWord(w, Orientation::Col), 0x123u);
    EXPECT_EQ(rig.stat("llc.demandHits"), 1.0);
}

} // namespace
} // namespace mda::testing
