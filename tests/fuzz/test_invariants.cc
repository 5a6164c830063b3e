/**
 * @file
 * The checkInvariants() hooks must actually detect corruption: each
 * test drives legal traffic, then reaches into the cache arrays and
 * breaks one structural property, expecting a specific violation.
 * (The fuzzer only sweeps these hooks; this is where their teeth are
 * proven.)
 */

#include <gtest/gtest.h>

#include "../core/test_rig.hh"

namespace mda::testing
{
namespace
{

/** Substring match over a violation list. */
bool
mentions(const std::vector<std::string> &violations,
         const std::string &needle)
{
    for (const std::string &v : violations)
        if (v.find(needle) != std::string::npos)
            return true;
    return false;
}

struct TileInvariants : public ::testing::Test
{
    TileInvariants()
    {
        rig.addTileCache(tinyCache(4096, 2), "llc");
        rig.connect();
    }

    TileCache &llc() { return rig.tileCache(0); }

    /** The valid frame slot holding @p tile (asserts it exists). */
    StorageSlot
    frameOf(std::uint64_t tile)
    {
        TileStorage &st = llc().storage();
        for (std::uint64_t s = 0; s < llc().numSets(); ++s) {
            for (unsigned w = 0; w < 2; ++w) {
                StorageSlot slot = st.slotOf(s, w);
                if (st.valid(slot) && st.tile(slot) == tile)
                    return slot;
            }
        }
        ADD_FAILURE() << "tile " << tile << " not cached";
        return st.slotOf(0, 0);
    }

    TestRig rig;
};

TEST_F(TileInvariants, CleanTrafficHasNoViolations)
{
    rig.readLine(OrientedLine(Orientation::Row, (2ull << 3) | 1));
    rig.writeWord(tileBase(2) + 5 * 64, 77);
    rig.readLine(OrientedLine(Orientation::Col, (2ull << 3) | 3));
    EXPECT_TRUE(llc().checkInvariants().empty());
}

TEST_F(TileInvariants, DetectsDirtyBitOnAbsentWord)
{
    rig.readLine(OrientedLine(Orientation::Row, (0ull << 3) | 1));
    StorageSlot e = frameOf(0);
    TileStorage &st = llc().storage();
    // Row 1 is present; mark a word of the never-filled row 5 dirty.
    ASSERT_EQ(st.wordValid(e) & (1ull << (5 * 8 + 2)), 0u);
    st.testWordDirty(e) |= 1ull << (5 * 8 + 2);
    EXPECT_TRUE(mentions(llc().checkInvariants(),
                         "dirty bits on absent words"));
}

TEST_F(TileInvariants, DetectsPresenceCounterDrift)
{
    rig.readLine(OrientedLine(Orientation::Row, (0ull << 3) | 1));
    StorageSlot e = frameOf(0);
    TileStorage &st = llc().storage();
    st.testWordValid(e) &= st.testWordValid(e) - 1; // drop one bit
    EXPECT_TRUE(mentions(llc().checkInvariants(),
                         "presence-bit counter"));
}

TEST_F(TileInvariants, DetectsBitsOnInvalidFrame)
{
    // No traffic: every frame is invalid.
    TileStorage &st = llc().storage();
    StorageSlot e = st.slotOf(0, 0);
    ASSERT_FALSE(st.valid(e));
    st.testWordValid(e) = 1;
    EXPECT_TRUE(mentions(llc().checkInvariants(), "invalid frame"));
}

struct LineInvariants : public ::testing::Test
{
    LineInvariants()
    {
        rig.addLineCache(tinyCache(1024, 2), LineMapping::TwoDDiffSet,
                         "l1");
        rig.connect();
    }

    LineCache &l1() { return rig.lineCache(0); }

    TestRig rig;
};

TEST_F(LineInvariants, CleanTrafficHasNoViolations)
{
    rig.readLine(OrientedLine(Orientation::Row, (3ull << 3) | 2));
    rig.writeWord(tileBase(3) + 2 * 64 + 5 * 8, 1);
    rig.readLine(OrientedLine(Orientation::Col, (3ull << 3) | 5));
    EXPECT_TRUE(l1().checkInvariants().empty());
}

TEST_F(LineInvariants, DetectsTwoDirtyCopiesOfOneWord)
{
    // Cache the crossing row and column of tile 3; their intersection
    // word (2,5) has two clean copies, which is legal...
    OrientedLine row(Orientation::Row, (3ull << 3) | 2);
    OrientedLine col(Orientation::Col, (3ull << 3) | 5);
    rig.readLine(row);
    rig.readLine(col);
    ASSERT_TRUE(l1().checkInvariants().empty());
    // ...until one copy goes dirty while the other survives — exactly
    // what the Fig. 9 write-evicts-duplicates policy must prevent.
    StorageSlot re = l1().storage().find(l1().setFor(row), row);
    ASSERT_NE(re, kNoSlot);
    l1().storage().testDirtyMask(re) |= 1u << 5; // word (2,5), row view
    EXPECT_TRUE(mentions(l1().checkInvariants(),
                         "second copy in an intersecting line"));
}

TEST_F(LineInvariants, DetectsDirtyMaskOnInvalidFrame)
{
    LineStorage &st = l1().storage();
    StorageSlot s = st.slotOf(0, 0);
    ASSERT_FALSE(st.valid(s));
    st.testDirtyMask(s) = 0x10;
    EXPECT_TRUE(mentions(l1().checkInvariants(), "dirty mask"));
}

TEST_F(LineInvariants, DetectsOccupancyCounterDrift)
{
    rig.readLine(OrientedLine(Orientation::Row, (1ull << 3) | 4));
    OrientedLine row(Orientation::Row, (1ull << 3) | 4);
    StorageSlot e = l1().storage().find(l1().setFor(row), row);
    ASSERT_NE(e, kNoSlot);
    // Frame vanishes but the counters still count it.
    l1().storage().testCorruptInvalidate(e);
    EXPECT_TRUE(mentions(l1().checkInvariants(),
                         "occupancy counters"));
}

TEST_F(LineInvariants, DetectsShadowMapDivergence)
{
    l1().storage().enableShadow();
    rig.readLine(OrientedLine(Orientation::Row, (1ull << 3) | 4));
    ASSERT_TRUE(l1().checkInvariants().empty());
    OrientedLine row(Orientation::Row, (1ull << 3) | 4);
    StorageSlot e = l1().storage().find(l1().setFor(row), row);
    ASSERT_NE(e, kNoSlot);
    // Drop the tag without telling the shadow map: the SoA arrays and
    // the shadow representation now disagree.
    l1().storage().testCorruptInvalidate(e);
    EXPECT_TRUE(mentions(l1().checkInvariants(), "shadow map"));
}

} // namespace
} // namespace mda::testing
