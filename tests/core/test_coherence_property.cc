/**
 * @file
 * End-to-end functional-coherence property tests.
 *
 * Random scalar/vector, row/column, read/write traffic is driven
 * through full multi-level hierarchies built from deliberately tiny
 * caches (to force duplication, false sharing, conflict evictions,
 * partial writebacks, and deferrals), while a flat reference model
 * applies the same operations in program order. Every read must
 * return exactly the reference value — this is the strongest check we
 * have on the Fig. 9 duplicate-coherence policy and the 2-D MSHR
 * ordering rules.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/backing_store.hh"
#include "sim/random.hh"
#include "test_rig.hh"

namespace mda::testing
{
namespace
{

/** Drive @p ops random serialized operations; check every read. */
void
runSerialRandomTraffic(TestRig &rig, unsigned ops, std::uint64_t seed,
                       unsigned tiles)
{
    Rng rng(seed);
    BackingStore ref;
    std::uint64_t next_value = 1;

    for (unsigned n = 0; n < ops; ++n) {
        std::uint64_t tile = rng.below(tiles);
        auto orient = rng.chance(0.5) ? Orientation::Row
                                      : Orientation::Col;
        bool is_write = rng.chance(0.4);
        bool is_vector = rng.chance(0.35);

        if (!is_vector) {
            unsigned r = static_cast<unsigned>(rng.below(8));
            unsigned c = static_cast<unsigned>(rng.below(8));
            Addr addr = tileBase(tile) + r * lineBytes + c * wordBytes;
            if (is_write) {
                std::uint64_t v = next_value++;
                ref.writeWord(addr, v);
                rig.writeWord(addr, v, orient);
            } else {
                ASSERT_EQ(rig.readWord(addr, orient), ref.readWord(addr))
                    << "scalar read mismatch at op " << n;
            }
        } else {
            OrientedLine line(orient,
                              (tile << 3) | rng.below(tileLines));
            if (is_write) {
                std::array<std::uint64_t, lineWords> vals;
                for (unsigned k = 0; k < lineWords; ++k) {
                    vals[k] = next_value++;
                    ref.writeWord(line.wordAddr(k), vals[k]);
                }
                rig.writeLine(line, vals);
            } else {
                auto vals = rig.readLine(line);
                for (unsigned k = 0; k < lineWords; ++k) {
                    ASSERT_EQ(vals[k], ref.readWord(line.wordAddr(k)))
                        << "vector read mismatch at op " << n
                        << " word " << k << " ("
                        << orientName(orient) << ")";
                }
            }
        }
    }
}

TEST(CoherenceProperty, OneLevel1P2LDiffSet)
{
    TestRig rig;
    rig.addLineCache(tinyCache(1024, 2), LineMapping::TwoDDiffSet,
                     "l1");
    rig.connect();
    runSerialRandomTraffic(rig, 4000, 101, 6);
}

TEST(CoherenceProperty, OneLevel1P2LSameSet)
{
    TestRig rig;
    rig.addLineCache(tinyCache(1024, 2), LineMapping::TwoDSameSet,
                     "l1");
    rig.connect();
    runSerialRandomTraffic(rig, 4000, 202, 6);
}

TEST(CoherenceProperty, TwoLevel1P2LHierarchy)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet, "l1");
    rig.addLineCache(tinyCache(2048, 4), LineMapping::TwoDDiffSet,
                     "l2");
    rig.connect();
    runSerialRandomTraffic(rig, 5000, 303, 8);
}

TEST(CoherenceProperty, MixedMappingsThreeLevels)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet, "l1");
    rig.addLineCache(tinyCache(1024, 2), LineMapping::TwoDSameSet,
                     "l2");
    rig.addLineCache(tinyCache(4096, 4), LineMapping::TwoDDiffSet,
                     "l3");
    rig.connect();
    runSerialRandomTraffic(rig, 5000, 404, 10);
}

TEST(CoherenceProperty, Design2WithTileLlc)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet, "l1");
    rig.addTileCache(tinyCache(4096, 2), "llc");
    rig.connect();
    runSerialRandomTraffic(rig, 5000, 505, 8);
}

TEST(CoherenceProperty, BaselineRowOnly)
{
    TestRig rig;
    CacheConfig cfg = tinyCache(512, 2);
    cfg.prefetch = true;
    rig.addLineCache(cfg, LineMapping::OneD, "l1");
    rig.addLineCache(tinyCache(2048, 4), LineMapping::OneD, "l2");
    rig.connect();
    // Row-only traffic (the baseline compiler never emits columns).
    Rng rng(606);
    BackingStore ref;
    std::uint64_t next_value = 1;
    for (unsigned n = 0; n < 4000; ++n) {
        Addr addr = alignDown(rng.below(8 * tileBytes), wordBytes);
        if (rng.chance(0.4)) {
            std::uint64_t v = next_value++;
            ref.writeWord(addr, v);
            rig.writeWord(addr, v);
        } else {
            ASSERT_EQ(rig.readWord(addr), ref.readWord(addr));
        }
    }
}

/**
 * Cold reads: a word that was never written must read as zero in
 * every design point — the backing store's zero-init guarantee (see
 * mem/backing_store.hh) observed through a full hierarchy.
 */
void
expectColdZeros(TestRig &rig, bool row_only)
{
    // Scalar probes across distinct tiles/rows/columns, both
    // orientation preferences, plus repeats (hit path after the fill).
    for (std::uint64_t tile = 0; tile < 3; ++tile) {
        Addr addr = tileBase(tile) + (tile % 8) * lineBytes +
                    ((tile * 3) % 8) * wordBytes;
        EXPECT_EQ(rig.readWord(addr), 0u) << "tile " << tile;
        auto orient = row_only || tile % 2 == 0 ? Orientation::Row
                                                : Orientation::Col;
        EXPECT_EQ(rig.readWord(addr, orient), 0u) << "tile " << tile;
    }
    for (unsigned k = 0; k < lineWords; ++k) {
        EXPECT_EQ(rig.readLine(OrientedLine(Orientation::Row, 8 * 3 + 2))[k],
                  0u);
        if (!row_only) {
            EXPECT_EQ(
                rig.readLine(OrientedLine(Orientation::Col, 8 * 4 + 5))[k],
                0u);
        }
    }
}

TEST(ColdReads, ReturnZero1P1L)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::OneD, "l1");
    rig.addLineCache(tinyCache(2048, 4), LineMapping::OneD, "l2");
    rig.connect();
    expectColdZeros(rig, /*row_only=*/true);
}

TEST(ColdReads, ReturnZero1P2LDiffSet)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet,
                     "l1");
    rig.addLineCache(tinyCache(2048, 4), LineMapping::TwoDDiffSet,
                     "l2");
    rig.connect();
    expectColdZeros(rig, /*row_only=*/false);
}

TEST(ColdReads, ReturnZero1P2LSameSet)
{
    TestRig rig;
    rig.addLineCache(tinyCache(1024, 2), LineMapping::TwoDSameSet,
                     "l1");
    rig.connect();
    expectColdZeros(rig, /*row_only=*/false);
}

TEST(ColdReads, ReturnZero2P2LSparse)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet,
                     "l1");
    rig.addTileCache(tinyCache(4096, 2), "llc");
    rig.connect();
    expectColdZeros(rig, /*row_only=*/false);
}

TEST(ColdReads, ReturnZero2P2LDense)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet,
                     "l1");
    rig.addTileCache(tinyCache(4096, 2), "llc",
                     TileFillPolicy::Dense);
    rig.connect();
    expectColdZeros(rig, /*row_only=*/false);
}

/**
 * Pipelined phase check: after a serialized write pass, issue large
 * batches of concurrent reads (mixed orientations, overlapping words)
 * and verify every response against the reference — exercises MSHR
 * coalescing, deferral, and response paths under concurrency.
 */
TEST(CoherenceProperty, ConcurrentReadsAfterWrites)
{
    TestRig rig;
    rig.addLineCache(tinyCache(512, 2), LineMapping::TwoDDiffSet, "l1");
    rig.addLineCache(tinyCache(2048, 4), LineMapping::TwoDSameSet,
                     "l2");
    rig.connect();

    constexpr unsigned tiles = 4;
    BackingStore ref;
    Rng rng(707);
    for (std::uint64_t tile = 0; tile < tiles; ++tile) {
        for (unsigned w = 0; w < 64; ++w) {
            Addr addr = tileBase(tile) + w * wordBytes;
            std::uint64_t v = rng.next();
            ref.writeWord(addr, v);
            rig.writeWord(addr, v,
                          rng.chance(0.5) ? Orientation::Row
                                          : Orientation::Col);
        }
    }

    for (unsigned round = 0; round < 50; ++round) {
        std::map<std::uint64_t, Addr> expectations; // pkt id -> addr
        std::map<std::uint64_t, OrientedLine> line_expect;
        for (unsigned n = 0; n < 24; ++n) {
            std::uint64_t tile = rng.below(tiles);
            auto orient = rng.chance(0.5) ? Orientation::Row
                                          : Orientation::Col;
            if (rng.chance(0.5)) {
                Addr addr = tileBase(tile) +
                            rng.below(64) * wordBytes;
                auto pkt = Packet::makeScalar(MemCmd::Read, addr,
                                              orient, 1,
                                              rig.eq.curTick());
                expectations[pkt->id] = addr;
                rig.send(std::move(pkt));
            } else {
                OrientedLine line(orient,
                                  (tile << 3) | rng.below(tileLines));
                auto pkt = Packet::makeVector(MemCmd::Read, line, 2,
                                              rig.eq.curTick());
                line_expect.emplace(pkt->id, line);
                rig.send(std::move(pkt));
            }
        }
        rig.eq.run();
        ASSERT_EQ(rig.cpu.responses.size(),
                  expectations.size() + line_expect.size());
        for (auto &rsp : rig.cpu.responses) {
            auto its = expectations.find(rsp->id);
            if (its != expectations.end()) {
                EXPECT_EQ(rsp->word(0), ref.readWord(its->second));
                continue;
            }
            const OrientedLine &line = line_expect.at(rsp->id);
            for (unsigned k = 0; k < lineWords; ++k)
                EXPECT_EQ(rsp->word(k), ref.readWord(line.wordAddr(k)));
        }
        rig.cpu.responses.clear();
    }
}

} // namespace
} // namespace mda::testing
