/**
 * @file
 * Unit tests for the Packet recycling arena.
 *
 * The pool's determinism contract: a recycled packet must be
 * indistinguishable from a heap-fresh one (zeroed payload, fresh id),
 * and the free list must be ordered by release order only — never by
 * address — so recycling cannot perturb simulated behavior. Slot
 * indices are dense and survive recycling; ids are process-unique
 * even when pools on different threads allocate at once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "sim/packet.hh"
#include "sim/packet_pool.hh"

namespace mda
{
namespace
{

TEST(PacketPool, RecycleReusesStorageWithFreshState)
{
    PacketPool pool;
    auto pkt = Packet::makeLineFill(OrientedLine(Orientation::Row, 7),
                                    /*prefetch=*/true, 10, &pool);
    // Dirty every observable field.
    for (unsigned k = 0; k < lineWords; ++k)
        pkt->setWord(k, 0xfeedf00d0000ull + k);
    pkt->makeResponse();
    const Packet *old_addr = pkt.get();
    const std::uint64_t old_id = pkt->id;

    pkt.reset(); // releases into the pool's free list

    auto again = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                    0, 0, &pool);
    // Same storage, but re-constructed in place: fresh id, zeroed
    // payload, no leftover flags.
    EXPECT_EQ(again.get(), old_addr);
    EXPECT_NE(again->id, old_id);
    EXPECT_FALSE(again->isResponse);
    EXPECT_FALSE(again->isLineFill);
    EXPECT_FALSE(again->isPrefetch);
    for (unsigned k = 0; k < lineWords; ++k)
        EXPECT_EQ(again->word(k), 0u) << "word " << k;

    EXPECT_EQ(pool.allocated(), 1u);
    EXPECT_EQ(pool.recycled(), 1u);
}

TEST(PacketPool, FreeListIsLifoByReleaseOrder)
{
    PacketPool pool;
    auto a = Packet::makeScalar(MemCmd::Read, 0x00, Orientation::Row,
                                0, 0, &pool);
    auto b = Packet::makeScalar(MemCmd::Read, 0x40, Orientation::Row,
                                0, 0, &pool);
    auto c = Packet::makeScalar(MemCmd::Read, 0x80, Orientation::Row,
                                0, 0, &pool);
    Packet *pa = a.get(), *pb = b.get(), *pc = c.get();

    a.reset();
    b.reset();
    c.reset();
    EXPECT_EQ(pool.freeCount(), 3u);

    // Most recently released comes back first: c, then b, then a.
    auto r1 = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                 0, 0, &pool);
    auto r2 = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                 0, 0, &pool);
    auto r3 = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                 0, 0, &pool);
    EXPECT_EQ(r1.get(), pc);
    EXPECT_EQ(r2.get(), pb);
    EXPECT_EQ(r3.get(), pa);
    EXPECT_EQ(pool.freeCount(), 0u);
    EXPECT_EQ(pool.recycled(), 3u);
}

TEST(PacketPool, NullPoolFallsBackToHeap)
{
    auto pkt = Packet::makeScalar(MemCmd::Write, 0x100,
                                  Orientation::Col, 3, 5, nullptr);
    EXPECT_EQ(pkt->pool, nullptr);
    EXPECT_EQ(pkt->cmd, MemCmd::Write);
    // PacketPtr's deleter must route this through operator delete,
    // not a pool: destruction here under ASan would flag any mistake.
}

TEST(PacketPool, GrowsBeyondOneSlab)
{
    PacketPool pool;
    constexpr std::size_t count = PacketPool::slabPackets * 2 + 5;
    std::vector<PacketPtr> live;
    live.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        live.push_back(Packet::makeScalar(
            MemCmd::Read, i * wordBytes, Orientation::Row, 0, 0,
            &pool));

    EXPECT_EQ(pool.allocated(), count);
    EXPECT_EQ(pool.recycled(), 0u);
    EXPECT_GE(pool.slabBytes(),
              3 * PacketPool::slabPackets * sizeof(Packet));

    // All distinct storage while live.
    for (std::size_t i = 0; i < count; ++i)
        for (std::size_t j = i + 1; j < count; ++j)
            ASSERT_NE(live[i].get(), live[j].get());

    live.clear();
    EXPECT_EQ(pool.freeCount(), count);
}

TEST(PacketPool, SlotsAreDenseAndSurviveRecycling)
{
    PacketPool pool;
    constexpr std::size_t count = PacketPool::slabPackets + 3;
    std::vector<PacketPtr> live;
    for (std::size_t i = 0; i < count; ++i) {
        live.push_back(Packet::makeScalar(MemCmd::Read, 0,
                                          Orientation::Row, 0, 0,
                                          &pool));
        EXPECT_EQ(live.back()->slot, i); // carved in order, from 0
    }

    // Recycled storage keeps its slot, whatever the release order.
    std::vector<const Packet *> storage;
    std::vector<std::uint32_t> slots;
    for (const PacketPtr &pkt : live) {
        storage.push_back(pkt.get());
        slots.push_back(pkt->slot);
    }
    std::reverse(live.begin(), live.end());
    live.resize(count / 2); // release the lower half of the slots
    for (std::size_t i = 0; i < count - count / 2; ++i) {
        auto again = Packet::makeScalar(MemCmd::Read, 0,
                                        Orientation::Row, 0, 0, &pool);
        auto at =
            std::find(storage.begin(), storage.end(), again.get());
        ASSERT_NE(at, storage.end());
        EXPECT_EQ(again->slot, slots[at - storage.begin()]);
        EXPECT_LT(again->slot, pool.allocated());
        live.push_back(std::move(again));
    }
    EXPECT_EQ(pool.allocated(), count);
}

TEST(PacketPool, IdsAreUniqueAcrossRecycles)
{
    PacketPool pool;
    std::set<std::uint64_t> ids;
    for (int round = 0; round < 4; ++round) {
        std::vector<PacketPtr> live;
        for (int i = 0; i < 100; ++i) {
            live.push_back(Packet::makeScalar(MemCmd::Read, 0,
                                              Orientation::Row, 0, 0,
                                              &pool));
            EXPECT_TRUE(ids.insert(live.back()->id).second);
        }
    }
    EXPECT_EQ(pool.allocated(), 100u);
    EXPECT_EQ(pool.recycled(), 300u);
}

TEST(PacketPool, IdsAreUniqueAcrossConcurrentPools)
{
    // Two pools on two threads, as in a parallel sweep: each keeps a
    // small working set and recycles it, so ids are drawn from both
    // threads throughout. Under ThreadSanitizer this also checks that
    // the allocation path shares nothing unsynchronized.
    constexpr int perThread = 20000;
    std::vector<std::uint64_t> ids[2];
    auto churn = [](std::vector<std::uint64_t> &out) {
        PacketPool pool;
        std::vector<PacketPtr> live(8);
        for (int i = 0; i < perThread; ++i) {
            PacketPtr &pkt = live[i % live.size()];
            pkt = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                     0, 0, &pool);
            out.push_back(pkt->id);
        }
    };
    std::thread a(churn, std::ref(ids[0]));
    std::thread b(churn, std::ref(ids[1]));
    a.join();
    b.join();

    std::set<std::uint64_t> all;
    for (const auto &thread_ids : ids) {
        ASSERT_EQ(thread_ids.size(), std::size_t{perThread});
        // Within a thread, ids still increase.
        EXPECT_TRUE(
            std::is_sorted(thread_ids.begin(), thread_ids.end()));
        all.insert(thread_ids.begin(), thread_ids.end());
    }
    EXPECT_EQ(all.size(), std::size_t{2 * perThread});
}

TEST(PacketPoolDeathTest, ReleaseToWrongPoolPanics)
{
    PacketPool a, b;
    auto pkt = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                  0, 0, &a);
    EXPECT_DEATH(b.release(pkt.get()), "wrong pool");
}

} // namespace
} // namespace mda
