/** @file Round-trip property tests: TraceWriter -> TraceReader. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "sim/random.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace mda::trace
{
namespace
{

using compiler::TraceOp;

std::string
tracePath(const std::string &name)
{
    return testing::TempDir() + "roundtrip_" + name + ".mdat";
}

void
expectOpEq(const TraceOp &a, const TraceOp &b, std::size_t idx)
{
    EXPECT_EQ(a.addr, b.addr) << "op " << idx;
    EXPECT_EQ(a.orient, b.orient) << "op " << idx;
    EXPECT_EQ(a.isWrite, b.isWrite) << "op " << idx;
    EXPECT_EQ(a.isVector, b.isVector) << "op " << idx;
    EXPECT_EQ(a.wordMask, b.wordMask) << "op " << idx;
    EXPECT_EQ(a.pc, b.pc) << "op " << idx;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << "op " << idx;
}

/** Write @p ops, then decode them back and compare. */
void
roundTrip(const std::vector<TraceOp> &ops, const std::string &name)
{
    std::string path = tracePath(name);
    {
        TraceWriter writer(path);
        for (const auto &op : ops)
            writer.append(op);
        EXPECT_EQ(writer.opsWritten(), ops.size());
        writer.finalize();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.opCount(), ops.size());
    TraceOp op;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ASSERT_TRUE(reader.next(op)) << "op " << i;
        expectOpEq(op, ops[i], i);
    }
    EXPECT_FALSE(reader.next(op));

    // reset() replays the identical stream.
    reader.reset();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ASSERT_TRUE(reader.next(op));
        expectOpEq(op, ops[i], i);
    }
    EXPECT_FALSE(reader.next(op));
    std::remove(path.c_str());
}

TraceOp
scalarRead(Addr addr)
{
    TraceOp op;
    op.addr = addr;
    return op;
}

TEST(TraceRoundTrip, EmptyTrace)
{
    roundTrip({}, "empty");
}

TEST(TraceRoundTrip, FieldElisionCases)
{
    std::vector<TraceOp> ops;
    // Scalar read: the 2-byte minimal record.
    ops.push_back(scalarRead(64));
    // Vector full-mask: mask byte elided.
    TraceOp vec = scalarRead(128);
    vec.isVector = true;
    vec.wordMask = 0xff;
    ops.push_back(vec);
    // Vector partial-mask: mask byte present.
    vec.addr = 256;
    vec.wordMask = 0x0f;
    ops.push_back(vec);
    // Column-oriented write with compute and a pc change.
    TraceOp col = scalarRead(8);
    col.orient = Orientation::Col;
    col.isWrite = true;
    col.pc = 42;
    col.computeCycles = 7;
    ops.push_back(col);
    // Same pc again: the pc varint is elided but decoded ops still
    // carry it.
    col.addr = 16;
    col.computeCycles = 0;
    ops.push_back(col);
    roundTrip(ops, "elision");
}

TEST(TraceRoundTrip, AddressWraparoundDeltas)
{
    // Deltas that cross zero and 2^63 in both directions: the
    // unsigned wraparound encoding must reproduce any address pair.
    std::vector<TraceOp> ops;
    ops.push_back(scalarRead(0));
    ops.push_back(
        scalarRead(std::numeric_limits<std::uint64_t>::max()));
    ops.push_back(scalarRead(0));
    ops.push_back(scalarRead(0x8000000000000000ull));
    ops.push_back(scalarRead(0x7fffffffffffffffull));
    ops.push_back(scalarRead(1));
    roundTrip(ops, "wraparound");
}

TEST(TraceRoundTrip, MaxLengthVarints)
{
    // A delta of int64 min zigzags to ~0ull — the full ten-byte
    // varint — and pc/compute at uint32 max need five bytes each.
    std::vector<TraceOp> ops;
    ops.push_back(scalarRead(0));
    TraceOp op = scalarRead(0x8000000000000000ull);
    op.pc = std::numeric_limits<std::uint32_t>::max();
    op.computeCycles = std::numeric_limits<std::uint32_t>::max();
    ops.push_back(op);
    roundTrip(ops, "maxvarint");
}

TEST(TraceRoundTrip, RandomStreamsMmapAndStreamAgree)
{
    // Property test: a seeded random stream of several hundred KiB
    // round-trips through the mapped reader.
    Rng rng(0xdecade);
    std::vector<TraceOp> ops;
    ops.reserve(200000);
    Addr addr = 0;
    for (int i = 0; i < 200000; ++i) {
        TraceOp op;
        // Mix locality (small forward steps) with far jumps.
        if (rng.below(8) == 0)
            addr = rng.below(std::numeric_limits<std::uint64_t>::max());
        else
            addr += 8 * rng.below(64);
        op.addr = addr;
        op.orient = rng.below(2) ? Orientation::Col : Orientation::Row;
        op.isWrite = rng.below(4) == 0;
        op.isVector = rng.below(2) == 0;
        op.wordMask =
            op.isVector
                ? static_cast<std::uint8_t>(1 + rng.below(255))
                : 0x01;
        op.pc = static_cast<std::uint32_t>(rng.below(32));
        op.computeCycles = static_cast<std::uint32_t>(rng.below(4));
        ops.push_back(op);
    }
    roundTrip(ops, "random");
}

TEST(TraceRoundTrip, DeltaEncodingIsCompact)
{
    // Sequential word-stride scalars are the common kernel shape;
    // they must cost ~2 bytes per record, not sizeof(TraceOp).
    std::vector<TraceOp> ops;
    for (int i = 0; i < 1000; ++i)
        ops.push_back(scalarRead(static_cast<Addr>(8 * i)));
    std::string path = tracePath("compact");
    {
        TraceWriter writer(path);
        for (const auto &op : ops)
            writer.append(op);
        writer.finalize();
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    auto bytes = static_cast<std::uint64_t>(in.tellg());
    EXPECT_LE(bytes, traceHeaderBytes + ops.size() * 3);
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, WriterWithoutFinalizePublishesNothing)
{
    std::string path = tracePath("abandoned");
    {
        TraceWriter writer(path);
        writer.append(scalarRead(64));
        // No finalize: destruction must remove the temporary and
        // never publish the target path.
    }
    std::ifstream in(path);
    EXPECT_FALSE(in.good());
}

} // namespace
} // namespace mda::trace
