/**
 * @file
 * TraceReader rejection tests: every malformed input — truncation,
 * garbage, version skew, corruption — must die with a fatal
 * diagnostic, never decode junk or invoke UB.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace mda::trace
{
namespace
{

using compiler::TraceOp;

std::string
writeBytes(const std::string &name,
           const std::vector<unsigned char> &bytes)
{
    std::string path = testing::TempDir() + "badtrace_" + name;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    return path;
}

/** A structurally valid file around an arbitrary payload: correct
 *  magic, version, and CRCs, with the caller-claimed op count. */
std::vector<unsigned char>
makeTrace(std::uint64_t op_count,
          const std::vector<unsigned char> &payload)
{
    std::vector<unsigned char> file(traceHeaderBytes + payload.size(),
                                    0);
    for (std::size_t i = 0; i < traceMagic.size(); ++i)
        file[headerMagicOff + i] = traceMagic[i];
    putLe32(&file[headerVersionOff], traceSchemaVersion);
    putLe32(&file[headerFlagsOff], 0);
    putLe64(&file[headerOpCountOff], op_count);
    putLe32(&file[headerPayloadCrcOff],
            crc32Final(crc32Update(crc32Init, payload.data(),
                                   payload.size())));
    putLe32(&file[headerCrcOff],
            crc32Final(
                crc32Update(crc32Init, file.data(), headerCrcOff)));
    std::copy(payload.begin(), payload.end(),
              file.begin() + traceHeaderBytes);
    return file;
}

/** A genuine single-op trace produced by the writer. */
std::string
goodTrace(const std::string &name)
{
    std::string path = testing::TempDir() + "goodtrace_" + name;
    TraceWriter writer(path);
    TraceOp op;
    op.addr = 64;
    writer.append(op);
    op.addr = 72;
    writer.append(op);
    writer.finalize();
    return path;
}

void
expectFatal(const std::string &path, const char *pattern)
{
    EXPECT_EXIT(
        {
            TraceReader reader(path);
            TraceOp op;
            while (reader.next(op)) {
            }
            std::exit(42); // decoded cleanly: wrong for these tests
        },
        testing::ExitedWithCode(1), pattern);
}

TEST(TraceReaderDeathTest, MissingFileIsFatal)
{
    expectFatal(testing::TempDir() + "no_such_trace.mdat",
                "cannot open trace file");
}

TEST(TraceReaderDeathTest, ShortFileIsFatal)
{
    auto path = writeBytes("short", {'M', 'D', 'A'});
    expectFatal(path, "truncated header");
}

TEST(TraceReaderDeathTest, EmptyFileIsFatal)
{
    auto path = writeBytes("empty", {});
    expectFatal(path, "truncated header");
}

TEST(TraceReaderDeathTest, BadMagicIsFatal)
{
    auto file = makeTrace(0, {});
    file[0] = 'X';
    expectFatal(writeBytes("magic", file), "bad magic");
}

TEST(TraceReaderDeathTest, VersionSkewIsFatal)
{
    auto file = makeTrace(0, {});
    putLe32(&file[headerVersionOff], traceSchemaVersion + 1);
    // Version is covered by the header CRC; re-patch it so the
    // version check itself fires.
    putLe32(&file[headerCrcOff],
            crc32Final(
                crc32Update(crc32Init, file.data(), headerCrcOff)));
    expectFatal(writeBytes("version", file), "schema version");
}

TEST(TraceReaderDeathTest, ReservedHeaderFlagsAreFatal)
{
    auto file = makeTrace(0, {});
    putLe32(&file[headerFlagsOff], 1);
    putLe32(&file[headerCrcOff],
            crc32Final(
                crc32Update(crc32Init, file.data(), headerCrcOff)));
    expectFatal(writeBytes("hdrflags", file), "reserved header flags");
}

TEST(TraceReaderDeathTest, HeaderCorruptionIsFatal)
{
    auto file = makeTrace(0, {});
    file[headerOpCountOff] ^= 0x01; // CRC now stale
    expectFatal(writeBytes("hdrcrc", file), "header CRC mismatch");
}

TEST(TraceReaderDeathTest, PayloadCorruptionIsFatal)
{
    // Flip one payload byte of a writer-produced trace.
    std::string path = goodTrace("corrupt");
    std::fstream f(path, std::ios::binary | std::ios::in |
                             std::ios::out);
    f.seekp(traceHeaderBytes);
    char byte;
    f.seekg(traceHeaderBytes);
    f.get(byte);
    f.seekp(traceHeaderBytes);
    f.put(static_cast<char>(byte ^ 0x40));
    f.close();
    expectFatal(path, "payload CRC mismatch");
    std::remove(path.c_str());
}

TEST(TraceReaderDeathTest, TruncatedTailIsFatal)
{
    // Chop the last byte off a valid trace: the payload CRC scan must
    // catch it before any record is replayed.
    std::string good = goodTrace("chop");
    std::ifstream in(good, std::ios::binary);
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    bytes.pop_back();
    expectFatal(writeBytes("chopped", bytes), "payload CRC mismatch");
    std::remove(good.c_str());
}

TEST(TraceReaderDeathTest, ReservedRecordBitsAreFatal)
{
    // Flags byte with a reserved bit set; CRCs are valid, so only the
    // record decoder can reject it.
    expectFatal(writeBytes("recbits", makeTrace(1, {0xC0, 0x00})),
                "reserved record flag bits");
}

TEST(TraceReaderDeathTest, TruncatedVarintIsFatal)
{
    // One record: clean flags, then a varint whose continuation bit
    // promises a byte that never comes.
    expectFatal(writeBytes("truncvarint", makeTrace(1, {0x00, 0x80})),
                "truncated varint");
}

TEST(TraceReaderDeathTest, OverlongVarintIsFatal)
{
    // Eleven continuation bytes: more than any 64-bit value needs.
    std::vector<unsigned char> payload{0x00};
    for (int i = 0; i < 11; ++i)
        payload.push_back(0x80);
    payload.push_back(0x00);
    expectFatal(writeBytes("overlong", makeTrace(1, payload)),
                "over-long varint");
}

TEST(TraceReaderDeathTest, TruncatedRecordCountIsFatal)
{
    // Header claims two records; payload holds one.
    expectFatal(writeBytes("count", makeTrace(2, {0x00, 0x00})),
                "truncated at record");
}

TEST(TraceReaderDeathTest, TrailingBytesAreFatal)
{
    // Payload continues past the final claimed record.
    expectFatal(writeBytes("trailing",
                           makeTrace(1, {0x00, 0x00, 0x00, 0x00})),
                "trailing byte");
}

TEST(TraceReaderDeathTest, TruncatedMaskIsFatal)
{
    // Vector record with mask-present flag but no mask byte.
    expectFatal(
        writeBytes("mask",
                   makeTrace(1, {recIsVector | recHasMask, 0x00})),
        "truncated word mask");
}

} // namespace
} // namespace mda::trace
