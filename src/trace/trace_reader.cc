#include "trace_reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "sim/logging.hh"

namespace mda::trace
{

TraceReader::TraceReader(const std::string &path) : _path(path)
{
    _fd = ::open(path.c_str(), O_RDONLY);
    if (_fd < 0)
        fatal("cannot open trace file: %s", path.c_str());
    struct stat st;
    if (::fstat(_fd, &st) != 0)
        fatal("cannot stat trace file: %s", path.c_str());
    _fileBytes = static_cast<std::uint64_t>(st.st_size);
    if (_fileBytes > 0) {
        void *map = ::mmap(nullptr, _fileBytes, PROT_READ, MAP_PRIVATE,
                           _fd, 0);
        if (map == MAP_FAILED)
            fatal("cannot mmap trace file: %s", path.c_str());
        _map = static_cast<const unsigned char *>(map);
    }
    validate();
}

TraceReader::~TraceReader()
{
    if (_map)
        ::munmap(const_cast<unsigned char *>(_map), _fileBytes);
    if (_fd >= 0)
        ::close(_fd);
}

void
TraceReader::validate()
{
    if (_fileBytes < traceHeaderBytes)
        fatal("trace file %s: truncated header (%llu bytes, need %zu)",
              _path.c_str(), (unsigned long long)_fileBytes,
              traceHeaderBytes);

    unsigned char header[traceHeaderBytes];
    std::memcpy(header, _map, sizeof(header));

    if (std::memcmp(header + headerMagicOff, traceMagic.data(),
                    traceMagic.size()) != 0)
        fatal("trace file %s: bad magic (not an MDA trace)",
              _path.c_str());
    std::uint32_t version = getLe32(header + headerVersionOff);
    if (version != traceSchemaVersion)
        fatal("trace file %s: schema version %u, this build reads "
              "version %u; re-capture the trace",
              _path.c_str(), version, traceSchemaVersion);
    if (getLe32(header + headerFlagsOff) != 0)
        fatal("trace file %s: reserved header flags set",
              _path.c_str());
    std::uint32_t header_crc = crc32Final(
        crc32Update(crc32Init, header, headerCrcOff));
    if (header_crc != getLe32(header + headerCrcOff))
        fatal("trace file %s: header CRC mismatch (corrupt file)",
              _path.c_str());

    _opCount = getLe64(header + headerOpCountOff);
    _payloadBytes = _fileBytes - traceHeaderBytes;

    // Full payload CRC pass up front: replay must never begin on a
    // file whose tail is corrupt.
    std::uint32_t crc =
        crc32Update(crc32Init, _map + traceHeaderBytes, _payloadBytes);
    if (crc32Final(crc) != getLe32(header + headerPayloadCrcOff))
        fatal("trace file %s: payload CRC mismatch (truncated or "
              "corrupt file)", _path.c_str());

    reset();
}

void
TraceReader::reset()
{
    _pos = 0;
    _decoded = 0;
    _prevAddr = 0;
    _prevPc = 0;
}

bool
TraceReader::byteAt(std::uint64_t payload_off, unsigned char &out)
{
    if (payload_off >= _payloadBytes)
        return false;
    out = _map[traceHeaderBytes + payload_off];
    return true;
}

std::uint64_t
TraceReader::readVarint()
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (std::size_t i = 0; i < maxVarintBytes; ++i) {
        unsigned char b;
        if (!byteAt(_pos++, b))
            fatal("trace file %s: truncated varint in record %llu",
                  _path.c_str(), (unsigned long long)_decoded);
        v |= static_cast<std::uint64_t>(b & 0x7fu) << shift;
        if (!(b & 0x80u))
            return v;
        shift += 7;
    }
    fatal("trace file %s: over-long varint in record %llu",
          _path.c_str(), (unsigned long long)_decoded);
}

bool
TraceReader::next(compiler::TraceOp &op)
{
    if (_decoded == _opCount) {
        if (_pos != _payloadBytes)
            fatal("trace file %s: %llu trailing byte(s) after final "
                  "record", _path.c_str(),
                  (unsigned long long)(_payloadBytes - _pos));
        return false;
    }

    unsigned char flags;
    if (!byteAt(_pos++, flags))
        fatal("trace file %s: truncated at record %llu of %llu",
              _path.c_str(), (unsigned long long)_decoded,
              (unsigned long long)_opCount);
    if (flags & recReservedBits)
        fatal("trace file %s: reserved record flag bits set in "
              "record %llu", _path.c_str(),
              (unsigned long long)_decoded);

    std::int64_t delta = zigzagDecode(readVarint());
    _prevAddr = _prevAddr + static_cast<Addr>(delta);

    op.addr = _prevAddr;
    op.isWrite = (flags & recIsWrite) != 0;
    op.isVector = (flags & recIsVector) != 0;
    op.orient = (flags & recIsColumn) ? Orientation::Col
                                      : Orientation::Row;
    if (flags & recHasMask) {
        unsigned char mask;
        if (!byteAt(_pos++, mask))
            fatal("trace file %s: truncated word mask in record %llu",
                  _path.c_str(), (unsigned long long)_decoded);
        op.wordMask = mask;
    } else {
        op.wordMask = op.isVector ? 0xff : 0x01;
    }
    if (flags & recNewPc)
        _prevPc = static_cast<std::uint32_t>(readVarint());
    op.pc = _prevPc;
    op.computeCycles =
        (flags & recHasCompute)
            ? static_cast<std::uint32_t>(readVarint())
            : 0;

    ++_decoded;
    return true;
}

} // namespace mda::trace
