/**
 * @file
 * Validating binary trace reader.
 *
 * The file is mapped read-only and decoded straight out of the
 * mapping. Construction validates
 * everything up front — magic, schema version, reserved flags, header
 * CRC, payload CRC — and every structural violation found while
 * decoding (reserved record bits, over-long varints, truncated
 * records, trailing bytes) is a fatal diagnostic, never UB: a
 * truncated or garbage file can not silently replay as a different
 * workload.
 */

#ifndef MDA_TRACE_TRACE_READER_HH
#define MDA_TRACE_TRACE_READER_HH

#include <cstdint>
#include <string>

#include "compiler/trace.hh"
#include "trace_format.hh"

namespace mda::trace
{

/** Decodes a trace file back into the TraceOp stream. */
class TraceReader
{
  public:
    /** Open and fully validate @p path; fatal on any defect. */
    explicit TraceReader(const std::string &path);

    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Decode the next operation.
     * @return False when all opCount() records were consumed.
     */
    bool next(compiler::TraceOp &op);

    /** Restart from the first record. */
    void reset();

    std::uint64_t opCount() const { return _opCount; }

    const std::string &path() const { return _path; }

  private:
    void validate();
    bool byteAt(std::uint64_t payload_off, unsigned char &out);
    std::uint64_t readVarint();

    std::string _path;

    const unsigned char *_map = nullptr;
    std::uint64_t _fileBytes = 0;
    int _fd = -1;

    std::uint64_t _payloadBytes = 0;
    std::uint64_t _opCount = 0;

    // Decoder state.
    std::uint64_t _pos = 0; ///< Next payload byte to decode.
    std::uint64_t _decoded = 0;
    Addr _prevAddr = 0;
    std::uint32_t _prevPc = 0;
};

} // namespace mda::trace

#endif // MDA_TRACE_TRACE_READER_HH
