#include "trace_source.hh"

#include <sstream>

#include "sim/logging.hh"

namespace mda::trace
{

CaptureSource::CaptureSource(std::unique_ptr<TraceSource> inner,
                             const std::string &path)
    : _inner(std::move(inner)), _writer(path)
{
    mda_assert(_inner != nullptr, "capture needs an inner source");
}

bool
CaptureSource::next(compiler::TraceOp &op)
{
    if (!_inner->next(op)) {
        if (!_published) {
            _writer.finalize();
            _published = true;
        }
        return false;
    }
    _writer.append(op);
    return true;
}

void
CaptureSource::reset()
{
    // A restart would re-append the whole stream; no consumer resets
    // mid-capture today, so refuse loudly instead of corrupting.
    fatal("CaptureSource cannot reset while capturing %s",
          _writer.path().c_str());
}

ReplaySource::ReplaySource(const std::string &path) : _reader(path) {}

bool
ReplaySource::next(compiler::TraceOp &op)
{
    if (!_reader.next(op))
        return false;
    ++_emitted;
    return true;
}

void
ReplaySource::reset()
{
    _reader.reset();
    _emitted = 0;
}

std::string
traceFileName(const std::string &workload, std::int64_t n,
              std::uint64_t seed, const compiler::CompileOptions &opts)
{
    std::ostringstream os;
    os << workload << "-n" << n << "-s" << std::hex << seed
       << std::dec << (opts.mdaEnabled ? "-mda" : "-flat");
    if (opts.layoutOverride) {
        os << (*opts.layoutOverride ==
                       compiler::LayoutKind::RowMajor1D
                   ? "-rm"
                   : "-t2");
    }
    os << ".mdat";
    return os.str();
}

} // namespace mda::trace
