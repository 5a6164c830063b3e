/**
 * @file
 * TraceSource: where a TraceCpu's operation stream comes from.
 *
 * The CPU model pulls TraceOps through this interface and never knows
 * whether they are generated live from a compiled kernel
 * (GeneratorSource), generated live while being captured to a trace
 * file (CaptureSource), replayed from a previously captured file
 * (ReplaySource), or read from a list in memory (VectorSource).
 * Replay produces the exact operation stream of live generation, so
 * simulated timing and every statistic are byte-identical — only the
 * host-side cost of walking the loop nest is eliminated.
 */

#ifndef MDA_TRACE_TRACE_SOURCE_HH
#define MDA_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/trace_gen.hh"
#include "trace_reader.hh"
#include "trace_writer.hh"

namespace mda::trace
{

/** Pull-interface operation stream (mirrors TraceGenerator). */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next op; false when the stream is exhausted. */
    virtual bool next(compiler::TraceOp &op) = 0;

    /** Restart from the first operation. */
    virtual void reset() = 0;

    /** Operations handed out so far. */
    virtual std::uint64_t opsEmitted() const = 0;

    /**
     * Length of the whole stream in operations, found without
     * producing it: from loop bounds, a closed form or a trace header.
     * An 8-wide vector group counts as one op, but one that straddles
     * two oriented lines is emitted as two, so the hint lies between
     * half the emitted count and the count itself. Used to order
     * sweep cells, never to bound a run.
     */
    virtual std::uint64_t sizeHint() const = 0;
};

/** Live generation from a compiled kernel. */
class GeneratorSource : public TraceSource
{
  public:
    /** @param ck Compiled kernel; must outlive the source. */
    explicit GeneratorSource(const compiler::CompiledKernel &ck)
        : _gen(ck)
    {}

    bool next(compiler::TraceOp &op) override { return _gen.next(op); }
    void reset() override { _gen.reset(); }
    std::uint64_t opsEmitted() const override
    {
        return _gen.opsEmitted();
    }
    std::uint64_t sizeHint() const override { return _gen.sizeHint(); }

  private:
    compiler::TraceGenerator _gen;
};

/** A fixed operation list held in memory (fuzz scenarios). */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<compiler::TraceOp> ops)
        : _ops(std::move(ops))
    {}

    bool
    next(compiler::TraceOp &op) override
    {
        if (_next == _ops.size())
            return false;
        op = _ops[_next++];
        return true;
    }

    void reset() override { _next = 0; }
    std::uint64_t opsEmitted() const override { return _next; }
    /** Exact: the list's length. */
    std::uint64_t sizeHint() const override { return _ops.size(); }

  private:
    std::vector<compiler::TraceOp> _ops;
    std::size_t _next = 0;
};

/** Tee: pass an inner source through while writing it to a file.
 *  The file is published (atomic rename) when the inner stream is
 *  exhausted; an aborted run leaves no partial trace behind. */
class CaptureSource : public TraceSource
{
  public:
    CaptureSource(std::unique_ptr<TraceSource> inner,
                  const std::string &path);

    bool next(compiler::TraceOp &op) override;
    void reset() override;
    std::uint64_t opsEmitted() const override
    {
        return _inner->opsEmitted();
    }
    std::uint64_t sizeHint() const override
    {
        return _inner->sizeHint();
    }

  private:
    std::unique_ptr<TraceSource> _inner;
    TraceWriter _writer;
    bool _published = false;
};

/** Replay from a captured trace file. */
class ReplaySource : public TraceSource
{
  public:
    explicit ReplaySource(const std::string &path);

    bool next(compiler::TraceOp &op) override;
    void reset() override;
    std::uint64_t opsEmitted() const override { return _emitted; }
    /** Exact: the header's op count. */
    std::uint64_t sizeHint() const override
    {
        return _reader.opCount();
    }

  private:
    TraceReader _reader;
    std::uint64_t _emitted = 0;
};

/**
 * Canonical file name for one trace within a capture/replay
 * directory. The name covers exactly the inputs the generated stream
 * depends on — workload, input size, seed, and the compile mode
 * (MDA vs. flat, plus any layout override) — so design points that
 * compile identically share one file and ablations do not collide.
 */
std::string traceFileName(const std::string &workload, std::int64_t n,
                          std::uint64_t seed,
                          const compiler::CompileOptions &opts);

} // namespace mda::trace

#endif // MDA_TRACE_TRACE_SOURCE_HH
