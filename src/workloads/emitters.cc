#include "emitters.hh"

#include <algorithm>
#include <vector>

#include "compiler/layout.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace mda::workloads
{

namespace
{

using compiler::TraceOp;

/**
 * CSR SpMV: y = A * x repeated over several iterations (a power-
 * iteration-style traversal), emitted directly.
 *
 * The matrix is (2n x 2n) with a fixed 16 nonzeros per row, so each
 * row's column indices and values occupy two aligned cache lines —
 * vectorizable streams — while the x gathers are scalar and reuse-
 * heavy: half the nonzeros land in a 64-column hot set (the column-
 * cluster reuse MDA-style caches target), half are uniform.
 *
 * The five arrays live in 1-D row-major layouts regardless of the
 * compile mode: CSR streams are one-dimensional, so there is no
 * column dimension to pad, and the trace is identical for MDA and
 * flat hierarchies (only the cache design point differs).
 */
class SpmvSource : public trace::TraceSource
{
  public:
    SpmvSource(const WorkloadParams &params,
               const compiler::CompileOptions &opts)
        : _dim(2 * params.n)
    {
        mda_assert(_dim >= hotCols, "spmv needs n >= 32");

        Addr base = opts.dataBase;
        auto place = [&base](std::int64_t words) {
            auto layout = std::make_unique<compiler::RowMajorLayout>(
                base, 1, words);
            base = alignUp(base + layout->footprintBytes(),
                           tileBytes);
            return layout;
        };
        _rowPtr = place(_dim + 1);
        _colIdx = place(_dim * nnzPerRow);
        _vals = place(_dim * nnzPerRow);
        _x = place(_dim);
        _y = place(_dim);

        // Column pattern: per-row seeded streams, sorted ascending
        // like a real CSR. Pure function of the workload seed.
        _cols.resize(static_cast<std::size_t>(_dim * nnzPerRow));
        for (std::int64_t row = 0; row < _dim; ++row) {
            Rng rng(Rng::streamSeed(params.seed,
                                    static_cast<std::uint64_t>(row)));
            auto *row_cols =
                &_cols[static_cast<std::size_t>(row * nnzPerRow)];
            for (int k = 0; k < nnzPerRow; ++k) {
                row_cols[k] = (k % 2 == 0)
                                  ? static_cast<std::int64_t>(
                                        rng.below(hotCols))
                                  : static_cast<std::int64_t>(
                                        rng.below(static_cast<
                                                  std::uint64_t>(
                                            _dim)));
            }
            std::sort(row_cols, row_cols + nnzPerRow);
        }
        _buffer.reserve(perRowOps);
    }

    bool
    next(TraceOp &op) override
    {
        if (_head == _buffer.size() && !refill())
            return false;
        op = _buffer[_head++];
        ++_emitted;
        return true;
    }

    void
    reset() override
    {
        _iter = 0;
        _row = 0;
        _buffer.clear();
        _head = 0;
        _emitted = 0;
    }

    std::uint64_t opsEmitted() const override { return _emitted; }

    /** Exact: every row emits the same perRowOps. */
    std::uint64_t
    sizeHint() const override
    {
        return static_cast<std::uint64_t>(iterations * _dim) * perRowOps;
    }

  private:
    static constexpr int nnzPerRow = 16;
    static constexpr int iterations = 8;
    static constexpr std::int64_t hotCols = 64;
    static constexpr std::size_t perRowOps =
        2 + 2 * (nnzPerRow / 8) + nnzPerRow + 1;

    void
    push(Addr addr, bool is_write, bool is_vector, std::uint32_t pc,
         std::uint32_t compute)
    {
        TraceOp op;
        op.addr = addr;
        op.orient = Orientation::Row;
        op.isWrite = is_write;
        op.isVector = is_vector;
        op.wordMask = is_vector ? 0xff : 0x01;
        op.pc = pc;
        op.computeCycles = compute;
        _buffer.push_back(op);
    }

    /** Emit one matrix row's worth of operations. */
    bool
    refill()
    {
        if (_iter == iterations)
            return false;
        _buffer.clear();
        _head = 0;

        std::int64_t r = _row;
        // rowPtr[r], rowPtr[r+1]: the extent lookup.
        push(_rowPtr->elementAddr(0, r), false, false, 0, 1);
        push(_rowPtr->elementAddr(0, r + 1), false, false, 0, 0);
        // Per 8-wide group: stream colIdx and vals lines, then
        // gather x[col] for each nonzero.
        for (int g = 0; g < nnzPerRow / 8; ++g) {
            std::int64_t first = r * nnzPerRow + 8 * g;
            push(_colIdx->elementAddr(0, first), false, true, 1, 0);
            push(_vals->elementAddr(0, first), false, true, 2, 2);
            for (int k = 0; k < 8; ++k) {
                std::int64_t col =
                    _cols[static_cast<std::size_t>(first + k)];
                push(_x->elementAddr(0, col), false, false, 3, 0);
            }
        }
        // y[r] accumulate.
        push(_y->elementAddr(0, r), true, false, 4, 1);

        if (++_row == _dim) {
            _row = 0;
            ++_iter;
        }
        return true;
    }

    std::int64_t _dim;
    std::unique_ptr<compiler::RowMajorLayout> _rowPtr, _colIdx, _vals,
        _x, _y;
    std::vector<std::int64_t> _cols;

    int _iter = 0;
    std::int64_t _row = 0;
    std::vector<TraceOp> _buffer;
    std::size_t _head = 0;
    std::uint64_t _emitted = 0;
};

} // namespace

bool
isEmitterWorkload(const std::string &name)
{
    return name == "spmv";
}

std::unique_ptr<trace::TraceSource>
makeEmitterSource(const std::string &name, const WorkloadParams &params,
                  const compiler::CompileOptions &opts)
{
    if (name == "spmv")
        return std::make_unique<SpmvSource>(params, opts);
    fatal("unknown emitter workload: %s", name.c_str());
}

} // namespace mda::workloads
