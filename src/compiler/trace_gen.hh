/**
 * @file
 * Streaming trace generation: walk a compiled kernel's iteration
 * space and emit annotated memory operations, one at a time.
 *
 * No trace is ever materialized; the generator advances an explicit
 * loop-nest state machine (handling affine/triangular bounds,
 * explicit-value loops, statements at any depth in Pre/Post phases,
 * and width-8 vector groups with scalar remainders) and produces ops
 * on demand. This is what makes 10^8-operation simulations practical.
 *
 * A vectorized innermost loop is emitted in runs of full groups: a
 * run's first group goes through the per-reference emitters and every
 * later group repeats its ops, each address advanced by its
 * reference's fixed per-group step (see emitVectorRun()).
 */

#ifndef MDA_COMPILER_TRACE_GEN_HH
#define MDA_COMPILER_TRACE_GEN_HH

#include <cstdint>
#include <vector>

#include "compile.hh"
#include "trace.hh"

namespace mda::compiler
{

/** Pull-interface generator over a compiled kernel's accesses. */
class TraceGenerator
{
  public:
    /** @param ck Compiled kernel; must outlive the generator. */
    explicit TraceGenerator(const CompiledKernel &ck);

    /**
     * Produce the next operation.
     * @return False when the kernel is exhausted (@p op untouched).
     */
    bool
    next(TraceOp &op)
    {
        if (_head == _buffer.size() && !refill())
            return false;
        op = _buffer[_head++];
        ++_emitted;
        return true;
    }

    /** Restart from the first operation. */
    void reset();

    /** Operations handed out so far. */
    std::uint64_t opsEmitted() const { return _emitted; }

    /**
     * Ops in the whole stream, counting each 8-wide vector group once
     * (see trace::TraceSource::sizeHint). Walks every loop but the
     * innermost, whose trip count and vector groups are computed
     * directly, so the cost grows with the outer iteration space, not
     * with the ops.
     */
    std::uint64_t sizeHint() const;

  private:
    /** Pre-resolved, flat view of one reference (hot-path friendly). */
    struct RefPlan
    {
        const Layout *layout = nullptr;
        AffineExpr rowExpr, colExpr;
        Orientation orient = Orientation::Row;
        AccessDirection dir = AccessDirection::Invariant;
        bool isWrite = false;
        std::uint32_t pc = 0;
        /** Per-lane step of each subscript under the stmt's
         *  innermost loop (0 for invariant refs); a vector group
         *  moves them by 8 times this. */
        std::int64_t rowStep = 0, colStep = 0;
    };

    /** Pre-resolved view of one statement. */
    struct StmtPlan
    {
        std::vector<RefPlan> refs;
        unsigned depth = 0;
        StmtPhase phase = StmtPhase::Pre;
        unsigned computeCycles = 0;
        bool vectorized = false;
    };

    /** Pre-resolved view of one nest. */
    struct NestPlan
    {
        const LoopNest *nest = nullptr;
        /** Statements grouped: preAt[d]/postAt[d] = indexes into
         *  stmts for depth d, in program order. */
        std::vector<std::vector<unsigned>> preAt, postAt;
        std::vector<StmtPlan> stmts;
        /** Any innermost-depth statement vectorized (all-or-nothing
         *  per buildPlans, so this decides the whole inner body). */
        bool innerVectorized = false;
    };

    /** Walker position within the current nest. */
    enum class Phase : std::uint8_t
    {
        EnterLoop,
        BodyPre,
        BodyPost,
        Advance,
        ExitLoop,
        NestDone,
    };

    void buildPlans();
    std::uint64_t loopSizeHint(const NestPlan &plan, unsigned depth,
                               std::vector<std::int64_t> &vals) const;
    bool refill();
    void emitStmt(const StmtPlan &stmt, unsigned width);
    void emitRef(const RefPlan &ref, unsigned width);
    void emitVectorRun(const NestPlan &plan, unsigned inner);
    Addr groupStep(const RefPlan &ref, std::int64_t groups) const;
    void emitScalarRef(const RefPlan &ref);
    void emitVectorRef(const RefPlan &ref);
    void pushOp(TraceOp op);

    std::int64_t loopLower(const Loop &loop) const;
    std::int64_t loopUpper(const Loop &loop) const;

    const CompiledKernel &_ck;
    std::vector<NestPlan> _plans;

    // --- walker state ---
    std::size_t _nestIdx = 0;
    Phase _phase = Phase::EnterLoop;
    unsigned _depth = 0;
    std::vector<std::int64_t> _vals;      ///< By loop id.
    std::vector<std::int64_t> _hi;        ///< Upper bound per depth.
    std::vector<std::size_t> _valueIdx;   ///< Cursor for values loops.
    unsigned _lastWidth = 1;              ///< Width of last inner body.
    std::uint32_t _pendingCompute = 0;

    /** Most vector groups one run emits: bounds the buffer at this
     *  many times one group's ops. */
    static constexpr std::int64_t maxRunGroups = 64;

    // --- output buffer ---
    std::vector<TraceOp> _buffer;
    /** Per-op address step of a run's first group (emitVectorRun). */
    std::vector<Addr> _runStep;
    std::size_t _head = 0;
    std::uint64_t _emitted = 0;
    bool _done = false;
};

} // namespace mda::compiler

#endif // MDA_COMPILER_TRACE_GEN_HH
