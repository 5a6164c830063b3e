#include "trace_gen.hh"

#include <algorithm>

namespace mda::compiler
{

TraceGenerator::TraceGenerator(const CompiledKernel &ck) : _ck(ck)
{
    buildPlans();
    reset();
}

void
TraceGenerator::buildPlans()
{
    const Kernel &k = _ck.kernel;
    _plans.clear();
    _plans.reserve(k.nests.size());

    std::size_t max_depth = 0;
    for (std::size_t n = 0; n < k.nests.size(); ++n) {
        const LoopNest &nest = k.nests[n];
        max_depth = std::max(max_depth, nest.loops.size());

        NestPlan plan;
        plan.nest = &nest;
        plan.preAt.resize(nest.loops.size());
        plan.postAt.resize(nest.loops.size());

        unsigned innermost_depth =
            static_cast<unsigned>(nest.loops.size()) - 1;
        bool all_inner_vectorized = true;
        bool any_inner = false;

        for (std::size_t s = 0; s < nest.stmts.size(); ++s) {
            const Stmt &stmt = nest.stmts[s];
            StmtPlan sp;
            sp.depth = stmt.depth;
            sp.phase = stmt.phase;
            sp.computeCycles = stmt.computeCycles;
            sp.vectorized = _ck.vplan.isVectorized(n, s);
            if (stmt.depth == innermost_depth) {
                any_inner = true;
                all_inner_vectorized &= sp.vectorized;
            }
            LoopId inner_lid = nest.loops[stmt.depth].id;
            for (const auto &ref : stmt.refs) {
                RefPlan rp;
                rp.layout = &_ck.layoutOf(ref.array);
                rp.rowExpr = ref.rowExpr;
                rp.colExpr = ref.colExpr;
                rp.orient = _ck.orientationOf(ref.refId);
                rp.dir = classifyRef(ref, inner_lid);
                rp.isWrite = ref.isWrite;
                rp.pc = ref.refId;
                rp.rowStep = ref.rowExpr.coeffOf(inner_lid);
                rp.colStep = ref.colExpr.coeffOf(inner_lid);
                sp.refs.push_back(std::move(rp));
            }
            auto &bucket = (stmt.phase == StmtPhase::Pre)
                               ? plan.preAt[stmt.depth]
                               : plan.postAt[stmt.depth];
            bucket.push_back(static_cast<unsigned>(plan.stmts.size()));
            plan.stmts.push_back(std::move(sp));
        }

        // The innermost loop steps by 8 only when every statement in
        // its body vectorizes; a mix would need unroll-and-jam.
        if (!(any_inner && all_inner_vectorized)) {
            for (auto &sp : plan.stmts)
                if (sp.depth == innermost_depth)
                    sp.vectorized = false;
        }
        plan.innerVectorized = any_inner && all_inner_vectorized;
        _plans.push_back(std::move(plan));
    }

    _vals.assign(k.loopCount, 0);
    _hi.assign(max_depth, 0);
    _valueIdx.assign(max_depth, 0);
}

void
TraceGenerator::reset()
{
    _nestIdx = 0;
    _phase = Phase::EnterLoop;
    _depth = 0;
    std::fill(_vals.begin(), _vals.end(), 0);
    std::fill(_hi.begin(), _hi.end(), 0);
    std::fill(_valueIdx.begin(), _valueIdx.end(), 0);
    _lastWidth = 1;
    _pendingCompute = 0;
    _buffer.clear();
    _head = 0;
    _emitted = 0;
    _done = _plans.empty();
}

std::uint64_t
TraceGenerator::sizeHint() const
{
    std::vector<std::int64_t> vals(_vals.size(), 0);
    std::uint64_t ops = 0;
    for (const auto &plan : _plans)
        ops += loopSizeHint(plan, 0, vals);
    return ops;
}

/** Ops one entry into loop @p depth emits: refill()'s walk, with each
 *  statement reference counted as one op. */
std::uint64_t
TraceGenerator::loopSizeHint(const NestPlan &plan, unsigned depth,
                             std::vector<std::int64_t> &vals) const
{
    const LoopNest &nest = *plan.nest;
    const Loop &loop = nest.loops[depth];
    std::uint64_t refs = 0;
    for (const auto *at : {&plan.preAt[depth], &plan.postAt[depth]})
        for (unsigned idx : *at)
            refs += plan.stmts[idx].refs.size();

    std::int64_t lo = loop.values ? 0 : loop.lower.eval(vals);
    std::int64_t hi = loop.values
                          ? static_cast<std::int64_t>(loop.values->size())
                          : loop.upper.eval(vals);
    if (lo >= hi)
        return 0;
    auto trips = static_cast<std::uint64_t>(hi - lo);

    if (depth + 1 == nest.loops.size()) {
        // The innermost loop steps by 8 while a full group fits, then
        // runs the remainder one element at a time.
        if (plan.innerVectorized && !loop.values)
            trips = trips / VectorPlan::width + trips % VectorPlan::width;
        return trips * refs;
    }
    std::uint64_t ops = trips * refs;
    for (std::int64_t v = lo; v < hi; ++v) {
        vals[loop.id] =
            loop.values ? (*loop.values)[static_cast<std::size_t>(v)] : v;
        ops += loopSizeHint(plan, depth + 1, vals);
    }
    return ops;
}

std::int64_t
TraceGenerator::loopLower(const Loop &loop) const
{
    return loop.lower.eval(_vals);
}

std::int64_t
TraceGenerator::loopUpper(const Loop &loop) const
{
    return loop.upper.eval(_vals);
}

void
TraceGenerator::pushOp(TraceOp op)
{
    op.computeCycles = _pendingCompute;
    _pendingCompute = 0;
    _buffer.push_back(op);
}

void
TraceGenerator::emitScalarRef(const RefPlan &ref)
{
    std::int64_t r = ref.rowExpr.eval(_vals);
    std::int64_t c = ref.colExpr.eval(_vals);
    TraceOp op;
    op.addr = ref.layout->elementAddr(r, c);
    op.orient = ref.orient;
    op.isWrite = ref.isWrite;
    op.isVector = false;
    op.wordMask = 0x01;
    op.pc = ref.pc;
    pushOp(op);
}

void
TraceGenerator::emitVectorRef(const RefPlan &ref)
{
    // Eight lanes along the moving dimension; group the lane addresses
    // into the oriented lines they fall in (1 if aligned, 2 if the
    // group straddles a tile boundary) and emit one op per line.
    std::int64_t r = ref.rowExpr.eval(_vals);
    std::int64_t c = ref.colExpr.eval(_vals);
    bool col_moves = (ref.dir == AccessDirection::RowWise);

    // Fast path: when the first lane sits on word 0 and the last on
    // word 7 of the same oriented line, the group covers exactly that
    // line (within-tile addressing is linear in the moving subscript,
    // so the inner lanes cannot escape a line both ends sit in) and
    // the lane loop collapses to one full-mask op. This is the
    // aligned case every unit-stride inner loop hits.
    Addr first_addr = ref.layout->elementAddr(r, c);
    Addr last_addr =
        col_moves
            ? ref.layout->elementAddr(r, c + VectorPlan::width - 1)
            : ref.layout->elementAddr(r + VectorPlan::width - 1, c);
    OrientedLine first_line =
        OrientedLine::containing(first_addr, ref.orient);
    if (first_line.wordIndexOf(first_addr) == 0 &&
        OrientedLine::containing(last_addr, ref.orient) ==
            first_line &&
        first_line.wordIndexOf(last_addr) == VectorPlan::width - 1) {
        TraceOp op;
        op.addr = first_line.baseAddr();
        op.orient = ref.orient;
        op.isWrite = ref.isWrite;
        op.isVector = true;
        op.wordMask = 0xff;
        op.pc = ref.pc;
        pushOp(op);
        return;
    }

    OrientedLine cur_line;
    std::uint8_t mask = 0;
    bool have_line = false;
    for (unsigned lane = 0; lane < VectorPlan::width; ++lane) {
        Addr a = col_moves
                     ? ref.layout->elementAddr(r, c + lane)
                     : ref.layout->elementAddr(r + lane, c);
        OrientedLine line = OrientedLine::containing(a, ref.orient);
        if (!have_line || !(line == cur_line)) {
            if (have_line) {
                TraceOp op;
                op.addr = cur_line.baseAddr();
                op.orient = ref.orient;
                op.isWrite = ref.isWrite;
                op.isVector = true;
                op.wordMask = mask;
                op.pc = ref.pc;
                pushOp(op);
            }
            cur_line = line;
            mask = 0;
            have_line = true;
        }
        mask |= static_cast<std::uint8_t>(1u << line.wordIndexOf(a));
    }
    if (have_line) {
        TraceOp op;
        op.addr = cur_line.baseAddr();
        op.orient = ref.orient;
        op.isWrite = ref.isWrite;
        op.isVector = true;
        op.wordMask = mask;
        op.pc = ref.pc;
        pushOp(op);
    }
}

void
TraceGenerator::emitRef(const RefPlan &ref, unsigned width)
{
    bool moving = (ref.dir == AccessDirection::RowWise ||
                   ref.dir == AccessDirection::ColWise);
    if (width == VectorPlan::width && moving)
        emitVectorRef(ref);
    else
        emitScalarRef(ref);
}

void
TraceGenerator::emitStmt(const StmtPlan &stmt, unsigned width)
{
    _pendingCompute += stmt.computeCycles;
    for (const auto &ref : stmt.refs)
        emitRef(ref, width);
}

/**
 * Address step of @p ref's first lane from one vector group to the
 * next, checked over a run of @p groups groups: the last group's first
 * lane must sit groups - 1 steps away, and the run's last lane must be
 * in bounds (affine subscripts are monotone, so every lane between is
 * too).
 */
Addr
TraceGenerator::groupStep(const RefPlan &ref, std::int64_t groups) const
{
    constexpr std::int64_t width = VectorPlan::width;
    if (ref.rowStep == 0 && ref.colStep == 0)
        return 0;
    const std::int64_t r = ref.rowExpr.eval(_vals);
    const std::int64_t c = ref.colExpr.eval(_vals);
    auto lane = [&](std::int64_t k) {
        return ref.layout->elementAddr(r + k * ref.rowStep,
                                       c + k * ref.colStep);
    };
    const Addr first = lane(0);
    const Addr step = lane(width) - first;
    const std::int64_t last = width * (groups - 1);
    mda_assert(lane(last) ==
                   first + static_cast<Addr>(groups - 1) * step,
               "vector run is not a constant address shift");
    lane(last + width - 1); // elementAddr's bounds check
    return step;
}

namespace
{

/** Whether moving every lane of @p op by @p step keeps the lanes
 *  grouped into the same lines: whole tiles keep every tile-internal
 *  coordinate, and 64 B steps keep a row line's word indexes. */
bool
keepsLineGrouping(const TraceOp &op, Addr step)
{
    return !op.isVector || (step & (tileBytes - 1)) == 0 ||
           (op.orient == Orientation::Row &&
            (step & (lineBytes - 1)) == 0);
}

} // namespace

/**
 * Emit the innermost loop's next full vector groups (its Pre and Post
 * statements) as one run, leaving the loop value on the last group.
 *
 * Moving both subscripts of a reference by multiples of 8 shifts every
 * lane by one constant on both layouts: whole tiles on TiledLayout,
 * 8 rows or 64 B steps on RowMajorLayout. So each later group's ops are
 * the first group's, every address advanced by its reference's step,
 * as long as each vector op keeps its line grouping. Otherwise (column
 * lines 64 B apart, as on a row-major layout) the run stops after the
 * first group, and the walker takes the next group as usual.
 */
void
TraceGenerator::emitVectorRun(const NestPlan &plan, unsigned inner)
{
    constexpr std::int64_t width = VectorPlan::width;
    std::int64_t &v = _vals[plan.nest->loops[inner].id];
    const std::int64_t groups =
        std::min((_hi[inner] - v) / width, maxRunGroups);
    const std::size_t start = _buffer.size();
    const std::uint32_t carried = _pendingCompute;
    bool repeatable = groups > 1;
    _runStep.clear();

    for (const auto *at : {&plan.preAt[inner], &plan.postAt[inner]}) {
        for (unsigned idx : *at) {
            const StmtPlan &stmt = plan.stmts[idx];
            _pendingCompute += stmt.computeCycles;
            for (const auto &ref : stmt.refs) {
                std::size_t before = _buffer.size();
                emitRef(ref, width);
                if (!repeatable)
                    continue;
                Addr step = groupStep(ref, groups);
                repeatable = keepsLineGrouping(_buffer[before], step);
                _runStep.insert(_runStep.end(), _buffer.size() - before,
                                step);
            }
        }
    }

    const std::size_t count = _buffer.size() - start;
    if (!repeatable || count == 0)
        return;
    // A group's first op absorbs the compute carried into it: the
    // first group's carry-in was `carried`, every later group's is
    // what the group before left pending.
    const std::uint32_t lead =
        _buffer[start].computeCycles - carried + _pendingCompute;
    _buffer.reserve(start + count * static_cast<std::size_t>(groups));
    for (std::int64_t g = 1; g < groups; ++g) {
        for (std::size_t i = 0; i < count; ++i) {
            TraceOp op = _buffer[start + i];
            op.addr += static_cast<Addr>(g) * _runStep[i];
            _buffer.push_back(op);
        }
        _buffer[start + count * static_cast<std::size_t>(g)]
            .computeCycles = lead;
    }
    v += width * (groups - 1);
}

bool
TraceGenerator::refill()
{
    if (_done)
        return false;
    _buffer.clear();
    _head = 0;

    while (_buffer.empty() && !_done) {
        const NestPlan &plan = _plans[_nestIdx];
        const LoopNest &nest = *plan.nest;
        unsigned inner = static_cast<unsigned>(nest.loops.size()) - 1;

        switch (_phase) {
          case Phase::EnterLoop: {
            const Loop &loop = nest.loops[_depth];
            if (loop.values) {
                if (loop.values->empty()) {
                    _phase = Phase::ExitLoop;
                    break;
                }
                _valueIdx[_depth] = 0;
                _vals[loop.id] = (*loop.values)[0];
                _hi[_depth] =
                    static_cast<std::int64_t>(loop.values->size());
            } else {
                std::int64_t lo = loopLower(loop);
                std::int64_t hi = loopUpper(loop);
                if (lo >= hi) {
                    _phase = Phase::ExitLoop;
                    break;
                }
                _vals[loop.id] = lo;
                _hi[_depth] = hi;
            }
            _phase = Phase::BodyPre;
            break;
          }

          case Phase::BodyPre: {
            unsigned width = 1;
            if (_depth == inner) {
                const Loop &loop = nest.loops[_depth];
                bool can_vec = !loop.values &&
                               _vals[loop.id] + VectorPlan::width <=
                                   _hi[_depth];
                width = (plan.innerVectorized && can_vec)
                            ? VectorPlan::width
                            : 1;
                _lastWidth = width;
                if (width == VectorPlan::width) {
                    emitVectorRun(plan, inner);
                    _phase = Phase::Advance;
                    break;
                }
            }
            for (unsigned idx : plan.preAt[_depth])
                emitStmt(plan.stmts[idx], width);
            if (_depth < inner) {
                ++_depth;
                _phase = Phase::EnterLoop;
            } else {
                _phase = Phase::BodyPost;
            }
            break;
          }

          case Phase::BodyPost: {
            unsigned width = (_depth == inner) ? _lastWidth : 1;
            for (unsigned idx : plan.postAt[_depth])
                emitStmt(plan.stmts[idx], width);
            _phase = Phase::Advance;
            break;
          }

          case Phase::Advance: {
            const Loop &loop = nest.loops[_depth];
            if (loop.values) {
                ++_valueIdx[_depth];
                if (static_cast<std::int64_t>(_valueIdx[_depth]) <
                    _hi[_depth]) {
                    _vals[loop.id] = (*loop.values)[_valueIdx[_depth]];
                    _phase = Phase::BodyPre;
                } else {
                    _phase = Phase::ExitLoop;
                }
            } else {
                std::int64_t step =
                    (_depth == inner) ? _lastWidth : 1;
                _vals[loop.id] += step;
                if (_vals[loop.id] < _hi[_depth])
                    _phase = Phase::BodyPre;
                else
                    _phase = Phase::ExitLoop;
            }
            break;
          }

          case Phase::ExitLoop: {
            if (_depth == 0) {
                _phase = Phase::NestDone;
            } else {
                --_depth;
                _phase = Phase::BodyPost;
            }
            break;
          }

          case Phase::NestDone: {
            ++_nestIdx;
            if (_nestIdx >= _plans.size()) {
                _done = true;
            } else {
                _depth = 0;
                _phase = Phase::EnterLoop;
            }
            break;
          }
        }
    }
    return !_buffer.empty();
}

} // namespace mda::compiler
