#include "trace_cpu.hh"

#include "sim/debug.hh"
#include "sim/trace_event.hh"

namespace mda
{

TraceCpu::TraceCpu(const std::string &obj_name, EventQueue &eq,
                   stats::StatGroup &sg, trace::TraceSource &src,
                   MemDevice &l1, const CpuParams &params)
    : SimObject(obj_name, eq, sg), _src(src), _l1(l1), _params(params)
{
    regScalar("ops", &_ops, "memory operations issued");
    regScalar("vectorOps", &_vectorOps, "SIMD operations issued");
    regScalar("readOps", &_readOps, "read operations");
    regScalar("writeOps", &_writeOps, "write operations");
    regScalar("colOps", &_colOps, "column-preference operations");
    regScalar("stallWindowFull", &_stallWindowFull,
              "issue stalls: outstanding window full");
    regScalar("stallRetry", &_stallRetry,
              "issue stalls: L1 busy (retry)");
    regScalar("computeCycles", &_computeCycles,
              "non-memory cycles consumed");
    regScalar("checkFailures", &_checkFailures,
              "functional check mismatches");
    regDistribution("loadLatency", &_loadLatency,
                    "demand access round-trip latency");
}

void
TraceCpu::regProbes(probe::ProbeManager &pm)
{
    pm.reg(name() + ".issued", &_probes.issued);
    pm.reg(name() + ".retired", &_probes.retired);
}

void
TraceCpu::start()
{
    scheduleIssue(curTick());
}

void
TraceCpu::scheduleIssue(Tick when)
{
    // With the budget spent, issue() would do nothing; leaving the
    // event out lets the queue empty at the last response.
    if (_issueScheduled || _issueBudget == 0)
        return;
    _issueScheduled = true;
    eventq().schedule(when, [this] {
        _issueScheduled = false;
        issue();
    }, EventPriority::Cpu);
}

PacketPtr
TraceCpu::makePacket(const compiler::TraceOp &op)
{
    PacketPtr pkt;
    MemCmd cmd = op.isWrite ? MemCmd::Write : MemCmd::Read;
    if (op.isVector) {
        OrientedLine line = OrientedLine::containing(op.addr, op.orient);
        pkt = Packet::makeVector(cmd, line, op.pc, curTick(),
                                 packetPool());
        pkt->wordMask = op.wordMask;
    } else {
        pkt = Packet::makeScalar(cmd, op.addr, op.orient, op.pc,
                                 curTick(), packetPool());
    }

    if (_params.checkData) {
        // Every op opens an entry at its stream position. Writes carry
        // unique values, applied to the reference in issue order;
        // reads snapshot the values they must return. Packet word k is
        // a vector's masked word k, or a scalar's only word (k = 0).
        Expected &expected = _expected[*pkt];
        expected.live = true;
        expected.pos = _src.opsEmitted() - 1;
        const OrientedLine line = pkt->line();
        const unsigned mask = op.isVector ? op.wordMask : 0x01;
        for (unsigned k = 0; k < lineWords; ++k) {
            if (!(mask & (1u << k)))
                continue;
            Addr addr = op.isVector ? line.wordAddr(k) : pkt->addr;
            if (op.isWrite) {
                std::uint64_t v = _nextValue++;
                pkt->setWord(k, v);
                _reference.writeWord(addr, v);
            } else {
                expected.words[k] = _reference.readWord(addr);
            }
        }
    }
    return pkt;
}

std::uint64_t
TraceCpu::fastForward(std::uint64_t count)
{
    mda_assert(_outstanding == 0 && !_blockedPkt && !_waitingRetry,
               "fast-forward with timed work in flight");
    std::uint64_t applied = 0;
    while (applied < count) {
        if (!_havePending) {
            if (!_src.next(_pendingOp)) {
                _traceDone = true;
                _finishTick = curTick();
                break;
            }
            _havePending = true;
        }
        FunctionalReq req;
        req.line = OrientedLine::containing(_pendingOp.addr,
                                            _pendingOp.orient);
        req.addr = _pendingOp.addr;
        req.pc = _pendingOp.pc;
        req.isLine = _pendingOp.isVector;
        req.wordMask =
            _pendingOp.isVector ? _pendingOp.wordMask : 0x01;
        req.isWrite = _pendingOp.isWrite;
        _l1.functionalAccess(req);
        _havePending = false;
        ++applied;
    }
    _ffOps += applied;
    return applied;
}

void
TraceCpu::issue()
{
    // A spent window budget silences the issue path (sampling): the
    // in-flight window drains and the event queue goes quiescent.
    while (_issueBudget != 0) {
        if (!_havePending) {
            if (!_src.next(_pendingOp)) {
                _traceDone = true;
                if (_outstanding == 0)
                    _finishTick = curTick();
                return;
            }
            _havePending = true;
            // Dependent compute delay before this op can issue.
            if (_pendingOp.computeCycles > 0) {
                _computeCycles += _pendingOp.computeCycles;
                scheduleIssue(curTick() + _pendingOp.computeCycles);
                return;
            }
        }
        if (_outstanding >= _params.maxOutstanding) {
            ++_stallWindowFull;
            return; // resumed by the next response
        }
        // Re-send a previously rejected packet as-is so the checker's
        // reference updates are applied exactly once.
        PacketPtr pkt = _blockedPkt ? std::move(_blockedPkt)
                                    : makePacket(_pendingOp);
        // Accepted packets survive inside the L1's scheduled lookup,
        // so a pointer captured here stays valid for the observers
        // below.
        const Packet *sent = pkt.get();
        if (!_l1.tryRequest(pkt)) {
            ++_stallRetry;
            _blockedPkt = std::move(pkt);
            _waitingRetry = true;
            return;
        }
        MDA_PROBE(_probes.issued,
                  probe::PacketEvent{sent, curTick(), 0});
        if (MDA_OBSERVED()) {
            DPRINTF(TraceCpu,
                    "issue %s %#llx id %llu (%u outstanding)",
                    cmdName(sent->cmd), (unsigned long long)sent->addr,
                    (unsigned long long)sent->id, _outstanding + 1);
            if (trace::on()) {
                trace::log().asyncBegin(name(), cmdName(sent->cmd),
                                        sent->id, curTick());
            }
        }
        ++_ops;
        ++_outstanding;
        --_issueBudget;
        if (MDA_UNLIKELY(_issueBudget == _hookAt) && _budgetHook) {
            // Detach first: the hook may install its successor.
            auto hook = std::move(_budgetHook);
            _budgetHook = nullptr;
            hook();
        }
        if (_pendingOp.isVector)
            ++_vectorOps;
        (_pendingOp.isWrite ? _writeOps : _readOps) += 1;
        if (_pendingOp.orient == Orientation::Col)
            ++_colOps;
        _havePending = false;
        // One issue per cycle.
        scheduleIssue(curTick() + 1);
        return;
    }
}

void
TraceCpu::recvResponse(PacketPtr pkt)
{
    mda_assert(_outstanding > 0, "response with nothing outstanding");
    --_outstanding;
    if (MDA_OBSERVED()) {
        DPRINTF(TraceCpu,
                "response %s %#llx id %llu after %llu cycles",
                cmdName(pkt->cmd), (unsigned long long)pkt->addr,
                (unsigned long long)pkt->id,
                (unsigned long long)(curTick() - pkt->issueTick));
        if (trace::on()) {
            trace::log().asyncEnd(name(), cmdName(pkt->cmd), pkt->id,
                                  curTick());
        }
    }
    MDA_PROBE(_probes.retired,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    _loadLatency.sample(
        static_cast<double>(curTick() - pkt->issueTick));

    if (_params.checkData) {
        Expected &expected = _expected[*pkt];
        mda_assert(expected.live, "%s response with no live checker entry",
                   cmdName(pkt->cmd));
        expected.live = false;
        // A write's entry holds no words to compare.
        const unsigned mask = pkt->cmd == MemCmd::Write ? 0
                              : pkt->isLine() ? pkt->wordMask : 0x01;
        for (unsigned k = 0; k < lineWords; ++k) {
            if (!(mask & (1u << k)) || pkt->word(k) == expected.words[k])
                continue;
            ++_checkFailures;
            Addr word = pkt->isLine() ? pkt->line().wordAddr(k)
                                      : alignDown(pkt->addr, wordBytes);
            if (!_firstMismatch) {
                _firstMismatch = CheckMismatch{expected.pos, curTick(),
                                               word, pkt->word(k),
                                               expected.words[k]};
            }
            warn("data mismatch at %#llx word %u: got %llu want %llu "
                 "(op %llu, tick %llu)",
                 (unsigned long long)pkt->addr, k,
                 (unsigned long long)pkt->word(k),
                 (unsigned long long)expected.words[k],
                 (unsigned long long)expected.pos,
                 (unsigned long long)curTick());
        }
    }

    if (_traceDone && _outstanding == 0) {
        _finishTick = curTick();
        return;
    }
    if (!_waitingRetry)
        scheduleIssue(curTick());
}

void
TraceCpu::recvRetry()
{
    _waitingRetry = false;
    scheduleIssue(curTick());
}

} // namespace mda
