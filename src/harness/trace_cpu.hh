/**
 * @file
 * TraceCpu: the timing CPU model driving compiled-kernel traces.
 *
 * An approximation of the paper's out-of-order x86 core that keeps
 * what matters for the evaluation: one memory operation issued per
 * cycle, compute delays between dependent operations, and a bounded
 * window of outstanding accesses (memory-level parallelism). The
 * trace is pulled through a trace::TraceSource — live compiler
 * generation, a capturing tee, a replayed file, or a fuzz scenario's
 * op list.
 *
 * With functional checking enabled, writes carry unique values and a
 * flat reference model is updated in issue (program) order; every
 * read response is compared against the reference snapshot taken at
 * issue. The cache hierarchy's ordering rules make this exact. Every
 * checked op holds a live entry from issue to response, so a response
 * the CPU never issued, or one that arrives twice, panics.
 */

#ifndef MDA_HARNESS_TRACE_CPU_HH
#define MDA_HARNESS_TRACE_CPU_HH

#include <array>
#include <functional>
#include <optional>

#include "mem/backing_store.hh"
#include "sim/packet_pool.hh"
#include "sim/port.hh"
#include "sim/probe.hh"
#include "sim/sim_object.hh"
#include "trace/trace_source.hh"

namespace mda
{

/** CPU model parameters. */
struct CpuParams
{
    /** Maximum in-flight memory operations (MLP window). */
    unsigned maxOutstanding = 16;

    /** Verify read data against a reference model (slower). */
    bool checkData = false;
};

/** A checked read response that disagreed with the reference. */
struct CheckMismatch
{
    std::uint64_t pos = 0; ///< The read's stream position (0-based).
    Tick tick = 0;         ///< When the response arrived.
    Addr addr = 0;         ///< The mismatching word.
    std::uint64_t got = 0;
    std::uint64_t want = 0;
};

/** Trace-driven CPU. */
class TraceCpu : public SimObject, public MemClient
{
  public:
    TraceCpu(const std::string &name, EventQueue &eq,
             stats::StatGroup &sg, trace::TraceSource &src,
             MemDevice &l1, const CpuParams &params);

    /** Schedule the first issue event. */
    void start();

    /** Trace exhausted and every response received. */
    bool done() const { return _traceDone && _outstanding == 0; }

    /** Tick at which done() became true. */
    Tick finishTick() const { return _finishTick; }

    /** Detected data mismatches (checker mode). */
    std::uint64_t checkFailures() const
    {
        return static_cast<std::uint64_t>(_checkFailures.value());
    }

    /** The run's first data mismatch, if any (checker mode). */
    const std::optional<CheckMismatch> &
    firstMismatch() const
    {
        return _firstMismatch;
    }

    /** Operations issued and not yet answered. */
    unsigned outstanding() const { return _outstanding; }

    /**
     * Cap further timed issues at @p n operations (a sampling
     * measured window, or one fuzz issue group). When the budget is
     * spent, the CPU schedules no issue event — in-flight responses
     * drain and the event queue empties — without marking the trace
     * done; start() resumes it under a new budget. The default (~0)
     * never exhausts.
     */
    void setIssueBudget(std::uint64_t n) { _issueBudget = n; }

    /** Timed issues left in the current budget. */
    std::uint64_t issueBudget() const { return _issueBudget; }

    /**
     * Fire @p hook once, the moment the issue budget drops to
     * @p remaining — i.e. mid-run, with the pipeline hot. The hook is
     * detached before it is invoked, so it may re-arm a successor.
     * Sampled simulation uses this to open and close the measured
     * window between the detailed-warming ops and the drain, so
     * neither boundary's in-flight traffic lands in the deltas.
     */
    void
    setBudgetHook(std::uint64_t remaining, std::function<void()> hook)
    {
        _hookAt = remaining;
        _budgetHook = std::move(hook);
    }

    /**
     * Functionally apply up to @p count trace operations through the
     * hierarchy's functionalAccess() path: state effects only, no
     * events, no statistics. Returns the number applied (short on
     * trace exhaustion, which marks the trace done).
     *
     * @pre The timed machinery is idle: no outstanding responses, no
     *      blocked packet, no pending retry.
     */
    std::uint64_t fastForward(std::uint64_t count);

    /** Operations consumed by fastForward() so far. */
    std::uint64_t fastForwardedOps() const { return _ffOps; }

    // MemClient
    void recvResponse(PacketPtr pkt) override;
    void recvRetry() override;

    /** Register the CPU's probe points ("cpu.issued"/"cpu.retired"). */
    void regProbes(probe::ProbeManager &pm);

  private:
    probe::CpuProbes _probes;

    void scheduleIssue(Tick when);
    void issue();
    PacketPtr makePacket(const compiler::TraceOp &op);

    trace::TraceSource &_src;
    MemDevice &_l1;
    CpuParams _params;

    compiler::TraceOp _pendingOp;
    PacketPtr _blockedPkt; ///< Rejected packet awaiting retry.
    bool _havePending = false;
    bool _traceDone = false;
    bool _waitingRetry = false;
    bool _issueScheduled = false;
    unsigned _outstanding = 0;
    Tick _finishTick = 0;
    std::uint64_t _nextValue = 1;
    /** Timed issues left in the current measured window (sampling);
     *  the ~0 default behaves as unlimited. */
    std::uint64_t _issueBudget = ~std::uint64_t{0};
    std::uint64_t _ffOps = 0;
    /** Budget level at which _budgetHook fires (~0 = never: a live
     *  budget can never climb back to its pre-decrement start). */
    std::uint64_t _hookAt = ~std::uint64_t{0};
    std::function<void()> _budgetHook;

    /** A checked op in flight: its stream position and, for a read,
     *  the values it must return, snapshot at issue. */
    struct Expected
    {
        bool live = false;
        std::uint64_t pos = 0;
        std::array<std::uint64_t, lineWords> words{};
    };

    /** Reference model + per-packet checker entries. */
    BackingStore _reference;
    SlotTable<Expected> _expected;
    std::optional<CheckMismatch> _firstMismatch;

    stats::Scalar _ops, _vectorOps, _readOps, _writeOps;
    stats::Scalar _colOps;
    stats::Scalar _stallWindowFull, _stallRetry;
    stats::Scalar _computeCycles;
    stats::Scalar _checkFailures;
    stats::Distribution _loadLatency{0, 1000, 20};
};

} // namespace mda

#endif // MDA_HARNESS_TRACE_CPU_HH
