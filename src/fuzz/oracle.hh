/**
 * @file
 * Fuzz oracle: run one fuzz scenario over every requested design
 * point, each on the production System and TraceCpu.
 *
 * For each design point the oracle builds a System over the
 * scenario's tiny geometries (through specsFor(), as every run does),
 * fed from a VectorSource holding the scenario's ops and then
 * one scalar row read of every word the trace touches (the readback).
 * It releases the stream one issue group at a time — a serialized op,
 * or a run of concurrent reads — through the CPU's issue budget,
 * steps the event queue to quiescence itself, and checks:
 *
 *  - every read response, through TraceCpu's data checker: writes
 *    apply to its reference in issue order and each read must return
 *    the reference snapshot taken at its issue (each write is still
 *    a group of its own);
 *  - structural invariants (checkInvariants) between events when
 *    checks are enabled;
 *  - post-drain cleanliness (checkDrained: no leaked MSHR targets,
 *    stuck writebacks, or lost deferred packets);
 *  - the final memory state: the readback goes through the same
 *    checker, after the trace has drained.
 *
 * Failures are returned as data (not thrown) so the shrinker can
 * re-run candidate scenarios cheaply.
 *
 * Sampled scenarios (FuzzConfig::samplePeriod > 0) interleave the
 * timed and functional access paths the way SMARTS sampling does; the
 * functional ops go through TraceCpu::fastForward. The functional
 * path moves no payload, so those runs leave the checker off, skip
 * the readback and stand on the structural checks: per-op invariants,
 * SoA-vs-shadow-map agreement, and drain cleanliness.
 */

#ifndef MDA_FUZZ_ORACLE_HH
#define MDA_FUZZ_ORACLE_HH

#include <string>
#include <vector>

#include "scenario.hh"

namespace mda::fuzz
{

/** What went wrong in one oracle run. */
enum class FailureKind : std::uint8_t
{
    ReadMismatch,  ///< A read response disagrees with the reference.
    Invariant,     ///< checkInvariants() reported a violation.
    DrainLeak,     ///< checkDrained() reported leftover state.
    FinalState,    ///< Post-drain readback disagrees with reference.
    LostResponse,  ///< An op never produced its response.
    Deadlock,      ///< Event queue emptied/stalled mid-trace.
};

/** Printable kind name. */
const char *failureKindName(FailureKind kind);

/** One observed failure. */
struct Failure
{
    FailureKind kind = FailureKind::ReadMismatch;
    DesignPoint design = DesignPoint::D1_1P2L;
    std::string detail;

    /** Trace position when relevant (npos for post-trace checks). */
    std::size_t opIndex = static_cast<std::size_t>(-1);
};

/** One-line human-readable failure description. */
std::string failureText(const Failure &f);

/** Oracle knobs. */
struct OracleOptions
{
    /** Sweep checkInvariants() on every cache between events. */
    bool checks = true;

    /** Event budget per design run (deadlock/runaway guard). */
    std::uint64_t maxSteps = 50'000'000;
};

/**
 * Whether @p design can express @p trace (the 1P1L baseline has no
 * column vector transfers; everything else runs anything).
 */
bool designApplicable(DesignPoint design,
                      const std::vector<TraceOp> &trace);

/**
 * Run the oracle over @p s on each of its design points. Returns
 * every failure found (empty == the scenario passes). fatal()s on
 * unusable input: an inapplicable design point, no levels, or an
 * empty trace.
 */
std::vector<Failure> runOracle(const Scenario &s,
                               const OracleOptions &opts);

} // namespace mda::fuzz

#endif // MDA_FUZZ_ORACLE_HH
