/**
 * @file
 * Differential oracle: run one fuzz scenario over every requested
 * design point and cross-check behavior.
 *
 * For each design point the oracle builds a private Hierarchy from
 * specsFor(), the builder System uses, over the scenario's tiny
 * geometries; it replays the trace and checks:
 *
 *  - every read response against the program-order reference model
 *    (writes always serialize, so the reference is exact even for
 *    reads issued in concurrent batches — batch members never overlap
 *    a write);
 *  - structural invariants between events (checkInvariants) when
 *    checks are enabled;
 *  - post-drain cleanliness (checkDrained: no leaked MSHR targets,
 *    stuck writebacks, or lost deferred packets);
 *  - the final memory state, by reading back every touched word
 *    through the drained hierarchy, against the reference model AND
 *    across design points.
 *
 * Failures are returned as data (not thrown) so the shrinker can
 * re-run candidate scenarios cheaply.
 *
 * Sampled scenarios (FuzzConfig::samplePeriod > 0) interleave the
 * timed and functional access paths the way SMARTS sampling does.
 * The functional path moves no payload, so those runs skip every
 * value check and stand on the structural ones: per-op invariants,
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
    CrossDesign,   ///< Two designs drained to different memory images.
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

/** Deterministic payload of write op @p opIndex, word @p k. */
std::uint64_t writeValue(std::uint64_t seed, std::size_t opIndex,
                         unsigned k);

/** Index in @p sent (a batch's packet ids, in op order) of the op a
 *  response with packet id @p id answers, marked in @p answered; npos
 *  when no op went out as @p id or its op was answered already. */
std::size_t answeredOp(const std::vector<std::uint64_t> &sent,
                       std::vector<bool> &answered, std::uint64_t id);

/**
 * Run the full differential oracle over @p s. Returns every failure
 * found (empty == the scenario passes). fatal()s on unusable input:
 * an inapplicable design point, or no levels.
 */
std::vector<Failure> runOracle(const Scenario &s,
                               const OracleOptions &opts);

} // namespace mda::fuzz

#endif // MDA_FUZZ_ORACLE_HH
