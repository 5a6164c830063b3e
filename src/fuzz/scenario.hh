/**
 * @file
 * Randomized fuzz scenarios: a hierarchy configuration plus a
 * workload trace, drawn from a seeded Rng, with a text repro format.
 *
 * A scenario is everything one differential-oracle run needs:
 *  - the hierarchy shape (1-3 levels, per-level capacity tier,
 *    associativity, MSHR count and target cap, write-buffer depth),
 *  - policy knobs (gather hits, baseline prefetching, the Fig. 16
 *    2P2L write penalty),
 *  - the design points to run (Same-Set vs Different-Set
 *    1P2L, sparse vs dense 2P2L, and the 1P1L baseline whenever the
 *    trace is expressible on it), and
 *  - the trace itself: scalar/vector, row/column, read/write ops over
 *    a small tile arena with deliberately aliased hot words, where
 *    reads may be issued in concurrent batches (writes always
 *    serialize: each drains before the next op issues).
 *
 * Scenarios are pure functions of their seed: generate(seed, limits)
 * is deterministic, and the text form (reproText / repro files) round
 * trips, which is what makes a printed seed or --repro-file a
 * complete bug report.
 */

#ifndef MDA_FUZZ_SCENARIO_HH
#define MDA_FUZZ_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/system_config.hh"
#include "sim/orientation.hh"
#include "sim/random.hh"

namespace mda::fuzz
{

/** One memory operation of a fuzz trace. */
struct TraceOp
{
    bool vector = false; ///< Full oriented line vs one word.
    bool write = false;  ///< Writes are always serialized.
    bool concurrent = false; ///< Reads only: issue without draining.
    Orientation orient = Orientation::Row;

    /** Word address for scalars; any covered address for vectors
     *  (the op's line is OrientedLine::containing(addr, orient)). */
    Addr addr = 0;

    OrientedLine line() const
    {
        return OrientedLine::containing(addr, orient);
    }
};

/** Geometry and resources of one cache level (CPU side first). */
struct LevelGeometry
{
    std::uint64_t sizeBytes = 1024;
    unsigned ways = 2;
    unsigned mshrs = 4;
    unsigned targetsPerMshr = 4;
    unsigned writeBufferSize = 4;
};

/** The hierarchy/policy half of a scenario. */
struct FuzzConfig
{
    std::vector<LevelGeometry> levels; ///< 1-3 entries, CPU side first.

    /** Design points the oracle runs over this trace. */
    std::vector<DesignPoint> designs;

    /** Tile arena size: ops touch tiles [0, tiles). */
    unsigned tiles = 4;

    /** Enable the gather-hit policy at non-L1 1P2L levels. */
    bool gatherHits = false;

    /** Baseline (1P1L) stride prefetching at non-LLC levels. */
    bool prefetch = false;

    /** Extra 2P2L write latency (Fig. 16 asymmetry). */
    Cycles tileWritePenalty = 0;

    /**
     * SMARTS-style interleave (0 = always timed): of every
     * samplePeriod ops, the first sampleWindow go through the timed
     * path and the rest through functionalAccess(), exactly the
     * alternation a sampled System run performs. Data checks are
     * meaningless in this mode (the functional path moves no
     * payload), so the oracle falls back to structural checking:
     * invariants after every op, shadow-map agreement, drain
     * cleanliness. Sampled traces are serialized (no concurrent
     * batches) so the functional path always sees idle timing state.
     */
    std::uint64_t samplePeriod = 0;
    std::uint64_t sampleWindow = 0;
};

/** A complete differential-oracle input. */
struct Scenario
{
    std::uint64_t seed = 0;
    FuzzConfig config;
    std::vector<TraceOp> trace;
};

/** Bounds for scenario generation (fuzz CLI knobs). */
struct GenLimits
{
    /** Maximum trace length (ops); the generator draws in
     *  [minOps, maxOps]. */
    unsigned maxOps = 256;
    unsigned minOps = 16;

    /** Maximum tile-arena size. */
    unsigned maxTiles = 10;
};

/** Deterministically generate the scenario for @p seed. */
Scenario generateScenario(std::uint64_t seed, const GenLimits &limits);

/** Serialize @p s to the repro text format (round trips). */
std::string reproText(const Scenario &s);

/** Parse the repro text format; fatal() on malformed input. */
Scenario parseRepro(const std::string &text);

/** Write/read a repro file; fatal() on IO errors / malformed data. */
void writeReproFile(const std::string &path, const Scenario &s);
Scenario readReproFile(const std::string &path);

} // namespace mda::fuzz

#endif // MDA_FUZZ_SCENARIO_HH
