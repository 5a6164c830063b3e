/**
 * @file
 * Whole-system configuration: the paper's design points (Table I and
 * Section IV-C) plus scaling support for fast bench runs.
 */

#ifndef MDA_HARNESS_SYSTEM_CONFIG_HH
#define MDA_HARNESS_SYSTEM_CONFIG_HH

#include <optional>
#include <string>

#include "cache/cache_config.hh"
#include "compiler/compile.hh"
#include "mem/timing_params.hh"

namespace mda
{

/** The cache-hierarchy design points evaluated in the paper. */
enum class DesignPoint : std::uint8_t
{
    D0_1P1L,         ///< Baseline: 1P1L everywhere + prefetching.
    D1_1P2L,         ///< 1P2L (Different-Set) at every level.
    D1_1P2L_SameSet, ///< 1P2L with Same-Set mapping at every level.
    D2_2P2L,         ///< 1P2L L1/L2 with a sparse 2P2L LLC.
    D2_2P2L_Dense,   ///< Same, with the dense block-fill policy.
};

/** Display name matching the paper's figures. */
constexpr const char *
designName(DesignPoint d)
{
    switch (d) {
      case DesignPoint::D0_1P1L: return "1P1L";
      case DesignPoint::D1_1P2L: return "1P2L";
      case DesignPoint::D1_1P2L_SameSet: return "1P2L_SameSet";
      case DesignPoint::D2_2P2L: return "2P2L";
      case DesignPoint::D2_2P2L_Dense: return "2P2L_Dense";
    }
    return "?";
}

/** Design point named @p name by designName(); false when @p name
 *  names none. Fatal for the paper's deferred Design 3. */
inline bool
designFromName(const std::string &name, DesignPoint &out)
{
    if (name == "2P2L_L1")
        fatal("Design 3 (2P2L L1) is deferred to future work in the "
              "paper and not implemented; pick another design point");
    for (DesignPoint d :
         {DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
          DesignPoint::D1_1P2L_SameSet, DesignPoint::D2_2P2L,
          DesignPoint::D2_2P2L_Dense}) {
        if (name == designName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

/** Where the CPU's operation stream comes from (see src/trace/). */
enum class TraceMode : std::uint8_t
{
    Off,     ///< Live generation from the compiled kernel.
    Capture, ///< Live generation, teed into a trace file.
    Replay,  ///< Replayed from a previously captured trace file.
};

/** Whole-system parameters. */
struct SystemConfig
{
    DesignPoint design = DesignPoint::D1_1P2L;

    /** Cache sizes (Table I: 32K L1 / 256K L2 / 1M..4M L3). */
    std::uint64_t l1Size = 32 * 1024;
    std::uint64_t l2Size = 256 * 1024;
    std::uint64_t l3Size = 1024 * 1024;

    /** False = two-level hierarchy where the L2 is the LLC (the
     *  cache-resident study of Fig. 13 uses a 2 MB L2 LLC). */
    bool threeLevel = true;

    MemTimingParams memTiming = MemTimingParams::sttDefault();
    MemTopologyParams memTopo{};

    /** Extra 2P2L write latency (Fig. 16's +20-cycle study). */
    Cycles tileWritePenalty = 0;

    /** CPU MLP window. */
    unsigned maxOutstanding = 16;

    /** Baseline prefetch degree (L1 and L2; 0 disables). */
    unsigned prefetchDegree = 8;

    /** Enable the gather-hit policy (assemble an oriented line from
     *  crossing lines) at the non-L1 1P2L levels. */
    bool gatherHits = false;

    /** Verify all data movement against a reference model. */
    bool checkData = false;

    /** Sample column occupancy every N cycles (0 = off, Fig. 15). */
    Tick occupancySamplePeriod = 0;

    /** Host-side sim-speed heartbeat: inform() ticks/sec roughly
     *  every this many wall-clock seconds (0 = off). Quick runs
     *  finish before the first beat and stay silent. */
    unsigned heartbeatSeconds = 10;

    /** Layout override for the layout-mismatch ablation. */
    std::optional<compiler::LayoutKind> layoutOverride;

    /** Disable 2-D MSHR scalar-miss coalescing (ablation): misses
     *  fetch their line but scalars to the same in-flight line are
     *  held rather than coalesced. (Modeled as MSHR target cap 1.) */
    bool disableMshrCoalescing = false;

    /** Build the LatencyAccountant probe listener and register its
     *  per-level/orientation/stage breakdown stats ("telemetry.*").
     *  Off by default: the default --stats-json stays byte-identical
     *  and the lifecycle probes cost one predicted-false branch. */
    bool telemetry = false;

    /** Emit an interval-stats JSONL record every N ticks (0 = off);
     *  retrieved via System::intervalJson() / --stats-jsonl. */
    Tick statsInterval = 0;

    /**
     * SMARTS-style sampled simulation: of every samplePeriod
     * operations, 2 x sampleWindow are simulated fully timed — a
     * detailed-warming stretch that refills the transient queue
     * state after the functional gap, then the measured window —
     * and the rest are fast-forwarded functionally: cache state
     * stays warm, no events run. Counter stats are scaled to
     * whole-run estimates from the per-window rates, with 95%
     * confidence intervals recorded in the stats JSON's meta
     * "sampling" block. 0 disables (the default: full runs stay
     * byte-identical). Requires 2 * sampleWindow <= samplePeriod.
     *
     * Incompatible with checkData (fast-forward moves no data),
     * trace Capture (the captured stream would be incomplete), and
     * the tick-driven samplers (occupancySamplePeriod,
     * statsInterval): skipped intervals would skew their series.
     */
    std::uint64_t samplePeriod = 0;

    /** Fully-timed operations per measured window (sampling). */
    std::uint64_t sampleWindow = 0;

    bool sampling() const { return samplePeriod > 0; }

    /** Capture or replay the operation stream instead of (re)walking
     *  the loop nest every run. Off by default; stats and results are
     *  byte-identical in all three modes. */
    TraceMode traceMode = TraceMode::Off;

    /** Directory holding the captured traces; each run derives its
     *  file name from the trace key (trace::traceFileName). */
    std::string traceDir;

    /** Compiler options implied by the design point. */
    compiler::CompileOptions
    compileOptions() const
    {
        compiler::CompileOptions opts;
        opts.mdaEnabled = (design != DesignPoint::D0_1P1L);
        opts.vectorize = true;
        opts.layoutOverride = layoutOverride;
        return opts;
    }

    /**
     * Scale every cache size by the square of (paper n / run n) so a
     * scaled run preserves the paper's working-set : capacity ratios
     * (e.g. n = 128 divides capacities by 16).
     */
    SystemConfig
    scaledForInput(std::int64_t n, std::int64_t paper_n = 512) const
    {
        SystemConfig out = *this;
        if (n >= paper_n)
            return out;
        std::uint64_t factor = static_cast<std::uint64_t>(
            (paper_n / n) * (paper_n / n));
        auto scale = [factor](std::uint64_t bytes) {
            std::uint64_t scaled = bytes / factor;
            // Round to a 4 KiB multiple so every associativity and
            // the 512 B tile granularity divide evenly.
            scaled = alignUp(std::max<std::uint64_t>(scaled, 4096),
                             4096);
            return scaled;
        };
        out.l1Size = scale(l1Size);
        out.l2Size = scale(l2Size);
        out.l3Size = scale(l3Size);
        return out;
    }
};

} // namespace mda

#endif // MDA_HARNESS_SYSTEM_CONFIG_HH
