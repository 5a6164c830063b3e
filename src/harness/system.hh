/**
 * @file
 * System: assembles CPU + cache hierarchy + MDA memory for one run.
 */

#ifndef MDA_HARNESS_SYSTEM_HH
#define MDA_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "compiler/compile.hh"
#include "hierarchy.hh"
#include "sim/interval_stats.hh"
#include "sim/probe.hh"
#include "system_config.hh"
#include "telemetry.hh"
#include "trace_cpu.hh"

namespace mda
{

/** Results distilled from one simulation. */
struct RunResult
{
    std::uint64_t cycles = 0;
    std::uint64_t ops = 0;

    double l1HitRate = 0.0;

    /** Requests arriving at the LLC (reads + writebacks). */
    std::uint64_t llcAccesses = 0;

    /** Bytes moved between the LLC and main memory. */
    std::uint64_t memBytes = 0;

    std::uint64_t checkFailures = 0;
};

/** One simulated machine executing one operation stream. */
class System
{
  public:
    /** Convenience: live generation from @p kernel (must outlive the
     *  System). */
    System(const SystemConfig &config,
           const compiler::CompiledKernel &kernel);

    /** Drive the CPU from an arbitrary operation stream: a direct
     *  workload emitter, a capturing tee, or a trace-file replay. The
     *  caches are config's design over the Table I sizes. */
    System(const SystemConfig &config,
           std::unique_ptr<trace::TraceSource> source);

    /** Drive the CPU from @p source through the levels @p specs (the
     *  fuzz oracle's tiny hierarchies). */
    System(const SystemConfig &config,
           const std::vector<LevelSpec> &specs,
           std::unique_ptr<trace::TraceSource> source);

    /** Run to completion and distill the results. With
     *  SystemConfig::sampling() set, dispatches to the SMARTS-style
     *  sampled loop (runSampled) instead of the exact event loop. */
    RunResult run();

    /** All statistics (benches pull extra series/values from here). */
    stats::StatGroup &statGroup() { return _stats; }
    EventQueue &eventQueue() { return _eq; }
    TraceCpu &cpu() { return *_cpu; }
    Hierarchy &hierarchy() { return _hier; }
    MdaMemory &memory() { return _hier.memory(); }
    PacketPool &packetPool() { return _hier.pool(); }

    /** Packet-lifecycle probe points, by name ("l1.accepted", ...). */
    probe::ProbeManager &probeManager() { return _probes; }

    /** Latency breakdown listener (nullptr without telemetry). */
    const telemetry::LatencyAccountant *latencyAccountant() const
    {
        return _telemetry.get();
    }

    /** Interval-stats JSONL captured during run(); empty string when
     *  SystemConfig::statsInterval is 0. */
    std::string intervalJson() const
    {
        return _interval ? _interval->json() : std::string();
    }

  private:
    void sampleOccupancy();

    /** SMARTS loop: alternate measured windows with functional
     *  fast-forward, then scale counters to whole-run estimates. */
    RunResult runSampled();

    /** Shared tail of run()/runSampled(): distill RunResult. */
    RunResult distill() const;

    SystemConfig _config;
    EventQueue _eq;
    stats::StatGroup _stats;

    /** Declared before the CPU so it releases its packets while the
     *  hierarchy's pool is still alive. */
    Hierarchy _hier;
    std::unique_ptr<trace::TraceSource> _source;
    std::unique_ptr<TraceCpu> _cpu;

    /** Declared after the components so listeners detach before the
     *  probe points they attach to are destroyed. */
    probe::ProbeManager _probes;
    std::unique_ptr<telemetry::LatencyAccountant> _telemetry;
    std::unique_ptr<stats::IntervalStats> _interval;

    std::vector<stats::TimeSeries> _occupancy;
};

} // namespace mda

#endif // MDA_HARNESS_SYSTEM_HH
