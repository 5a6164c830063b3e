#include "system.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "warming.hh"

namespace mda
{

namespace
{

/** Table I caches (Section IV-C sizes) for @p config: L1, L2 and,
 *  unless two-level, L3. */
std::vector<CacheConfig>
tableICaches(const SystemConfig &config)
{
    CacheConfig l1 = CacheConfig::l1D();
    l1.sizeBytes = config.l1Size;
    std::vector<CacheConfig> caches{l1, CacheConfig::l2(config.l2Size)};
    if (config.threeLevel)
        caches.push_back(CacheConfig::l3(config.l3Size));
    if (config.disableMshrCoalescing) {
        for (CacheConfig &c : caches)
            c.targetsPerMshr = 1;
    }
    return caches;
}

} // namespace

System::System(const SystemConfig &config,
               const compiler::CompiledKernel &kernel)
    : System(config, std::make_unique<trace::GeneratorSource>(kernel))
{}

System::System(const SystemConfig &config,
               std::unique_ptr<trace::TraceSource> source)
    : System(config, specsFor(config, tableICaches(config)),
             std::move(source))
{}

System::System(const SystemConfig &config,
               const std::vector<LevelSpec> &specs,
               std::unique_ptr<trace::TraceSource> source)
    : _config(config),
      _hier(_eq, _stats, specs, config.memTiming, config.memTopo),
      _source(std::move(source))
{
    if (config.sampling()) {
        if (config.sampleWindow == 0 ||
            config.sampleWindow > config.samplePeriod / 2) {
            fatal("sampling window (%llu) must be positive with "
                  "twice the window fitting in the period (%llu): "
                  "each measured window is preceded by an equally "
                  "long detailed-warming stretch",
                  (unsigned long long)config.sampleWindow,
                  (unsigned long long)config.samplePeriod);
        }
        if (config.checkData)
            fatal("sampling is incompatible with data checking: "
                  "fast-forward moves no data");
        if (config.traceMode == TraceMode::Capture)
            fatal("sampling is incompatible with trace capture: "
                  "the captured stream would be complete but the "
                  "timed run of it would not be reproducible");
        if (config.occupancySamplePeriod > 0 ||
            config.statsInterval > 0) {
            fatal("sampling is incompatible with tick-driven "
                  "samplers (occupancy/interval stats): "
                  "fast-forwarded intervals would skew the series");
        }
    }
    const auto &levels = _hier.levels();

    CpuParams cpu_params;
    cpu_params.maxOutstanding = config.maxOutstanding;
    cpu_params.checkData = config.checkData;
    _cpu = std::make_unique<TraceCpu>("cpu", _eq, _stats, *_source,
                                      _hier.top(), cpu_params);
    _hier.attach(*_cpu);
    _cpu->setPacketPool(&_hier.pool());

    // Every component exposes its packet-lifecycle probe points
    // unconditionally; with no listeners each fire site is a single
    // predicted-false branch.
    _cpu->regProbes(_probes);
    _hier.regProbes(_probes);

    if (config.telemetry) {
        std::vector<std::string> telem_levels;
        for (const auto &cache : levels)
            telem_levels.push_back(cache->name());
        telem_levels.push_back("mem");
        _telemetry = std::make_unique<telemetry::LatencyAccountant>(
            _probes, _stats, telem_levels);
    }

    if (config.statsInterval > 0) {
        _interval = std::make_unique<stats::IntervalStats>(
            _stats, _eq, config.statsInterval);
        for (std::size_t n = 0; n < levels.size(); ++n) {
            const std::string &name = levels[n]->name();
            if (LineCache *line = _hier.lineCache(n)) {
                _interval->addGauge(
                    name + ".colOccupancy",
                    [line] { return line->colOccupancy(); });
            } else if (TileCache *tile = _hier.tileCache(n)) {
                _interval->addGauge(name + ".presentWords", [tile] {
                    return static_cast<double>(tile->presentWords());
                });
            }
        }
    }

    // Self-description for archived stats.
    _stats.setMeta("design", designName(config.design));
    _stats.setMeta("levels", std::to_string(levels.size()));
    _stats.setMeta("llc", levels.back()->name());

    // Fig. 15 occupancy series, one per level.
    _occupancy.resize(levels.size());
    for (std::size_t n = 0; n < levels.size(); ++n) {
        _stats.regTimeSeries(levels[n]->name() + ".colOccupancy",
                             &_occupancy[n],
                             "column-line occupancy over time");
    }
}

void
System::sampleOccupancy()
{
    for (std::size_t n = 0; n < _occupancy.size(); ++n) {
        if (LineCache *line = _hier.lineCache(n))
            _occupancy[n].sample(_eq.curTick(), line->colOccupancy());
    }
    if (!_cpu->done()) {
        _eq.schedule(_eq.curTick() + _config.occupancySamplePeriod,
                     [this] { sampleOccupancy(); },
                     EventPriority::Stats);
    }
}

RunResult
System::run()
{
    // This run's thread, in the budget the fast-forward pipeline
    // draws its helper threads from.
    HostThreads busy(1);
    if (_config.sampling())
        return runSampled();

    // MDA_LINT_ALLOW(DET-1): the ticks/sec heartbeat is the one
    // sanctioned wall-clock read — it paces progress reporting only
    // and can never influence simulated state or event order.
    using Clock = std::chrono::steady_clock;

    _cpu->start();
    if (_config.occupancySamplePeriod > 0)
        sampleOccupancy();
    if (_interval)
        _interval->start([this] { return !_cpu->done(); });

    if (_config.heartbeatSeconds == 0) {
        _eq.run();
    } else {
        // Run in bounded tick slices so the host can report progress:
        // a ticks/sec heartbeat roughly every heartbeatSeconds of
        // wall time. Slicing preserves event order exactly.
        constexpr Tick slice = 1u << 20;
        const auto period =
            std::chrono::seconds(_config.heartbeatSeconds);
        auto last_wall = Clock::now();
        Tick last_tick = _eq.curTick();
        while (!_eq.empty()) {
            // Always cover the next event so the loop advances even
            // across idle gaps longer than the slice.
            Tick target = std::max(_eq.nextTick(),
                                   _eq.curTick() + slice);
            _eq.run(target);
            auto now = Clock::now();
            if (now - last_wall >= period) {
                double secs =
                    std::chrono::duration<double>(now - last_wall)
                        .count();
                inform("heartbeat: tick %llu, %.2f Mticks/s",
                       (unsigned long long)_eq.curTick(),
                       static_cast<double>(_eq.curTick() - last_tick) /
                           secs / 1e6);
                last_wall = now;
                last_tick = _eq.curTick();
            }
        }
    }
    if (!_cpu->done())
        panic("simulation deadlocked at tick %llu",
              (unsigned long long)_eq.curTick());
    if (_interval)
        _interval->finalize();
    _stats.setMeta("finalTick",
                   std::to_string(_cpu->finishTick()));
    return distill();
}

RunResult
System::distill() const
{
    RunResult result;
    result.cycles = _cpu->finishTick();
    result.ops =
        static_cast<std::uint64_t>(_stats.scalar("cpu.ops"));
    double l1_acc = _stats.scalar("l1.demandAccesses");
    result.l1HitRate =
        l1_acc > 0 ? _stats.scalar("l1.demandHits") / l1_acc : 0.0;
    const std::string &llc = _hier.levels().back()->name();
    result.llcAccesses = static_cast<std::uint64_t>(
        _stats.scalar(llc + ".demandAccesses") +
        _stats.scalar(llc + ".writebacksIn"));
    result.memBytes = static_cast<std::uint64_t>(
        _stats.scalar("mem.bytesRead") +
        _stats.scalar("mem.bytesWritten"));
    result.checkFailures = _cpu->checkFailures();
    return result;
}

RunResult
System::runSampled()
{
    // SMARTS (Wunderlich et al.): each samplePeriod ops, run
    // 2 x sampleWindow fully timed — a detailed-warming stretch that
    // refills the transient micro-state (MLP window, MSHRs, row
    // buffers) after the functional gap, then the measured window
    // proper — and fast-forward the remainder functionally (state
    // effects only — replacement, dirty bits, duplicate coherence,
    // prefetcher training — so the measured windows also see warm
    // caches). The warm/measure boundary is a mid-run budget hook, so
    // the pipeline never drains between the two: without the warming,
    // queue-occupancy stats (issue stalls, row-buffer hits) are
    // systematically under-counted at every cold window start. Each
    // whole-run counter is estimated as (mean per-op rate across
    // windows) x (total ops), with a 95% confidence interval from the
    // window-to-window variance. Between windows the clock jumps by
    // the running cycles-per-op estimate so the final tick is itself
    // an estimate.
    const std::uint64_t window = _config.sampleWindow;
    const std::uint64_t warm = _config.sampleWindow;
    const std::uint64_t skip = _config.samplePeriod - window - warm;

    const std::vector<std::string> names = _stats.scalarNames();
    std::vector<std::vector<double>> rates(names.size());
    std::vector<double> before(names.size(), 0.0);
    std::vector<double> after(names.size(), 0.0);
    std::vector<double> ticksPerOp;

    std::uint64_t windows = 0;
    std::uint64_t measuredOps = 0;
    Tick measuredTicks = 0;

    const auto opsIdx = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), "cpu.ops") -
        names.begin());
    mda_assert(opsIdx < names.size(), "cpu.ops not registered");

    while (true) {
        // ---- detailed warming + measured window (one timed run) ----
        // Both measurement boundaries are mid-run budget hooks: the
        // window opens when warming's last op has issued (pipeline
        // hot, never drained) and closes when its own last op issues
        // (before the drain). In-flight traffic thus crosses both
        // edges symmetrically — closing after the drain instead
        // over-counts fills by up to maxOutstanding per window.
        Tick t0 = 0, t1 = 0;
        bool measuring = false, closed = false;
        _cpu->setIssueBudget(warm + window);
        _cpu->setBudgetHook(window, [&] {
            for (std::size_t i = 0; i < names.size(); ++i)
                before[i] = _stats.scalar(names[i]);
            t0 = _eq.curTick();
            measuring = true;
            _cpu->setBudgetHook(0, [&] {
                for (std::size_t i = 0; i < names.size(); ++i)
                    after[i] = _stats.scalar(names[i]);
                t1 = _eq.curTick();
                closed = true;
            });
        });
        const double ops_at_entry = _stats.scalar("cpu.ops");
        _cpu->start();
        _eq.run();

        std::uint64_t issued = static_cast<std::uint64_t>(
            _stats.scalar("cpu.ops") - ops_at_entry);
        if (!_cpu->done() && issued != warm + window)
            panic("sampled simulation deadlocked at tick %llu",
                  (unsigned long long)_eq.curTick());
        // The trace can dry up during warming (nothing measured this
        // period) or mid-window — the partial window then closes at
        // the post-drain state, like the full run's own ending.
        if (measuring && !closed) {
            for (std::size_t i = 0; i < names.size(); ++i)
                after[i] = _stats.scalar(names[i]);
            t1 = _eq.curTick();
        }
        std::uint64_t wops =
            measuring ? static_cast<std::uint64_t>(after[opsIdx] -
                                                   before[opsIdx])
                      : 0;
        if (wops > 0) {
            for (std::size_t i = 0; i < names.size(); ++i) {
                rates[i].push_back((after[i] - before[i]) /
                                   static_cast<double>(wops));
            }
            ticksPerOp.push_back(static_cast<double>(t1 - t0) /
                                 static_cast<double>(wops));
            ++windows;
            measuredOps += wops;
            measuredTicks += t1 - t0;
        }
        if (_cpu->done())
            break;

        // ---- functional fast-forward (level-pipelined) ----
        std::uint64_t skipped = _hier.fastForward(*_cpu, skip);
        if (skipped > 0 && measuredOps > 0) {
            // Advance the clock by the running cycles-per-op estimate
            // so finishTick / finalTick extrapolate the same way the
            // counters do.
            double cpo = static_cast<double>(measuredTicks) /
                         static_cast<double>(measuredOps);
            _eq.advanceTo(_eq.curTick() +
                          static_cast<Tick>(
                              cpo * static_cast<double>(skipped)));
        }
        if (_cpu->done())
            break;
    }
    _cpu->setBudgetHook(~std::uint64_t{0}, nullptr);
    _hier.endWarming();

    const std::uint64_t totalOps =
        static_cast<std::uint64_t>(_stats.scalar("cpu.ops")) +
        _cpu->fastForwardedOps();

    // Scale counters to whole-run estimates; gauges keep their last
    // observed value. The CI meta block records the sampling design
    // and the per-stat uncertainty for the analyzers' error bars.
    std::ostringstream meta;
    meta << "{\"periodOps\":" << _config.samplePeriod
         << ",\"windowOps\":" << window << ",\"warmupOps\":" << warm
         << ",\"windows\":" << windows
         << ",\"measuredOps\":" << measuredOps
         << ",\"totalOps\":" << totalOps << ",\"stats\":{";
    bool first_stat = true;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (_stats.isGauge(names[i]) || rates[i].empty())
            continue;
        double mean = 0.0;
        for (double r : rates[i])
            mean += r;
        mean /= static_cast<double>(rates[i].size());
        double var = 0.0;
        for (double r : rates[i])
            var += (r - mean) * (r - mean);
        std::size_t n = rates[i].size();
        double stderr_rate =
            n > 1 ? std::sqrt(var / static_cast<double>(n - 1) /
                              static_cast<double>(n))
                  : 0.0;
        double estimate = mean * static_cast<double>(totalOps);
        double ci95 =
            1.96 * stderr_rate * static_cast<double>(totalOps);
        _stats.setScalar(names[i], estimate);
        if (!first_stat)
            meta << ",";
        first_stat = false;
        meta << "\"" << names[i] << "\":{\"estimate\":";
        stats::writeJsonNumber(meta, estimate);
        meta << ",\"ci95\":";
        stats::writeJsonNumber(meta, ci95);
        meta << "}";
    }
    meta << "}}";
    _stats.setMeta("sampling", meta.str());
    // The clock advanced through the fast-forward phases by the
    // cycles-per-op estimate, so the current tick *is* the estimated
    // run length (finishTick would predate the final advance when the
    // trace dries up mid-fast-forward).
    _stats.setMeta("finalTick", std::to_string(_eq.curTick()));
    RunResult result = distill();
    result.cycles = _eq.curTick();
    return result;
}

} // namespace mda
