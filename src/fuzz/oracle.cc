#include "oracle.hh"

#include <algorithm>
#include <memory>

#include "harness/system.hh"

namespace mda::fuzz
{

namespace
{

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** The scenario's policy knobs under @p design; the data checker runs
 *  whenever no op takes the functional path. */
SystemConfig
systemConfig(DesignPoint design, const Scenario &s)
{
    SystemConfig config;
    config.design = design;
    config.prefetchDegree = s.config.prefetch ? 2 : 0;
    config.gatherHits = s.config.gatherHits;
    config.tileWritePenalty = s.config.tileWritePenalty;
    config.checkData = s.config.samplePeriod == 0;
    return config;
}

/** The scenario's hierarchy under @p config: its tiny geometries with
 *  1+n latencies, and the shadow-map audit whenever the per-event
 *  checks run. */
std::vector<LevelSpec>
levelSpecs(const SystemConfig &config, const Scenario &s,
           const OracleOptions &opts)
{
    std::vector<CacheConfig> caches;
    for (const LevelGeometry &geom : s.config.levels) {
        CacheConfig c;
        c.sizeBytes = geom.sizeBytes;
        c.ways = geom.ways;
        c.mshrs = geom.mshrs;
        c.targetsPerMshr = geom.targetsPerMshr;
        c.writeBufferSize = geom.writeBufferSize;
        // Small fixed latencies keep runs fast while still
        // interleaving events across levels; L1 keeps the parallel
        // tag/data shape.
        c.tagLatency = static_cast<Cycles>(1 + caches.size());
        c.dataLatency = c.tagLatency;
        c.parallelTagData = caches.empty();
        caches.push_back(c);
    }
    std::vector<LevelSpec> specs = specsFor(config, caches);
    for (LevelSpec &spec : specs)
        spec.shadowAudit = opts.checks;
    return specs;
}

/**
 * The CPU's stream for @p s: the scenario's ops (pc = index + 1),
 * then, for checked runs, one scalar row read of every word the trace
 * touches (pc 0), in address order: the readback.
 */
std::vector<compiler::TraceOp>
cpuStream(const Scenario &s)
{
    std::vector<compiler::TraceOp> stream;
    std::vector<Addr> touched;
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
        const TraceOp &op = s.trace[i];
        compiler::TraceOp cpu_op;
        cpu_op.addr = op.addr;
        cpu_op.orient = op.orient;
        cpu_op.isWrite = op.write;
        cpu_op.isVector = op.vector;
        cpu_op.wordMask = op.vector ? 0xff : 0x01;
        cpu_op.pc = static_cast<std::uint32_t>(i + 1);
        stream.push_back(cpu_op);
        for (unsigned k = 0; k < (op.vector ? lineWords : 1); ++k) {
            touched.push_back(op.vector ? op.line().wordAddr(k)
                                        : alignDown(op.addr, wordBytes));
        }
    }
    if (s.config.samplePeriod > 0)
        return stream;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    for (Addr addr : touched) {
        compiler::TraceOp read;
        read.addr = addr;
        read.pc = 0;
        stream.push_back(read);
    }
    return stream;
}

/** One design point's System, driven one issue group at a time. */
class DesignRun
{
  public:
    DesignRun(const SystemConfig &config, const Scenario &s,
              const OracleOptions &opts,
              std::vector<compiler::TraceOp> stream)
        : _design(config.design), _scenario(s), _opts(opts),
          _streamOps(stream.size()),
          _sys(config, levelSpecs(config, s, opts),
               std::make_unique<trace::VectorSource>(std::move(stream)))
    {}

    const std::vector<Failure> &failures() const { return _failures; }

    /** Run the trace, the post-drain checks and the readback. */
    void
    execute()
    {
        const auto &trace = _scenario.trace;
        const FuzzConfig &cfg = _scenario.config;
        std::size_t i = 0;
        while (i < trace.size()) {
            // Sampled interleave: the first sampleWindow ops of every
            // period go through the timed path (each drained — the
            // generator serializes sampled traces), the rest through
            // the functional path, exactly the alternation a sampled
            // System run performs. The interesting bugs live at the
            // boundaries: timed traffic over functionally-installed
            // state and vice versa.
            if (cfg.samplePeriod > 0 &&
                i % cfg.samplePeriod >= cfg.sampleWindow) {
                _sys.cpu().fastForward(1);
                if (_opts.checks && !sweepInvariants(i))
                    return;
                ++i;
                continue;
            }
            std::size_t end = i + 1;
            if (cfg.samplePeriod == 0 && trace[i].concurrent) {
                while (end < trace.size() && trace[end].concurrent)
                    ++end;
            }
            if (!runGroup(i, end - i))
                return;
            i = end;
        }
        if (!finishChecks())
            return;
        // The readback: one drained read per touched word.
        for (std::size_t pos = trace.size(); pos < _streamOps; ++pos) {
            if (!runGroup(pos, 1))
                return;
        }
    }

  private:
    /** Post-trace structure: nothing may leak from the trace, and
     *  the final image must satisfy the invariants even when the
     *  per-event sweeps were disabled. */
    bool
    finishChecks()
    {
        for (const auto &cache : _sys.hierarchy().levels()) {
            for (std::string &v : cache->checkDrained())
                fail(FailureKind::DrainLeak, npos, std::move(v));
        }
        if (!_failures.empty())
            return false;
        return sweepInvariants(npos);
    }

    void
    fail(FailureKind kind, std::size_t op_index, std::string detail)
    {
        _failures.push_back(
            {kind, _design, std::move(detail), op_index});
    }

    bool
    sweepInvariants(std::size_t op_index)
    {
        for (const auto &cache : _sys.hierarchy().levels()) {
            std::vector<std::string> v = cache->checkInvariants();
            if (!v.empty()) {
                fail(FailureKind::Invariant, op_index,
                     std::move(v.front()));
                return false;
            }
        }
        return true;
    }

    /**
     * Issue stream ops [first, first + count) and step the event
     * queue until it empties; then every op must have issued, every
     * response arrived, and the checker seen no mismatch.
     */
    bool
    runGroup(std::size_t first, std::uint64_t count)
    {
        const auto &trace = _scenario.trace;
        const std::size_t at = first < trace.size() ? first : npos;
        TraceCpu &cpu = _sys.cpu();
        cpu.setIssueBudget(count);
        cpu.start();
        while (_sys.eventQueue().step()) {
            if (++_steps > _opts.maxSteps) {
                fail(FailureKind::Deadlock, at,
                     "event budget (" + std::to_string(_opts.maxSteps) +
                         " steps) exceeded — livelock?");
                return false;
            }
            if (_opts.checks && !sweepInvariants(at))
                return false;
        }
        if (cpu.issueBudget() != 0) {
            fail(FailureKind::Deadlock, at,
                 std::to_string(cpu.issueBudget()) + " of " +
                     std::to_string(count) +
                     " ops never issued before the event queue "
                     "emptied");
            return false;
        }
        if (cpu.outstanding() != 0) {
            fail(FailureKind::LostResponse, at,
                 std::to_string(cpu.outstanding()) + " of " +
                     std::to_string(count) +
                     " ops never received their response");
            return false;
        }
        const std::optional<CheckMismatch> &m = cpu.firstMismatch();
        if (!m)
            return true;
        const std::string got = std::to_string(m->got);
        const std::string want = std::to_string(m->want);
        const std::string word = std::to_string(m->addr);
        if (m->pos < trace.size()) {
            fail(FailureKind::ReadMismatch, m->pos,
                 std::string(trace[m->pos].vector ? "vector" : "scalar") +
                     " read of word " + word + " returned " + got +
                     ", reference has " + want + " (tick " +
                     std::to_string(m->tick) + ")");
        } else {
            fail(FailureKind::FinalState, npos,
                 "word " + word + " drained to " + got +
                     ", reference has " + want);
        }
        return false;
    }

    DesignPoint _design;
    const Scenario &_scenario;
    const OracleOptions &_opts;
    std::size_t _streamOps;
    System _sys;

    std::uint64_t _steps = 0;
    std::vector<Failure> _failures;
};

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::ReadMismatch: return "read-mismatch";
      case FailureKind::Invariant: return "invariant";
      case FailureKind::DrainLeak: return "drain-leak";
      case FailureKind::FinalState: return "final-state";
      case FailureKind::LostResponse: return "lost-response";
      case FailureKind::Deadlock: return "deadlock";
    }
    return "?";
}

std::string
failureText(const Failure &f)
{
    std::string text = std::string(failureKindName(f.kind)) + " [" +
                       designName(f.design) + "]";
    if (f.opIndex != npos)
        text += " at op " + std::to_string(f.opIndex);
    return text + ": " + f.detail;
}

bool
designApplicable(DesignPoint design,
                 const std::vector<TraceOp> &trace)
{
    if (design != DesignPoint::D0_1P1L)
        return true;
    // The baseline has no column transfers; scalar column
    // *preferences* are fine (it coerces them to rows).
    return std::none_of(trace.begin(), trace.end(),
                        [](const TraceOp &op) {
                            return op.vector &&
                                   op.orient == Orientation::Col;
                        });
}

std::vector<Failure>
runOracle(const Scenario &s, const OracleOptions &opts)
{
    if (s.config.levels.empty())
        fatal("fuzz scenario has no cache levels");
    if (s.trace.empty())
        fatal("fuzz scenario has an empty trace");
    for (DesignPoint d : s.config.designs) {
        if (!designApplicable(d, s.trace)) {
            fatal("design %s cannot express this trace's column "
                  "vector ops", designName(d));
        }
    }

    const std::vector<compiler::TraceOp> stream = cpuStream(s);
    std::vector<Failure> failures;
    for (DesignPoint d : s.config.designs) {
        DesignRun run(systemConfig(d, s), s, opts, stream);
        run.execute();
        failures.insert(failures.end(), run.failures().begin(),
                        run.failures().end());
    }
    return failures;
}

} // namespace mda::fuzz
