/**
 * @file
 * Shared scaffolding for the figure/table bench binaries.
 *
 * Every bench accepts:
 *   --n <dim>     input dimension (default 128, scaled caches)
 *   --paper       the paper's exact configuration (n = 512, Table I
 *                 cache sizes; slow: minutes per figure)
 *   --quick       n = 64 for smoke runs
 *   --workloads a,b,c   restrict the benchmark list
 *   --jobs <N>    worker threads for the sweep (0 = hardware
 *                 concurrency, the default)
 *   --trace-capture <dir>   record every cell's operation stream as
 *                 a versioned binary .mdat file while simulating
 *   --trace-replay <dir>    drive cells from recorded .mdat files,
 *                 skipping compilation and trace generation
 *
 * Scaled runs divide every cache capacity by (512/n)^2 so the
 * working-set : capacity ratios — which the paper's results hinge on —
 * are preserved.
 *
 * Figure sweeps are embarrassingly parallel: benches enumerate every
 * cell up front, CellRunner::warm() executes them across a
 * sweep::Executor pool (longest operation stream first), and the
 * reporting loops then read the warmed cache. Results and
 * --stats-json bytes are identical for any job count (cells are
 * independently seeded; the JSON archive is key-sorted). Tracing
 * (--debug-flags, MDA_DEBUG_FLAGS) writes to process-wide sinks and
 * therefore forces --jobs 1.
 */

#ifndef MDA_BENCH_BENCH_COMMON_HH
#define MDA_BENCH_BENCH_COMMON_HH

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/debug.hh"

namespace mda::bench
{

/** Parsed command-line options. */
struct BenchOptions
{
    std::int64_t n = 128;
    bool paper = false;
    std::vector<std::string> workloads = workloads::workloadNames();

    /** Sweep worker threads; 0 resolves to hardware concurrency. */
    unsigned jobs = 0;

    /** When set, every executed cell's RunResult and full statistics
     *  are archived as JSON here (CI bench trajectories). */
    std::string statsJsonPath;

    /** Enable the per-level/orientation/stage latency breakdown
     *  ("telemetry.*" stats; rides into the --stats-json archive). */
    bool telemetry = false;

    /** Interval-stats period in ticks (0 = off). */
    Tick statsInterval = 0;

    /** When set (requires statsInterval), every cell's interval JSONL
     *  stream is archived here, key-sorted like the stats archive. */
    std::string statsJsonlPath;

    /** Directory for --trace-capture: every cell also records its
     *  operation stream as a .mdat file named by
     *  trace::traceFileName(). Design points that compile identically
     *  share a file; concurrent captures publish identical bytes via
     *  atomic rename, so any --jobs value is safe. */
    std::string traceCaptureDir;

    /** Directory for --trace-replay: cells read their .mdat file
     *  instead of compiling and generating the stream (fatal if a
     *  cell's file is missing). Results and --stats-json bytes match
     *  the live run exactly. */
    std::string traceReplayDir;

    /** SMARTS sampling: ops per period / fully-timed ops per window
     *  (0 = off, the exact default). See SystemConfig::samplePeriod. */
    std::uint64_t samplePeriod = 0;
    std::uint64_t sampleWindow = 0;

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions opts;
        bool jobs_given = false;
        for (int a = 1; a < argc; ++a) {
            std::string arg = argv[a];
            // Flags that take a value refuse to be the final argv
            // entry: silently dropping "--n" with nothing after it
            // would run the wrong configuration.
            auto next = [&]() -> const char * {
                if (a + 1 >= argc)
                    fatal("missing value for %s", arg.c_str());
                return argv[++a];
            };
            auto number = [&] {
                return sweep::parseDecimal<std::uint64_t>(arg.c_str(),
                                                          next());
            };
            if (arg == "--paper") {
                opts.paper = true;
                opts.n = 512;
            } else if (arg == "--quick") {
                opts.n = 64;
            } else if (arg == "--n") {
                opts.n = static_cast<std::int64_t>(number());
            } else if (arg == "--jobs") {
                opts.jobs = sweep::parseJobs("--jobs", next());
                jobs_given = true;
            } else if (arg == "--stats-json") {
                opts.statsJsonPath = next();
            } else if (arg == "--telemetry") {
                opts.telemetry = true;
            } else if (arg == "--stats-interval") {
                opts.statsInterval = number();
            } else if (arg == "--stats-jsonl") {
                opts.statsJsonlPath = next();
            } else if (arg == "--trace-capture") {
                opts.traceCaptureDir = next();
            } else if (arg == "--trace-replay") {
                opts.traceReplayDir = next();
            } else if (arg == "--sample-period") {
                opts.samplePeriod = number();
            } else if (arg == "--sample-window") {
                opts.sampleWindow = number();
            } else if (arg == "--debug-flags") {
                debug::setFlags(next());
            } else if (arg == "--workloads") {
                opts.workloads.clear();
                std::stringstream ss(next());
                std::string item;
                while (std::getline(ss, item, ','))
                    opts.workloads.push_back(item);
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "options: --paper | --quick | --n <dim> |"
                             " --workloads a,b,c |"
                             " --jobs <N> (0 = all cores) |"
                             " --stats-json <path> |"
                             " --telemetry |"
                             " --stats-interval <ticks> |"
                             " --stats-jsonl <path> |"
                             " --trace-capture <dir> |"
                             " --trace-replay <dir> |"
                             " --sample-period <ops> |"
                             " --sample-window <ops> |"
                             " --debug-flags <f,g>\n";
                std::exit(0);
            } else {
                std::cerr << "unknown option: " << arg << '\n';
                std::exit(1);
            }
        }
        if (opts.n % 8 != 0 || opts.n < 16)
            fatal("--n must be a multiple of 8, at least 16");
        if (!opts.statsJsonlPath.empty() && opts.statsInterval == 0)
            fatal("--stats-jsonl requires --stats-interval");
        if (!opts.traceCaptureDir.empty() &&
            !opts.traceReplayDir.empty()) {
            fatal("--trace-capture and --trace-replay are mutually "
                  "exclusive");
        }
        if ((opts.samplePeriod == 0) != (opts.sampleWindow == 0))
            fatal("--sample-period and --sample-window go together");
        if (opts.samplePeriod != 0) {
            if (opts.sampleWindow * 2 > opts.samplePeriod)
                fatal("twice --sample-window must fit in "
                      "--sample-period: each measured window is "
                      "preceded by an equal detailed-warming stretch");
            if (!opts.traceCaptureDir.empty())
                fatal("--sample-period is incompatible with "
                      "--trace-capture: a sampled run issues only "
                      "the measured windows through the timed path");
            if (opts.statsInterval != 0)
                fatal("--sample-period is incompatible with "
                      "--stats-interval: fast-forwarded intervals "
                      "would skew the series");
        }
        if (obs::hot) {
            // Debug tracing interleaves across workers; keep traced
            // runs readable by defaulting to one job, and refuse an
            // explicit parallel request outright.
            if (jobs_given && sweep::resolveJobs(opts.jobs) > 1) {
                fatal("--debug-flags/MDA_DEBUG_FLAGS write to a "
                      "process-wide sink; tracing requires --jobs 1");
            }
            opts.jobs = 1;
        }
        return opts;
    }

    /** Build the RunSpec for one cell of a figure. */
    RunSpec
    spec(const std::string &workload, DesignPoint design,
         std::uint64_t llc_bytes = 1024 * 1024) const
    {
        RunSpec s;
        s.workload = workload;
        s.n = n;
        s.system.design = design;
        s.system.l3Size = llc_bytes;
        s.system.telemetry = telemetry;
        s.system.statsInterval = statsInterval;
        if (!traceCaptureDir.empty()) {
            s.system.traceMode = TraceMode::Capture;
            s.system.traceDir = traceCaptureDir;
        } else if (!traceReplayDir.empty()) {
            s.system.traceMode = TraceMode::Replay;
            s.system.traceDir = traceReplayDir;
        }
        s.system.samplePeriod = samplePeriod;
        s.system.sampleWindow = sampleWindow;
        s.autoScaleCaches = !paper;
        return s;
    }

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "input " << n << "x" << n << " (HTAP " << 4 * n << "x"
           << n << "), "
           << (paper ? "paper Table I cache sizes"
                     : "capacities scaled to preserve working-set "
                       "ratios")
           << ", " << sweep::resolveJobs(jobs) << " job(s)";
        return os.str();
    }
};

/** Cycles for one (workload, design) cell, with a result cache.
 *
 *  warm() executes a batch of cells across a sweep::Executor worker
 *  pool and populates the cache; operator() then serves the reporting
 *  loops from it (and falls back to running any cell that was not
 *  warmed). Cells are independent simulations, so any interleaving
 *  yields the same results.
 *
 *  When constructed with options naming a --stats-json path, every
 *  executed cell is archived on destruction as a JSON object keyed by
 *  the cell's configuration string. The archive map is key-sorted and
 *  its inserts are mutex-guarded, so the emitted file is
 *  byte-identical for every --jobs value. The --stats-json and
 *  --stats-jsonl files are opened at construction, so an unwritable
 *  path is fatal before any cell runs. */
class CellRunner
{
  public:
    CellRunner() = default;

    explicit CellRunner(const BenchOptions &opts)
        : CellRunner(opts.statsJsonPath, opts.jobs, opts.statsJsonlPath)
    {}

    CellRunner(const std::string &stats_json_path, unsigned jobs,
               const std::string &stats_jsonl_path = "")
        : _jobs(jobs)
    {
        openOutput(_statsJson, stats_json_path, "stats JSON");
        openOutput(_statsJsonl, stats_jsonl_path, "stats JSONL");
    }

    ~CellRunner()
    {
        if (_statsJson.is_open()) {
            _statsJson << "{";
            bool first = true;
            for (const auto &[key, json] : _cellJson) {
                _statsJson << (first ? "\n" : ",\n") << "\"" << key
                           << "\": " << json;
                first = false;
            }
            _statsJson << "}\n";
        }
        if (_statsJsonl.is_open()) {
            // Key-sorted concatenation of the per-cell streams (each
            // stream's header names its scenario), so the file is
            // byte-identical for every --jobs value.
            for (const auto &[key, jsonl] : _cellJsonl)
                _statsJsonl << jsonl;
        }
    }

    /** The cache key for one cell. Must cover every field a bench may
     *  vary, or a cell would silently reuse another configuration's
     *  result. Observation-only fields (telemetry, statsInterval) stay
     *  out: they cannot change a RunResult, and keeping them out keeps
     *  archived keys stable across observability settings. */
    static std::string
    cellKey(const RunSpec &spec)
    {
        const SystemConfig &sys = spec.system;
        return spec.workload + "/" + designName(sys.design) + "/" +
               std::to_string(spec.n) + "/" +
               std::to_string(sys.l1Size) + "/" +
               std::to_string(sys.l2Size) + "/" +
               std::to_string(sys.l3Size) + "/" +
               std::to_string(sys.threeLevel) + "/" +
               std::to_string(sys.memTiming.tCas) + "/" +
               std::to_string(sys.memTiming.tActivate) + "/" +
               std::to_string(sys.memTopo.subRowBuffers) + "/" +
               std::to_string(sys.tileWritePenalty) + "/" +
               std::to_string(sys.maxOutstanding) + "/" +
               std::to_string(sys.prefetchDegree) + "/" +
               std::to_string(sys.gatherHits) + "/" +
               std::to_string(sys.disableMshrCoalescing) + "/" +
               (sys.layoutOverride
                    ? std::to_string(
                          static_cast<int>(*sys.layoutOverride))
                    : "auto") +
               "/" + std::to_string(spec.autoScaleCaches) + "/" +
               std::to_string(spec.seed) +
               // Sampling changes every RunResult, so it must key the
               // cell — but only when on, so exact-run archives keep
               // their historical keys.
               (sys.sampling()
                    ? "/smp" + std::to_string(sys.samplePeriod) +
                          "w" + std::to_string(sys.sampleWindow)
                    : "");
    }

    /**
     * Execute every not-yet-cached cell of @p specs across the worker
     * pool. Duplicate keys (figure loops revisit baselines) run once.
     * After warm() returns, operator() is a cache hit for each spec.
     */
    void
    warm(const std::vector<RunSpec> &specs)
    {
        std::vector<RunSpec> todo;
        std::set<std::string> scheduled;
        for (const auto &spec : specs) {
            std::string key = cellKey(spec);
            if (_cache.count(key) || !scheduled.insert(key).second)
                continue;
            todo.push_back(spec);
        }
        if (todo.empty())
            return;
        sweep::Executor pool(_jobs);
        pool.forEach(todo, [&](std::size_t idx) { runCell(todo[idx]); });
    }

    RunResult
    operator()(const RunSpec &spec)
    {
        std::string key = cellKey(spec);
        auto it = _cache.find(key);
        if (it != _cache.end())
            return it->second;
        return runCell(spec);
    }

  private:
    /** Run one cell and archive it (called from warm() workers and
     *  from the main thread on cache misses). */
    RunResult
    runCell(const RunSpec &spec)
    {
        std::string key = cellKey(spec);
        RunResult result;
        std::string json;
        std::string jsonl;
        if (!_statsJson.is_open() && !_statsJsonl.is_open()) {
            result = runOne(spec);
        } else {
            PreparedRun run(spec);
            run.system.statGroup().setMeta("scenario", key);
            result = run.system.run();
            if (_statsJson.is_open()) {
                std::ostringstream cell;
                cell << "{\"result\": {"
                     << "\"cycles\": " << result.cycles
                     << ", \"ops\": " << result.ops
                     << ", \"l1HitRate\": " << result.l1HitRate
                     << ", \"llcAccesses\": " << result.llcAccesses
                     << ", \"memBytes\": " << result.memBytes
                     << ", \"checkFailures\": " << result.checkFailures
                     << "}, \"stats\": ";
                run.system.statGroup().dumpJson(cell);
                cell << "}";
                json = cell.str();
            }
            jsonl = run.system.intervalJson();
        }
        std::lock_guard<std::mutex> lock(_mutex);
        if (!json.empty())
            _cellJson.emplace(key, std::move(json));
        if (!jsonl.empty())
            _cellJsonl.emplace(key, std::move(jsonl));
        _cache.emplace(key, result);
        return result;
    }

    /** Open @p path for writing, unless it is empty; fatal if that
     *  fails. */
    static void
    openOutput(std::ofstream &os, const std::string &path,
               const char *what)
    {
        if (path.empty())
            return;
        os.open(path);
        if (!os)
            fatal("cannot write %s: %s", what, path.c_str());
    }

    std::mutex _mutex;
    std::map<std::string, RunResult> _cache;
    std::ofstream _statsJson;
    std::ofstream _statsJsonl;
    unsigned _jobs = 0;
    std::map<std::string, std::string> _cellJson;
    std::map<std::string, std::string> _cellJsonl;
};

} // namespace mda::bench

#endif // MDA_BENCH_BENCH_COMMON_HH
