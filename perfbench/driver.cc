/**
 * @file
 * perfbench driver: runs one named benchmark workload against the
 * simulator libraries and writes what it measured as one JSON report.
 *
 *   perfbench_driver --workload conv-timed --seed 12648430 --seconds 10
 *                    --trace 0 --out <dir>
 *
 * With --trace 0 the report holds the end-to-end metrics of untraced
 * rounds; with --trace 1 it holds the per-layer metrics of a traced
 * run and a Chrome trace-event span file. Every cell execution's
 * RunResult goes into the report too; run.py judges them against the
 * pins and the reference-model checker. See README.md for the metric
 * catalogue and why each workload exists.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "compiler/compile.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "trace/trace_source.hh"
#include "workloads/emitters.hh"
#include "workloads/kernels.hh"

using namespace mda;

namespace
{

using Clock = std::chrono::steady_clock;

/** The seed every pin was recorded with (RunSpec's default). */
const std::uint64_t defaultSeed = RunSpec{}.seed;

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ---------------------------------------------------------------- spans

/**
 * Spans recorded from the benchmark's side of each layer boundary, kept
 * in memory until the run ends. Every span is opened on the main
 * thread: a sweep's workers run inside CellRunner, which records
 * nothing, so the sweep is one span and one buffer serves. A span's
 * parent is the innermost span still open.
 */
class SpanLog
{
  public:
    SpanLog() : _epoch(Clock::now()) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Open a span under the innermost open one; returns its id. */
    long
    open(const char *name, long cell)
    {
        const long id = static_cast<long>(_spans.size());
        _spans.push_back(
            {name, cell, _open.empty() ? -1 : _open.back(), nowNs(), -1});
        _open.push_back(id);
        return id;
    }

    /** Close the innermost open span, which must be @p id. */
    void
    close(long id)
    {
        _spans[static_cast<std::size_t>(id)].endNs = nowNs();
        _open.pop_back();
    }

    /** Total and self milliseconds per span name, as a JSON object;
     *  self time is a span's duration minus its children's. */
    std::string
    summaryJson() const
    {
        std::vector<double> childNs(_spans.size(), 0.0);
        for (const auto &s : _spans) {
            if (s.parent >= 0)
                childNs[static_cast<std::size_t>(s.parent)] +=
                    static_cast<double>(s.endNs - s.startNs);
        }
        std::map<std::string, std::pair<double, double>> byName;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Record &s = _spans[i];
            double dur = static_cast<double>(s.endNs - s.startNs);
            byName[s.name].first += dur / 1e6;
            byName[s.name].second += (dur - childNs[i]) / 1e6;
        }
        std::ostringstream os;
        os << std::setprecision(6) << "{";
        bool first = true;
        for (const auto &[name, ms] : byName) {
            os << (first ? "" : ", ") << "\"" << name
               << "\": {\"total_ms\": " << ms.first
               << ", \"self_ms\": " << ms.second << "}";
            first = false;
        }
        os << "}";
        return os.str();
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds);
     *  loads in Perfetto and chrome://tracing. */
    void
    writeChromeJson(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            fatal("cannot write span file %s", path.c_str());
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Record &s = _spans[i];
            os << (i ? ",\n" : "\n") << std::fixed << std::setprecision(3)
               << "{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": "
               << s.startNs / 1e3 << ", \"dur\": "
               << (s.endNs - s.startNs) / 1e3 << ", \"args\": {\"id\": " << i
               << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Record
    {
        std::string name;
        long cell = -1;
        long parent = -1; ///< id of the enclosing span, -1 = root
        std::int64_t startNs = 0;
        std::int64_t endNs = -1; ///< -1 while open
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _epoch)
            .count();
    }

    Clock::time_point _epoch;
    std::vector<Record> _spans;
    std::vector<long> _open; ///< ids of the open spans, innermost last
};

/**
 * Times one call into a layer; with a SpanLog it also records the
 * span. Untraced runs pass no log and time through the same code.
 */
class Span
{
  public:
    Span(SpanLog *log, const char *name, long cell = -1)
        : _log(log), _start(Clock::now()),
          _id(log ? log->open(name, cell) : -1)
    {}

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span() { close(); }

    /** End the span (once) and return its duration in seconds. */
    double
    close()
    {
        if (_closed)
            return _seconds;
        _closed = true;
        _seconds = std::chrono::duration<double>(Clock::now() - _start)
                       .count();
        if (_log)
            _log->close(_id);
        return _seconds;
    }

  private:
    SpanLog *_log;
    Clock::time_point _start;
    long _id;
    bool _closed = false;
    double _seconds = 0.0;
};

// ------------------------------------------------------------ workloads

/** One (workload, design, input) point; a workload is a list of them. */
struct Cell
{
    std::string kernel;
    DesignPoint design;
    std::int64_t n;
    std::uint64_t llc = 1024 * 1024;
    std::uint64_t samplePeriod = 0;
    std::uint64_t sampleWindow = 0;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    bool checkData = false;
    bool telemetry = false;
    /** Run the cells through CellRunner::warm on nproc workers rather
     *  than one at a time on the main thread. */
    bool sweep = false;
};

const std::vector<DesignPoint> mdaDesigns{
    DesignPoint::D1_1P2L, DesignPoint::D1_1P2L_SameSet,
    DesignPoint::D2_2P2L};

Workload
makeWorkloadSpec(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "conv-timed") {
        for (const char *k : {"sgemm", "ssyrk", "strmm"})
            w.cells.push_back({k, DesignPoint::D0_1P1L, 64});
    } else if (name == "mda-timed") {
        for (const char *k : {"sgemm", "ssyr2k", "ssyrk", "strmm", "sobel"})
            for (auto d : mdaDesigns)
                w.cells.push_back({k, d, 128});
    } else if (name == "paper-sampled") {
        // Both kernels and all three designs in three cells: at paper
        // scale every cell takes seconds even when sampled.
        const std::pair<const char *, DesignPoint> picks[] = {
            {"sgemm", DesignPoint::D1_1P2L},
            {"ssyrk", DesignPoint::D1_1P2L_SameSet},
            {"ssyrk", DesignPoint::D2_2P2L}};
        for (const auto &[k, d] : picks)
            w.cells.push_back({k, d, 512, 1024 * 1024, 100000, 1000});
    } else if (name == "sweep-checked") {
        // The fig12_exec_time --quick and zoo-bench grids at their
        // smallest and largest LLC (LLC-bound and cache-resident), so
        // the traced run's three jobs-1 passes fit its time budget.
        const std::vector<DesignPoint> all{
            DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
            DesignPoint::D1_1P2L_SameSet, DesignPoint::D2_2P2L};
        std::vector<std::string> kernels = workloads::workloadNames();
        for (const auto &k : workloads::zooWorkloadNames())
            kernels.push_back(k);
        for (std::uint64_t mib : {1, 4})
            for (const auto &k : kernels)
                for (auto d : all)
                    w.cells.push_back({k, d, 64, mib << 20});
        w.checkData = true;
        w.telemetry = true;
        w.sweep = true;
    } else {
        fatal("unknown workload '%s' (conv-timed, mda-timed, "
              "paper-sampled, sweep-checked)",
              name.c_str());
    }
    return w;
}

RunSpec
makeSpec(const Cell &c, std::uint64_t seed, bool check, bool telemetry)
{
    RunSpec s;
    s.workload = c.kernel;
    s.n = c.n;
    s.seed = seed;
    s.system.design = c.design;
    s.system.l3Size = c.llc;
    s.system.samplePeriod = c.samplePeriod;
    s.system.sampleWindow = c.sampleWindow;
    s.system.checkData = check;
    s.system.telemetry = telemetry;
    return s;
}

/** Kernels whose inputs do not depend on the seed: their pins hold
 *  for every seed. HTAP rows, kv keys, spmv structure and the stream
 *  group-by columns are drawn from it. */
bool
seedFree(const std::string &kernel)
{
    return kernel == "sgemm" || kernel == "ssyr2k" || kernel == "ssyrk" ||
           kernel == "strmm" || kernel == "sobel";
}

// ------------------------------------------------------------- counters

/** Counter sums over a pass's cells, read from each System after run. */
struct Counters
{
    std::map<std::string, double> scalar;
    /** (sample count, sum) per distribution. */
    std::map<std::string, std::pair<double, double>> dist;
    double packets = 0.0;
    double slabKb = 0.0; ///< largest pool of any cell
    double cycles = 0.0;

    double
    get(const std::string &name) const
    {
        auto it = scalar.find(name);
        return it == scalar.end() ? 0.0 : it->second;
    }

    /** Mean of the samples of every named distribution together. */
    double
    mean(const std::vector<std::string> &names) const
    {
        double count = 0.0, sum = 0.0;
        for (const auto &n : names) {
            auto it = dist.find(n);
            if (it != dist.end()) {
                count += it->second.first;
                sum += it->second.second;
            }
        }
        return count > 0 ? sum / count : 0.0;
    }

    void
    add(System &sys, const RunResult &r)
    {
        static const std::vector<std::string> levelStats{
            "demandAccesses", "demandHits", "demandMisses",
            "mshrCoalesced", "deferrals", "prefetchesIssued",
            "prefetchesUseful", "extraTagAccesses", "misOrientedHits",
            "dupEvictions", "dupWritebacks", "partialHits",
            "writeValidates"};
        static const std::vector<std::string> other{
            "cpu.ops", "cpu.stallRetry", "cpu.stallWindowFull",
            "mem.readReqs", "mem.writeReqs", "mem.rowAccesses",
            "mem.colAccesses", "mem.rowBufHits", "mem.colBufHits",
            "mem.busBusyCycles"};
        const stats::StatGroup &sg = sys.statGroup();
        auto addScalar = [&](const std::string &name) {
            if (sg.hasScalar(name))
                scalar[name] += sg.scalar(name);
        };
        for (const auto &name : other)
            addScalar(name);
        for (const char *level : {"l1", "l2", "l3"})
            for (const auto &stat : levelStats)
                addScalar(std::string(level) + "." + stat);
        auto addDist = [&](const std::string &name) {
            const auto &d = sg.distribution(name);
            dist[name].first += static_cast<double>(d.count());
            dist[name].second += d.sum();
        };
        addDist("cpu.loadLatency");
        if (sys.statGroup().hasScalar("telemetry.l1.requests")) {
            for (const char *level : {"l1", "l2", "l3", "mem"})
                for (const char *orient : {"row", "col"})
                    for (const char *stage :
                         {"queue", "lookup", "mshr", "deliver"})
                        addDist(std::string("telemetry.") + level + "." +
                                orient + "." + stage);
        }
        packets += static_cast<double>(sys.packetPool().allocated() +
                                       sys.packetPool().recycled());
        slabKb = std::max(
            slabKb, static_cast<double>(sys.packetPool().slabBytes()) /
                        1024.0);
        cycles += static_cast<double>(r.cycles);
    }
};

// --------------------------------------------------------------- passes

/** How one jobs-1 pass over the cells is run. */
struct PassOptions
{
    const char *name = "round";
    bool checkData = false;
    bool telemetry = false;
    /** Also time makeWorkload, compileKernel and a stand-alone drain
     *  of the cell's TraceSource, and collect counters. */
    bool attribute = false;
    /** Archive every cell's stats here (empty = keep in memory). */
    std::string archivePath;
    /** Corrupt main memory under the first cell (checker self-test). */
    bool injectMismatch = false;
};

/** What one pass measured; times in seconds. */
struct PassTotals
{
    double wall = 0, setup = 0, run = 0, dump = 0;
    double build = 0, compile = 0, drain = 0;
    double cpu = 0; ///< process CPU during the pass
    double cellCpu = 0; ///< main-thread CPU in set-up + run + dump
    std::uint64_t ops = 0;
    double drainedOps = 0;
    std::vector<std::pair<RunSpec, RunResult>> results;
    Counters counters;
};

/** Write a key-sorted stats archive in CellRunner's format. */
void
writeArchive(const std::string &path,
             const std::map<std::string, std::string> &cells)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        fatal("cannot write stats archive %s", path.c_str());
    os << "{";
    bool first = true;
    for (const auto &[key, json] : cells) {
        os << (first ? "\n" : ",\n") << "\"" << key << "\": " << json;
        first = false;
    }
    os << "}\n";
}

/** A cell's operation stream built on its own, the way PreparedRun
 *  builds it, timing the workloads and compiler layers on the way. */
struct Stream
{
    std::unique_ptr<compiler::CompiledKernel> kernel; ///< outlives source
    std::unique_ptr<trace::TraceSource> source;
    double buildS = 0.0, compileS = 0.0;
};

Stream
standaloneStream(const RunSpec &spec, SpanLog *log, long cell)
{
    Stream s;
    auto params = PreparedRun::workloadParams(spec);
    auto opts = spec.system.compileOptions();
    if (workloads::isEmitterWorkload(spec.workload)) {
        s.source = workloads::makeEmitterSource(spec.workload, params, opts);
        return s;
    }
    Span b(log, "makeWorkload", cell);
    auto kernel = workloads::makeWorkload(spec.workload, params);
    s.buildS = b.close();
    Span c(log, "compileKernel", cell);
    s.kernel = std::make_unique<compiler::CompiledKernel>(
        compiler::compileKernel(kernel, opts));
    s.compileS = c.close();
    s.source = std::make_unique<trace::GeneratorSource>(*s.kernel);
    return s;
}

/** Overwrite words of main memory that the cell reads before any
 *  write, so the reference-model checker must report a mismatch. */
void
corruptFirstRead(const RunSpec &spec, System &sys)
{
    Stream stream = standaloneStream(spec, nullptr, -1);
    compiler::TraceOp op;
    while (stream.source->next(op)) {
        if (op.isWrite)
            continue;
        OrientedLine line = OrientedLine::containing(op.addr, op.orient);
        for (unsigned k = 0; k < lineWords; ++k)
            sys.memory().store().writeWord(line.wordAddr(k),
                                           0x5eed5eed5eed5eedULL);
        return;
    }
}

/** Run every cell once on the calling thread, as a user's jobs-1 run
 *  does: build the PreparedRun, run it, write its stats. */
PassTotals
runCells(const std::vector<Cell> &cells, std::uint64_t seed,
         const PassOptions &opt, SpanLog *log)
{
    PassTotals t;
    std::map<std::string, std::string> archive;
    double cpu0 = processCpuSeconds();
    Span pass(log, opt.name);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const long id = static_cast<long>(i);
        const bool corrupt = opt.injectMismatch && i == 0;
        RunSpec spec = makeSpec(cells[i], seed, opt.checkData || corrupt,
                                opt.telemetry || opt.attribute);
        Span cellSpan(log, "cell", id);
        if (opt.attribute) {
            Stream stream = standaloneStream(spec, log, id);
            t.build += stream.buildS;
            t.compile += stream.compileS;
            Span d(log, "TraceSource drain", id);
            compiler::TraceOp op;
            std::uint64_t n = 0;
            while (stream.source->next(op))
                ++n;
            t.drain += d.close();
            t.drainedOps += static_cast<double>(n);
        }

        double cpuCell = threadCpuSeconds();
        Span s(log, "PreparedRun", id);
        PreparedRun run(spec);
        t.setup += s.close();
        if (corrupt)
            corruptFirstRead(spec, run.system);

        Span r(log, "System::run", id);
        RunResult result = run.system.run();
        t.run += r.close();

        Span j(log, "StatGroup::dumpJson", id);
        std::ostringstream cell;
        cell << "{\"result\": {\"cycles\": " << result.cycles
             << ", \"ops\": " << result.ops
             << ", \"l1HitRate\": " << result.l1HitRate
             << ", \"llcAccesses\": " << result.llcAccesses
             << ", \"memBytes\": " << result.memBytes
             << ", \"checkFailures\": " << result.checkFailures
             << "}, \"stats\": ";
        run.system.statGroup().dumpJson(cell);
        cell << "}";
        archive[bench::CellRunner::cellKey(spec)] = cell.str();
        t.dump += j.close();
        t.cellCpu += threadCpuSeconds() - cpuCell;

        t.ops += result.ops;
        if (opt.attribute)
            t.counters.add(run.system, result);
        t.results.emplace_back(spec, result);
    }
    Span w(log, "write archive");
    writeArchive(opt.archivePath, archive);
    t.dump += w.close();
    t.wall = pass.close();
    t.cpu = processCpuSeconds() - cpu0;
    return t;
}

/** Run every cell through the figure benches' CellRunner::warm on a
 *  sweep::Executor pool, archiving each cell's stats as JSON. */
PassTotals
runSweep(const Workload &w, std::uint64_t seed, unsigned jobs,
         const std::string &archivePath, SpanLog *log)
{
    PassTotals t;
    std::vector<RunSpec> specs;
    for (const auto &c : w.cells)
        specs.push_back(makeSpec(c, seed, w.checkData, w.telemetry));
    double cpu0 = processCpuSeconds();
    Span sweep(log, "CellRunner::warm sweep");
    {
        bench::CellRunner runner(archivePath, jobs);
        runner.warm(specs);
        for (const auto &spec : specs) {
            RunResult r = runner(spec);
            t.ops += r.ops;
            t.results.emplace_back(spec, r);
        }
    } // the archive is written here
    t.wall = sweep.close();
    t.cpu = processCpuSeconds() - cpu0;
    return t;
}

/** A sweep builds its cells' PreparedRuns on the workers, out of the
 *  benchmark's sight, so passes on the main thread stand in for its
 *  set-up. A pass costs about 20 ms against a round of about 8 s, so
 *  several per round give the median more samples almost for free. */
constexpr int setupProxyPassesPerRound = 3;

/** Build every cell's PreparedRun once, back to back on this thread. */
double
setupProxyPass(const Workload &w, std::uint64_t seed)
{
    double total = 0.0;
    for (const auto &c : w.cells) {
        RunSpec spec = makeSpec(c, seed, w.checkData, w.telemetry);
        Span s(nullptr, "PreparedRun");
        PreparedRun run(spec);
        total += s.close();
    }
    return total;
}

// --------------------------------------------------------------- report

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\';
        os << ch;
    }
    os << '"';
}

struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::string> executions; ///< JSON objects
    std::map<std::string, std::string> info; ///< JSON values

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void
    addResults(const PassTotals &t, int round)
    {
        for (const auto &[spec, r] : t.results) {
            RunSpec pinSpec = spec;
            pinSpec.seed = defaultSeed;
            std::ostringstream os;
            os << std::setprecision(17) << "{\"key\": ";
            printJsonString(os, bench::CellRunner::cellKey(spec));
            os << ", \"pin_key\": ";
            printJsonString(os, bench::CellRunner::cellKey(pinSpec));
            os << ", \"seed_free\": "
               << (seedFree(spec.workload) ? "true" : "false")
               << ", \"round\": " << round << ", \"cycles\": " << r.cycles
               << ", \"ops\": " << r.ops << ", \"l1HitRate\": "
               << r.l1HitRate << ", \"llcAccesses\": " << r.llcAccesses
               << ", \"memBytes\": " << r.memBytes
               << ", \"checkFailures\": " << r.checkFailures << "}";
            executions.push_back(os.str());
        }
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            fatal("cannot write report %s", path.c_str());
        os << std::setprecision(17) << "{";
        for (const auto &[k, v] : info)
            os << "\n\"" << k << "\": " << v << ",";
        os << "\n\"metrics\": [";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            os << (i ? ",\n" : "\n") << "{\"name\": \"" << metrics[i].name
               << "\", \"value\": " << metrics[i].value
               << ", \"unit\": \"" << metrics[i].unit << "\"}";
        }
        os << "],\n\"executions\": [";
        for (std::size_t i = 0; i < executions.size(); ++i)
            os << (i ? ",\n" : "\n") << executions[i];
        os << "]}\n";
    }
};

double
geomeanCycles(const PassTotals &t)
{
    double logSum = 0.0;
    for (const auto &entry : t.results)
        logSum += std::log(static_cast<double>(entry.second.cycles));
    return t.results.empty()
               ? 0.0
               : std::exp(logSum / static_cast<double>(t.results.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One round of the workload as its users run it, untraced unless a
 *  log is given. */
PassTotals
runRound(const Workload &w, std::uint64_t seed, unsigned jobs,
         const std::string &archivePath, bool injectMismatch, SpanLog *log)
{
    if (w.sweep)
        return runSweep(w, seed, jobs, archivePath, log);
    PassOptions opt;
    opt.checkData = w.checkData;
    opt.telemetry = w.telemetry;
    opt.archivePath = archivePath;
    opt.injectMismatch = injectMismatch;
    return runCells(w.cells, seed, opt, log);
}

/** End-to-end metrics: whole rounds until the next one would overrun
 *  the run length (at least one round). setup_s is each round's own
 *  PreparedRun time, or for a sweep the proxy passes after each round;
 *  host times are medians. */
void
measureEndToEnd(const Workload &w, std::uint64_t seed, double seconds,
                unsigned jobs, const std::string &outDir,
                bool injectMismatch, Report &rep)
{
    auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    std::vector<double> setup, wall, mops;
    const std::string archive = outDir + "/" + w.name + "-stats.json";
    PassTotals first;
    int rounds = 0;
    do {
        PassTotals t =
            runRound(w, seed, jobs, archive, injectMismatch, nullptr);
        wall.push_back(t.wall);
        mops.push_back(static_cast<double>(t.ops) /
                       (w.sweep ? t.wall : t.run) / 1e6);
        const std::size_t setupBefore = setup.size();
        if (w.sweep) {
            for (int p = 0; p < setupProxyPassesPerRound; ++p)
                setup.push_back(setupProxyPass(w, seed));
        } else {
            setup.push_back(t.setup);
        }
        rep.addResults(t, rounds);
        if (rounds == 0)
            first = std::move(t);
        ++rounds;
        std::cout << "round " << rounds << ": " << std::fixed
                  << std::setprecision(3) << wall.back() << " s, "
                  << mops.back() << " M ops/s, set-up";
        for (std::size_t k = setupBefore; k < setup.size(); ++k)
            std::cout << " " << setup[k];
        std::cout << " s" << std::endl;
    } while (elapsed() + elapsed() / rounds <= seconds);

    rep.add("wall_s", median(wall), "s");
    rep.add("sim_mops_per_s", median(mops), "Mops/s");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("sim_cycles", geomeanCycles(first), "cycles");
    rep.info["rounds"] = std::to_string(rounds);
    rep.info["total_ops"] = std::to_string(first.ops);
}

/** Per-layer metrics from a traced run; see README.md for each. */
void
measureLayers(const Workload &w, std::uint64_t seed, unsigned jobs,
              const std::string &outDir, bool injectMismatch,
              Report &rep)
{
    SpanLog log;
    const std::string archive = outDir + "/" + w.name + "-stats.json";

    // Untraced and traced rounds of the workload as configured; their
    // wall-time difference is the tracing overhead.
    PassTotals plain =
        runRound(w, seed, jobs, archive, injectMismatch, nullptr);
    rep.addResults(plain, 0);
    PassTotals traced =
        runRound(w, seed, jobs, archive, injectMismatch, &log);
    rep.addResults(traced, 1);

    // Attribution pass: every cell alone on this thread with the
    // stand-alone layer calls and the counters, telemetry on for the
    // stage means (simulated, so recording cannot change them).
    PassOptions a;
    a.name = "attribution";
    a.checkData = w.checkData;
    a.attribute = true;
    a.injectMismatch = injectMismatch;
    PassTotals attr = runCells(w.cells, seed, a, &log);
    rep.addResults(attr, 2);

    // Host time per op as configured at jobs 1: the traced round for
    // one-cell-at-a-time workloads, the attribution pass (which runs
    // the sweep's own configuration) for the sweep.
    const PassTotals &j1 = w.sweep ? attr : traced;
    double checkNs = 0.0, telemNs = 0.0;
    if (w.sweep) {
        PassOptions off = a;
        off.attribute = false;
        off.injectMismatch = false;
        off.name = "check off";
        off.checkData = false;
        off.telemetry = true;
        PassTotals noCheck = runCells(w.cells, seed, off, &log);
        off.name = "telemetry off";
        off.checkData = w.checkData;
        off.telemetry = false;
        PassTotals noTelem = runCells(w.cells, seed, off, &log);
        rep.addResults(noCheck, 3);
        rep.addResults(noTelem, 4);
        checkNs = (attr.run - noCheck.run) / attr.ops * 1e9;
        telemNs = (attr.run - noTelem.run) / attr.ops * 1e9;
    }

    const Counters &c = attr.counters;
    const double ops = c.get("cpu.ops");
    auto per = [&](double v, double scale = 1.0) {
        return ops > 0 ? v * scale / ops : 0.0;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    rep.add("workloads.build_ms", attr.build * 1e3, "ms");
    rep.add("compiler.compile_ms", attr.compile * 1e3, "ms");
    rep.add("harness.system_build_ms",
            std::max(0.0, attr.setup - attr.build - attr.compile) * 1e3,
            "ms");
    rep.add("trace.source_ns_per_op",
            ratio(attr.drain, attr.drainedOps) * 1e9, "ns/op");
    rep.add("trace.source_share", ratio(attr.drain, attr.run), "ratio");
    rep.add("harness.run_ns_per_op",
            ratio(j1.run, static_cast<double>(j1.ops)) * 1e9, "ns/op");
    rep.add("harness.cpu_stall_retry_per_op", per(c.get("cpu.stallRetry")),
            "1/op");
    rep.add("harness.cpu_stall_window_per_op",
            per(c.get("cpu.stallWindowFull")), "1/op");
    rep.add("harness.cpu_load_latency_cyc", c.mean({"cpu.loadLatency"}),
            "cycles");
    rep.add("harness.check_ns_per_op", checkNs, "ns/op");
    rep.add("harness.telemetry_ns_per_op", telemNs, "ns/op");
    rep.add("harness.sweep_utilization",
            ratio(traced.cpu, jobs * traced.wall), "ratio");
    rep.add("harness.sweep_cpu_inflation",
            w.sweep ? ratio(traced.cpu, attr.cellCpu) : 1.0, "ratio");
    rep.add("sim.packets_per_op", per(c.packets), "1/op");
    rep.add("sim.pool_slab_kb", c.slabKb, "KiB");
    rep.add("sim.stats_dump_ms", j1.dump * 1e3, "ms");

    for (const char *lvl : {"l1", "l2", "l3"}) {
        std::string L(lvl);
        auto s = [&](const char *stat) { return c.get(L + "." + stat); };
        rep.add("cache." + L + ".hit_rate",
                ratio(s("demandHits"), s("demandAccesses")), "ratio");
        rep.add("cache." + L + ".accesses_per_op",
                per(s("demandAccesses")), "1/op");
        rep.add("cache." + L + ".mshr_coalesce_share",
                ratio(s("mshrCoalesced"), s("demandMisses")), "ratio");
        rep.add("cache." + L + ".deferrals_per_kop",
                per(s("deferrals"), 1e3), "1/kop");
        if (L != "l3") {
            rep.add("cache." + L + ".prefetch_per_op",
                    per(s("prefetchesIssued")), "1/op");
            rep.add("cache." + L + ".prefetch_accuracy",
                    ratio(s("prefetchesUseful"), s("prefetchesIssued")),
                    "ratio");
        }
        for (const char *stage : {"queue", "lookup", "mshr", "deliver"}) {
            rep.add("cache." + L + "." + stage + "_cyc",
                    c.mean({"telemetry." + L + ".row." + stage,
                            "telemetry." + L + ".col." + stage}),
                    "cycles");
        }
        rep.add("core." + L + ".extra_tag_per_op",
                per(s("extraTagAccesses")), "1/op");
        rep.add("core." + L + ".mis_oriented_per_kop",
                per(s("misOrientedHits"), 1e3), "1/kop");
        rep.add("core." + L + ".dup_actions_per_kop",
                per(s("dupEvictions") + s("dupWritebacks"), 1e3), "1/kop");
    }
    rep.add("core.l3.write_validates_per_kop",
            per(c.get("l3.writeValidates"), 1e3), "1/kop");
    rep.add("core.l3.partial_hits_per_kop",
            per(c.get("l3.partialHits"), 1e3), "1/kop");

    const double memReqs = c.get("mem.readReqs") + c.get("mem.writeReqs");
    const double memAcc =
        c.get("mem.rowAccesses") + c.get("mem.colAccesses");
    rep.add("mem.reqs_per_op", per(memReqs), "1/op");
    rep.add("mem.write_share", ratio(c.get("mem.writeReqs"), memReqs),
            "ratio");
    rep.add("mem.col_share", ratio(c.get("mem.colAccesses"), memAcc),
            "ratio");
    rep.add("mem.buf_hit_rate",
            ratio(c.get("mem.rowBufHits") + c.get("mem.colBufHits"), memAcc),
            "ratio");
    // busBusyCycles sums over the channels.
    rep.add("mem.bus_busy_share",
            ratio(c.get("mem.busBusyCycles"),
                  c.cycles * SystemConfig{}.memTopo.channels),
            "ratio");
    rep.add("mem.queue_cyc",
            c.mean({"telemetry.mem.row.queue", "telemetry.mem.col.queue"}),
            "cycles");
    rep.add("mem.deliver_cyc",
            c.mean({"telemetry.mem.row.deliver",
                    "telemetry.mem.col.deliver"}),
            "cycles");

    rep.add("tracing.untraced_wall_s", plain.wall, "s");
    rep.add("tracing.traced_wall_s", traced.wall, "s");
    rep.add("tracing.overhead_share",
            ratio(traced.wall - plain.wall, plain.wall),
            "ratio");

    const std::string spanPath = outDir + "/" + w.name + "-spans.json";
    log.writeChromeJson(spanPath);
    rep.info["span_file"] = "\"" + spanPath + "\"";
    rep.info["total_ops"] = std::to_string(plain.ops);

    rep.info["span_summary"] = log.summaryJson();
}

/** Refuse builds whose timings would not describe the simulator as
 *  users build it: unoptimized, assertion-enabled or sanitized. */
bool
optimizedBuild()
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) ||                      \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#else
    return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") ==
           std::string::npos;
#endif
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <dir>\n"
                 "                        [--only-cells <n>] "
                 "[--inject-mismatch]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, outDir;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    int trace = 0;
    long onlyCells = 0;
    bool injectMismatch = false;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto next = [&]() -> std::string {
            if (a + 1 >= argc)
                usage();
            return argv[++a];
        };
        if (arg == "--workload")
            workload = next();
        else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--seconds")
            seconds = std::stod(next());
        else if (arg == "--trace")
            trace = std::stoi(next());
        else if (arg == "--out")
            outDir = next();
        else if (arg == "--only-cells")
            onlyCells = std::stol(next());
        else if (arg == "--inject-mismatch")
            injectMismatch = true;
        else
            usage();
    }
    if (workload.empty() || outDir.empty() || (trace != 0 && trace != 1))
        usage();
    if (!optimizedBuild()) {
        std::cerr << "perfbench: refusing a " << PERFBENCH_BUILD_TYPE
                  << " build (" << PERFBENCH_CXX_FLAGS
                  << "): timings need an optimized build without "
                     "assertions or sanitizers\n";
        return 2;
    }

    Workload w = makeWorkloadSpec(workload);
    if (onlyCells > 0 &&
        static_cast<std::size_t>(onlyCells) < w.cells.size())
        w.cells.resize(static_cast<std::size_t>(onlyCells));
    const unsigned jobs = w.sweep ? sweep::resolveJobs(0) : 1;
    if (injectMismatch && w.sweep)
        fatal("--inject-mismatch needs a one-cell-at-a-time workload");

    Report rep;
    rep.info["workload"] = "\"" + w.name + "\"";
    rep.info["seed"] = std::to_string(seed);
    rep.info["cells"] = std::to_string(w.cells.size());
    rep.info["jobs"] = std::to_string(jobs);
    std::ostringstream build;
    build << "{\"type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"flags\": \""
          << PERFBENCH_CXX_FLAGS << "\", \"compiler\": \""
          << PERFBENCH_COMPILER << "\"}";
    rep.info["build"] = build.str();

    if (trace)
        measureLayers(w, seed, jobs, outDir, injectMismatch, rep);
    else
        measureEndToEnd(w, seed, seconds, jobs, outDir, injectMismatch,
                        rep);
    rep.write(outDir + "/" + w.name + "-report.json");
    return 0;
}
