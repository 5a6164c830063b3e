/**
 * @file
 * mdacache_sim: the full-featured command-line front end.
 *
 * Runs any paper workload (or all of them) on any design point with
 * configurable cache/memory parameters, optionally dumping every
 * statistic — the tool a user reaches for to explore the design space
 * beyond the canned figure benches.
 *
 * Examples:
 *   mdacache_sim --workload sgemm --design 1P2L --n 128
 *   mdacache_sim --workload htap1 --design 2P2L --llc 2M --stats
 *   mdacache_sim --all --design 1P2L_SameSet --paper
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/debug.hh"
#include "sim/trace_event.hh"

using namespace mda;

namespace
{

void
usage()
{
    std::cout <<
        "mdacache_sim — MDA cache-hierarchy simulator\n"
        "\n"
        "  --workload <name>   sgemm ssyr2k ssyrk strmm sobel htap1 "
        "htap2\n"
        "                      (zoo: kv spmv stream)\n"
        "  --all               run every paper workload\n"
        "  --jobs <N>          sweep worker threads (0 = all cores;\n"
        "                      default 0; tracing forces 1)\n"
        "  --design <name>     1P1L | 1P2L | 1P2L_SameSet | 2P2L |\n"
        "                      2P2L_Dense\n"
        "  --n <dim>           input dimension (default 128)\n"
        "  --paper             n=512 with unscaled Table I caches\n"
        "  --llc <bytes>       LLC capacity (suffix K/M; default 1M)\n"
        "  --two-level         L2 is the LLC (no L3)\n"
        "  --fast-mem          1.6x faster main memory (Fig. 17)\n"
        "  --write-penalty <c> extra 2P2L write cycles (Fig. 16)\n"
        "  --no-scale          do not scale caches with n\n"
        "  --check             verify all data against a reference\n"
        "  --stats             dump every statistic after the run\n"
        "  --trace-capture <dir>  record each workload's operation\n"
        "                      stream as a binary .mdat trace file\n"
        "  --trace-replay <dir>   drive workloads from recorded .mdat\n"
        "                      files (skips compile + generation)\n"
        "\n"
        "observability:\n"
        "  --stats-json <path> write every statistic (scalars,\n"
        "                      distributions, time series) as JSON,\n"
        "                      keyed by workload\n"
        "  --telemetry         decompose request latency per level x\n"
        "                      orientation x stage (telemetry.* stats)\n"
        "  --stats-interval <t> snapshot scalar deltas + occupancy\n"
        "                      gauges every t ticks\n"
        "  --stats-jsonl <path> write the interval snapshots as JSONL\n"
        "                      (requires --stats-interval)\n"
        "  --sample-period <ops>  SMARTS sampled simulation: fully\n"
        "                      simulate --sample-window of every\n"
        "                      --sample-period ops, fast-forward the\n"
        "                      rest (estimates + 95% CIs in meta)\n"
        "  --sample-window <ops>  timed ops per measured window\n"
        "  --trace-out <path>  record a Chrome trace-event JSON file\n"
        "                      (load in ui.perfetto.dev)\n"
        "  --trace-max-events <n>  trace buffer bound (default 1M)\n"
        "  --debug-flags <f,g> enable debug tracing (also via the\n"
        "                      MDA_DEBUG_FLAGS environment variable)\n"
        "  --list-debug-flags  print known debug flags and exit\n";
}

/** The value of @p flag: decimal bytes with an optional K or M (KiB,
 *  MiB) suffix; fatal otherwise. */
std::uint64_t
parseBytes(const char *flag, const std::string &value)
{
    std::string digits = value;
    std::uint64_t mult = 1;
    if (!digits.empty() && (digits.back() == 'K' || digits.back() == 'M')) {
        mult = digits.back() == 'K' ? 1024 : 1024 * 1024;
        digits.pop_back();
    }
    std::uint64_t n = sweep::parseDecimal<std::uint64_t>(
        flag, digits, "digits with an optional K or M suffix");
    if (n > ~std::uint64_t{0} / mult)
        fatal("%s %s overflows a 64-bit byte count", flag, value.c_str());
    return n * mult;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    bool all = false;
    bool dump_stats = false;
    unsigned jobs = 0;
    bool jobs_given = false;
    std::string stats_json_path;
    std::string stats_jsonl_path;
    std::string trace_out_path;
    std::size_t trace_max_events = trace::EventLog::defaultCapacity;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto next = [&]() -> std::string {
            if (a + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++a];
        };
        auto number = [&] {
            return sweep::parseDecimal<std::uint64_t>(arg.c_str(), next());
        };
        if (arg == "--workload") {
            spec.workload = next();
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--jobs") {
            jobs = sweep::parseJobs("--jobs", next());
            jobs_given = true;
        } else if (arg == "--design") {
            std::string name = next();
            if (!designFromName(name, spec.system.design))
                fatal("unknown design: %s (try --help)", name.c_str());
        } else if (arg == "--n") {
            spec.n = static_cast<std::int64_t>(number());
        } else if (arg == "--paper") {
            spec.n = 512;
            spec.autoScaleCaches = false;
        } else if (arg == "--llc") {
            spec.system.l3Size = parseBytes("--llc", next());
        } else if (arg == "--two-level") {
            spec.system.threeLevel = false;
        } else if (arg == "--fast-mem") {
            spec.system.memTiming = MemTimingParams::sttFast();
        } else if (arg == "--write-penalty") {
            spec.system.tileWritePenalty =
                static_cast<Cycles>(number());
        } else if (arg == "--no-scale") {
            spec.autoScaleCaches = false;
        } else if (arg == "--check") {
            spec.system.checkData = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--trace-capture" ||
                   arg == "--trace-replay") {
            if (spec.system.traceMode != TraceMode::Off) {
                fatal("--trace-capture and --trace-replay are "
                      "mutually exclusive");
            }
            spec.system.traceMode = arg == "--trace-capture"
                                        ? TraceMode::Capture
                                        : TraceMode::Replay;
            spec.system.traceDir = next();
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--telemetry") {
            spec.system.telemetry = true;
        } else if (arg == "--stats-interval") {
            spec.system.statsInterval = number();
        } else if (arg == "--stats-jsonl") {
            stats_jsonl_path = next();
        } else if (arg == "--sample-period") {
            spec.system.samplePeriod = number();
        } else if (arg == "--sample-window") {
            spec.system.sampleWindow = number();
        } else if (arg == "--trace-out") {
            trace_out_path = next();
        } else if (arg == "--trace-max-events") {
            trace_max_events = number();
        } else if (arg == "--debug-flags") {
            debug::setFlags(next());
        } else if (arg == "--list-debug-flags") {
            for (const auto *flag : debug::allFlags()) {
                std::cout << std::left << std::setw(12) << flag->name()
                          << flag->desc() << "\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 1;
        }
    }

    std::vector<std::string> list =
        all ? workloads::workloadNames()
            : std::vector<std::string>{spec.workload};
    std::vector<RunSpec> specs(list.size(), spec);
    for (std::size_t idx = 0; idx < list.size(); ++idx)
        specs[idx].workload = list[idx];

    // Tracing and debug flags record into process-wide sinks, so a
    // traced sweep is restricted to one worker: refuse an explicit
    // parallel request, downgrade an implicit one.
    bool tracing = !trace_out_path.empty() || obs::hot;
    if (tracing) {
        if (jobs_given && sweep::resolveJobs(jobs) > 1) {
            fatal("--trace-out/--debug-flags write to a process-wide "
                  "sink; tracing requires --jobs 1");
        }
        jobs = 1;
    }

    if (!trace_out_path.empty())
        trace::log().open(trace_out_path, trace_max_events);

    std::ofstream stats_json;
    if (!stats_json_path.empty()) {
        stats_json.open(stats_json_path);
        if (!stats_json)
            fatal("cannot write stats JSON: %s",
                  stats_json_path.c_str());
        stats_json << "{";
    }

    if (!stats_jsonl_path.empty() && spec.system.statsInterval == 0)
        fatal("--stats-jsonl requires --stats-interval");

    // Run the sweep across the pool (longest stream first), keeping
    // each prepared system until its stats are emitted; all output is
    // written afterwards in workload order, so it is identical for
    // every job count.
    std::vector<std::unique_ptr<PreparedRun>> runs(specs.size());
    std::vector<RunResult> results(specs.size());
    {
        sweep::Executor pool(jobs);
        pool.forEach(specs, [&](std::size_t idx) {
            runs[idx] = std::make_unique<PreparedRun>(specs[idx]);
            runs[idx]->system.statGroup().setMeta("scenario",
                                                  specs[idx].workload);
            results[idx] = runs[idx]->system.run();
        });
    }

    report::Table table({"workload", "design", "cycles", "L1 hit",
                         "LLC accesses", "mem bytes", "check"});
    bool first_json = true;
    for (std::size_t idx = 0; idx < list.size(); ++idx) {
        const auto &name = list[idx];
        const RunResult &result = results[idx];
        table.addRow({name, designName(spec.system.design),
                      std::to_string(result.cycles),
                      report::pct(result.l1HitRate),
                      std::to_string(result.llcAccesses),
                      std::to_string(result.memBytes),
                      spec.system.checkData
                          ? (result.checkFailures ? "FAIL" : "ok")
                          : "-"});
        if (dump_stats) {
            report::banner(name + " statistics");
            runs[idx]->system.statGroup().dump(std::cout);
        }
        if (stats_json.is_open()) {
            stats_json << (first_json ? "\n" : ",\n") << "\"" << name
                       << "\": ";
            first_json = false;
            runs[idx]->system.statGroup().dumpJson(stats_json);
        }
    }
    if (stats_json.is_open())
        stats_json << "}\n";
    if (!stats_jsonl_path.empty()) {
        // Each workload's buffered stream in workload order: the file
        // is identical at any --jobs.
        std::ofstream jsonl(stats_jsonl_path);
        if (!jsonl)
            fatal("cannot write stats JSONL: %s",
                  stats_jsonl_path.c_str());
        for (auto &run : runs)
            jsonl << run->system.intervalJson();
    }
    if (trace::on())
        trace::log().close();
    report::banner("results");
    table.print();
    return 0;
}
