/**
 * @file
 * mda_fuzz: differential fuzzing CLI.
 *
 * Default mode runs a campaign of randomized scenarios across a
 * worker pool; every failure is shrunk to a minimal repro and printed
 * with copy-pasteable reproduction commands. --repro-file replays one
 * saved scenario instead.
 *
 * Exit status: 0 when every iteration passes, 1 on any failure (and
 * for malformed options/input via fatal()).
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "campaign.hh"
#include "harness/sweep.hh"
#include "shrink.hh"
#include "sim/logging.hh"

namespace
{

using namespace mda;
using namespace mda::fuzz;

struct CliOptions
{
    FuzzOptions campaign;
    ShrinkOptions shrink;
    bool doShrink = true;
    std::string reproFile;            ///< Replay this scenario.
    std::string reproOut = "mda_fuzz.repro"; ///< Minimized repro path.
};

void
usage()
{
    std::cout
        << "usage: mda_fuzz [options]\n"
           "  --iterations <N>   scenarios to run (default 100)\n"
           "  --seed <S>         campaign base seed (default 1)\n"
           "  --start <N>        first absolute iteration index "
           "(default 0)\n"
           "  --jobs <N>         worker threads (0 = all cores; "
           "default 1)\n"
           "  --max-ops <N>      trace length cap (default 256)\n"
           "  --min-ops <N>      trace length floor (default 16)\n"
           "  --max-tiles <N>    tile arena cap (default 10)\n"
           "  --designs a,b      only these design points (names as "
           "in the figures)\n"
           "  --no-checks        skip the per-event invariant sweeps\n"
           "  --no-shrink        report the raw failing scenario\n"
           "  --shrink-runs <N>  shrink budget in oracle runs "
           "(default 400)\n"
           "  --repro-file <p>   replay a saved repro instead of "
           "fuzzing\n"
           "  --repro-out <p>    minimized repro path (default "
           "mda_fuzz.repro)\n";
}

/** The value of @p flag: a decimal in [@p lo, @p hi], else fatal. */
unsigned
boundedArg(const std::string &flag, const char *text, unsigned lo,
           unsigned hi)
{
    auto v = sweep::parseDecimal<std::uint64_t>(flag.c_str(), text);
    if (v < lo || v > hi)
        fatal("%s must be in [%u, %u], got %llu", flag.c_str(), lo, hi,
              static_cast<unsigned long long>(v));
    return static_cast<unsigned>(v);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto next = [&]() -> const char * {
            if (a + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++a];
        };
        if (arg == "--iterations") {
            opts.campaign.iterations =
                boundedArg(arg, next(), 1, 1'000'000);
        } else if (arg == "--seed") {
            opts.campaign.seed =
                sweep::parseDecimal<std::uint64_t>(arg.c_str(), next());
        } else if (arg == "--start") {
            opts.campaign.start =
                sweep::parseDecimal<std::uint64_t>(arg.c_str(), next());
        } else if (arg == "--jobs") {
            opts.campaign.jobs = boundedArg(arg, next(), 0, 1024);
        } else if (arg == "--max-ops") {
            opts.campaign.limits.maxOps = boundedArg(arg, next(), 1, 65536);
        } else if (arg == "--min-ops") {
            opts.campaign.limits.minOps = boundedArg(arg, next(), 1, 65536);
        } else if (arg == "--max-tiles") {
            opts.campaign.limits.maxTiles = boundedArg(arg, next(), 1, 64);
        } else if (arg == "--designs") {
            std::stringstream ss(next());
            std::string item;
            while (std::getline(ss, item, ',')) {
                DesignPoint d;
                if (!designFromName(item, d))
                    fatal("unknown design point '%s'", item.c_str());
                opts.campaign.designFilter.push_back(d);
            }
            if (opts.campaign.designFilter.empty())
                fatal("--designs needs at least one design name");
        } else if (arg == "--no-checks") {
            opts.campaign.oracle.checks = false;
        } else if (arg == "--no-shrink") {
            opts.doShrink = false;
        } else if (arg == "--shrink-runs") {
            opts.shrink.maxRuns = boundedArg(arg, next(), 1, 100'000);
        } else if (arg == "--repro-file") {
            opts.reproFile = next();
        } else if (arg == "--repro-out") {
            opts.reproOut = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            fatal("unknown option: %s (try --help)", arg.c_str());
        }
    }
    if (opts.campaign.limits.minOps > opts.campaign.limits.maxOps)
        fatal("--min-ops (%u) exceeds --max-ops (%u)",
              opts.campaign.limits.minOps,
              opts.campaign.limits.maxOps);
    opts.shrink.oracle = opts.campaign.oracle;
    return opts;
}

void
printFailures(const std::vector<Failure> &failures)
{
    for (const Failure &f : failures)
        std::printf("fuzz:   %s\n", failureText(f).c_str());
}

/** Shrink, persist, and explain how to replay a failing scenario. */
void
reportFailure(const CliOptions &opts, const Scenario &scenario,
              const std::vector<Failure> &failures,
              const std::string &seedCommand)
{
    printFailures(failures);
    Scenario minimal = scenario;
    if (opts.doShrink) {
        ShrinkResult shrunk = shrinkScenario(scenario, opts.shrink);
        minimal = std::move(shrunk.scenario);
        std::printf("fuzz: shrunk %zu -> %zu ops, %zu -> %zu designs, "
                    "%zu -> %zu levels (%u oracle runs)\n",
                    scenario.trace.size(), minimal.trace.size(),
                    scenario.config.designs.size(),
                    minimal.config.designs.size(),
                    scenario.config.levels.size(),
                    minimal.config.levels.size(), shrunk.runs);
        printFailures(shrunk.failures);
    }
    writeReproFile(opts.reproOut, minimal);
    std::printf("fuzz: repro written to %s\n", opts.reproOut.c_str());
    std::printf("fuzz: reproduce with:\n");
    std::printf("fuzz:   mda_fuzz --repro-file %s\n",
                opts.reproOut.c_str());
    if (!seedCommand.empty())
        std::printf("fuzz:   %s\n", seedCommand.c_str());
}

int
replayRepro(const CliOptions &opts)
{
    Scenario s = readReproFile(opts.reproFile);
    std::vector<Failure> failures =
        runOracle(s, opts.campaign.oracle);
    if (failures.empty()) {
        std::printf("fuzz: repro %s passes clean (%zu ops, %zu "
                    "designs)\n",
                    opts.reproFile.c_str(), s.trace.size(),
                    s.config.designs.size());
        return 0;
    }
    std::printf("fuzz: repro %s FAILED\n", opts.reproFile.c_str());
    reportFailure(opts, s, failures, "");
    return 1;
}

int
runFuzz(const CliOptions &opts)
{
    const FuzzOptions &c = opts.campaign;
    CampaignResult result = runCampaign(c);
    if (!result.failed) {
        std::printf("fuzz: %u iteration(s) clean (seed %llu, start "
                    "%llu, checks %s)\n",
                    c.iterations,
                    static_cast<unsigned long long>(c.seed),
                    static_cast<unsigned long long>(c.start),
                    c.oracle.checks ? "on" : "off");
        return 0;
    }
    std::printf("fuzz: iteration %llu FAILED (scenario seed %llu, "
                "%zu ops, %zu designs)\n",
                static_cast<unsigned long long>(result.failIndex),
                static_cast<unsigned long long>(result.failSeed),
                result.failScenario.trace.size(),
                result.failScenario.config.designs.size());
    // The exact generator inputs regenerate the unshrunk scenario.
    std::ostringstream cmd;
    cmd << "mda_fuzz --seed " << c.seed << " --start "
        << result.failIndex << " --iterations 1 --max-ops "
        << c.limits.maxOps << " --min-ops " << c.limits.minOps
        << " --max-tiles " << c.limits.maxTiles
        << (c.oracle.checks ? "" : " --no-checks");
    reportFailure(opts, result.failScenario, result.failures,
                  cmd.str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts = parseArgs(argc, argv);
    // Failures come back as data and are printed below; the checker's
    // per-mismatch warnings would repeat them on stderr for every
    // failing iteration and every shrink candidate.
    setQuietLogging(true);
    if (!opts.reproFile.empty())
        return replayRepro(opts);
    return runFuzz(opts);
}
