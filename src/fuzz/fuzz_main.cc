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
           "  --checks / --no-checks\n"
           "                     per-event invariant sweeps (default "
           "on; env MDA_FUZZ_CHECKS=0/1 overrides the default)\n"
           "  --no-shrink        report the raw failing scenario\n"
           "  --shrink-runs <N>  shrink budget in oracle runs "
           "(default 400)\n"
           "  --repro-file <p>   replay a saved repro instead of "
           "fuzzing\n"
           "  --repro-out <p>    minimized repro path (default "
           "mda_fuzz.repro)\n";
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    if (const char *env = std::getenv("MDA_FUZZ_CHECKS"))
        opts.campaign.oracle.checks = (std::string(env) != "0");
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto next = [&]() -> const char * {
            if (a + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++a];
        };
        if (arg == "--iterations") {
            long long v = std::atoll(next());
            if (v < 1 || v > 1'000'000)
                fatal("--iterations must be in [1, 1000000], got %lld",
                      v);
            opts.campaign.iterations = static_cast<unsigned>(v);
        } else if (arg == "--seed") {
            opts.campaign.seed =
                std::strtoull(next(), nullptr, 0);
        } else if (arg == "--start") {
            opts.campaign.start =
                std::strtoull(next(), nullptr, 0);
        } else if (arg == "--jobs") {
            long long v = std::atoll(next());
            if (v < 0 || v > 1024)
                fatal("--jobs must be in [0, 1024], got %lld", v);
            opts.campaign.jobs = static_cast<unsigned>(v);
        } else if (arg == "--max-ops") {
            long long v = std::atoll(next());
            if (v < 1 || v > 65536)
                fatal("--max-ops must be in [1, 65536], got %lld", v);
            opts.campaign.limits.maxOps = static_cast<unsigned>(v);
        } else if (arg == "--min-ops") {
            long long v = std::atoll(next());
            if (v < 1 || v > 65536)
                fatal("--min-ops must be in [1, 65536], got %lld", v);
            opts.campaign.limits.minOps = static_cast<unsigned>(v);
        } else if (arg == "--max-tiles") {
            long long v = std::atoll(next());
            if (v < 1 || v > 64)
                fatal("--max-tiles must be in [1, 64], got %lld", v);
            opts.campaign.limits.maxTiles = static_cast<unsigned>(v);
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
        } else if (arg == "--checks") {
            opts.campaign.oracle.checks = true;
        } else if (arg == "--no-checks") {
            opts.campaign.oracle.checks = false;
        } else if (arg == "--no-shrink") {
            opts.doShrink = false;
        } else if (arg == "--shrink-runs") {
            long long v = std::atoll(next());
            if (v < 1 || v > 100'000)
                fatal("--shrink-runs must be in [1, 100000], got %lld",
                      v);
            opts.shrink.maxRuns = static_cast<unsigned>(v);
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
    if (!opts.reproFile.empty())
        return replayRepro(opts);
    return runFuzz(opts);
}
