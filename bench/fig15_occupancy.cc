/**
 * @file
 * Reproduces paper Fig. 15: column-line cache occupancy over time for
 * sgemm and ssyrk under the 1P2L hierarchy (32K L1 / 256K L2 / 1M L3
 * class).
 *
 * Paper: sgemm holds a small, stable column population (only the
 * current B column's lines are live at a time); ssyrk's column
 * occupancy rises during the A'A update and falls in the trailing
 * symmetrize phase.
 */

#include "bench_common.hh"

using namespace mda;
using namespace mda::bench;

namespace
{

void
printSeries(PreparedRun &sampled, const std::string &workload)
{
    report::banner("Fig. 15 — " + workload +
                   " column occupancy over time (1P2L)");
    report::Table table({"cycle(M)", "L1 col%", "L2 col%", "L3 col%"});
    std::vector<const stats::TimeSeries *> series;
    for (std::size_t lvl = 0; lvl < 3; ++lvl) {
        series.push_back(&sampled.system.statGroup().timeSeries(
            levelName(lvl) + ".colOccupancy"));
    }
    std::size_t points = series[0]->points().size();
    std::size_t stride = std::max<std::size_t>(points / 24, 1);
    for (std::size_t p = 0; p < points; p += stride) {
        std::vector<std::string> row{report::fmt(
            static_cast<double>(series[0]->points()[p].first) / 1e6,
            2)};
        for (auto *s : series)
            row.push_back(report::pct(s->points()[p].second));
        table.addRow(std::move(row));
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = BenchOptions::parse(argc, argv);
    std::cout << "MDACache Fig. 15 reproduction (" << opts.describe()
              << ")\n";

    // This figure needs each cell's full time series, so keep the
    // simulated systems alive: run them across the pool, print after.
    const std::vector<std::string> figures{"sgemm", "ssyrk"};
    std::vector<std::unique_ptr<PreparedRun>> runs(figures.size());
    sweep::Executor pool(opts.jobs);
    pool.forEach(figures.size(), [&](std::size_t idx) {
        // Sample every 20k cycles, downsample to ~24 printed points.
        RunSpec spec = opts.spec(figures[idx], DesignPoint::D1_1P2L);
        spec.system.occupancySamplePeriod = 20000;
        runs[idx] = std::make_unique<PreparedRun>(spec);
        runs[idx]->system.run();
    });
    for (std::size_t f = 0; f < figures.size(); ++f)
        printSeries(*runs[f], figures[f]);
    std::cout << "\nPaper: sgemm's column share is small and steady; "
                 "ssyrk's rises then falls across its phases.\n";
    return 0;
}
