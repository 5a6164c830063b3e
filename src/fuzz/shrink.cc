#include "shrink.hh"

#include <algorithm>

namespace mda::fuzz
{

namespace
{

/** Candidate evaluator: commits the candidate when it still fails. */
class Shrinker
{
  public:
    Shrinker(const Scenario &start, const ShrinkOptions &opts)
        : _opts(opts)
    {
        _best.scenario = start;
    }

    ShrinkResult
    run()
    {
        _best.failures = evaluate(_best.scenario);
        if (_best.failures.empty())
            return std::move(_best); // nothing to shrink
        bool progress = true;
        while (progress && budgetLeft()) {
            progress = false;
            progress |= reduceDesigns();
            progress |= removeChunks();
            progress |= serializeReads();
            progress |= peelLevels();
        }
        // Cosmetic: clamp the arena to the tiles the trace still
        // touches (tiles only matters to generation, not the oracle).
        std::uint64_t max_tile = 0;
        for (const TraceOp &op : _best.scenario.trace)
            max_tile = std::max(max_tile, tileOf(op.addr));
        _best.scenario.config.tiles =
            static_cast<unsigned>(max_tile + 1);
        return std::move(_best);
    }

  private:
    bool budgetLeft() const { return _best.runs < _opts.maxRuns; }

    std::vector<Failure>
    evaluate(const Scenario &cand)
    {
        ++_best.runs;
        return runOracle(cand, _opts.oracle);
    }

    /** Keep @p cand iff it still fails. */
    bool
    accept(const Scenario &cand)
    {
        if (!budgetLeft())
            return false;
        std::vector<Failure> failures = evaluate(cand);
        if (failures.empty())
            return false;
        _best.scenario = cand;
        _best.failures = std::move(failures);
        return true;
    }

    bool
    reduceDesigns()
    {
        auto &designs = _best.scenario.config.designs;
        if (designs.size() <= 1)
            return false;
        // A single design reproduces most failures: every check
        // runs within one design.
        for (DesignPoint d : designs) {
            Scenario cand = _best.scenario;
            cand.config.designs = {d};
            if (accept(cand))
                return true;
        }
        // Differential failure: drop designs one at a time.
        bool progress = false;
        for (std::size_t i = 0;
             _best.scenario.config.designs.size() > 2 &&
             i < _best.scenario.config.designs.size();) {
            Scenario cand = _best.scenario;
            cand.config.designs.erase(cand.config.designs.begin() +
                                      static_cast<std::ptrdiff_t>(i));
            if (accept(cand))
                progress = true; // same index now names the next one
            else
                ++i;
        }
        return progress;
    }

    bool
    removeChunks()
    {
        bool progress = false;
        std::size_t size = _best.scenario.trace.size();
        for (std::size_t chunk = std::max<std::size_t>(size / 2, 1);
             chunk >= 1; chunk /= 2) {
            std::size_t pos = 0;
            while (budgetLeft() &&
                   pos < _best.scenario.trace.size() &&
                   _best.scenario.trace.size() > 1) {
                Scenario cand = _best.scenario;
                auto begin = cand.trace.begin() +
                             static_cast<std::ptrdiff_t>(pos);
                auto end =
                    cand.trace.begin() +
                    static_cast<std::ptrdiff_t>(std::min(
                        pos + chunk, cand.trace.size()));
                cand.trace.erase(begin, end);
                if (!cand.trace.empty() && accept(cand))
                    progress = true; // retry the same position
                else
                    pos += chunk;
            }
            if (chunk == 1)
                break;
        }
        return progress;
    }

    bool
    serializeReads()
    {
        auto &trace = _best.scenario.trace;
        if (std::none_of(trace.begin(), trace.end(),
                         [](const TraceOp &op) {
                             return op.concurrent;
                         })) {
            return false;
        }
        // Wholesale first: concurrency is rarely essential.
        Scenario cand = _best.scenario;
        for (TraceOp &op : cand.trace)
            op.concurrent = false;
        if (accept(cand))
            return true;
        bool progress = false;
        for (std::size_t i = 0; i < _best.scenario.trace.size(); ++i) {
            if (!_best.scenario.trace[i].concurrent)
                continue;
            Scenario one = _best.scenario;
            one.trace[i].concurrent = false;
            if (accept(one))
                progress = true;
        }
        return progress;
    }

    bool
    peelLevels()
    {
        bool progress = false;
        while (_best.scenario.config.levels.size() > 1 &&
               budgetLeft()) {
            Scenario cand = _best.scenario;
            cand.config.levels.erase(cand.config.levels.begin());
            if (!accept(cand))
                break;
            progress = true;
        }
        return progress;
    }

    const ShrinkOptions &_opts;
    ShrinkResult _best;
};

} // namespace

ShrinkResult
shrinkScenario(const Scenario &start, const ShrinkOptions &opts)
{
    return Shrinker(start, opts).run();
}

} // namespace mda::fuzz
