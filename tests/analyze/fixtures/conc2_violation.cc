// CONC-2 fixture: sweep workers writing state that is not
// worker-confined — a member, a by-ref captured accumulator, and an
// unguarded member write reached through a called method.

#include <cstddef>
#include <vector>

struct Executor
{
    template <typename F> void forEach(std::size_t count, F fn);
    template <typename F> void runAll(std::size_t count, F fn);
};

struct Sweep
{
    Executor _exec;
    unsigned long _hits = 0;
    std::vector<int> _log;

    void recordUnguarded(int v) { _log.push_back(v); }

    void
    runMembers(std::size_t n)
    {
        _exec.forEach(n, [this](std::size_t idx) {
            _hits += idx;        // line 26: CONC-2 member write
            _log.push_back(1);   // line 27: CONC-2 member container
        });
    }

    void
    runTransitive(std::size_t n)
    {
        _exec.forEach(n, [this](std::size_t idx) {
            recordUnguarded(static_cast<int>(idx)); // line 35: CONC-2
        });
    }
};

void
refCaptureAccumulator(Executor &exec, std::size_t n)
{
    unsigned long total = 0;
    exec.runAll(n, [&](std::size_t idx) {
        total += idx; // line 45: CONC-2 by-ref shared accumulator
    });
}

// The spec overload, forEach(cells, fn), starts cells out of input
// order but has the same worker shape.
struct RunSpec;

struct SpecExecutor
{
    template <typename F>
    void forEach(const std::vector<RunSpec> &cells, F fn);
};

void
specSweepAccumulator(SpecExecutor &exec, const std::vector<RunSpec> &cells)
{
    unsigned long started = 0;
    exec.forEach(cells, [&](std::size_t i) {
        started += i; // line 64: CONC-2 by-ref accumulator
    });
}
