// CONC-2 clean fixture: every sanctioned worker pattern from the real
// tree — slot-per-worker writes, lambda locals, lock-guarded member
// writes (direct and through a called method), and the one-argument
// forEach (the MSHR visitor) which is not a sweep dispatch at all.

#include <cstddef>
#include <mutex>
#include <vector>

struct RunSpec
{
    unsigned long n = 0;
};

struct Executor
{
    template <typename F> void forEach(std::size_t count, F fn);
    template <typename F>
    void forEach(const std::vector<RunSpec> &cells, F fn);
    template <typename F> void runAll(std::size_t count, F fn);
};

struct Result
{
    unsigned long cycles = 0;
};

struct Harness
{
    Executor _exec;
    std::mutex _mutex;
    std::vector<Result> _done;

    Result runOne(std::size_t idx);

    // runCell (bench_common.hh): compute locally, then publish under
    // the lock. The member write is guarded, so workers calling it
    // transitively are clean.
    void
    runCell(std::size_t idx)
    {
        Result one = runOne(idx);
        std::lock_guard<std::mutex> lock(_mutex);
        _done.push_back(one);
    }

    void
    sweep(std::vector<Result> &results, std::size_t n)
    {
        // Slot-per-worker: results[idx] is confined by the index.
        _exec.runAll(n, [&results, this](std::size_t idx) {
            Result one = runOne(idx);
            results[idx] = one;
        });
        // Lock-guarded publication through a method.
        _exec.forEach(n, [this](std::size_t idx) { runCell(idx); });
        // Direct lock-guarded member write.
        _exec.forEach(n, [this](std::size_t idx) {
            Result one = runOne(idx);
            std::lock_guard<std::mutex> lock(_mutex);
            _done.push_back(one);
        });
    }

    void
    sweepSpecs(const std::vector<RunSpec> &cells,
               std::vector<Result> &results)
    {
        // The spec overload passes each cell's input index, so
        // results[i] is confined by it whatever the start order.
        _exec.forEach(cells, [&](std::size_t i) {
            results[i] = runOne(cells[i].n);
        });
    }
};

struct MshrFile
{
    // One-argument forEach: a visitor over MSHR entries, not a sweep
    // dispatch. Must not be matched by the worker-lambda rule.
    template <typename F> void forEach(F visitor);
};

unsigned long
visitAll(MshrFile &mshr)
{
    unsigned long seen = 0;
    mshr.forEach([&seen](const Result &r) { seen += r.cycles; });
    return seen;
}
