#include "sweep.hh"

#include <algorithm>
#include <numeric>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "sim/trace_event.hh"

namespace mda::sweep
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

Executor::Executor(unsigned jobs) : _jobs(resolveJobs(jobs))
{
    _threads.reserve(_jobs);
    for (unsigned t = 0; t < _jobs; ++t)
        _threads.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
    }
    _wake.notify_all();
    for (auto &thread : _threads)
        thread.join();
}

void
Executor::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [&] {
                return _shutdown || _generation != seen;
            });
            if (_shutdown)
                return;
            seen = _generation;
        }
        for (;;) {
            std::size_t pos =
                _next.fetch_add(1, std::memory_order_relaxed);
            if (pos >= _count)
                break;
            std::size_t idx = _order ? _order[pos] : pos;
            try {
                (*_fn)(idx);
            } catch (...) {
                std::lock_guard<std::mutex> lock(_mutex);
                _errors.emplace_back(idx, std::current_exception());
            }
        }
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (--_active == 0)
                _done.notify_all();
        }
    }
}

void
Executor::forEach(std::size_t count,
                  const std::function<void(std::size_t)> &fn)
{
    dispatch(count, nullptr, fn);
}

void
Executor::forEach(const std::vector<RunSpec> &cells,
                  const std::function<void(std::size_t)> &fn)
{
    if (_jobs == 1 || cells.size() <= _jobs) {
        dispatch(cells.size(), nullptr, fn);
        return;
    }
    std::vector<std::uint64_t> ops;
    ops.reserve(cells.size());
    for (const auto &cell : cells)
        ops.push_back(streamLengthHint(cell));
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&ops](std::size_t a, std::size_t b) {
                         return ops[a] > ops[b];
                     });
    dispatch(order.size(), order.data(), fn);
}

void
Executor::dispatch(std::size_t count, const std::size_t *order,
                   const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (_jobs > 1 && obs::hot) {
        fatal("tracing records into a process-wide log; rerun with "
              "--jobs 1 (or unset --trace-out/--debug-flags/"
              "MDA_DEBUG_FLAGS) for traced sweeps");
    }

    std::exception_ptr first_error;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _fn = &fn;
        _order = order;
        _count = count;
        _next.store(0, std::memory_order_relaxed);
        _errors.clear();
        _active = _threads.size();
        ++_generation;
        _wake.notify_all();
        _done.wait(lock, [&] { return _active == 0; });
        _fn = nullptr;
        _order = nullptr;
        if (!_errors.empty()) {
            auto it = std::min_element(
                _errors.begin(), _errors.end(),
                [](const auto &a, const auto &b) {
                    return a.first < b.first;
                });
            first_error = it->second;
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<RunResult>
runAll(const std::vector<RunSpec> &specs, unsigned jobs)
{
    std::vector<RunResult> results(specs.size());
    Executor pool(jobs);
    pool.forEach(specs, [&](std::size_t idx) {
        results[idx] = runOne(specs[idx]);
    });
    return results;
}

} // namespace mda::sweep
