/**
 * @file
 * Thread-pool sweep executor for figure/ablation benches.
 *
 * Every paper figure is a sweep over independent (workload, design,
 * capacity) cells; each cell builds its own System with a private
 * EventQueue and seeded Rng, so cells can run concurrently. The
 * Executor owns a bounded pool of worker threads and distributes cell
 * indices over it; results are stored by index, so output order is
 * the input order regardless of which cell starts or finishes first.
 *
 * Spec sweeps start their longest cells first. Cell run times differ
 * by two orders of magnitude (a 1P1L cell cannot vectorize along
 * columns, so its stream is several times longer), and a long cell
 * that starts late leaves the other workers idle while it finishes.
 *
 * Determinism contract: a cell's result depends only on its RunSpec
 * (including its seed), never on the job count or completion order.
 * Callers keep that contract by deriving every per-cell seed from the
 * spec, not from shared counters or wall-clock state.
 *
 * Tracing (--trace-out, --debug-flags) records into process-wide
 * sinks and is therefore restricted to --jobs 1; forEach() refuses a
 * parallel sweep while an observer is attached rather than interleave
 * trace lines from unrelated cells.
 */

#ifndef MDA_HARNESS_SWEEP_HH
#define MDA_HARNESS_SWEEP_HH

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner.hh"
#include "sim/logging.hh"

namespace mda::sweep
{

/** Resolve a --jobs request: 0 means hardware concurrency (at least
 *  1 even when the hardware cannot be queried). */
unsigned resolveJobs(unsigned requested);

/**
 * Parse the value of @p flag as a decimal @p T: the whole text, with
 * a '-' allowed only for a signed @p T, and a value that fits. Any
 * other text (a suffix, a base prefix, a space, overflow, nothing) is
 * fatal, naming the flag, @p what it takes, and the text.
 */
template <typename T>
T
parseDecimal(const char *flag, const std::string &value,
             const char *what = "a decimal number")
{
    T out{};
    const char *end = value.data() + value.size();
    auto [stop, err] = std::from_chars(value.data(), end, out);
    if (err != std::errc() || stop != end)
        fatal("%s takes %s, got '%s'", flag, what, value.c_str());
    return out;
}

/** Parse the value of @p flag (--jobs): a decimal worker count. */
inline unsigned
parseJobs(const char *flag, const std::string &value)
{
    return parseDecimal<unsigned>(flag, value,
                                  "a worker count (0 = all cores)");
}

/** Bounded worker pool executing sweep cells by index. */
class Executor
{
  public:
    /** @param jobs Worker count; 0 resolves to hardware concurrency. */
    explicit Executor(unsigned jobs = 0);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    unsigned jobs() const { return _jobs; }

    /**
     * Run fn(0) .. fn(count-1) across the pool and block until every
     * task finished. Tasks are pulled from a shared atomic cursor, so
     * a single worker executes them in index order. (The spec
     * overload below starts its cells longest first instead.)
     *
     * If any task throws, every remaining task still runs; afterwards
     * the exception from the lowest failing index is rethrown — the
     * same exception a sequential loop would surface first, so
     * propagation is deterministic across job counts.
     *
     * Refuses (fatal) a parallel run while tracing or debug flags are
     * active: those record into process-wide sinks. Not reentrant;
     * calling forEach from inside a task deadlocks by design.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn);

    /**
     * Run fn(i) for the input index i of every cell, starting cells
     * in order of descending stream length (streamLengthHint(), ties
     * in input order). The lengths are computed on the calling thread
     * before any cell starts. With one worker, or no more cells than
     * workers, start order cannot change when the sweep ends, so no
     * lengths are computed and cells start in input order.
     *
     * Otherwise as forEach(count, fn): the rethrown exception is the
     * one from the lowest failing *input* index, whatever order the
     * cells started in.
     */
    void forEach(const std::vector<RunSpec> &cells,
                 const std::function<void(std::size_t)> &fn);

  private:
    /** Start fn(order[0]) .. fn(order[count-1]); a null @p order is
     *  the identity. */
    void dispatch(std::size_t count, const std::size_t *order,
                  const std::function<void(std::size_t)> &fn);
    void workerLoop();

    const unsigned _jobs;
    std::vector<std::thread> _threads;

    std::mutex _mutex;
    std::condition_variable _wake;
    std::condition_variable _done;
    bool _shutdown = false;
    std::uint64_t _generation = 0;
    std::size_t _active = 0;

    const std::function<void(std::size_t)> *_fn = nullptr;
    const std::size_t *_order = nullptr;
    std::size_t _count = 0;
    std::atomic<std::size_t> _next{0};

    /** (input index, exception) for failed tasks of the current
     *  batch. */
    std::vector<std::pair<std::size_t, std::exception_ptr>> _errors;
};

/** Run every spec through a pool of @p jobs workers, longest stream
 *  first; results are returned in input order. */
std::vector<RunResult> runAll(const std::vector<RunSpec> &specs,
                              unsigned jobs = 0);

} // namespace mda::sweep

#endif // MDA_HARNESS_SWEEP_HH
