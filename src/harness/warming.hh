/**
 * @file
 * WarmingPipeline: the functional fast-forward of a sampled run with
 * each cache level below L1 on its own thread.
 *
 * A fast-forward stretch walks the hierarchy one trace op at a time:
 * L1's functionalAccess() calls into L2's, L2's into L3's. The calls
 * return nothing and no level reads another level's state, so the
 * levels can run as a pipeline. The calling thread keeps the trace
 * source and L1. During a stretch every other level's upstream
 * neighbour sends to a Link instead of to the level itself: the Link
 * records each call into fixed-size chunks, and the level's own
 * thread replays them, in the order they were made, through the same
 * functionalAccess()/functionalWriteback(). Each level therefore sees
 * the call sequence of the synchronous recursion and ends the stretch
 * in the same state. The stretch ends with one barrier: the caller
 * flushes its partial chunk, each thread passes the flush on after
 * replaying everything before it, and the caller blocks until the
 * last level has replayed its share. The timed window that follows
 * sees the wiring and the state of the synchronous walk.
 *
 * Helper threads are drawn from the host's free hardware threads
 * (HostThreads): a stretch for which the process has none free runs
 * synchronously on the calling thread instead, so a sweep that keeps
 * every core busy does not oversubscribe them: there the helpers cost
 * more CPU than they save (EXPERIMENTS.md, "Pipelined functional
 * warming", times the CI sampled grid both ways). Threads block on
 * condition variables, never spin.
 */

#ifndef MDA_HARNESS_WARMING_HH
#define MDA_HARNESS_WARMING_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/cache_base.hh"

namespace mda
{

class TraceCpu;

/**
 * The process's busy threads, counted against the host's hardware
 * threads. A running System holds one for its own thread; a
 * pipelined stretch holds its helpers for the stretch.
 */
class HostThreads
{
  public:
    /** Hold @p n threads for this object's lifetime: unconditionally
     *  (a running System's own), or, with @p if_free, only when the
     *  host has them free. */
    explicit HostThreads(unsigned n, bool if_free = false);
    ~HostThreads();

    HostThreads(const HostThreads &) = delete;
    HostThreads &operator=(const HostThreads &) = delete;

    /** Whether this object holds its threads. */
    bool held() const { return _n != 0; }

  private:
    unsigned _n = 0;
};

/** One level-pipelined fast-forward machine over a cache chain. */
class WarmingPipeline
{
  public:
    /** Threads for levels[1..]; @p levels (CPU side first, at least
     *  two) must outlive the pipeline. */
    explicit WarmingPipeline(
        const std::vector<std::unique_ptr<CacheBase>> &levels);

    /** Stops and joins the threads. */
    ~WarmingPipeline();

    WarmingPipeline(const WarmingPipeline &) = delete;
    WarmingPipeline &operator=(const WarmingPipeline &) = delete;

    /** cpu.fastForward(@p count) as one pipelined stretch; returns
     *  its result once every level has applied the stretch. */
    std::uint64_t fastForward(TraceCpu &cpu, std::uint64_t count);

  private:
    class Link;

    /** Level @p idx's thread: replay its inbound Link until stopped. */
    void serve(std::size_t idx);

    /** Stop and join the started threads. */
    void stop();

    const std::vector<std::unique_ptr<CacheBase>> &_levels;

    /** _links[i] carries level i's calls to level i + 1. */
    std::vector<std::unique_ptr<Link>> _links;
    std::vector<std::thread> _threads;

    /** Stretches begun (calling thread only). */
    std::uint32_t _stretches = 0;

    /** Stretches the last level has finished replaying. */
    std::mutex _mutex;
    std::uint32_t _drained = 0;
    std::condition_variable _drainedCv;
};

} // namespace mda

#endif // MDA_HARNESS_WARMING_HH
