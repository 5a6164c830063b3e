#include "warming.hh"

#include <algorithm>
#include <array>
#include <atomic>

#include "trace_cpu.hh"

namespace mda
{

namespace
{

/** Calls per chunk and chunks per Link, fixed by measurement (see
 *  EXPERIMENTS.md, "Pipelined functional warming"): a smaller chunk
 *  shortens the drain at the end of a stretch, a larger one wakes the
 *  consumer less often. 2 Links x 16 x 1024 x 16 B = 512 KiB for a
 *  three-level hierarchy. */
constexpr std::uint32_t chunkRecords = 1024;
constexpr std::uint32_t ringChunks = 16;

/** Threads of this process that are simulating: running Systems
 *  and the helpers of pipelined stretches. */
std::atomic<unsigned> busyThreads{0};

/** What follows a chunk's records. */
enum class Mark : std::uint8_t
{
    None,    ///< more of the stretch follows
    Stretch, ///< the stretch ends here: pass the flush on
    Stop,    ///< the pipeline shuts down after these records
};

/**
 * One functional call of the level above. A level sends down only
 * whole-line fills (functionalFill / functionalFillLine) and
 * writebacks, so a call is its line, its word mask and its kind;
 * Link::functionalAccess() panics on any other request rather than
 * replay it inexactly.
 */
struct Record
{
    std::uint64_t lineId = 0;
    Orientation orient = Orientation::Row;
    std::uint8_t wordMask = 0;
    bool writeback = false;

    OrientedLine line() const { return OrientedLine(orient, lineId); }

    FunctionalReq
    fill() const
    {
        FunctionalReq req;
        req.line = line();
        req.addr = req.line.baseAddr();
        req.wordMask = wordMask;
        req.isLine = true;
        return req;
    }
};

struct Chunk
{
    std::uint32_t count = 0;
    Mark mark = Mark::None;
    std::array<Record, chunkRecords> records;
};

} // namespace

/**
 * A level's downstream during a stretch: a single-producer,
 * single-consumer ring of chunks that carries the level's functional
 * calls, in order, to the thread of the level below. Whole chunks
 * change hands under the mutex, a few lock operations per thousand
 * calls; a side with nothing to do sleeps on its condition variable.
 */
class WarmingPipeline::Link final : public MemDevice
{
  public:
    Link() : _ring(ringChunks), _fill(&_ring.front()) {}

    bool
    tryRequest(PacketPtr &pkt) override
    {
        (void)pkt;
        panic("timed request during a fast-forward stretch");
    }

    void setUpstream(MemClient *client) override { (void)client; }

    void
    functionalAccess(const FunctionalReq &req) override
    {
        mda_assert(req.isLine && !req.isWrite && req.pc == 0 &&
                       req.addr == req.line.baseAddr(),
                   "a level sent down a request other than a line fill");
        push({req.line.id, req.line.orient, req.wordMask, false});
    }

    void
    functionalWriteback(const OrientedLine &line,
                        std::uint8_t mask) override
    {
        push({line.id, line.orient, mask, true});
    }

    /** Producer: hand the chunk being filled (possibly empty) to the
     *  consumer with @p mark, then claim the next chunk, blocking
     *  while the consumer holds all of them. */
    void
    publish(Mark mark)
    {
        _fill->mark = mark;
        std::unique_lock<std::mutex> lock(_mutex);
        ++_published;
        _filled.notify_one();
        _freed.wait(lock, [this] {
            return _published - _consumed < ringChunks;
        });
        _fill = &_ring[_published % ringChunks];
        _fill->count = 0;
    }

    /** Consumer: the oldest published chunk, blocking until one is
     *  published. */
    const Chunk &
    front()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _filled.wait(lock, [this] { return _published != _consumed; });
        return _ring[_consumed % ringChunks];
    }

    /** Consumer: give front() back to the producer. */
    void
    pop()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        ++_consumed;
        _freed.notify_one();
    }

  private:
    void
    push(const Record &record)
    {
        Chunk &chunk = *_fill;
        chunk.records[chunk.count++] = record;
        if (chunk.count == chunkRecords)
            publish(Mark::None);
    }

    std::vector<Chunk> _ring;
    /** The producer's chunk; only the producer touches it. */
    Chunk *_fill;

    std::mutex _mutex;
    std::condition_variable _filled, _freed;
    std::uint32_t _published = 0; ///< chunks handed over
    std::uint32_t _consumed = 0;  ///< chunks handed back
};

HostThreads::HostThreads(unsigned n, bool if_free)
{
    static const unsigned host =
        std::max(1u, std::thread::hardware_concurrency());
    unsigned busy = busyThreads.load();
    do {
        if (if_free && busy + n > host)
            return;
    } while (!busyThreads.compare_exchange_weak(busy, busy + n));
    _n = n;
}

HostThreads::~HostThreads()
{
    busyThreads.fetch_sub(_n);
}

WarmingPipeline::WarmingPipeline(
    const std::vector<std::unique_ptr<CacheBase>> &levels)
    : _levels(levels)
{
    mda_assert(levels.size() >= 2, "a warming pipeline needs two levels");
    for (std::size_t i = 0; i + 1 < levels.size(); ++i)
        _links.push_back(std::make_unique<Link>());
    try {
        for (std::size_t i = 1; i < levels.size(); ++i)
            _threads.emplace_back([this, i] { serve(i); });
    } catch (...) {
        stop();
        throw;
    }
}

WarmingPipeline::~WarmingPipeline()
{
    stop();
}

void
WarmingPipeline::stop()
{
    // The mark reaches every started thread; a Link whose consumer
    // never started has room for it.
    _links.front()->publish(Mark::Stop);
    for (std::thread &thread : _threads)
        thread.join();
}

std::uint64_t
WarmingPipeline::fastForward(TraceCpu &cpu, std::uint64_t count)
{
    const std::size_t below = _links.size();
    for (std::size_t i = 0; i < below; ++i)
        _levels[i]->setDownstream(_links[i].get());
    const std::uint64_t applied = cpu.fastForward(count);

    // The barrier: the flush travels down behind every record of the
    // stretch, and the last level counts it.
    _links.front()->publish(Mark::Stretch);
    const std::uint32_t want = ++_stretches;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _drainedCv.wait(lock, [&] { return _drained == want; });
    }

    for (std::size_t i = 0; i < below; ++i)
        _levels[i]->setDownstream(_levels[i + 1].get());
    return applied;
}

void
WarmingPipeline::serve(std::size_t idx)
{
    Link &in = *_links[idx - 1];
    CacheBase &level = *_levels[idx];
    Link *out = idx < _links.size() ? _links[idx].get() : nullptr;
    while (true) {
        const Chunk &chunk = in.front();
        const std::uint32_t count = chunk.count;
        for (std::uint32_t k = 0; k < count; ++k) {
            const Record &r = chunk.records[k];
            if (r.writeback)
                level.functionalWriteback(r.line(), r.wordMask);
            else
                level.functionalAccess(r.fill());
        }
        const Mark mark = chunk.mark;
        in.pop();
        if (mark == Mark::None)
            continue;
        if (out) {
            out->publish(mark);
        } else if (mark == Mark::Stretch) {
            std::lock_guard<std::mutex> lock(_mutex);
            ++_drained;
            _drainedCv.notify_one();
        }
        if (mark == Mark::Stop)
            return;
    }
}

} // namespace mda
