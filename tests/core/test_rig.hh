/** @file Shared rig wiring caches to an MDA memory for tests. */

#ifndef MDA_TESTS_CORE_TEST_RIG_HH
#define MDA_TESTS_CORE_TEST_RIG_HH

#include <memory>
#include <vector>

#include "harness/hierarchy.hh"

namespace mda::testing
{

/** CPU stand-in: collects responses, supports blocking sends. */
class MockCpu : public MemClient
{
  public:
    void
    recvResponse(PacketPtr pkt) override
    {
        responses.push_back(std::move(pkt));
    }

    void recvRetry() override { retryReady = true; }

    std::vector<PacketPtr> responses;
    bool retryReady = false;
};

/** A CPU -> caches -> MDA memory chain with helpers: add levels CPU
 *  side first, then connect() builds them as one Hierarchy. */
class TestRig
{
  public:
    /** Build with an explicit memory topology (defaults to Table I). */
    explicit TestRig(MemTopologyParams topo = MemTopologyParams{},
                     MemTimingParams timing =
                         MemTimingParams::sttDefault())
        : _topo(topo), _timing(timing)
    {}

    /** Append a cache level (first call = closest to the CPU). */
    void
    addLineCache(const CacheConfig &cfg, LineMapping mapping,
                 const std::string &name)
    {
        LevelSpec spec;
        spec.name = name;
        spec.cache = cfg;
        spec.mapping = mapping;
        _specs.push_back(spec);
    }

    void
    addTileCache(const CacheConfig &cfg, const std::string &name,
                 TileFillPolicy fill = TileFillPolicy::Sparse)
    {
        LevelSpec spec;
        spec.name = name;
        spec.cache = cfg;
        spec.tile = true;
        spec.fill = fill;
        _specs.push_back(spec);
    }

    /** Build CPU -> levels[0] -> ... -> memory. Call once. */
    void
    connect()
    {
        hier = std::make_unique<Hierarchy>(eq, sg, _specs, _timing,
                                           _topo);
        hier->attach(cpu);
    }

    MdaMemory &mem() { return hier->memory(); }
    LineCache &lineCache(std::size_t n) { return *hier->lineCache(n); }
    TileCache &tileCache(std::size_t n) { return *hier->tileCache(n); }

    MemDevice &top() { return hier->top(); }

    /** Send a packet, spinning the event loop through retries. */
    void
    send(PacketPtr pkt)
    {
        while (!top().tryRequest(pkt)) {
            if (!eq.step())
                panic("deadlock: rejected with an empty event queue");
        }
    }

    /** Send and run to quiescence; returns the (single new) response. */
    PacketPtr
    sendAndWait(PacketPtr pkt)
    {
        std::size_t before = cpu.responses.size();
        bool wants_response = (pkt->cmd != MemCmd::Writeback);
        send(std::move(pkt));
        eq.run();
        if (!wants_response)
            return nullptr;
        if (cpu.responses.size() != before + 1)
            panic("expected exactly one response");
        PacketPtr out = std::move(cpu.responses.back());
        cpu.responses.pop_back();
        return out;
    }

    /** Scalar read returning the 64-bit value. */
    std::uint64_t
    readWord(Addr addr, Orientation orient = Orientation::Row)
    {
        auto pkt = Packet::makeScalar(MemCmd::Read, addr, orient, 1,
                                      eq.curTick());
        auto rsp = sendAndWait(std::move(pkt));
        return rsp->word(0);
    }

    /** Scalar write. */
    void
    writeWord(Addr addr, std::uint64_t value,
              Orientation orient = Orientation::Row)
    {
        auto pkt = Packet::makeScalar(MemCmd::Write, addr, orient, 2,
                                      eq.curTick());
        pkt->setWord(0, value);
        sendAndWait(std::move(pkt));
    }

    /** Vector read of a full oriented line. */
    std::array<std::uint64_t, lineWords>
    readLine(const OrientedLine &line)
    {
        auto pkt = Packet::makeVector(MemCmd::Read, line, 3,
                                      eq.curTick());
        auto rsp = sendAndWait(std::move(pkt));
        std::array<std::uint64_t, lineWords> out;
        for (unsigned k = 0; k < lineWords; ++k)
            out[k] = rsp->word(k);
        return out;
    }

    /** Vector write of a full oriented line. */
    void
    writeLine(const OrientedLine &line,
              const std::array<std::uint64_t, lineWords> &values)
    {
        auto pkt = Packet::makeVector(MemCmd::Write, line, 4,
                                      eq.curTick());
        for (unsigned k = 0; k < lineWords; ++k)
            pkt->setWord(k, values[k]);
        sendAndWait(std::move(pkt));
    }

    double stat(const std::string &name) const { return sg.scalar(name); }

    EventQueue eq;
    stats::StatGroup sg;
    std::unique_ptr<Hierarchy> hier;
    /** After the hierarchy, so held responses die before its pool. */
    MockCpu cpu;

  private:
    MemTopologyParams _topo;
    MemTimingParams _timing;
    std::vector<LevelSpec> _specs;
};

/** First @p count row lines (id > start.id) sharing @p start's set. */
inline std::vector<OrientedLine>
conflictingRowLines(const LineCache &cache, const OrientedLine &start,
                    unsigned count)
{
    std::vector<OrientedLine> out;
    std::uint64_t target = cache.setFor(start);
    for (std::uint64_t id = start.id + 1; out.size() < count; ++id) {
        OrientedLine line(Orientation::Row, id);
        if (cache.setFor(line) == target)
            out.push_back(line);
    }
    return out;
}

/** A tiny cache config for stress tests (1 KiB, 2-way). */
inline CacheConfig
tinyCache(std::uint64_t bytes = 1024, unsigned ways = 2)
{
    CacheConfig c;
    c.sizeBytes = bytes;
    c.ways = ways;
    c.tagLatency = 1;
    c.dataLatency = 1;
    c.mshrs = 8;
    return c;
}

} // namespace mda::testing

#endif // MDA_TESTS_CORE_TEST_RIG_HH
