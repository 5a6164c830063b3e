/**
 * @file
 * Memory request/response packets.
 *
 * Packets carry real data so the whole hierarchy can be verified
 * functionally. A packet's payload is laid out in *line word order*:
 * for a 64-byte oriented transfer, byte 8*k..8*k+7 holds word k of the
 * OrientedLine (contiguous words for rows, 64-byte-strided words for
 * columns); for an 8-byte scalar access only bytes 0..7 are used.
 */

#ifndef MDA_SIM_PACKET_HH
#define MDA_SIM_PACKET_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

#include "logging.hh"
#include "orientation.hh"
#include "types.hh"

namespace mda
{

class Packet;
class PacketPool;

namespace pool_detail
{

/** Out-of-line pool hooks (packet_pool.cc) so this header does not
 *  need the complete PacketPool type. */
Packet *allocFrom(PacketPool *pool);
void releaseTo(PacketPool *pool, Packet *pkt);

} // namespace pool_detail

/** Deleter behind PacketPtr: recycles pool-allocated packets into
 *  their pool, frees heap-allocated ones. Stateless, so PacketPtr
 *  stays pointer-sized and call sites keep plain move semantics. */
struct PacketDeleter
{
    void operator()(Packet *pkt) const;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/** Command carried by a packet. */
enum class MemCmd : std::uint8_t
{
    Read,       ///< Demand read (scalar word, vector line, or line fill).
    Write,      ///< Demand write (scalar word or vector line).
    Writeback,  ///< Evicted dirty data moving down; no response.
};

/** Printable command name. */
constexpr const char *
cmdName(MemCmd cmd)
{
    switch (cmd) {
      case MemCmd::Read: return "Read";
      case MemCmd::Write: return "Write";
      case MemCmd::Writeback: return "Writeback";
    }
    return "?";
}

/**
 * A memory transaction. Created by the CPU (demand accesses) or by
 * caches (line fills, prefetches, writebacks); the same object is
 * turned around as the response.
 */
class Packet
{
  public:
    MemCmd cmd = MemCmd::Read;

    /** Start address: word-aligned for scalars, the oriented line's
     *  base address for 64-byte transfers. */
    Addr addr = invalidAddr;

    /** Transfer size in bytes: wordBytes or lineBytes. */
    unsigned size = wordBytes;

    /** Access-direction preference / line orientation. */
    Orientation orient = Orientation::Row;

    /** True for SIMD demand accesses (full oriented line semantics). */
    bool isVector = false;

    /** True for cache-generated line fills and prefetches. */
    bool isLineFill = false;

    /** True when generated by a prefetcher rather than demand. */
    bool isPrefetch = false;

    /** True once the packet has been turned into a response. */
    bool isResponse = false;

    /** Static reference id of the generating instruction (prefetcher
     *  training key); 0 for hardware-generated packets. */
    std::uint32_t pc = 0;

    /** Process-unique id, assigned at construction, for trace-event
     *  async ids and debug labels. Increasing within one thread. */
    std::uint64_t id = 0;

    /** Tick at which the original requester issued the packet. */
    Tick issueTick = 0;

    /** Additional latency accumulated on the way (e.g. the 1P2L
     *  Different-Set cross-orientation tag probes); charged when the
     *  response is delivered. */
    Cycles extraLatency = 0;

    /** Bitmask of line words carried in @ref payload (bit k = word k).
     *  Full-line transfers use 0xff; scalar transfers use bit 0. Dirty
     *  partial writebacks may carry any subset. */
    std::uint8_t wordMask = 0x01;

    /** The data, in line word order (see file comment). */
    std::array<std::uint8_t, lineBytes> payload{};

    /** Dense index of this packet's storage in its pool, kept across
     *  recycling; side tables index by it (SlotTable). Set only with
     *  @ref pool, and never read by simulation logic. */
    std::uint32_t slot = 0;

    /** Owning pool, if pool-allocated; the deleter recycles into it
     *  instead of freeing. Never read by simulation logic. */
    PacketPool *pool = nullptr;

    Packet() : id(nextId()) {}

    /** Whether this is a full oriented-line transfer. */
    bool isLine() const { return size == lineBytes; }

    /** The oriented line this packet touches. */
    OrientedLine
    line() const
    {
        return OrientedLine::containing(addr, orient);
    }

    /** Word (64-bit) view of the payload at word index @p k. */
    std::uint64_t
    word(unsigned k) const
    {
        mda_assert(k < lineWords, "payload word out of range");
        std::uint64_t v;
        std::memcpy(&v, payload.data() + k * wordBytes, wordBytes);
        return v;
    }

    /** Store @p v as payload word @p k and mark it present. */
    void
    setWord(unsigned k, std::uint64_t v)
    {
        mda_assert(k < lineWords, "payload word out of range");
        std::memcpy(payload.data() + k * wordBytes, &v, wordBytes);
        wordMask |= (1u << k);
    }

    /** Turn this request into a response in place. */
    void
    makeResponse()
    {
        mda_assert(!isResponse, "double response");
        isResponse = true;
    }

    /** Create a demand scalar access. */
    static PacketPtr
    makeScalar(MemCmd cmd, Addr addr, Orientation orient,
               std::uint32_t pc, Tick now, PacketPool *pool = nullptr)
    {
        PacketPtr pkt = allocate(pool);
        pkt->cmd = cmd;
        pkt->addr = alignDown(addr, wordBytes);
        pkt->size = wordBytes;
        pkt->orient = orient;
        pkt->pc = pc;
        pkt->issueTick = now;
        pkt->wordMask = 0x01;
        return pkt;
    }

    /** Create a demand SIMD access covering one oriented line. */
    static PacketPtr
    makeVector(MemCmd cmd, const OrientedLine &line, std::uint32_t pc,
               Tick now, PacketPool *pool = nullptr)
    {
        PacketPtr pkt = allocate(pool);
        pkt->cmd = cmd;
        pkt->addr = line.baseAddr();
        pkt->size = lineBytes;
        pkt->orient = line.orient;
        pkt->isVector = true;
        pkt->pc = pc;
        pkt->issueTick = now;
        pkt->wordMask = 0xff;
        return pkt;
    }

    /** Create a cache-generated oriented line fill request. */
    static PacketPtr
    makeLineFill(const OrientedLine &line, bool prefetch, Tick now,
                 PacketPool *pool = nullptr)
    {
        PacketPtr pkt = allocate(pool);
        pkt->cmd = MemCmd::Read;
        pkt->addr = line.baseAddr();
        pkt->size = lineBytes;
        pkt->orient = line.orient;
        pkt->isLineFill = true;
        pkt->isPrefetch = prefetch;
        pkt->issueTick = now;
        pkt->wordMask = 0xff;
        return pkt;
    }

    /** Create a (possibly partial) writeback of an oriented line.
     *  Writebacks are classified by cmd == MemCmd::Writeback alone;
     *  isLineFill stays false (it strictly means cache-generated fill
     *  and prefetch reads — see the field comment). */
    static PacketPtr
    makeWriteback(const OrientedLine &line, std::uint8_t word_mask,
                  Tick now, PacketPool *pool = nullptr)
    {
        mda_assert(word_mask != 0, "empty writeback");
        PacketPtr pkt = allocate(pool);
        pkt->cmd = MemCmd::Writeback;
        pkt->addr = line.baseAddr();
        pkt->size = lineBytes;
        pkt->orient = line.orient;
        pkt->issueTick = now;
        pkt->wordMask = word_mask;
        return pkt;
    }

  private:
    /** Grab a fresh default-constructed packet, recycled from @p pool
     *  when one is supplied, heap-allocated otherwise. */
    static PacketPtr
    allocate(PacketPool *pool)
    {
        Packet *pkt =
            pool ? pool_detail::allocFrom(pool) : new Packet();
        return PacketPtr(pkt);
    }

    static std::uint64_t
    nextId()
    {
        // Process-unique, not dense: each thread reserves a block of
        // ids from the shared counter and hands them out privately, so
        // allocating a packet writes nothing another thread touches.
        // One thread alone still sees 1, 2, 3, ...
        static constexpr std::uint64_t idBlock = 4096;
        static std::atomic<std::uint64_t> reserved{0};
        thread_local std::uint64_t next = 0, end = 0;
        if (next == end) {
            next = reserved.fetch_add(idBlock, std::memory_order_relaxed);
            end = next + idBlock;
        }
        return ++next;
    }
};

inline void
PacketDeleter::operator()(Packet *pkt) const
{
    if (pkt->pool)
        pool_detail::releaseTo(pkt->pool, pkt);
    else
        delete pkt;
}

} // namespace mda

#endif // MDA_SIM_PACKET_HH
