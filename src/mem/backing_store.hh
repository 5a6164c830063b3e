/**
 * @file
 * Sparse functional backing store.
 *
 * Lazily allocates 4 KiB frames so a 4 GB simulated physical address
 * space costs only what the workload touches. Used as the MDA
 * memory's data array and as the reference model in functional
 * checking (the hierarchy's data movement is validated against it).
 *
 * Zero-init guarantee: a word that was never written reads as zero —
 * unallocated frames read as zero and fresh frames are zero-filled
 * before the first write lands. Cold reads through any cache
 * hierarchy therefore return 0 (tested per design point by
 * ColdReads.ReturnZero* in tests/core/test_coherence_property.cc).
 */

#ifndef MDA_MEM_BACKING_STORE_HH
#define MDA_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "sim/packet.hh"
#include "sim/types.hh"

namespace mda
{

/** Word-granular sparse memory image. Untouched words read as zero. */
class BackingStore
{
  public:
    /** Read the 64-bit word containing @p addr. */
    std::uint64_t
    readWord(Addr addr) const
    {
        Addr frame_addr = alignDown(addr, frameBytes);
        auto it = _frames.find(frame_addr);
        if (it == _frames.end())
            return 0;
        std::uint64_t v;
        std::memcpy(&v,
                    it->second->data() + (alignDown(addr, wordBytes) -
                                          frame_addr),
                    wordBytes);
        return v;
    }

    /** Write the 64-bit word containing @p addr. */
    void
    writeWord(Addr addr, std::uint64_t value)
    {
        Addr frame_addr = alignDown(addr, frameBytes);
        auto &frame = _frames[frame_addr];
        if (!frame) {
            frame = std::make_unique<Frame>();
            frame->fill(0);
        }
        std::memcpy(frame->data() + (alignDown(addr, wordBytes) -
                                     frame_addr),
                    &value, wordBytes);
    }

    /**
     * Fill a read packet's payload from the store: every word covered
     * by the packet's line and wordMask (scalar packets read one word
     * into payload word 0).
     */
    void
    fillPacket(Packet &pkt) const
    {
        if (!pkt.isLine()) {
            pkt.setWord(0, readWord(pkt.addr));
            return;
        }
        OrientedLine line = pkt.line();
        Addr frame_addr = frameOf(line);
        auto it = _frames.find(frame_addr);
        if (it == _frames.end()) {
            // Untouched memory reads as zero.
            for (unsigned w = 0; w < lineWords; ++w)
                if (pkt.wordMask & (1u << w))
                    pkt.setWord(w, 0);
            return;
        }
        const Frame &frame = *it->second;
        for (unsigned w = 0; w < lineWords; ++w) {
            if (!(pkt.wordMask & (1u << w)))
                continue;
            std::uint64_t v;
            std::memcpy(&v,
                        frame.data() + (line.wordAddr(w) - frame_addr),
                        wordBytes);
            pkt.setWord(w, v);
        }
    }

    /** Apply a write packet's payload to the store. */
    void
    applyPacket(const Packet &pkt)
    {
        if (!pkt.isLine()) {
            writeWord(pkt.addr, pkt.word(0));
            return;
        }
        OrientedLine line = pkt.line();
        Addr frame_addr = frameOf(line);
        auto &slot = _frames[frame_addr];
        if (!slot) {
            slot = std::make_unique<Frame>();
            slot->fill(0);
        }
        Frame &frame = *slot;
        for (unsigned w = 0; w < lineWords; ++w) {
            if (!(pkt.wordMask & (1u << w)))
                continue;
            std::uint64_t v = pkt.word(w);
            std::memcpy(frame.data() + (line.wordAddr(w) - frame_addr),
                        &v, wordBytes);
        }
    }

    /** Number of frames materialized (for footprint assertions). */
    std::size_t framesAllocated() const { return _frames.size(); }

  private:
    static constexpr Addr frameBytes = 4096;
    using Frame = std::array<std::uint8_t, frameBytes>;

    /**
     * The one frame holding every word of @p line. A row line is 64
     * contiguous 64-byte-aligned bytes and a column line stays inside
     * its 512-byte-aligned tile, so neither can straddle a 4 KiB
     * frame — one map lookup serves the whole transfer instead of
     * one per word.
     */
    static Addr
    frameOf(const OrientedLine &line)
    {
        Addr frame_addr = alignDown(line.wordAddr(0), frameBytes);
        mda_assert(alignDown(line.wordAddr(lineWords - 1),
                             frameBytes) == frame_addr,
                   "line straddles a backing-store frame");
        return frame_addr;
    }
    // MDA_LINT_ALLOW(DET-2): keyed find/emplace by frame address
    // only, never iterated (size() alone feeds footprint stats) —
    // per-word-access hot path.
    std::unordered_map<Addr, std::unique_ptr<Frame>> _frames;
};

} // namespace mda

#endif // MDA_MEM_BACKING_STORE_HH
