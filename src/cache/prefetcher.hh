/**
 * @file
 * PC-indexed stride prefetcher for the baseline 1P1L hierarchy.
 *
 * The paper evaluates its MDA designs *without* prefetching against a
 * baseline *with* prefetching, to show that column transfers are
 * fundamentally different from (and stronger than) prefetch: a
 * perfect stride prefetcher still fetches a full row line per column
 * element, so it hides latency but cannot reduce traffic.
 */

#ifndef MDA_CACHE_PREFETCHER_HH
#define MDA_CACHE_PREFETCHER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/fastmod.hh"
#include "sim/logging.hh"
#include "sim/orientation.hh"
#include "sim/types.hh"

namespace mda
{

/** Classic per-PC stride table with 2-bit confidence. */
class StridePrefetcher
{
  public:
    /** Hard cap on the run-ahead degree; keeps the per-observation
     *  candidate list in fixed storage (observe() is on the demand
     *  hot path and must not allocate). */
    static constexpr unsigned maxDegree = 16;

    /** Candidate line base addresses from one observation. */
    class Candidates
    {
      public:
        const Addr *begin() const { return _addrs.data(); }
        const Addr *end() const { return _addrs.data() + _count; }
        unsigned size() const { return _count; }
        bool empty() const { return _count == 0; }

        Addr
        operator[](unsigned i) const
        {
            mda_assert(i < _count, "candidate index out of range");
            return _addrs[i];
        }

      private:
        friend class StridePrefetcher;
        void push(Addr a) { _addrs[_count++] = a; }

        std::array<Addr, maxDegree> _addrs;
        unsigned _count = 0;
    };

    explicit StridePrefetcher(unsigned degree = 4,
                              unsigned table_size = 256)
        : _degree(degree), _tableMod(table_size), _table(table_size)
    {
        mda_assert(degree <= maxDegree,
                   "prefetch degree %u above the supported maximum %u",
                   degree, maxDegree);
    }

    /**
     * Observe a demand access; return the row-line base addresses to
     * prefetch (empty while the stride is not yet confident). The
     * returned reference aliases a member buffer (observe() runs per
     * demand access; returning the array by value would copy 136 B
     * each time) and is invalidated by the next observe() call.
     */
    const Candidates &
    observe(std::uint32_t pc, Addr addr)
    {
        Candidates &out = _lastCandidates;
        out._count = 0;
        if (pc == 0)
            return out;
        TableEntry &entry = _table[_tableMod.mod(pc)];
        if (entry.pc != pc) {
            // Cold or conflicting slot: rebase.
            entry.pc = pc;
            entry.lastAddr = addr;
            entry.stride = 0;
            entry.confidence = 0;
            return out;
        }
        std::int64_t stride = static_cast<std::int64_t>(addr) -
                              static_cast<std::int64_t>(entry.lastAddr);
        entry.lastAddr = addr;
        if (stride == 0)
            return out;
        if (stride == entry.stride) {
            if (entry.confidence < 3)
                ++entry.confidence;
        } else {
            entry.stride = stride;
            entry.confidence = 1;
            return out;
        }
        if (entry.confidence < 2)
            return out;
        // Confident: run ahead by _degree *lines*. Sub-line strides
        // advance line by line (a unit-stride stream wants the next
        // lines, not the next few words); larger strides prefetch the
        // line of each predicted access.
        std::int64_t line_step = stride;
        if (stride > 0 && stride < static_cast<std::int64_t>(lineBytes))
            line_step = lineBytes;
        else if (stride < 0 &&
                 -stride < static_cast<std::int64_t>(lineBytes))
            line_step = -static_cast<std::int64_t>(lineBytes);
        Addr last_line = invalidAddr;
        for (unsigned d = 1; d <= _degree; ++d) {
            std::int64_t target =
                static_cast<std::int64_t>(alignDown(addr, lineBytes)) +
                line_step * static_cast<std::int64_t>(d);
            if (target < 0)
                break;
            Addr line = alignDown(static_cast<Addr>(target), lineBytes);
            if (line != last_line &&
                line != alignDown(addr, lineBytes)) {
                out.push(line);
                last_line = line;
            }
        }
        return out;
    }

    unsigned degree() const { return _degree; }

    /** One stream's training state, by table slot. */
    struct TableEntry
    {
        std::uint32_t pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    /** The training table (tests compare warmed state). */
    const std::vector<TableEntry> &table() const { return _table; }

  private:
    unsigned _degree;
    /** Reciprocal for the table index (observe() runs per demand
     *  access; table sizes need not be powers of two). */
    FastMod _tableMod;
    /** Direct-mapped by pc % table_size (the slot's `pc` field
     *  detects conflicts and rebases, exactly as hardware would). */
    std::vector<TableEntry> _table;

    /** Backing storage for observe()'s result. */
    Candidates _lastCandidates;
};

} // namespace mda

#endif // MDA_CACHE_PREFETCHER_HH
