/**
 * @file
 * Common machinery for all cache levels.
 *
 * CacheBase owns the pieces every design point shares: the 2-D-aware
 * MSHR file, the writeback buffer, upstream/downstream flow control,
 * the overlapping-access deferral queue, and the common statistics.
 * Subclasses (LineCache for 1P1L/1P2L, TileCache for sparse 2P2L)
 * implement lookup, fill, and policy.
 *
 * Ordering guarantees provided here:
 *  - an access that word-overlaps an in-flight crossing MSHR entry is
 *    deferred until that entry completes (2-D MSHR ordering);
 *  - a fill request is never sent downstream while an overlapping
 *    writeback sits in the write buffer (modified data is propagated
 *    down before a duplicate copy is fetched).
 */

#ifndef MDA_CACHE_CACHE_BASE_HH
#define MDA_CACHE_CACHE_BASE_HH

#include <deque>
#include <string>
#include <vector>

#include "cache_config.hh"
#include "mshr.hh"
#include "sim/debug.hh"
#include "sim/port.hh"
#include "sim/probe.hh"
#include "sim/sim_object.hh"
#include "sim/trace_event.hh"

namespace mda
{

/** Abstract cache level. */
class CacheBase : public SimObject, public MemDevice, public MemClient
{
  public:
    CacheBase(const std::string &name, EventQueue &eq,
              stats::StatGroup &sg, const CacheConfig &config);

    // MemDevice (requests from the level above / CPU)
    bool tryRequest(PacketPtr &pkt) override;
    void setUpstream(MemClient *client) override { _upstream = client; }

    // MemClient (responses from the level below)
    void recvResponse(PacketPtr pkt) override;
    void recvRetry() override;

    /** Connect the next level (cache or memory). */
    void setDownstream(MemDevice *dev) { _downstream = dev; }

    const CacheConfig &config() const { return _config; }

    /** Register this level's lifecycle probe points with @p pm under
     *  "<name>.<probe>" (e.g. "l1.mshrQueued"). */
    void regProbes(probe::ProbeManager &pm);

    /**
     * Structural-invariant sweep (the mda_fuzz debug hook): verify
     * every internal consistency rule that must hold *between* events
     * and return a human-readable description of each violation (an
     * empty vector means the cache is consistent). Subclasses check
     * their storage (dirty bits only on valid words, no two dirty
     * copies of one word across intersecting lines, presence-bit
     * bookkeeping); the base implementation has nothing to add.
     *
     * O(frames) per call — meant for the fuzz oracle's stepped runs
     * over tiny caches (off with mda_fuzz --no-checks), not for the
     * simulation fast path.
     */
    virtual std::vector<std::string> checkInvariants() const
    {
        return {};
    }

    /**
     * Drain-time checks: once the event queue is quiescent, no MSHR
     * entry (or coalesced target), queued writeback, or deferred
     * packet may survive — a leftover means a request was leaked.
     */
    std::vector<std::string> checkDrained() const;

  protected:
    /** Demand access (Read/Write; scalar, vector, or line fill from an
     *  upper cache), invoked after the tag-lookup latency. */
    virtual void handleDemand(PacketPtr pkt) = 0;

    /** Writeback from the level above, after lookup latency. */
    virtual void handleWriteback(PacketPtr pkt) = 0;

    /** Fill response from below (demand or prefetch). */
    virtual void handleFill(PacketPtr pkt) = 0;

    // ---- services for subclasses ----

    /** Park @p pkt until an in-flight conflicting entry completes. */
    void defer(PacketPtr pkt);

    /**
     * Record a miss on @p line: coalesce into @p entry — the caller's
     * MSHR lookup result for @p line, null if none — or allocate a
     * new entry and try to send the fill downstream.
     * @pre the caller has checked conflictsWith(), and @p entry is
     *      the current find(line) result (no MSHR mutation between).
     */
    void allocateMiss(PacketPtr pkt, const OrientedLine &line,
                      MshrEntry *entry);

    /** Allocate a prefetch fill for @p line if resources allow. */
    void issuePrefetch(const OrientedLine &line);

    /** Queue a writeback packet toward the next level. */
    void pushWriteback(PacketPtr wb);

    /** Complete @p pkt back to the requester after @p delay cycles. */
    void respond(PacketPtr pkt, Cycles delay);

    /** respond() for demand hits: also samples the hit-latency
     *  distribution and closes the packet's trace slice. Inline:
     *  runs once per hit, the hottest path in the simulator, so the
     *  near-constant hit latency is decimated 1-in-16 (misses, whose
     *  round trips actually vary, are sampled exactly). */
    void
    respondHit(PacketPtr pkt, Cycles delay)
    {
        if (MDA_UNLIKELY((++_hitSampleTick & (hitSampleInterval - 1))
                         == 0)) {
            _hitLatency.sample(
                static_cast<double>(_config.tagLatency + delay));
        }
        if (MDA_UNLIKELY(trace::on()))
            trace::log().instant(name(), "hit", curTick());
        respond(std::move(pkt), delay);
    }

    /** Sample the demand round trip of a just-retired MSHR entry
     *  (inline: runs once per fill). Prefetch fills are excluded.
     *  Decimated 1-in-4: fills are frequent enough that the round
     *  trip distribution converges with a fraction of the samples. */
    void
    noteMissLatency(const MshrEntry &entry)
    {
        if (!entry.isPrefetch &&
            (++_missSampleTick & (missSampleInterval - 1)) == 0) {
            _missLatency.sample(
                static_cast<double>(curTick() - entry.allocTick));
        }
    }

    /** Emit the MSHR-occupancy counter sample (when tracing). */
    void
    traceMshrOccupancy()
    {
        if (MDA_UNLIKELY(trace::on())) {
            trace::log().counter(name(), "mshrOccupancy", curTick(),
                                 static_cast<double>(_mshr.size()));
        }
    }

    /** Re-process all deferred packets (after a fill completes). */
    void replayDeferred();

    /** Drain the write buffer, then any unsent fills (in that order
     *  for overlapping lines). */
    void trySendQueues();

    /** Wake a blocked upstream if resources freed up. */
    void maybeUnblockUpstream();

    /** Resources left for a new request? */
    bool canAccept() const;

    /** Packet-lifecycle probe points (see probe.hh's catalog). The
     *  subclass-specific points (writeValidate, dupAction) live here
     *  too so every level exposes the same catalog. */
    probe::CacheProbes _probes;

    CacheConfig _config;
    MshrFile _mshr;
    std::deque<PacketPtr> _writeBuffer;
    std::deque<PacketPtr> _deferred;

    /** Accepted requests whose lookup has not yet completed. */
    unsigned _inFlightLookups = 0;

    MemClient *_upstream = nullptr;
    MemDevice *_downstream = nullptr;
    bool _upstreamBlocked = false;

    // ---- statistics (shared across cache designs) ----
    stats::Scalar _demandAccesses;
    stats::Scalar _demandHits, _demandMisses;
    stats::Scalar _readHits, _readMisses;
    stats::Scalar _writeHits, _writeMisses;
    stats::Scalar _vectorHits, _vectorMisses;
    stats::Scalar _misOrientedHits;
    stats::Scalar _partialHits;
    stats::Scalar _mshrCoalesced;
    stats::Scalar _deferrals;
    stats::Scalar _writebacksIn, _writebacksOut;
    stats::Scalar _bytesWrittenBack;
    stats::Scalar _fills, _fillBytes;
    stats::Scalar _prefetchesIssued, _prefetchesUseful;
    stats::Scalar _extraTagAccesses;
    stats::Scalar _evictions;

    /** Per-level demand latency, split by outcome: hits sample the
     *  response delay (decimated), misses the MSHR allocate-to-fill
     *  round trip (exact). */
    stats::Distribution _hitLatency{0, 100, 20};
    stats::Distribution _missLatency{0, 2000, 20};

  private:
    /** Latency-sampling decimation factors (powers of two). */
    static constexpr unsigned hitSampleInterval = 16;
    static constexpr unsigned missSampleInterval = 4;
    unsigned _hitSampleTick = 0;
    unsigned _missSampleTick = 0;

    static constexpr std::size_t maxDeferred = 64;
};

} // namespace mda

#endif // MDA_CACHE_CACHE_BASE_HH
