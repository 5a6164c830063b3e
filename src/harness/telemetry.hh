/**
 * @file
 * LatencyAccountant: a probe listener that decomposes each request's
 * end-to-end latency into per-stage, per-level, per-orientation
 * components.
 *
 * Every non-writeback packet is served at exactly one level of the
 * hierarchy (CPU demand packets at the L1, L1 fill requests at the
 * L2, and so on down to memory), so each level's probes partition the
 * packet's lifetime exactly:
 *
 *   queue   = accepted.when - pkt->issueTick   (upstream retry wait)
 *   lookup  = mshrQueued.when - accepted.when  (tag + defer wait;
 *             for hits, responded.when - accepted.when)
 *   mshr    = responded.when - mshrQueued.when (fill round trip;
 *             zero for hits)
 *   deliver = responded.delay                  (data return)
 *
 * and queue + lookup + mshr + deliver == delivery tick - issueTick —
 * the same quantity the requester's own round-trip distribution
 * samples. The memory controller maps onto the same shape (issued
 * plays mshrQueued's role: lookup = controller queue wait, deliver =
 * bank access + bus). The accountant samples all four stages once per
 * request into per-level x orientation x stage Distributions named
 * "telemetry.<level>.<row|col>.<stage>", so per-stage counts equal
 * request counts and sums add up exactly.
 *
 * Constructed only when SystemConfig::telemetry is set: its stats do
 * not exist otherwise, and with no listeners attached the probes cost
 * one branch each — default --stats-json output stays byte-identical.
 */

#ifndef MDA_HARNESS_TELEMETRY_HH
#define MDA_HARNESS_TELEMETRY_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/packet_pool.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"

namespace mda::telemetry
{

/** Latency pipeline stages (see file comment for definitions). */
enum class Stage : unsigned
{
    Queue = 0,
    Lookup,
    Mshr,
    Deliver,
};

constexpr unsigned numStages = 4;

constexpr const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Queue: return "queue";
      case Stage::Lookup: return "lookup";
      case Stage::Mshr: return "mshr";
      case Stage::Deliver: return "deliver";
    }
    return "?";
}

class LatencyAccountant
{
  public:
    /**
     * Attach to the lifecycle probes of @p levels (e.g. {"l1", "l2",
     * "mem"}) and register the breakdown stats with @p sg. Every
     * level must already have registered its probes with @p pm.
     */
    LatencyAccountant(probe::ProbeManager &pm, stats::StatGroup &sg,
                      const std::vector<std::string> &levels);

    /** Requests still open (accepted, not yet responded). */
    std::size_t openRequests() const { return _openCount; }

  private:
    /** Per-level stage distributions, split by orientation. */
    struct LevelStats
    {
        std::string name;
        // [orient][stage]; orient 0 = row, 1 = col.
        std::unique_ptr<stats::Distribution> dist[2][numStages];
        stats::Scalar requests;
    };

    /** One in-flight request's timeline. */
    struct Open
    {
        bool live = false;
        bool hasMshr = false;
        unsigned level = 0;
        Tick issue = 0;
        Tick accept = 0;
        Tick mshrAt = 0;
    };

    void onAccepted(unsigned level, const probe::PacketEvent &ev);
    void onMshrQueued(const probe::PacketEvent &ev);
    void onResponded(const probe::PacketEvent &ev);

    std::vector<std::unique_ptr<LevelStats>> _levels;
    SlotTable<Open> _open;
    std::size_t _openCount = 0;
    std::vector<probe::ProbeListener> _listeners;
};

} // namespace mda::telemetry

#endif // MDA_HARNESS_TELEMETRY_HH
