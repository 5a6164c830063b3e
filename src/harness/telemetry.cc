#include "telemetry.hh"

#include "sim/packet.hh"

namespace mda::telemetry
{

LatencyAccountant::LatencyAccountant(
    probe::ProbeManager &pm, stats::StatGroup &sg,
    const std::vector<std::string> &levels)
{
    using probe::PacketEvent;

    for (unsigned n = 0; n < levels.size(); ++n) {
        const std::string &level = levels[n];
        auto ls = std::make_unique<LevelStats>();
        ls->name = level;
        for (unsigned o = 0; o < 2; ++o) {
            const char *orient = (o == 0) ? "row" : "col";
            for (unsigned s = 0; s < numStages; ++s) {
                auto stage = static_cast<Stage>(s);
                ls->dist[o][s] = std::make_unique<stats::Distribution>(
                    0.0, 2000.0, 20);
                sg.regDistribution(
                    "telemetry." + level + "." + orient + "." +
                        stageName(stage),
                    ls->dist[o][s].get(),
                    std::string(stageName(stage)) + " stage latency, " +
                        orient + " requests served at " + level);
            }
        }
        sg.regScalar("telemetry." + level + ".requests",
                     &ls->requests,
                     "requests served (responded) at " + level);
        _levels.push_back(std::move(ls));

        auto *accepted =
            pm.findTyped<PacketEvent>(level + ".accepted");
        mda_assert(accepted, "no '%s.accepted' probe registered",
                   level.c_str());
        _listeners.emplace_back(
            *accepted,
            [this, n](const PacketEvent &ev) { onAccepted(n, ev); });

        // The memory controller's "issued" marks the same boundary a
        // cache's "mshrQueued" does: the request stops waiting and
        // its service begins.
        auto *queued = pm.findTyped<PacketEvent>(level + ".mshrQueued");
        if (!queued)
            queued = pm.findTyped<PacketEvent>(level + ".issued");
        mda_assert(queued,
                   "no '%s.mshrQueued'/'%s.issued' probe registered",
                   level.c_str(), level.c_str());
        _listeners.emplace_back(
            *queued,
            [this](const PacketEvent &ev) { onMshrQueued(ev); });

        auto *responded =
            pm.findTyped<PacketEvent>(level + ".responded");
        mda_assert(responded, "no '%s.responded' probe registered",
                   level.c_str());
        _listeners.emplace_back(
            *responded,
            [this](const PacketEvent &ev) { onResponded(ev); });
    }
}

void
LatencyAccountant::onAccepted(unsigned level,
                              const probe::PacketEvent &ev)
{
    // Writebacks carry no response: their cost shows up as queue/bus
    // occupancy on the requests around them, not as a lifetime here.
    if (ev.pkt->cmd == MemCmd::Writeback)
        return;
    Open &open = _open[*ev.pkt];
    // Slots recycle only after release, and every accepted request is
    // responded to first: an open slot means a lost response.
    mda_assert(!open.live, "packet %llu accepted at %s while still open",
               (unsigned long long)ev.pkt->id,
               _levels[level]->name.c_str());
    open = Open{true, false, level, ev.pkt->issueTick, ev.when, 0};
    ++_openCount;
}

void
LatencyAccountant::onMshrQueued(const probe::PacketEvent &ev)
{
    Open &open = _open[*ev.pkt];
    if (!open.live)
        return;
    open.mshrAt = ev.when;
    open.hasMshr = true;
}

void
LatencyAccountant::onResponded(const probe::PacketEvent &ev)
{
    Open &open = _open[*ev.pkt];
    if (!open.live)
        return;
    LevelStats &ls = *_levels[open.level];
    unsigned o = (ev.pkt->orient == Orientation::Col) ? 1 : 0;

    // The four stages tile [issue, delivery] exactly (see header).
    Tick service_start = open.hasMshr ? open.mshrAt : ev.when;
    double queue = static_cast<double>(open.accept - open.issue);
    double lookup = static_cast<double>(service_start - open.accept);
    double mshr =
        open.hasMshr ? static_cast<double>(ev.when - open.mshrAt) : 0.0;
    double deliver = static_cast<double>(ev.delay);

    ls.dist[o][static_cast<unsigned>(Stage::Queue)]->sample(queue);
    ls.dist[o][static_cast<unsigned>(Stage::Lookup)]->sample(lookup);
    ls.dist[o][static_cast<unsigned>(Stage::Mshr)]->sample(mshr);
    ls.dist[o][static_cast<unsigned>(Stage::Deliver)]->sample(deliver);
    ++ls.requests;
    open.live = false;
    --_openCount;
}

} // namespace mda::telemetry
