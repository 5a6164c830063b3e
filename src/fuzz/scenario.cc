#include "scenario.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace mda::fuzz
{

namespace
{

/** Valid capacity tiers per hierarchy position. Every entry keeps
 *  (size / lineBytes) and (size / tileBytes) divisible by each ways
 *  choice below, so any tier works for both LineCache and TileCache
 *  granularity. */
constexpr std::uint64_t upperTiers[] = {512, 1024, 2048};
constexpr std::uint64_t middleTiers[] = {1024, 2048, 4096};
constexpr std::uint64_t llcTiers[] = {2048, 4096, 8192, 16384};

unsigned
drawWays(Rng &rng, std::uint64_t size_bytes, bool tile_capable)
{
    // Tile frames (512 B) are the coarser granularity: ways must
    // divide the frame count for the 2P2L LLC to be constructible.
    std::uint64_t frames =
        size_bytes / (tile_capable ? tileBytes : lineBytes);
    unsigned ways = 1u << rng.below(3); // 1, 2, or 4
    while (ways > 1 && frames % ways != 0)
        ways /= 2;
    return ways;
}

LevelGeometry
drawLevel(Rng &rng, std::uint64_t size_bytes, bool tile_capable)
{
    LevelGeometry spec;
    spec.sizeBytes = size_bytes;
    spec.ways = drawWays(rng, size_bytes, tile_capable);
    spec.mshrs = 2u << rng.below(3);          // 2, 4, or 8
    spec.targetsPerMshr = 1u << rng.below(3); // 1, 2, or 4
    spec.writeBufferSize = 2u << rng.below(3);
    return spec;
}

} // namespace

Scenario
generateScenario(std::uint64_t seed, const GenLimits &limits)
{
    Rng rng(seed);
    Scenario s;
    s.seed = seed;
    FuzzConfig &cfg = s.config;

    // Hierarchy shape: depth 1 is a bare LLC, 2 adds an L1, 3 the
    // full L1/L2/LLC chain. The LLC tier must be tile-capable (it
    // becomes a TileCache under the 2P2L designs).
    unsigned depth = 1 + static_cast<unsigned>(rng.below(3));
    if (depth >= 2)
        cfg.levels.push_back(drawLevel(
            rng, upperTiers[rng.below(std::size(upperTiers))], false));
    if (depth >= 3)
        cfg.levels.push_back(drawLevel(
            rng, middleTiers[rng.below(std::size(middleTiers))],
            false));
    cfg.levels.push_back(drawLevel(
        rng, llcTiers[rng.below(std::size(llcTiers))], true));

    cfg.tiles = 2 + static_cast<unsigned>(
                        rng.below(std::max(1u, limits.maxTiles - 1)));
    cfg.gatherHits = rng.chance(0.25);
    cfg.tileWritePenalty = static_cast<Cycles>(rng.below(5));

    // Occasionally interleave the timed and functional paths the way
    // a sampled run does; short periods maximize boundary crossings.
    if (rng.chance(0.3)) {
        cfg.samplePeriod = 4ull << rng.below(3); // 4, 8, or 16
        cfg.sampleWindow = 1 + rng.below(cfg.samplePeriod / 2);
    }

    // The 1P1L baseline has no column transfers, so it joins the
    // designs run only when the trace keeps vector ops in
    // the row direction (scalar column *preferences* are fine — the
    // baseline coerces them to rows, exactly as its compiler would).
    bool row_vectors_only = rng.chance(0.3);
    cfg.prefetch = row_vectors_only && rng.chance(0.5);
    if (row_vectors_only)
        cfg.designs.push_back(DesignPoint::D0_1P1L);
    cfg.designs.push_back(DesignPoint::D1_1P2L);
    cfg.designs.push_back(DesignPoint::D1_1P2L_SameSet);
    cfg.designs.push_back(DesignPoint::D2_2P2L);
    cfg.designs.push_back(DesignPoint::D2_2P2L_Dense);

    // Aliased hot words: a small pool of (tile, row, col) coordinates
    // revisited often, so intersecting rows and columns keep fighting
    // over the same words (duplication, Fig. 9 evictions, deferrals).
    struct Coord { std::uint64_t tile; unsigned r, c; };
    std::vector<Coord> hot(4 + rng.below(5));
    for (auto &h : hot) {
        h.tile = rng.below(cfg.tiles);
        h.r = static_cast<unsigned>(rng.below(tileLines));
        h.c = static_cast<unsigned>(rng.below(lineWords));
    }
    auto draw_coord = [&]() -> Coord {
        if (rng.chance(0.35))
            return hot[rng.below(hot.size())];
        return Coord{rng.below(cfg.tiles),
                     static_cast<unsigned>(rng.below(tileLines)),
                     static_cast<unsigned>(rng.below(lineWords))};
    };

    unsigned min_ops = std::min(limits.minOps, limits.maxOps);
    unsigned ops = min_ops +
                   static_cast<unsigned>(
                       rng.below(limits.maxOps - min_ops + 1));
    while (s.trace.size() < ops) {
        // Occasionally a burst of concurrent reads (MSHR coalescing,
        // deferral, and response paths under pressure). Sampled
        // traces stay serialized: a functional op needs idle timing.
        bool batch = cfg.samplePeriod == 0 && rng.chance(0.08);
        unsigned count =
            batch ? 3 + static_cast<unsigned>(rng.below(14)) : 1;
        for (unsigned k = 0; k < count && s.trace.size() < ops; ++k) {
            TraceOp op;
            Coord at = draw_coord();
            op.orient = rng.chance(0.5) ? Orientation::Row
                                        : Orientation::Col;
            op.vector = rng.chance(0.4);
            if (op.vector && row_vectors_only)
                op.orient = Orientation::Row;
            op.write = !batch && rng.chance(0.4);
            op.concurrent = batch;
            op.addr = tileBase(at.tile) + at.r * lineBytes +
                      at.c * wordBytes;
            s.trace.push_back(op);
        }
    }
    return s;
}

std::string
reproText(const Scenario &s)
{
    std::ostringstream os;
    os << "mda_fuzz-repro-v1\n";
    os << "seed " << s.seed << "\n";
    os << "designs";
    for (DesignPoint d : s.config.designs)
        os << " " << designName(d);
    os << "\n";
    os << "tiles " << s.config.tiles << "\n";
    os << "gather " << (s.config.gatherHits ? 1 : 0) << "\n";
    os << "prefetch " << (s.config.prefetch ? 1 : 0) << "\n";
    os << "write-penalty " << s.config.tileWritePenalty << "\n";
    if (s.config.samplePeriod > 0) {
        os << "sample " << s.config.samplePeriod << " "
           << s.config.sampleWindow << "\n";
    }
    os << "levels " << s.config.levels.size() << "\n";
    for (const LevelGeometry &lvl : s.config.levels) {
        os << "level " << lvl.sizeBytes << " " << lvl.ways << " "
           << lvl.mshrs << " " << lvl.targetsPerMshr << " "
           << lvl.writeBufferSize << "\n";
    }
    os << "ops " << s.trace.size() << "\n";
    for (const TraceOp &op : s.trace) {
        os << "op " << (op.vector ? "V" : "S") << " "
           << (op.write ? "W" : "R") << " " << orientName(op.orient)
           << " " << op.addr << " " << (op.concurrent ? "c" : "s")
           << "\n";
    }
    return os.str();
}

Scenario
parseRepro(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    auto bad = [](const std::string &what) {
        fatal("malformed repro: %s", what.c_str());
    };
    if (!std::getline(is, line) || line != "mda_fuzz-repro-v1")
        bad("missing mda_fuzz-repro-v1 header");

    Scenario s;
    std::size_t expect_levels = 0, expect_ops = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "seed") {
            if (!(ls >> s.seed))
                bad("bad seed line");
        } else if (key == "designs") {
            std::string name;
            while (ls >> name) {
                DesignPoint d;
                if (!designFromName(name, d))
                    bad("unknown design '" + name + "'");
                s.config.designs.push_back(d);
            }
            if (s.config.designs.empty())
                bad("empty design list");
        } else if (key == "tiles") {
            if (!(ls >> s.config.tiles) || s.config.tiles == 0)
                bad("bad tiles line");
        } else if (key == "gather") {
            int v = 0;
            if (!(ls >> v))
                bad("bad gather line");
            s.config.gatherHits = (v != 0);
        } else if (key == "prefetch") {
            int v = 0;
            if (!(ls >> v))
                bad("bad prefetch line");
            s.config.prefetch = (v != 0);
        } else if (key == "write-penalty") {
            if (!(ls >> s.config.tileWritePenalty))
                bad("bad write-penalty line");
        } else if (key == "sample") {
            if (!(ls >> s.config.samplePeriod >>
                  s.config.sampleWindow) ||
                s.config.samplePeriod == 0 ||
                s.config.sampleWindow == 0 ||
                s.config.sampleWindow >= s.config.samplePeriod)
                bad("bad sample line");
        } else if (key == "levels") {
            if (!(ls >> expect_levels) || expect_levels == 0 ||
                expect_levels > 3)
                bad("bad levels count");
        } else if (key == "level") {
            LevelGeometry lvl;
            if (!(ls >> lvl.sizeBytes >> lvl.ways >> lvl.mshrs >>
                  lvl.targetsPerMshr >> lvl.writeBufferSize) ||
                lvl.ways == 0 || lvl.mshrs == 0 ||
                lvl.targetsPerMshr == 0 || lvl.writeBufferSize == 0 ||
                lvl.sizeBytes < lineBytes ||
                lvl.sizeBytes % lineBytes != 0)
                bad("bad level line");
            s.config.levels.push_back(lvl);
        } else if (key == "ops") {
            if (!(ls >> expect_ops))
                bad("bad ops count");
        } else if (key == "op") {
            TraceOp op;
            std::string kind, rw, orient, conc;
            if (!(ls >> kind >> rw >> orient >> op.addr >> conc))
                bad("bad op line");
            if (kind != "S" && kind != "V")
                bad("op kind must be S or V");
            if (rw != "R" && rw != "W")
                bad("op must be R or W");
            if (orient != "row" && orient != "col")
                bad("op orientation must be row or col");
            if (conc != "c" && conc != "s")
                bad("op issue mode must be c or s");
            op.vector = (kind == "V");
            op.write = (rw == "W");
            op.orient = (orient == "row") ? Orientation::Row
                                          : Orientation::Col;
            op.concurrent = (conc == "c");
            if (op.write && op.concurrent)
                bad("writes must be serialized");
            s.trace.push_back(op);
        } else {
            bad("unknown key '" + key + "'");
        }
    }
    if (s.config.levels.size() != expect_levels)
        bad("level count mismatch");
    if (s.trace.size() != expect_ops)
        bad("op count mismatch");
    if (s.config.designs.empty())
        bad("no designs");
    if (s.config.samplePeriod > 0) {
        for (const TraceOp &op : s.trace)
            if (op.concurrent)
                bad("sampled traces must be serialized");
    }
    return s;
}

void
writeReproFile(const std::string &path, const Scenario &s)
{
    // MDA_LINT_ALLOW(TRC-1): text repro file, not a binary trace.
    std::ofstream os(path);
    if (!os)
        fatal("cannot write repro file: %s", path.c_str());
    os << reproText(s);
}

Scenario
readReproFile(const std::string &path)
{
    // MDA_LINT_ALLOW(TRC-1): text repro file, not a binary trace.
    std::ifstream is(path);
    if (!is)
        fatal("cannot read repro file: %s", path.c_str());
    std::ostringstream text;
    text << is.rdbuf();
    return parseRepro(text.str());
}

} // namespace mda::fuzz
