#include "oracle.hh"

#include <algorithm>
#include <memory>

#include "harness/hierarchy.hh"
#include "reference_model.hh"

namespace mda::fuzz
{

namespace
{

/** CPU stand-in: collects responses; sends spin on the event loop. */
class FuzzCpu : public MemClient
{
  public:
    void
    recvResponse(PacketPtr pkt) override
    {
        responses.push_back(std::move(pkt));
    }

    void recvRetry() override {}

    std::vector<PacketPtr> responses;
};

/** The scenario's hierarchy under @p design: its tiny geometries with
 *  1+n latencies, degree-2 baseline prefetching, and the shadow-map
 *  audit whenever the per-event checks run. */
std::vector<LevelSpec>
levelSpecs(DesignPoint design, const Scenario &s,
           const OracleOptions &opts)
{
    SystemConfig knobs;
    knobs.design = design;
    knobs.prefetchDegree = s.config.prefetch ? 2 : 0;
    knobs.gatherHits = s.config.gatherHits;
    knobs.tileWritePenalty = s.config.tileWritePenalty;
    std::vector<CacheConfig> caches;
    for (const LevelGeometry &geom : s.config.levels) {
        CacheConfig c;
        c.sizeBytes = geom.sizeBytes;
        c.ways = geom.ways;
        c.mshrs = geom.mshrs;
        c.targetsPerMshr = geom.targetsPerMshr;
        c.writeBufferSize = geom.writeBufferSize;
        // Small fixed latencies keep runs fast while still
        // interleaving events across levels; L1 keeps the parallel
        // tag/data shape.
        c.tagLatency = static_cast<Cycles>(1 + caches.size());
        c.dataLatency = c.tagLatency;
        c.parallelTagData = caches.empty();
        caches.push_back(c);
    }
    std::vector<LevelSpec> specs = specsFor(knobs, caches);
    for (LevelSpec &spec : specs)
        spec.shadowAudit = opts.checks;
    return specs;
}

/** One design point's private hierarchy plus the replay engine. */
class DesignRun
{
  public:
    DesignRun(DesignPoint design, const Scenario &s,
              const OracleOptions &opts)
        : _design(design), _scenario(s), _opts(opts),
          _hier(_eq, _sg, levelSpecs(design, s, opts))
    {
        _hier.attach(_cpu);
    }

    const std::vector<Failure> &failures() const { return _failures; }

    /** Replay the trace and run the post-drain checks. */
    bool
    execute(const std::vector<std::vector<std::uint64_t>> &expect)
    {
        const auto &trace = _scenario.trace;
        if (_scenario.config.samplePeriod > 0) {
            // Sampled interleave: the first sampleWindow ops of every
            // period go through the timed path (each drained — the
            // generator serializes sampled traces), the rest through
            // functionalAccess, exactly the alternation a sampled
            // System run performs. The interesting bugs live at the
            // boundaries: timed traffic over functionally-installed
            // state and vice versa.
            for (std::size_t i = 0; i < trace.size(); ++i) {
                bool timed = (i % _scenario.config.samplePeriod) <
                             _scenario.config.sampleWindow;
                if (timed) {
                    if (!issueBatch(i, i + 1, expect))
                        return false;
                } else {
                    applyFunctional(i);
                    if (_opts.checks && !sweepInvariants(i))
                        return false;
                }
            }
            return finishChecks();
        }
        std::size_t i = 0;
        while (i < trace.size()) {
            if (trace[i].concurrent) {
                std::size_t end = i;
                while (end < trace.size() && trace[end].concurrent)
                    ++end;
                if (!issueBatch(i, end, expect))
                    return false;
                i = end;
            } else {
                if (!issueBatch(i, i + 1, expect))
                    return false;
                ++i;
            }
        }
        return finishChecks();
    }

    /**
     * Read every word of @p touched back through the drained
     * hierarchy and compare against the reference model.
     */
    bool
    readback(const ReferenceModel &ref,
             const std::vector<Addr> &touched,
             std::vector<std::uint64_t> &image)
    {
        for (Addr addr : touched) {
            auto pkt = Packet::makeScalar(MemCmd::Read, addr,
                                          Orientation::Row, 0,
                                          _eq.curTick(), &_hier.pool());
            if (!send(std::move(pkt), npos) || !runToQuiescence(npos))
                return false;
            if (_cpu.responses.size() != 1) {
                fail(FailureKind::LostResponse, npos,
                     "readback of word " + std::to_string(addr) +
                         " produced " +
                         std::to_string(_cpu.responses.size()) +
                         " responses (expected 1)");
                return false;
            }
            std::uint64_t got = _cpu.responses.front()->word(0);
            _cpu.responses.clear();
            if (got != ref.read(addr)) {
                fail(FailureKind::FinalState, npos,
                     "word " + std::to_string(addr) +
                         " drained to " + std::to_string(got) +
                         ", reference has " +
                         std::to_string(ref.read(addr)));
                return false;
            }
            image.push_back(got);
        }
        return true;
    }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Post-trace structure: nothing may leak from the trace, and
     *  the final image must satisfy the invariants even when the
     *  per-event sweeps were disabled. */
    bool
    finishChecks()
    {
        for (const auto &cache : _hier.levels()) {
            for (std::string &v : cache->checkDrained())
                fail(FailureKind::DrainLeak, npos, std::move(v));
        }
        if (!_failures.empty())
            return false;
        return sweepInvariants(npos);
    }

    /** Apply trace op @p i through the functional (state-only) path.
     *  @pre the timed machinery is idle (the caller drains first). */
    void
    applyFunctional(std::size_t i)
    {
        const TraceOp &op = _scenario.trace[i];
        FunctionalReq req;
        req.line = op.line();
        req.addr = op.addr;
        req.pc = i + 1;
        req.isLine = op.vector;
        req.wordMask = op.vector ? 0xff : 0x01;
        req.isWrite = op.write;
        top().functionalAccess(req);
    }

    void
    fail(FailureKind kind, std::size_t op_index, std::string detail)
    {
        _failures.push_back(
            {kind, _design, std::move(detail), op_index});
    }

    MemDevice &top() { return _hier.top(); }

    bool
    budgetExceeded(std::size_t op_index)
    {
        if (++_steps <= _opts.maxSteps)
            return false;
        fail(FailureKind::Deadlock, op_index,
             "event budget (" + std::to_string(_opts.maxSteps) +
                 " steps) exceeded — livelock?");
        return true;
    }

    bool
    sweepInvariants(std::size_t op_index)
    {
        for (const auto &cache : _hier.levels()) {
            std::vector<std::string> v = cache->checkInvariants();
            if (!v.empty()) {
                fail(FailureKind::Invariant, op_index,
                     std::move(v.front()));
                return false;
            }
        }
        return true;
    }

    bool
    send(PacketPtr pkt, std::size_t op_index)
    {
        while (!top().tryRequest(pkt)) {
            if (budgetExceeded(op_index))
                return false;
            if (!_eq.step()) {
                fail(FailureKind::Deadlock, op_index,
                     "request rejected with an empty event queue");
                return false;
            }
            if (_opts.checks && !sweepInvariants(op_index))
                return false;
        }
        return true;
    }

    bool
    runToQuiescence(std::size_t op_index)
    {
        while (_eq.step()) {
            if (budgetExceeded(op_index))
                return false;
            if (_opts.checks && !sweepInvariants(op_index))
                return false;
        }
        return true;
    }

    /** Build the packet for trace op @p i (write data included). */
    PacketPtr
    makeOp(std::size_t i)
    {
        const TraceOp &op = _scenario.trace[i];
        MemCmd cmd = op.write ? MemCmd::Write : MemCmd::Read;
        auto pc = static_cast<std::uint32_t>(i + 1);
        if (op.vector) {
            auto pkt = Packet::makeVector(cmd, op.line(), pc,
                                          _eq.curTick(), &_hier.pool());
            if (op.write)
                for (unsigned k = 0; k < lineWords; ++k)
                    pkt->setWord(k, writeValue(_scenario.seed, i, k));
            return pkt;
        }
        auto pkt = Packet::makeScalar(cmd, op.addr, op.orient, pc,
                                      _eq.curTick(), &_hier.pool());
        if (op.write)
            pkt->setWord(0, writeValue(_scenario.seed, i, 0));
        return pkt;
    }

    /**
     * Issue ops [first, last), run to quiescence, and verify every
     * response against the per-op reference expectations.
     */
    bool
    issueBatch(std::size_t first, std::size_t last,
               const std::vector<std::vector<std::uint64_t>> &expect)
    {
        std::vector<std::uint64_t> sent;
        for (std::size_t i = first; i < last; ++i) {
            PacketPtr pkt = makeOp(i);
            sent.push_back(pkt->id);
            if (!send(std::move(pkt), i))
                return false;
        }
        if (!runToQuiescence(first))
            return false;

        std::vector<bool> answered(sent.size(), false);
        for (PacketPtr &rsp : _cpu.responses) {
            std::size_t k = answeredOp(sent, answered, rsp->id);
            if (k == npos) {
                fail(FailureKind::LostResponse, first,
                     "unexpected response id " +
                         std::to_string(rsp->id));
                return false;
            }
            if (!verifyRead(first + k, *rsp, expect[first + k]))
                return false;
        }
        _cpu.responses.clear();
        // Report the lowest lost op, so the repro is deterministic.
        auto lost = std::find(answered.begin(), answered.end(), false);
        if (lost == answered.end())
            return true;
        fail(FailureKind::LostResponse,
             first + static_cast<std::size_t>(lost - answered.begin()),
             "op never received its response (" +
                 std::to_string(std::count(lost, answered.end(), false)) +
                 " lost in this batch)");
        return false;
    }

    bool
    verifyRead(std::size_t i, const Packet &rsp,
               const std::vector<std::uint64_t> &expected)
    {
        // The functional path moves no payload, so once any op has
        // been applied functionally the data plane is unspecified —
        // sampled runs check structure, not values (mirroring the
        // System-level checkData incompatibility).
        if (_scenario.config.samplePeriod > 0)
            return true;
        const TraceOp &op = _scenario.trace[i];
        if (op.write)
            return true; // write responses carry no checked data
        unsigned words = op.vector ? lineWords : 1;
        for (unsigned k = 0; k < words; ++k) {
            if (rsp.word(k) == expected[k])
                continue;
            Addr addr = op.vector ? op.line().wordAddr(k)
                                  : alignDown(op.addr, wordBytes);
            fail(FailureKind::ReadMismatch, i,
                 std::string(op.vector ? "vector" : "scalar") +
                     " read of word " + std::to_string(addr) +
                     " returned " + std::to_string(rsp.word(k)) +
                     ", reference has " + std::to_string(expected[k]));
            return false;
        }
        return true;
    }

    DesignPoint _design;
    const Scenario &_scenario;
    const OracleOptions &_opts;

    EventQueue _eq;
    stats::StatGroup _sg;

    /** Declared before the CPU so it drops the responses it holds
     *  while the hierarchy's pool is still alive. */
    Hierarchy _hier;
    FuzzCpu _cpu;

    std::uint64_t _steps = 0;
    std::vector<Failure> _failures;
};

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::ReadMismatch: return "read-mismatch";
      case FailureKind::Invariant: return "invariant";
      case FailureKind::DrainLeak: return "drain-leak";
      case FailureKind::FinalState: return "final-state";
      case FailureKind::CrossDesign: return "cross-design";
      case FailureKind::LostResponse: return "lost-response";
      case FailureKind::Deadlock: return "deadlock";
    }
    return "?";
}

std::string
failureText(const Failure &f)
{
    std::string text = std::string(failureKindName(f.kind)) + " [" +
                       designName(f.design) + "]";
    if (f.opIndex != static_cast<std::size_t>(-1))
        text += " at op " + std::to_string(f.opIndex);
    return text + ": " + f.detail;
}

bool
designApplicable(DesignPoint design,
                 const std::vector<TraceOp> &trace)
{
    if (design != DesignPoint::D0_1P1L)
        return true;
    // The baseline has no column transfers; scalar column
    // *preferences* are fine (it coerces them to rows).
    return std::none_of(trace.begin(), trace.end(),
                        [](const TraceOp &op) {
                            return op.vector &&
                                   op.orient == Orientation::Col;
                        });
}

std::uint64_t
writeValue(std::uint64_t seed, std::size_t opIndex, unsigned k)
{
    return Rng::streamSeed(
        seed ^ 0xda7aULL,
        (static_cast<std::uint64_t>(opIndex) << 3) | k);
}

std::size_t
answeredOp(const std::vector<std::uint64_t> &sent,
           std::vector<bool> &answered, std::uint64_t id)
{
    auto k = static_cast<std::size_t>(
        std::find(sent.begin(), sent.end(), id) - sent.begin());
    if (k == sent.size() || answered[k])
        return static_cast<std::size_t>(-1);
    answered[k] = true;
    return k;
}

std::vector<Failure>
runOracle(const Scenario &s, const OracleOptions &opts)
{
    if (s.config.levels.empty())
        fatal("fuzz scenario has no cache levels");
    if (s.trace.empty())
        fatal("fuzz scenario has an empty trace");
    for (DesignPoint d : s.config.designs) {
        if (!designApplicable(d, s.trace)) {
            fatal("design %s cannot express this trace's column "
                  "vector ops", designName(d));
        }
    }

    // Program-order reference pass: final memory image plus the value
    // every read must observe at its issue point. Concurrent batches
    // are read-only, so issue order within a batch cannot matter.
    ReferenceModel ref;
    std::vector<std::vector<std::uint64_t>> expect(s.trace.size());
    std::vector<Addr> touched;
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
        const TraceOp &op = s.trace[i];
        if (op.vector) {
            OrientedLine line = op.line();
            for (unsigned k = 0; k < lineWords; ++k) {
                Addr addr = line.wordAddr(k);
                touched.push_back(addr);
                if (op.write)
                    ref.write(addr, writeValue(s.seed, i, k));
                else
                    expect[i].push_back(ref.read(addr));
            }
        } else {
            Addr addr = alignDown(op.addr, wordBytes);
            touched.push_back(addr);
            if (op.write)
                ref.write(addr, writeValue(s.seed, i, 0));
            else
                expect[i].push_back(ref.read(addr));
        }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());

    std::vector<Failure> failures;
    std::vector<std::pair<DesignPoint, std::vector<std::uint64_t>>>
        images;
    for (DesignPoint d : s.config.designs) {
        DesignRun run(d, s, opts);
        std::vector<std::uint64_t> image;
        // Sampled scenarios interleave the functional path, which
        // moves no payload: the drained data plane is unspecified, so
        // the value checks (readback + cross-design image comparison)
        // are skipped and the run stands on structural checks alone.
        if (run.execute(expect) && s.config.samplePeriod == 0 &&
            run.readback(ref, touched, image))
            images.emplace_back(d, std::move(image));
        failures.insert(failures.end(), run.failures().begin(),
                        run.failures().end());
    }

    // Cross-design agreement of the drained memory images. With every
    // image already checked against the reference this is redundant
    // in theory, but it is the differential guarantee the oracle
    // promises, so check it explicitly.
    for (std::size_t n = 1; n < images.size(); ++n) {
        for (std::size_t w = 0; w < touched.size(); ++w) {
            if (images[n].second[w] == images[0].second[w])
                continue;
            Failure f;
            f.kind = FailureKind::CrossDesign;
            f.design = images[n].first;
            f.detail = "word " + std::to_string(touched[w]) +
                       " drained to " +
                       std::to_string(images[n].second[w]) + " under " +
                       designName(images[n].first) + " but " +
                       std::to_string(images[0].second[w]) + " under " +
                       designName(images[0].first);
            failures.push_back(std::move(f));
            break;
        }
    }
    return failures;
}

} // namespace mda::fuzz
