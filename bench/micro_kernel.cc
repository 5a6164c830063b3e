/**
 * @file
 * Simulation-kernel throughput microbenchmark: raw EventQueue
 * events/sec and Packet allocation packets/sec (pooled vs heap), and
 * the functional-warming path of sampled runs: the trace generator's
 * drain rate, TraceCpu::fastForward ops/sec (the synchronous walk) and
 * Hierarchy::fastForward ops/sec (the level pipeline sampled runs
 * use).
 *
 * The figure benches measure end-to-end wall clock, which folds cache
 * model work into every number; this binary isolates the two kernel
 * hot paths the zero-alloc overhaul targets, and the stages of
 * fast-forward, so regressions in any of them are visible directly.
 * CI gates the rates against a committed baseline and archives the
 * JSON next to the bench trajectories.
 *
 * Unlike the figure and ablation benches, the JSON here carries
 * wall-clock rates and is NOT byte-stable across runs — it is a
 * trajectory artifact, not a determinism artifact.
 *
 * Usage:
 *   micro_kernel [--events N] [--packets N] [--quick]
 *                [--stats-json FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "compiler/trace_gen.hh"
#include "harness/runner.hh"
#include "sim/event_queue.hh"
#include "sim/packet.hh"
#include "sim/packet_pool.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace mda;

struct Measurement
{
    std::uint64_t count = 0;
    double seconds = 0.0;

    double rate() const { return count / seconds; }
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * The simulator's scheduling mix: roughly 80% of events land in the
 * same-tick buckets (retry storms, issue chains), 20% in the heap
 * (latencies). A self-rescheduling chain keeps the queue primed
 * without unbounded growth.
 */
Measurement
runEventMix(std::uint64_t target)
{
    EventQueue eq;
    std::uint64_t executed = 0;

    // 8 chains, each: 4 same-tick hops then one +3-tick heap hop.
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *executed;
        std::uint64_t target;
        unsigned phase = 0;

        void
        operator()()
        {
            ++*executed;
            if (*executed >= target)
                return;
            Chain next = *this;
            next.phase = (phase + 1) % 5;
            if (next.phase == 0)
                eq->scheduleAfter(3, next);
            else
                eq->scheduleAfter(0, next,
                                  EventPriority::Response);
        }
    };

    const double t0 = now();
    for (unsigned c = 0; c < 8; ++c)
        eq.scheduleAfter(c + 1, Chain{&eq, &executed, target});
    eq.run();
    const double t1 = now();
    return {executed, t1 - t0};
}

/** Pure-heap ordering load: every event goes through the 4-ary heap
 *  with a spread of future ticks, no same-tick fast path. */
Measurement
runEventHeap(std::uint64_t target)
{
    EventQueue eq;
    std::uint64_t executed = 0;

    struct Hop
    {
        EventQueue *eq;
        std::uint64_t *executed;
        std::uint64_t target;
        std::uint64_t stride;

        void
        operator()()
        {
            ++*executed;
            if (*executed >= target)
                return;
            // Varied deltas keep the heap a few levels deep.
            eq->scheduleAfter(1 + (stride & 63), *this);
        }
    };

    const double t0 = now();
    for (unsigned c = 0; c < 32; ++c)
        eq.scheduleAfter(c + 1,
                         Hop{&eq, &executed, target, c * 2654435761u});
    eq.run();
    const double t1 = now();
    return {executed, t1 - t0};
}

/**
 * Packet churn with a bounded working set, as the simulator sees it:
 * a window of outstanding packets, oldest released as new ones are
 * made. @p pool selects pooled or heap allocation.
 */
Measurement
runPacketChurn(std::uint64_t target, PacketPool *pool)
{
    constexpr std::size_t window = 64;
    PacketPtr outstanding[window];

    const double t0 = now();
    for (std::uint64_t n = 0; n < target; ++n) {
        // Releases the window's previous occupant, if any.
        outstanding[n % window] = Packet::makeScalar(
            MemCmd::Read, n * wordBytes, Orientation::Row, 0, 0,
            pool);
    }
    for (auto &pkt : outstanding)
        pkt.reset();
    const double t1 = now();
    return {target, t1 - t0};
}

/** Trace-generator drain: every op of sgemm compiled for MDA at
 *  n = 256, pulled one by one as TraceCpu pulls them (compilation is
 *  not timed). */
Measurement
runGeneratorDrain()
{
    workloads::WorkloadParams params;
    params.n = 256;
    compiler::CompiledKernel ck = compiler::compileKernel(
        workloads::makeWorkload("sgemm", params),
        compiler::CompileOptions{});
    compiler::TraceGenerator gen(ck);
    compiler::TraceOp op;
    std::uint64_t ops = 0;
    Addr fold = 0;

    const double t0 = now();
    while (gen.next(op)) {
        ++ops;
        fold ^= op.addr;
    }
    const double t1 = now();
    // Keep the ops' contents live: the copy out of next() is part of
    // the drain a consumer pays for.
    volatile Addr sink = fold;
    (void)sink;
    return {ops, t1 - t0};
}

/**
 * Fast-forward of @p target ops of sgemm compiled for MDA at n = 512
 * through the unscaled Table I 1P2L hierarchy, generation included:
 * the warming of a paper-scale sampled run. The first million ops
 * warm the hierarchy untimed (about 15 passes over B, which fits in
 * no level), so the rate is a steady state's, not a cold start's.
 *
 * Synchronous: one TraceCpu::fastForward call, the walk itself.
 * Pipelined: Hierarchy::fastForward, as System::runSampled calls it,
 * in the stretches of a 100000-op period with 1000-op windows, so
 * each stretch's closing barrier is in the rate too.
 */
Measurement
runFastForward(std::uint64_t target, bool pipelined)
{
    RunSpec spec;
    spec.workload = "sgemm";
    spec.n = 512;
    spec.system.design = DesignPoint::D1_1P2L;
    spec.autoScaleCaches = false;
    PreparedRun run(spec);
    Hierarchy &hier = run.system.hierarchy();
    TraceCpu &cpu = run.system.cpu();
    constexpr std::uint64_t stretch = 100'000 - 2 * 1'000;
    auto forward = [&](std::uint64_t ops) {
        if (!pipelined)
            return cpu.fastForward(ops);
        std::uint64_t applied = 0;
        while (applied < ops) {
            std::uint64_t n =
                hier.fastForward(cpu, std::min(stretch, ops - applied));
            if (n == 0)
                break;
            applied += n;
        }
        return applied;
    };
    forward(1'000'000);

    const double t0 = now();
    std::uint64_t applied = forward(target);
    const double t1 = now();
    hier.endWarming();
    return {applied, t1 - t0};
}

void
printMeasurement(const char *label, const Measurement &m)
{
    std::cout << "  " << label << ": " << m.count << " ops in "
              << m.seconds << " s = " << static_cast<std::uint64_t>(
                     m.rate())
              << " ops/s\n";
}

void
jsonMeasurement(std::ostream &os, const char *key,
                const Measurement &m, bool last = false)
{
    os << "    \"" << key << "\": {\"count\": " << m.count
       << ", \"ratePerSec\": " << static_cast<std::uint64_t>(m.rate())
       << ", \"seconds\": " << m.seconds << "}" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t event_target = 20'000'000;
    std::uint64_t packet_target = 10'000'000;
    std::uint64_t warming_target = 4'000'000;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--events") == 0) {
            event_target = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--packets") == 0) {
            packet_target = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--quick") == 0) {
            event_target = 2'000'000;
            packet_target = 1'000'000;
            warming_target = 1'000'000;
        } else if (std::strcmp(arg, "--stats-json") == 0) {
            json_path = next();
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 1;
        }
    }

    std::cout << "event queue (" << event_target << " events):\n";
    Measurement ev_mixed = runEventMix(event_target);
    printMeasurement("mixed 80/20 bucket/heap", ev_mixed);
    Measurement ev_heap = runEventHeap(event_target);
    printMeasurement("heap only", ev_heap);

    std::cout << "packet allocation (" << packet_target
              << " packets, window 64):\n";
    Measurement pkt_heap = runPacketChurn(packet_target, nullptr);
    printMeasurement("heap", pkt_heap);
    PacketPool pool;
    Measurement pkt_pooled = runPacketChurn(packet_target, &pool);
    printMeasurement("pooled", pkt_pooled);
    std::cout << "  pool speedup: "
              << pkt_pooled.rate() / pkt_heap.rate() << "x ("
              << pool.recycled() << " recycled, " << pool.allocated()
              << " slab-fresh)\n";

    std::cout << "functional warming (sgemm MDA):\n";
    Measurement drain = runGeneratorDrain();
    printMeasurement("generator drain, n=256", drain);
    Measurement ff = runFastForward(warming_target, false);
    printMeasurement("fastForward, n=512, Table I 1P2L", ff);
    Measurement piped = runFastForward(warming_target, true);
    printMeasurement("pipelined fastForward, same", piped);

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        // Keys sorted at every level, matching the repo's JSON
        // convention (values here are rates, not deterministic).
        os << "{\n  \"events\": {\n";
        jsonMeasurement(os, "heap", ev_heap);
        jsonMeasurement(os, "mixed", ev_mixed, true);
        os << "  },\n  \"packets\": {\n";
        jsonMeasurement(os, "heap", pkt_heap);
        jsonMeasurement(os, "pooled", pkt_pooled, true);
        os << "  },\n  \"pool\": {\"recycled\": " << pool.recycled()
           << ", \"slabFresh\": " << pool.allocated()
           << ", \"speedup\": "
           << pkt_pooled.rate() / pkt_heap.rate() << "},\n";
        os << "  \"warming\": {\n";
        jsonMeasurement(os, "drain", drain);
        jsonMeasurement(os, "fastForward", ff);
        jsonMeasurement(os, "pipelined", piped, true);
        os << "  }\n}\n";
    }
    return 0;
}
