/**
 * @file
 * Sweep-executor tests: results and archived JSON must not depend on
 * the job count, spec sweeps start their longest streams first,
 * exceptions must propagate deterministically, and a parallel smoke
 * sweep gives ThreadSanitizer builds races to hunt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_common.hh"
#include "harness/sweep.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "workloads/emitters.hh"

namespace mda
{
namespace
{

/** A 12-cell figure-style sweep: 3 workloads x 4 design points. */
std::vector<RunSpec>
twelveCells()
{
    std::vector<RunSpec> cells;
    for (const auto *workload : {"sgemm", "sobel", "htap1"}) {
        for (auto design :
             {DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
              DesignPoint::D1_1P2L_SameSet, DesignPoint::D2_2P2L}) {
            RunSpec spec;
            spec.workload = workload;
            spec.n = 16;
            spec.system.design = design;
            cells.push_back(spec);
        }
    }
    return cells;
}

/** sgemm cells whose streams rank 1, 4, 3, 0, 2 by length: the stream
 *  grows with n, and 1P2L and 2P2L compile alike, so cells 0/2 and
 *  1/4 have equal lengths. */
std::vector<RunSpec>
rankedCells()
{
    const std::pair<std::int64_t, DesignPoint> points[] = {
        {16, DesignPoint::D1_1P2L},
        {32, DesignPoint::D1_1P2L},
        {16, DesignPoint::D2_2P2L},
        {24, DesignPoint::D1_1P2L},
        {32, DesignPoint::D2_2P2L}};
    std::vector<RunSpec> cells;
    for (const auto &[n, design] : points) {
        RunSpec spec;
        spec.n = n;
        spec.system.design = design;
        cells.push_back(spec);
    }
    return cells;
}

const std::vector<std::size_t> rankedOrder{1, 4, 3, 0, 2};

/** Cells whose length cannot be computed: their trace files do not
 *  exist, so asking for a length is fatal. */
std::vector<RunSpec>
unmeasurableCells(std::size_t count)
{
    std::vector<RunSpec> cells(count);
    for (auto &spec : cells) {
        spec.system.traceMode = TraceMode::Replay;
        spec.system.traceDir = testing::TempDir() + "no-such-traces";
    }
    return cells;
}

/**
 * The order in which @p pool starts @p cells; the cells only log
 * their index under a mutex. On more than one worker the first cell
 * to start holds its worker until every other cell has run, so the
 * rest start one at a time on one worker, in dispatch order, and the
 * log cannot race. The held cell comes first in the result.
 */
std::vector<std::size_t>
startOrder(sweep::Executor &pool, const std::vector<RunSpec> &cells)
{
    std::mutex mutex;
    std::condition_variable others_done;
    std::optional<std::size_t> held;
    std::vector<std::size_t> log;
    pool.forEach(cells, [&](std::size_t idx) {
        std::unique_lock<std::mutex> lock(mutex);
        if (pool.jobs() > 1 && !held) {
            held = idx;
            others_done.wait(lock, [&] {
                return log.size() + 1 == cells.size();
            });
            return;
        }
        log.push_back(idx);
        if (log.size() + 1 == cells.size())
            others_done.notify_all();
    });
    if (held)
        log.insert(log.begin(), *held);
    return log;
}

/** @p started came from startOrder() on two workers: its held cell
 *  is one of the first two dispatched, the rest follow in order. */
void
expectTwoWorkerStartOrder(const std::vector<std::size_t> &started,
                          std::vector<std::size_t> dispatched)
{
    ASSERT_EQ(started.size(), dispatched.size());
    auto held = std::find(dispatched.begin(), dispatched.begin() + 2,
                          started.front());
    ASSERT_NE(held, dispatched.begin() + 2)
        << "cell " << started.front() << " started too early";
    dispatched.erase(held);
    EXPECT_EQ(std::vector<std::size_t>(started.begin() + 1,
                                       started.end()),
              dispatched);
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(SweepExecutor, ResolveJobs)
{
    EXPECT_GE(sweep::resolveJobs(0), 1u);
    EXPECT_EQ(sweep::resolveJobs(1), 1u);
    EXPECT_EQ(sweep::resolveJobs(7), 7u);
}

TEST(ParseDecimal, ReadsWholeDecimals)
{
    EXPECT_EQ(sweep::parseDecimal<std::uint64_t>("--x", "0"), 0u);
    EXPECT_EQ(sweep::parseDecimal<std::uint64_t>("--x",
                                                 "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(sweep::parseDecimal<std::int64_t>("--x", "-16"), -16);
    EXPECT_EQ(sweep::parseDecimal<unsigned>("--x", "0042"), 42u);
}

TEST(ParseDecimalDeathTest, AnythingElseIsFatal)
{
    // A suffix, letters, a base prefix, spaces, a sign on an unsigned
    // value, overflow, nothing: each names the flag and the text.
    for (const char *bad : {"2x", "abc", "0x10", " 7", "7 ", "-1",
                            "18446744073709551616", ""}) {
        EXPECT_EXIT(sweep::parseDecimal<std::uint64_t>("--x", bad),
                    ::testing::ExitedWithCode(1),
                    std::string("--x takes a decimal number, got '") +
                        bad + "'")
            << bad;
    }
    EXPECT_EXIT(sweep::parseDecimal<std::int64_t>("--n", "1e3"),
                ::testing::ExitedWithCode(1),
                "--n takes a decimal number, got '1e3'");
}

TEST(SweepExecutor, RunAllPreservesInputOrder)
{
    auto cells = twelveCells();
    auto serial = sweep::runAll(cells, 1);
    auto parallel = sweep::runAll(cells, 8);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        EXPECT_EQ(serial[c].cycles, parallel[c].cycles) << c;
        EXPECT_EQ(serial[c].ops, parallel[c].ops) << c;
        EXPECT_EQ(serial[c].llcAccesses, parallel[c].llcAccesses) << c;
        EXPECT_EQ(serial[c].memBytes, parallel[c].memBytes) << c;
    }
}

TEST(SweepExecutor, StatsJsonBytesIdenticalAcrossJobCounts)
{
    // Twelve cells: jobs 2 and 8 both start them longest first.
    auto cells = twelveCells();
    std::string json1;
    for (unsigned jobs : {1u, 2u, 8u}) {
        std::string path = testing::TempDir() + "sweep_jobs" +
                           std::to_string(jobs) + ".json";
        {
            bench::CellRunner runner(path, jobs);
            runner.warm(cells);
        }
        std::string json = slurp(path);
        std::remove(path.c_str());
        if (jobs == 1) {
            json1 = json;
            ASSERT_FALSE(json1.empty());
        } else {
            EXPECT_EQ(json, json1) << "jobs " << jobs;
        }
    }
}

TEST(SweepExecutor, SpecSweepStartsLongestStreamFirst)
{
    sweep::Executor pool(2);
    auto started = startOrder(pool, rankedCells());
    expectTwoWorkerStartOrder(started, rankedOrder);
}

TEST(SweepExecutor, SpecSweepKeepsInputOrderOnOneWorker)
{
    sweep::Executor one(1);
    EXPECT_EQ(startOrder(one, rankedCells()),
              (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    // No lengths are computed: asking for these would be fatal.
    EXPECT_EQ(startOrder(one, unmeasurableCells(5)),
              (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepExecutor, SpecSweepComputesNoLengthsWhenCellsFitWorkers)
{
    sweep::Executor pool(2);
    // Every cell starts at once, so no order is observable; the
    // fatal length lookup shows none was computed.
    auto started = startOrder(pool, unmeasurableCells(2));
    expectTwoWorkerStartOrder(started, {0, 1});
    sweep::Executor wide(8);
    std::atomic<unsigned> executed{0};
    wide.forEach(unmeasurableCells(8), [&](std::size_t) { ++executed; });
    EXPECT_EQ(executed.load(), 8u);
}

TEST(SweepExecutor, SpecSweepRethrowsLowestInputIndex)
{
    // Started 1, 4, 3, 0, 2: cell 4 fails before cell 0 starts.
    sweep::Executor pool(2);
    auto cells = rankedCells();
    std::atomic<unsigned> executed{0};
    try {
        pool.forEach(cells, [&](std::size_t idx) {
            ++executed;
            if (idx == 0 || idx == 4)
                throw std::runtime_error("cell " +
                                         std::to_string(idx));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "cell 0");
    }
    EXPECT_EQ(executed.load(), cells.size());
}

TEST(SweepExecutor, SizeHintBoundsDrainedStream)
{
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &name : workloads::zooWorkloadNames())
        names.push_back(name);
    unsigned partial_streams = 0;
    for (const auto &name : names) {
        for (auto design : {DesignPoint::D1_1P2L, DesignPoint::D0_1P1L}) {
            for (std::int64_t n : {16, 64}) {
                if (name == "spmv" && n < 32)
                    continue; // Its matrix needs n >= 32.
                RunSpec spec;
                spec.workload = name;
                spec.n = n;
                spec.system.design = design;
                // The stream as PreparedRun builds it.
                auto opts = spec.system.compileOptions();
                auto params = PreparedRun::workloadParams(spec);
                std::optional<compiler::CompiledKernel> kernel;
                std::unique_ptr<trace::TraceSource> src;
                if (workloads::isEmitterWorkload(name)) {
                    src = workloads::makeEmitterSource(name, params,
                                                       opts);
                } else {
                    kernel = compiler::compileKernel(
                        workloads::makeWorkload(name, params), opts);
                    src = std::make_unique<trace::GeneratorSource>(
                        *kernel);
                }
                std::uint64_t hint = src->sizeHint();
                EXPECT_EQ(streamLengthHint(spec), hint);

                std::uint64_t ops = 0, partial = 0;
                compiler::TraceOp op;
                while (src->next(op)) {
                    ++ops;
                    partial += op.isVector && op.wordMask != 0xff;
                }
                std::string where = name + "/" + designName(design) +
                                    "/" + std::to_string(n);
                if (partial == 0)
                    EXPECT_EQ(hint, ops) << where;
                else
                    ++partial_streams;
                EXPECT_LE(hint, ops) << where;
                EXPECT_GE(2 * hint, ops) << where;
            }
        }
    }
    // sobel's MDA stream straddles lines; the bounds are not vacuous.
    EXPECT_GT(partial_streams, 0u);
}

TEST(SweepExecutor, ReplaySizeHintIsHeaderCount)
{
    RunSpec spec;
    spec.workload = "sobel";
    spec.n = 16;
    spec.system.traceDir = testing::TempDir();
    std::string path =
        spec.system.traceDir + "/" +
        trace::traceFileName(spec.workload, spec.n, spec.seed,
                             spec.system.compileOptions());
    std::remove(path.c_str());
    // A capturing cell's length comes from its raw stream: no file.
    spec.system.traceMode = TraceMode::Capture;
    EXPECT_GT(streamLengthHint(spec), 0u);
    EXPECT_FALSE(std::ifstream(path).good());

    auto kernel = compiler::compileKernel(
        workloads::makeWorkload(spec.workload,
                                PreparedRun::workloadParams(spec)),
        spec.system.compileOptions());
    std::uint64_t captured = 0;
    {
        trace::CaptureSource capture(
            std::make_unique<trace::GeneratorSource>(kernel), path);
        compiler::TraceOp op;
        while (capture.next(op))
            ++captured;
    }
    spec.system.traceMode = TraceMode::Replay;
    EXPECT_EQ(streamLengthHint(spec), captured);
    EXPECT_EQ(trace::ReplaySource(path).sizeHint(),
              trace::TraceReader(path).opCount());
    std::remove(path.c_str());
}

TEST(SweepExecutor, WarmedCacheServesReportingLoop)
{
    auto cells = twelveCells();
    bench::CellRunner warmed("", 8);
    warmed.warm(cells);
    bench::CellRunner serial;
    for (const auto &spec : cells) {
        EXPECT_EQ(warmed(spec).cycles, serial(spec).cycles)
            << bench::CellRunner::cellKey(spec);
    }
}

TEST(SweepExecutor, LowestIndexExceptionPropagates)
{
    sweep::Executor pool(4);
    std::atomic<unsigned> executed{0};
    try {
        pool.forEach(64, [&](std::size_t idx) {
            ++executed;
            if (idx == 7 || idx == 31)
                throw std::runtime_error("cell " +
                                         std::to_string(idx));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "cell 7");
    }
    // A failing cell must not cancel the rest of the sweep.
    EXPECT_EQ(executed.load(), 64u);
}

TEST(SweepExecutor, PoolReusableAfterException)
{
    sweep::Executor pool(2);
    EXPECT_THROW(pool.forEach(4,
                              [](std::size_t) {
                                  throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    std::atomic<unsigned> executed{0};
    pool.forEach(8, [&](std::size_t) { ++executed; });
    EXPECT_EQ(executed.load(), 8u);
}

TEST(SweepExecutor, EmptySweepReturnsImmediately)
{
    sweep::Executor pool(4);
    pool.forEach(0, [](std::size_t) { FAIL(); });
}

/** Smoke sweep for sanitizer builds: real simulations on many
 *  workers. Under -DMDA_TSAN=ON this is the race detector's target;
 *  under ASan/UBSan it checks the parallel run path end to end. */
TEST(SweepSmoke, ParallelCellsUnderSanitizers)
{
    auto cells = twelveCells();
    auto results = sweep::runAll(cells, 8);
    for (const auto &result : results)
        EXPECT_GT(result.cycles, 0u);
}

} // namespace
} // namespace mda
