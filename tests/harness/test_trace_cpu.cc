/** @file Tests for the trace-driven CPU model. */

#include <gtest/gtest.h>

#include "compiler/compile.hh"
#include "harness/hierarchy.hh"
#include "harness/trace_cpu.hh"
#include "trace/trace_source.hh"

namespace mda
{
namespace
{

using compiler::AffineExpr;
using compiler::CompileOptions;
using compiler::compileKernel;
using compiler::CompiledKernel;
using compiler::KernelBuilder;

/** for i in [0,count): read A[0][i] scalar (no vectorization). */
CompiledKernel
scalarStream(std::int64_t count, bool write = false)
{
    KernelBuilder b("stream");
    auto arr = b.array("A", 8, std::max<std::int64_t>(count, 8));
    auto nest = b.nest("n");
    auto i = nest.loop("i", 0, count);
    auto &s = nest.stmt(0);
    if (write)
        nest.write(s, arr, 0, AffineExpr::var(i));
    else
        nest.read(s, arr, 0, AffineExpr::var(i));
    CompileOptions opts;
    opts.mdaEnabled = false;
    opts.vectorize = false;
    return compileKernel(b.build(), opts);
}

/** The CPU straight over memory: a hierarchy with no cache levels. */
struct CpuRig
{
    explicit CpuRig(const CompiledKernel &ck, CpuParams params = {})
        : gen(ck), hier(eq, sg, {}),
          cpu("cpu", eq, sg, gen, hier.top(), params)
    {
        hier.attach(cpu);
        // The checker keys its expectations by pool slot, as in a
        // System, so the CPU allocates from a pool.
        cpu.setPacketPool(&hier.pool());
    }

    EventQueue eq;
    stats::StatGroup sg;
    trace::GeneratorSource gen;
    /** Before the CPU, so its in-flight packets die before the
     *  slabs. */
    Hierarchy hier;
    TraceCpu cpu;
};

TEST(TraceCpu, RunsTraceToCompletion)
{
    auto ck = scalarStream(100);
    CpuRig rig(ck);
    rig.cpu.start();
    rig.eq.run();
    EXPECT_TRUE(rig.cpu.done());
    EXPECT_EQ(rig.sg.scalar("cpu.ops"), 100.0);
    EXPECT_EQ(rig.sg.scalar("cpu.readOps"), 100.0);
    EXPECT_GT(rig.cpu.finishTick(), 0u);
}

TEST(TraceCpu, WindowLimitsOutstanding)
{
    // With a window of 1, every access serializes: total time is at
    // least ops x full memory latency. With 16, they overlap.
    auto ck1 = scalarStream(64);
    CpuParams serial;
    serial.maxOutstanding = 1;
    CpuRig rig1(ck1, serial);
    rig1.cpu.start();
    rig1.eq.run();

    auto ck2 = scalarStream(64);
    CpuParams parallel;
    parallel.maxOutstanding = 16;
    CpuRig rig2(ck2, parallel);
    rig2.cpu.start();
    rig2.eq.run();

    EXPECT_LT(rig2.cpu.finishTick(), rig1.cpu.finishTick());
    EXPECT_GT(rig1.sg.scalar("cpu.stallWindowFull"), 0.0);
}

TEST(TraceCpu, ComputeCyclesDelayIssue)
{
    // One read with no compute vs one read preceded by 500 cycles.
    KernelBuilder b("c");
    auto arr = b.array("A", 8, 8);
    auto nest = b.nest("n");
    auto i = nest.loop("i", 0, 1);
    auto &s = nest.stmt(500);
    nest.read(s, arr, 0, AffineExpr::var(i));
    CompileOptions opts;
    opts.mdaEnabled = false;
    auto ck = compileKernel(b.build(), opts);
    CpuRig rig(ck);
    rig.cpu.start();
    rig.eq.run();
    EXPECT_GE(rig.cpu.finishTick(), 500u);
    EXPECT_EQ(rig.sg.scalar("cpu.computeCycles"), 500.0);
}

TEST(TraceCpu, CheckerPassesOnDirectMemory)
{
    // Writes then reads of the same elements through bare memory.
    KernelBuilder b("wr");
    auto arr = b.array("A", 8, 64);
    auto w = b.nest("w");
    auto i = w.loop("i", 0, 64);
    auto &sw = w.stmt(0);
    w.write(sw, arr, 0, AffineExpr::var(i));
    auto r = b.nest("r");
    auto j = r.loop("j", 0, 64);
    auto &sr = r.stmt(0);
    r.read(sr, arr, 0, AffineExpr::var(j));
    CompileOptions opts;
    opts.mdaEnabled = false;
    opts.vectorize = false;
    auto ck = compileKernel(b.build(), opts);
    CpuParams params;
    params.checkData = true;
    CpuRig rig(ck, params);
    rig.cpu.start();
    rig.eq.run();
    EXPECT_TRUE(rig.cpu.done());
    EXPECT_EQ(rig.cpu.checkFailures(), 0u);
    EXPECT_EQ(rig.sg.scalar("cpu.writeOps"), 64.0);
}

TEST(TraceCpu, BackpressureRetryPreservesChecker)
{
    // A long write stream against tiny queues exercises rejects.
    auto ck = scalarStream(2000, /*write=*/true);
    CpuParams params;
    params.checkData = true;
    params.maxOutstanding = 64;
    CpuRig rig(ck, params);
    rig.cpu.start();
    rig.eq.run();
    EXPECT_TRUE(rig.cpu.done());
    EXPECT_EQ(rig.cpu.checkFailures(), 0u);
    EXPECT_EQ(rig.sg.scalar("cpu.ops"), 2000.0);
}

TEST(TraceCpu, CheckerNamesTheFirstMismatch)
{
    // Element 5 of a 16-read stream is overwritten in memory before
    // the run, so only read 5 can disagree with the reference.
    auto ck = scalarStream(16);
    compiler::TraceOp op;
    trace::GeneratorSource probe(ck);
    for (int i = 0; i <= 5; ++i)
        ASSERT_TRUE(probe.next(op));
    CpuParams params;
    params.checkData = true;
    CpuRig rig(ck, params);
    rig.hier.memory().store().writeWord(op.addr, 77);
    rig.cpu.start();
    Tick seen = 0;
    while (rig.eq.step()) {
        if (seen == 0 && rig.cpu.checkFailures() > 0)
            seen = rig.eq.curTick();
    }
    ASSERT_TRUE(rig.cpu.done());
    EXPECT_EQ(rig.cpu.checkFailures(), 1u);
    const auto &m = rig.cpu.firstMismatch();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->pos, 5u);
    EXPECT_EQ(m->tick, seen);
    EXPECT_EQ(m->addr, alignDown(op.addr, wordBytes));
    EXPECT_EQ(m->got, 77u);
    EXPECT_EQ(m->want, 0u);
}

TEST(TraceCpuDeathTest, ReadResponseWithoutCheckerEntryPanics)
{
    auto ck = scalarStream(8);
    CpuParams params;
    params.checkData = true;
    CpuRig rig(ck, params);
    rig.cpu.start();
    ASSERT_TRUE(rig.eq.step()); // first read issued, now in memory
    // A read the CPU never issued: its pool slot has no expectation.
    auto stray = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                    0, 0, &rig.hier.pool());
    stray->makeResponse();
    EXPECT_DEATH(rig.cpu.recvResponse(std::move(stray)),
                 "no live checker entry");
}

TEST(TraceCpuDeathTest, ForeignWriteResponsePanics)
{
    auto ck = scalarStream(8);
    CpuParams params;
    params.checkData = true;
    CpuRig rig(ck, params);
    rig.cpu.start();
    ASSERT_TRUE(rig.eq.step()); // first read issued, now in memory
    // A write the CPU never issued is no more its own than a read.
    auto stray = Packet::makeScalar(MemCmd::Write, 0, Orientation::Row,
                                    0, 0, &rig.hier.pool());
    stray->makeResponse();
    EXPECT_DEATH(rig.cpu.recvResponse(std::move(stray)),
                 "Write response with no live checker entry");
}

TEST(TraceCpuDeathTest, RepeatedReadResponsePanics)
{
    auto ck = scalarStream(8);
    CpuParams params;
    params.checkData = true;
    CpuRig rig(ck, params);
    rig.cpu.start();
    // Step until the first read is answered, with others in flight.
    unsigned most = 0;
    while (rig.cpu.outstanding() >= most) {
        most = std::max(most, rig.cpu.outstanding());
        ASSERT_TRUE(rig.eq.step());
    }
    ASSERT_GT(rig.cpu.outstanding(), 0u);
    // The answered read's packet went back to the pool, which hands
    // its slot out first: the same slot answered a second time.
    auto again = Packet::makeScalar(MemCmd::Read, 0, Orientation::Row,
                                    0, 0, &rig.hier.pool());
    again->makeResponse();
    EXPECT_DEATH(rig.cpu.recvResponse(std::move(again)),
                 "Read response with no live checker entry");
}

} // namespace
} // namespace mda
