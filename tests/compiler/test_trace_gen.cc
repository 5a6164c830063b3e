/** @file Unit + property tests for streaming trace generation. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/access_mix.hh"
#include "compiler/trace_gen.hh"
#include "test_kernels.hh"
#include "workloads/kernels.hh"

namespace mda::compiler
{
namespace
{

std::vector<TraceOp>
drain(const CompiledKernel &ck)
{
    TraceGenerator gen(ck);
    std::vector<TraceOp> ops;
    TraceOp op;
    while (gen.next(op))
        ops.push_back(op);
    return ops;
}

CompileOptions
scalarBaseline()
{
    CompileOptions opts;
    opts.mdaEnabled = false;
    opts.vectorize = false;
    return opts;
}

CompileOptions
mdaVector()
{
    CompileOptions opts;
    opts.mdaEnabled = true;
    opts.vectorize = true;
    return opts;
}

TEST(TraceGen, ScalarCopyExactSequence)
{
    auto ck = compileKernel(testing::miniCopy(4, 4), scalarBaseline());
    auto ops = drain(ck);
    ASSERT_EQ(ops.size(), 32u); // 16 iterations x (read + write)
    const auto &la = ck.layoutOf(0);
    const auto &lb = ck.layoutOf(1);
    std::size_t n = 0;
    for (std::int64_t i = 0; i < 4; ++i) {
        for (std::int64_t j = 0; j < 4; ++j) {
            EXPECT_EQ(ops[n].addr, la.elementAddr(i, j));
            EXPECT_FALSE(ops[n].isWrite);
            EXPECT_FALSE(ops[n].isVector);
            EXPECT_EQ(ops[n].orient, Orientation::Row);
            EXPECT_EQ(ops[n].computeCycles, 1u); // stmt compute
            ++n;
            EXPECT_EQ(ops[n].addr, lb.elementAddr(i, j));
            EXPECT_TRUE(ops[n].isWrite);
            EXPECT_EQ(ops[n].computeCycles, 0u); // attached to first ref
            ++n;
        }
    }
}

TEST(TraceGen, VectorizedCopyRowVectors)
{
    auto ck = compileKernel(testing::miniCopy(16, 16), mdaVector());
    auto ops = drain(ck);
    // 16 rows x 2 vector groups x (read + write).
    ASSERT_EQ(ops.size(), 64u);
    for (const auto &op : ops) {
        EXPECT_TRUE(op.isVector);
        EXPECT_EQ(op.wordMask, 0xff);
        EXPECT_EQ(op.orient, Orientation::Row);
        EXPECT_EQ(op.bytes(), 64u);
        EXPECT_EQ(op.addr % lineBytes, 0u);
    }
}

TEST(TraceGen, ColumnSumEmitsColumnVectors)
{
    auto ck = compileKernel(testing::miniColSum(16, 16), mdaVector());
    auto ops = drain(ck);
    // 16 columns x 2 groups of 8 rows.
    ASSERT_EQ(ops.size(), 32u);
    const auto &layout = ck.layoutOf(0);
    std::size_t n = 0;
    for (std::int64_t j = 0; j < 16; ++j) {
        for (std::int64_t i0 = 0; i0 < 16; i0 += 8) {
            EXPECT_EQ(ops[n].orient, Orientation::Col);
            EXPECT_TRUE(ops[n].isVector);
            EXPECT_EQ(ops[n].wordMask, 0xff);
            auto line = OrientedLine::containing(
                layout.elementAddr(i0, j), Orientation::Col);
            EXPECT_EQ(ops[n].addr, line.baseAddr());
            ++n;
        }
    }
}

TEST(TraceGen, RemainderFallsBackToScalar)
{
    auto ck = compileKernel(testing::miniCopy(4, 10), mdaVector());
    auto ops = drain(ck);
    // Per row: 1 vector group (j=0..7) x 2 ops + 2 scalar j x 2 ops.
    ASSERT_EQ(ops.size(), 4u * (2 + 4));
    unsigned vec = 0, scalar = 0;
    for (const auto &op : ops)
        (op.isVector ? vec : scalar)++;
    EXPECT_EQ(vec, 8u);
    EXPECT_EQ(scalar, 16u);
}

TEST(TraceGen, UnalignedVectorSplitsAcrossLines)
{
    // for j in [0,8): read A[0][j+4] -- lanes cover columns 4..11.
    KernelBuilder b("unaligned");
    auto arr = b.array("A", 16, 16);
    auto nest = b.nest("n");
    auto j = nest.loop("j", 0, 8);
    auto &s = nest.stmt();
    nest.read(s, arr, 0, AffineExpr::var(j).plusConst(4));
    auto ck = compileKernel(b.build(), mdaVector());
    auto ops = drain(ck);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].wordMask, 0xf0); // words 4..7 of first line
    EXPECT_EQ(ops[1].wordMask, 0x0f); // words 0..3 of second line
    EXPECT_EQ(ops[0].bytes() + ops[1].bytes(), 64u);
    EXPECT_NE(ops[0].addr, ops[1].addr);
}

TEST(TraceGen, TriangularBounds)
{
    // for i in [0,4): for j in [0,i+1): read A[i][j].
    KernelBuilder b("tri");
    auto arr = b.array("A", 8, 8);
    auto nest = b.nest("n");
    auto i = nest.loop("i", 0, 4);
    auto j = nest.loop("j", 0, AffineExpr::var(i).plusConst(1));
    auto &s = nest.stmt();
    nest.read(s, arr, AffineExpr::var(i), AffineExpr::var(j));
    auto ck = compileKernel(b.build(), scalarBaseline());
    auto ops = drain(ck);
    EXPECT_EQ(ops.size(), 10u); // 1+2+3+4
}

TEST(TraceGen, ZeroTripInnerLoopSkipsBody)
{
    // for i in [0,3): for j in [0,i): read A[i][j]  => 0+1+2 = 3 ops.
    KernelBuilder b("zt");
    auto arr = b.array("A", 8, 8);
    auto nest = b.nest("n");
    auto i = nest.loop("i", 0, 3);
    auto j = nest.loop("j", 0, AffineExpr::var(i));
    auto &s = nest.stmt();
    nest.read(s, arr, AffineExpr::var(i), AffineExpr::var(j));
    auto ck = compileKernel(b.build(), scalarBaseline());
    EXPECT_EQ(drain(ck).size(), 3u);
}

TEST(TraceGen, ValuesLoopIteratesInOrder)
{
    KernelBuilder b("vals");
    auto arr = b.array("A", 32, 8);
    auto nest = b.nest("n");
    auto t = nest.loopOver("t", {5, 2, 7});
    auto &s = nest.stmt();
    nest.read(s, arr, AffineExpr::var(t), 0);
    auto ck = compileKernel(b.build(), scalarBaseline());
    auto ops = drain(ck);
    ASSERT_EQ(ops.size(), 3u);
    const auto &layout = ck.layoutOf(0);
    EXPECT_EQ(ops[0].addr, layout.elementAddr(5, 0));
    EXPECT_EQ(ops[1].addr, layout.elementAddr(2, 0));
    EXPECT_EQ(ops[2].addr, layout.elementAddr(7, 0));
}

TEST(TraceGen, GemmPrePostOrdering)
{
    auto ck = compileKernel(testing::miniGemm(8), scalarBaseline());
    auto ops = drain(ck);
    // Per (i,j): 8 x (A read, B read) then one C write.
    ASSERT_EQ(ops.size(), 8u * 8 * (8 * 2 + 1));
    // First 16 ops are reads, the 17th is the C store.
    for (unsigned n = 0; n < 16; ++n)
        EXPECT_FALSE(ops[n].isWrite);
    EXPECT_TRUE(ops[16].isWrite);
    EXPECT_EQ(ops[16].addr, ck.layoutOf(2).elementAddr(0, 0));
    // Baseline marks everything row.
    for (const auto &op : ops)
        EXPECT_EQ(op.orient, Orientation::Row);
}

TEST(TraceGen, GemmMdaVectorized)
{
    auto ck = compileKernel(testing::miniGemm(8), mdaVector());
    auto ops = drain(ck);
    // Per (i,j): one A row-vector + one B col-vector + scalar C store.
    ASSERT_EQ(ops.size(), 8u * 8 * 3);
    EXPECT_TRUE(ops[0].isVector);
    EXPECT_EQ(ops[0].orient, Orientation::Row);
    EXPECT_TRUE(ops[1].isVector);
    EXPECT_EQ(ops[1].orient, Orientation::Col);
    EXPECT_FALSE(ops[2].isVector);
    EXPECT_TRUE(ops[2].isWrite);
}

TEST(TraceGen, ComputeOnlyStmtCarriesToNextOp)
{
    // for i: {compute(5)} then {read}.
    KernelBuilder b("compute");
    auto arr = b.array("A", 8, 8);
    auto nest = b.nest("n");
    auto i = nest.loop("i", 0, 2);
    nest.stmt(5); // no refs: pure compute
    auto &s = nest.stmt(2);
    nest.read(s, arr, AffineExpr::var(i), 0);
    auto ck = compileKernel(b.build(), scalarBaseline());
    auto ops = drain(ck);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].computeCycles, 7u); // 5 + 2 accumulated
    EXPECT_EQ(ops[1].computeCycles, 7u);
}

TEST(TraceGen, VectorRunCarriesTrailingCompute)
{
    // for i: for j: {read A[i][j]; compute 2} {compute 5}, four full
    // vector groups per row: each group after the first starts with
    // the 5 cycles the group before left pending.
    KernelBuilder b("carry");
    auto arr = b.array("A", 2, 32);
    auto nest = b.nest("n");
    auto i = nest.loop("i", 0, 2);
    auto j = nest.loop("j", 0, 32);
    auto &s = nest.stmt(2);
    nest.read(s, arr, AffineExpr::var(i), AffineExpr::var(j));
    nest.stmt(5);
    auto ck = compileKernel(b.build(), mdaVector());
    auto ops = drain(ck);
    ASSERT_EQ(ops.size(), 8u);
    EXPECT_EQ(ops[0].computeCycles, 2u);
    for (std::size_t n = 1; n < ops.size(); ++n)
        EXPECT_EQ(ops[n].computeCycles, 7u) << "op " << n;
}

TEST(TraceGen, ResetReproducesIdenticalStream)
{
    auto ck = compileKernel(testing::miniGemm(6), mdaVector());
    TraceGenerator gen(ck);
    std::vector<TraceOp> first, second;
    TraceOp op;
    while (gen.next(op))
        first.push_back(op);
    gen.reset();
    EXPECT_EQ(gen.opsEmitted(), 0u);
    while (gen.next(op))
        second.push_back(op);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t n = 0; n < first.size(); ++n) {
        EXPECT_EQ(first[n].addr, second[n].addr);
        EXPECT_EQ(first[n].wordMask, second[n].wordMask);
        EXPECT_EQ(first[n].isWrite, second[n].isWrite);
    }
}

TEST(TraceGen, MultipleNestsRunInSequence)
{
    KernelBuilder b("seq");
    auto arr = b.array("A", 8, 8);
    auto n1 = b.nest("first");
    auto i1 = n1.loop("i", 0, 2);
    auto &s1 = n1.stmt();
    n1.read(s1, arr, AffineExpr::var(i1), 0);
    auto n2 = b.nest("second");
    auto i2 = n2.loop("i", 0, 3);
    auto &s2 = n2.stmt();
    n2.write(s2, arr, AffineExpr::var(i2), 1);
    auto ck = compileKernel(b.build(), scalarBaseline());
    auto ops = drain(ck);
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_FALSE(ops[0].isWrite);
    EXPECT_FALSE(ops[1].isWrite);
    EXPECT_TRUE(ops[2].isWrite);
}

/** Property: scalar and vector compilations touch the same words the
 *  same number of times (vectorization only changes packaging). */
TEST(TraceGen, PropertyVectorizationPreservesTouchedWords)
{
    Kernel k1 = testing::miniGemm(16);
    Kernel k2 = testing::miniGemm(16);
    CompileOptions scalar_mda = mdaVector();
    scalar_mda.vectorize = false;
    auto ck_scalar = compileKernel(std::move(k1), scalar_mda);
    auto ck_vector = compileKernel(std::move(k2), mdaVector());

    auto count_words = [](const CompiledKernel &ck) {
        std::map<Addr, std::uint64_t> words;
        TraceGenerator gen(ck);
        TraceOp op;
        while (gen.next(op)) {
            if (!op.isVector) {
                words[op.addr]++;
            } else {
                auto line = OrientedLine::containing(op.addr, op.orient);
                for (unsigned w = 0; w < lineWords; ++w)
                    if (op.wordMask & (1u << w))
                        words[line.wordAddr(w)]++;
            }
        }
        return words;
    };
    EXPECT_EQ(count_words(ck_scalar), count_words(ck_vector));
}

TEST(TraceGen, AccessMixGemm)
{
    auto ck = compileKernel(testing::miniGemm(32), mdaVector());
    auto mix = measureAccessMix(ck);
    // A: row vector; B: col vector; C store: row scalar.
    EXPECT_GT(mix.rowVector, 0u);
    EXPECT_GT(mix.colVector, 0u);
    EXPECT_GT(mix.rowScalar, 0u);
    EXPECT_EQ(mix.colScalar, 0u);
    // A and B move the same volume.
    EXPECT_EQ(mix.rowVector, mix.colVector);
    // Total volume: 32^3 * 8 bytes * 2 reads + 32^2 * 8 stores.
    EXPECT_EQ(mix.total(),
              2u * 32 * 32 * 32 * 8 + 32u * 32 * 8);
}

/** How a golden stream is compiled. */
enum class GoldenMode : std::uint8_t
{
    Baseline,    ///< 1P1L: row annotations, row-only vectors.
    Mda,         ///< MDA: tiled layout, column vectors.
    MdaRowMajor, ///< MDA annotations on a row-major layout.
    /** MdaRowMajor with every row-wise reference annotated Col: its
     *  vector groups are column lines stepped 64 B apart, which do
     *  not keep their line grouping from group to group. */
    MdaRowMajorColRows,
};

struct GoldenStream
{
    const char *workload;
    GoldenMode mode;
    std::int64_t n;
    std::uint64_t ops;
    std::uint64_t digest;
};

CompiledKernel
compileGolden(const std::string &workload, GoldenMode mode,
              std::int64_t n)
{
    workloads::WorkloadParams params;
    params.n = n;
    CompileOptions opts;
    opts.mdaEnabled = (mode != GoldenMode::Baseline);
    opts.vectorize = true;
    if (mode == GoldenMode::MdaRowMajor ||
        mode == GoldenMode::MdaRowMajorColRows)
        opts.layoutOverride = LayoutKind::RowMajor1D;
    CompiledKernel ck =
        compileKernel(workloads::makeWorkload(workload, params), opts);
    if (mode == GoldenMode::MdaRowMajorColRows) {
        for (const auto &[ref, dir] : ck.directions.byRef)
            if (dir == AccessDirection::RowWise)
                ck.annotationOverrides[ref] = Orientation::Col;
    }
    return ck;
}

/** FNV-1a over every field of every op, then the op count. */
std::uint64_t
fnv(std::uint64_t h, std::uint64_t v, unsigned bytes)
{
    for (unsigned b = 0; b < bytes; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::pair<std::uint64_t, std::uint64_t>
streamDigest(const CompiledKernel &ck)
{
    TraceGenerator gen(ck);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::uint64_t ops = 0;
    TraceOp op;
    while (gen.next(op)) {
        h = fnv(h, op.addr, 8);
        h = fnv(h, static_cast<unsigned>(op.orient), 1);
        h = fnv(h, op.isWrite, 1);
        h = fnv(h, op.isVector, 1);
        h = fnv(h, op.wordMask, 1);
        h = fnv(h, op.pc, 4);
        h = fnv(h, op.computeCycles, 4);
        ++ops;
    }
    return {ops, fnv(h, ops, 8)};
}

/**
 * Golden op streams: the digest of every field of every op, and the op
 * count, for each IR workload in both compile modes. They were recorded
 * from the group-at-a-time walk, so they pin the vector runs to it.
 * n = 61 leaves scalar remainders and vector groups that straddle
 * tiles; n = 64 is aligned.
 * The row-major MDA streams take the per-group path: sgemm and sobel
 * have no vector body there, and the column-annotated row walks step
 * their column lines 64 B apart, which would regroup their words.
 */
const GoldenStream goldenStreams[] = {
    {"sgemm", GoldenMode::Baseline, 61, 457683u, 0xa7b4def53c86090cULL},
    {"sgemm", GoldenMode::Baseline, 64, 528384u, 0xa25f05159f60124dULL},
    {"sgemm", GoldenMode::Mda, 61, 93025u, 0x98b596e00e01b9e5ULL},
    {"sgemm", GoldenMode::Mda, 64, 69632u, 0x075c3845ae2e8bdcULL},
    {"ssyr2k", GoldenMode::Baseline, 61, 916830u, 0x7c16d8c92c2eddf4ULL},
    {"ssyr2k", GoldenMode::Baseline, 64, 1057792u, 0x74ea9d579fd49749ULL},
    {"ssyr2k", GoldenMode::Mda, 61, 187514u, 0xfff3587903a62bb4ULL},
    {"ssyr2k", GoldenMode::Mda, 64, 140288u, 0x61d20742c7d88d2bULL},
    {"ssyrk", GoldenMode::Baseline, 61, 238986u, 0x66ea82ebb3c8b20aULL},
    {"ssyrk", GoldenMode::Baseline, 64, 275344u, 0xcf13bd964b6bbb60ULL},
    {"ssyrk", GoldenMode::Mda, 61, 50826u, 0xe8b7901cdf3ea07aULL},
    {"ssyrk", GoldenMode::Mda, 64, 39248u, 0x66396f3e076184d2ULL},
    {"strmm", GoldenMode::Baseline, 61, 234423u, 0x4b4c639f9b6c7429ULL},
    {"strmm", GoldenMode::Baseline, 64, 270336u, 0xac3772b6e40de441ULL},
    {"strmm", GoldenMode::Mda, 61, 55083u, 0x57e3280ca74457ddULL},
    {"strmm", GoldenMode::Mda, 64, 62464u, 0x6ee43120e6827ec9ULL},
    {"sobel", GoldenMode::Baseline, 61, 31329u, 0xe3a88ed59e91a96dULL},
    {"sobel", GoldenMode::Baseline, 64, 34596u, 0x18b17ae289ae8224ULL},
    {"sobel", GoldenMode::Mda, 61, 7788u, 0x1ed35f5b8b242cd1ULL},
    {"sobel", GoldenMode::Mda, 64, 9858u, 0xa62ddd0fecafff9bULL},
    {"htap1", GoldenMode::Baseline, 61, 4270u, 0x1c1fd7d9d5f4e6f3ULL},
    {"htap1", GoldenMode::Baseline, 64, 4736u, 0x017bd7235e978f07ULL},
    {"htap1", GoldenMode::Mda, 61, 2800u, 0x783a89b42afbe8adULL},
    {"htap1", GoldenMode::Mda, 64, 2944u, 0x8d5b93045829bb5cULL},
    {"htap2", GoldenMode::Baseline, 61, 5124u, 0xb71312a63bb88569ULL},
    {"htap2", GoldenMode::Baseline, 64, 5632u, 0xc204659d9897fcefULL},
    {"htap2", GoldenMode::Mda, 61, 5124u, 0x3e9beee53fac75edULL},
    {"htap2", GoldenMode::Mda, 64, 5408u, 0x0ee897ebe367b3deULL},
    {"kv", GoldenMode::Baseline, 61, 1952u, 0x210ee35179664520ULL},
    {"kv", GoldenMode::Baseline, 64, 2048u, 0x775b7854114fbae5ULL},
    {"kv", GoldenMode::Mda, 61, 1952u, 0xa63f6d3a90fa1a7cULL},
    {"kv", GoldenMode::Mda, 64, 2048u, 0x07f68fe409daedc9ULL},
    {"stream", GoldenMode::Baseline, 61, 5124u, 0x95469f994df7869dULL},
    {"stream", GoldenMode::Baseline, 64, 4352u, 0x122d38de36e7c37aULL},
    {"stream", GoldenMode::Mda, 61, 3444u, 0x6a40b93a7b0e516aULL},
    {"stream", GoldenMode::Mda, 64, 2560u, 0x2e34ce105dbeef57ULL},
    {"sgemm", GoldenMode::MdaRowMajor, 61, 457683u, 0x709eecfe9b311c1dULL},
    {"sgemm", GoldenMode::MdaRowMajor, 64, 528384u, 0x584d161de59a484dULL},
    {"sobel", GoldenMode::MdaRowMajor, 61, 31329u, 0x83ba9b62399ae504ULL},
    {"sobel", GoldenMode::MdaRowMajor, 64, 34596u, 0xfce0abe7aae62b10ULL},
    {"ssyr2k", GoldenMode::MdaRowMajorColRows, 61, 922808u,
     0x0cbd637d203f1f2aULL},
    {"ssyr2k", GoldenMode::MdaRowMajorColRows, 64, 1064960u,
     0xb20140d555d2c295ULL},
    {"stream", GoldenMode::MdaRowMajorColRows, 61, 17080u,
     0x65930378803faaf7ULL},
    {"stream", GoldenMode::MdaRowMajorColRows, 64, 18688u,
     0xf3e00b6894cf73d2ULL},
};

TEST(TraceGen, GoldenOpStreamDigests)
{
    const char *mode_names[] = {"Baseline", "Mda", "MdaRowMajor",
                                "MdaRowMajorColRows"};
    for (const GoldenStream &g : goldenStreams) {
        SCOPED_TRACE(std::string(g.workload) + " " +
                     mode_names[static_cast<int>(g.mode)] + " n=" +
                     std::to_string(g.n));
        auto [ops, digest] =
            streamDigest(compileGolden(g.workload, g.mode, g.n));
        EXPECT_EQ(ops, g.ops);
        EXPECT_EQ(digest, g.digest);
    }
}

} // namespace
} // namespace mda::compiler
