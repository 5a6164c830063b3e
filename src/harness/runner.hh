/**
 * @file
 * One-call experiment running: workload name + input size + system
 * config -> compiled kernel (or trace source), simulated system,
 * distilled results.
 */

#ifndef MDA_HARNESS_RUNNER_HH
#define MDA_HARNESS_RUNNER_HH

#include <memory>
#include <optional>
#include <string>

#include "system.hh"
#include "workloads/kernels.hh"

namespace mda
{

/** Everything needed for one simulation run. */
struct RunSpec
{
    std::string workload = "sgemm";

    /** Input dimension (paper: 256 or 512; benches default smaller). */
    std::int64_t n = 128;

    std::uint64_t seed = 0xc0ffee;

    SystemConfig system;

    /** Scale cache capacities with n to preserve the paper's
     *  working-set : capacity ratios (see SystemConfig). */
    bool autoScaleCaches = true;
};

/**
 * An operation stream and the system built around it.
 *
 * The stream is picked by SystemConfig::traceMode and the workload
 * kind: IR workloads compile to a kernel and generate live (optionally
 * teed into a trace file), direct-emitter workloads synthesize their
 * stream without the compiler, and replay skips both — kernel
 * compilation and loop-nest walking — by reading the captured file.
 */
class PreparedRun
{
  public:
    explicit PreparedRun(const RunSpec &spec);

    static workloads::WorkloadParams
    workloadParams(const RunSpec &spec)
    {
        workloads::WorkloadParams params;
        params.n = spec.n;
        params.seed = spec.seed;
        return params;
    }

    /** Engaged for live IR workloads; empty on replay and for direct
     *  emitters. */
    std::optional<compiler::CompiledKernel> kernel;

  private:
    std::unique_ptr<System> _system;

  public:
    System &system;
};

/**
 * Operations in @p spec's stream, found without producing it (see
 * trace::TraceSource::sizeHint). Compiles the kernel and builds the
 * stream as PreparedRun does, minus the capture tee: it builds no
 * System and writes no trace file.
 */
std::uint64_t streamLengthHint(const RunSpec &spec);

/** Compile, build, run, distill. */
inline RunResult
runOne(const RunSpec &spec)
{
    PreparedRun run(spec);
    return run.system.run();
}

} // namespace mda

#endif // MDA_HARNESS_RUNNER_HH
