#include "runner.hh"

#include "trace/trace_source.hh"
#include "workloads/emitters.hh"

namespace mda
{

namespace
{

/** Compile the workload's loop-nest IR — unless this run replays a
 *  captured trace (no IR needed at all) or the workload is a direct
 *  trace emitter (it has no IR to compile). */
std::optional<compiler::CompiledKernel>
maybeCompile(const RunSpec &spec)
{
    if (spec.system.traceMode == TraceMode::Replay)
        return std::nullopt;
    if (workloads::isEmitterWorkload(spec.workload))
        return std::nullopt;
    return compiler::compileKernel(
        workloads::makeWorkload(spec.workload,
                                PreparedRun::workloadParams(spec)),
        spec.system.compileOptions());
}

/** The spec's trace file within its capture/replay directory. */
std::string
tracePath(const RunSpec &spec)
{
    const SystemConfig &cfg = spec.system;
    if (cfg.traceDir.empty())
        fatal("trace capture/replay requires a trace directory");
    return cfg.traceDir + "/" +
           trace::traceFileName(spec.workload, spec.n, spec.seed,
                                cfg.compileOptions());
}

/** The spec's operation stream without the capture tee: replayed
 *  from its trace file, generated from @p kernel, or synthesized by
 *  a direct emitter. */
std::unique_ptr<trace::TraceSource>
makeSource(const RunSpec &spec,
           const std::optional<compiler::CompiledKernel> &kernel)
{
    if (spec.system.traceMode == TraceMode::Replay)
        return std::make_unique<trace::ReplaySource>(tracePath(spec));
    if (kernel)
        return std::make_unique<trace::GeneratorSource>(*kernel);
    return workloads::makeEmitterSource(
        spec.workload, PreparedRun::workloadParams(spec),
        spec.system.compileOptions());
}

std::unique_ptr<System>
buildSystem(const RunSpec &spec,
            const std::optional<compiler::CompiledKernel> &kernel)
{
    const SystemConfig &cfg = spec.system;
    std::unique_ptr<trace::TraceSource> source = makeSource(spec, kernel);
    if (cfg.traceMode == TraceMode::Capture) {
        source = std::make_unique<trace::CaptureSource>(
            std::move(source), tracePath(spec));
    }

    SystemConfig sys =
        spec.autoScaleCaches ? cfg.scaledForInput(spec.n) : cfg;
    return std::make_unique<System>(sys, std::move(source));
}

} // namespace

PreparedRun::PreparedRun(const RunSpec &spec)
    : kernel(maybeCompile(spec)),
      _system(buildSystem(spec, kernel)),
      system(*_system)
{}

std::uint64_t
streamLengthHint(const RunSpec &spec)
{
    std::optional<compiler::CompiledKernel> kernel = maybeCompile(spec);
    return makeSource(spec, kernel)->sizeHint();
}

} // namespace mda
