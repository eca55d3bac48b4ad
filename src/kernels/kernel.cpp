#include "kernels/kernel.h"

#include <fstream>

#include "util/logging.h"
#include "util/parallel.h"

namespace rtr {

void
addThreadsOption(ArgParser &parser)
{
    parser.addOption("threads", "0",
                     "Worker threads (0 = all hardware threads, "
                     "1 = sequential)");
}

void
applyThreadsOption(const ArgParser &args)
{
    const std::int64_t n = args.getInt("threads");
    if (n < 0)
        fatal("--threads must be >= 0");
    setParallelThreads(static_cast<std::size_t>(n));
}

void
addBatchOption(ArgParser &parser)
{
    parser.addOption("batch", batchEngineName(BatchEngine::Soa),
                     "Rollout engine: soa = SIMD across environments, "
                     "scalar = reference (identical results)");
}

BatchEngine
batchEngineFromArgs(const ArgParser &args)
{
    BatchEngine engine = BatchEngine::Soa;
    const std::string name = args.get("batch");
    if (!parseBatchEngine(name, engine))
        fatal("--batch must be 'soa' or 'scalar', got '", name, "'");
    return engine;
}

void
writeReportFile(const KernelReport &report, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write report file '", path, "'");
    out << "section,key,value\n";
    out << "run,success," << (report.success ? 1 : 0) << "\n";
    out << "run,roi_seconds," << report.roi_seconds << "\n";
    for (const auto &phase : report.profiler.phases()) {
        out << "phase_ns," << phase.name << "," << phase.ns << "\n";
        out << "phase_count," << phase.name << "," << phase.count
            << "\n";
    }
    for (const auto &[key, value] : report.metrics)
        out << "metric," << key << "," << value << "\n";
    for (const auto &[name, series] : report.series) {
        out << "series," << name << ",";
        for (std::size_t i = 0; i < series.size(); ++i) {
            if (i)
                out << ";";
            out << series[i];
        }
        out << "\n";
    }
}

std::string
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Perception:
        return "Perception";
      case Stage::Planning:
        return "Planning";
      case Stage::Control:
        return "Control";
    }
    panic("unknown stage");
}

KernelReport
Kernel::runWithDefaults(const std::vector<std::string> &overrides) const
{
    ArgParser parser(name());
    addOptions(parser);
    parser.parse(overrides);
    return run(parser);
}

} // namespace rtr
