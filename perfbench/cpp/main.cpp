/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   perfbench --workload <table1|rt-loop|service-mix> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-file <path>]
 *             [--source <digest>]
 *   perfbench --selftest
 *
 * Prints a host/build stamp, one line per metric (name, value, unit,
 * sample count), the failed checks, and as its last line one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. An untraced
 * run reports the end-to-end metrics, a traced run the per-layer ones.
 * perfbench/run.py builds this binary and is the command to use.
 */

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "util/simd.h"

namespace {

using namespace perfbench;

/** Environment variables that swap an engine of the program under test. */
const char *const kEngineOverrides[] = {"RTR_RAYCAST", "RTR_NN_ENGINE",
                                        "RTR_BATCH_ENGINE", "RTR_SEARCH",
                                        "RTR_LINALG_SCALAR"};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message << "\n"
              << "usage: perfbench --workload <table1|rt-loop|service-mix> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>] [--source <digest>]\n"
              << "       perfbench --selftest\n";
    std::exit(2);
}

/** Refuse builds and environments whose numbers would not be comparable. */
std::string
guardProblem()
{
#ifndef NDEBUG
    return "refusing to measure a build without NDEBUG (Debug build type '" +
           std::string(PERFBENCH_BUILD_TYPE) + "')";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "refusing to measure a sanitizer build";
#endif
    if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
        std::string::npos)
        return "refusing to measure a sanitizer build";
    for (const char *name : kEngineOverrides) {
        if (std::getenv(name) != nullptr)
            return std::string("refusing to run with ") + name +
                   " set: it swaps an engine of the program under test";
    }
    return "";
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
cacheSize(int level)
{
    for (int index = 0; index < 8; ++index) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                                std::to_string(index) + "/";
        if (readFirstLine(dir + "level") == std::to_string(level) &&
            readFirstLine(dir + "type") != "Instruction")
            return readFirstLine(dir + "size");
    }
    return "unknown";
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Shortest round-trip decimal form of a double. */
std::string
number(double value)
{
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, result.ptr);
}

void
printStamp(const std::string &source)
{
    std::cout << "host: {\"cpu\": " << jsonString(cpuModel())
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"l2\": " << jsonString(cacheSize(2))
              << ", \"l3\": " << jsonString(cacheSize(3))
              << ", \"simd\": " << jsonString(rtr::simd::kBackendName)
              << ", \"simd_width\": " << rtr::simd::VecD::kWidth
              << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
              << ", \"source\": " << jsonString(source) << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string source = "unknown";
    bool selftest = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' &&
                           opt.seconds >= 1.0 && opt.seconds <= 600.0;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (arg == "--trace-file") {
            opt.trace_path = value;
        } else if (arg == "--source") {
            source = value;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (selftest)
        return runSelfTests() == 0 ? 0 : 1;
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (1..600) and --trace (0|1) are required");
    if (const std::string problem = guardProblem(); !problem.empty()) {
        std::cerr << "perfbench: " << problem << "\n";
        return 3;
    }

    printStamp(source);
    std::cout << "workload " << opt.workload << ", seed " << opt.seed
              << ", " << opt.seconds << " s, trace " << opt.trace << "\n";
    Run run(opt);
    if (opt.workload == "table1")
        runTable1(run);
    else if (opt.workload == "rt-loop")
        runRtLoop(run);
    else if (opt.workload == "service-mix")
        runServiceMix(run);
    else
        usage("unknown workload '" + opt.workload + "'");
    if (!run.e2e.find("peak_rss_mb"))
        run.e2e.set("peak_rss_mb", "MB", residentPeakMb(), 1);

    if (opt.trace) {
        const std::map<std::string, double> self = run.tracer.selfNsByLayer();
        const double units =
            static_cast<double>(std::max<std::size_t>(1, run.tracer.units()));
        double self_sum_ms = 0.0;
        for (const auto &[layer, ns] : self) {
            run.layers.set("self." + layer + "_ms", "ms", ns * 1e-6 / units,
                           run.tracer.units());
            self_sum_ms += ns * 1e-6 / units;
        }
        std::cout << "self times per unit of work add up to " << self_sum_ms
                  << " ms against " << run.untraced_unit_ns * 1e-6
                  << " ms untraced (" << run.tracer.units()
                  << " traced units)\n";
        if (!opt.trace_path.empty() && !run.tracer.write(opt.trace_path))
            std::cerr << "perfbench: cannot write " << opt.trace_path << "\n";
    }

    const std::vector<MetricSpec> &specs =
        opt.trace ? perLayerSpecs() : endToEndSpecs();
    const Metrics &source_metrics = opt.trace ? run.layers : run.e2e;
    for (const MetricSpec &spec : specs) {
        const Metric *m = source_metrics.find(spec.name);
        if (m && !std::isfinite(m->value))
            run.ledger.check(false, "metric " + spec.name + " is not finite");
    }
    std::ostringstream json;
    json << "{\"correct\": "
         << (run.ledger.failed() == 0 ? "true" : "false")
         << ", \"attempted\": " << run.ledger.attempted()
         << ", \"failed\": " << run.ledger.failed() << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &spec : specs) {
        const Metric *m = source_metrics.find(spec.name);
        const double value = m && std::isfinite(m->value) ? m->value : 0.0;
        std::cout << "metric " << spec.name << " = " << number(value) << " "
                  << spec.unit << " (n=" << (m ? m->samples : 0) << ")\n";
        json << (first ? "" : ", ") << jsonString(spec.name)
             << ": {\"value\": " << number(value)
             << ", \"unit\": " << jsonString(spec.unit) << "}";
        first = false;
    }
    json << "}}";
    for (const std::string &message : run.ledger.messages())
        std::cout << message << "\n";
    std::cout << "attempted " << run.ledger.attempted() << ", failed "
              << run.ledger.failed() << "\n";
    std::cout << json.str() << std::endl;
    return 0;
}
