#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <fstream>
#include <string>
#include <numeric>

#include "kernels/registry.h"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** A "<key>: <n> kB" line of /proc/self/status, in MiB. */
double
statusMb(const std::string &key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key, 0) == 0)
            return std::stod(line.substr(key.size())) / 1024.0;
    }
    return 0.0;
}

} // namespace

double
residentMb()
{
    return statusMb("VmRSS:");
}

double
residentPeakMb()
{
    return statusMb("VmHWM:");
}

bool
resetResidentPeak()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t n = values.size();
    std::sort(values.begin(), values.end());
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::optional<double>
quantile(std::vector<double> values, double q)
{
    const std::size_t n = values.size();
    if (n == 0 || !(q > 0.0 && q < 1.0))
        return std::nullopt;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (n - 1 - index < kMinBeyond)
        return std::nullopt;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double
quietWindowMedian(const std::vector<double> &samples)
{
    const std::size_t per_window = samples.size() / kQuietWindows;
    if (per_window < 12)
        return median(samples);
    std::vector<double> medians;
    for (std::size_t w = 0; w < kQuietWindows; ++w) {
        const auto first = samples.begin() +
                           static_cast<std::ptrdiff_t>(w * per_window);
        medians.push_back(median(std::vector<double>(
            first, first + static_cast<std::ptrdiff_t>(per_window))));
    }
    std::sort(medians.begin(), medians.end());
    return medians[(kQuietWindows - 1) / 4];
}

double
deckFigure(const std::vector<std::vector<double>> &per_deck)
{
    std::vector<double> minima;
    for (const std::vector<double> &samples : per_deck) {
        if (!samples.empty())
            minima.push_back(*std::min_element(samples.begin(), samples.end()));
    }
    return median(minima);
}

std::optional<Tail>
tail(std::vector<double> values)
{
    for (double q : {0.999, 0.995, 0.99, 0.95, 0.90, 0.75}) {
        if (auto v = quantile(values, q))
            return Tail{*v, q};
    }
    return std::nullopt;
}

namespace {

std::vector<MetricSpec>
makePerLayerSpecs()
{
    std::vector<MetricSpec> specs = {
        // grid: ray casting and footprint/voxel collision
        {"grid.raycast_ms", "ms"},
        {"grid.rays", "count"},
        {"grid.probes_per_ray", "count"},
        {"grid.collision_ms", "ms"},
        {"grid.collision_checks", "count"},
        // search
        {"search.ms", "ms"},
        {"search.expanded", "count"},
        {"search.stale_pop_ratio", "ratio"},
        {"search.peak_open", "count"},
        {"service.pp2d_expanded", "count"},
        {"service.prm_heuristic_evals", "count"},
        // pointcloud
        {"pointcloud.nn_ms", "ms"},
        {"pointcloud.nn_build_ms", "ms"},
        {"pointcloud.icp_iterations", "count"},
        {"service.icp_converged_ratio", "ratio"},
        // linalg
        {"linalg.ms", "ms"},
        // control
        {"control.rollout_ms", "ms"},
        {"control.sort_ms", "ms"},
        {"control.cost_evals", "count"},
        {"control.mpc_solve_ms.p50", "ms"},
        {"control.mpc_solve_ms.p99", "ms"},
    };
    for (const char *call : {"pfl_motion", "pfl_measure", "pfl_resample",
                             "ekf_predict", "ekf_update"}) {
        for (const char *pct : {"p50", "p99"})
            specs.push_back({std::string("perception.") + call + "_ms." +
                                 pct,
                             "ms"});
    }
    const std::vector<MetricSpec> rest = {
        {"plan.rrt_accept_ratio", "ratio"},
        {"plan.prm_offline_ms", "ms"},
        {"symbolic.ms", "ms"},
        {"symbolic.generated", "count"},
        {"symbolic.expanded", "count"},
        {"service.submit_us.p50", "us"},
        {"service.submit_us.p99", "us"},
        {"service.queue_wait_us.p50", "us"},
        {"service.queue_wait_us.p99", "us"},
    };
    specs.insert(specs.end(), rest.begin(), rest.end());
    for (const char *type : {"pp2d", "prm", "nn", "icp"}) {
        for (const char *pct : {"p50", "p99"})
            specs.push_back({std::string("service.exec_us.") + type + "." +
                                 pct,
                             "us"});
    }
    const std::vector<MetricSpec> tail_specs = {
        {"service.worker_busy_ratio", "ratio"},
        {"service.rejected_full", "count"},
        {"util.pool_speedup", "ratio"},
    };
    specs.insert(specs.end(), tail_specs.begin(), tail_specs.end());
    for (const std::string &kernel : rtr::kernelNames())
        specs.push_back({"kernel." + kernel + ".roi_ms", "ms"});
    const std::vector<MetricSpec> harness = {
        {"bench.gen_lag_us.p99", "us"},
        {"rt.release_lag_ms.p99", "ms"},
        {"rt.deadline_miss_ratio", "ratio"},
        {"bench.trace_overhead_ratio", "ratio"},
        // Workload-specific figures (each is 0 on the workloads that
        // lack the regime: no stage, no periodic tick, no service).
        {"planning_roi_ms", "ms"},
        {"control_roi_ms", "ms"},
        {"tick_p50_ms", "ms"},
        {"tick_tail_ms", "ms"},
        {"req_p50_us", "us"},
        {"req_tail_us", "us"},
        {"slo_rate_per_s", "1/s"},
        {"drain_rate_per_s", "1/s"},
    };
    specs.insert(specs.end(), harness.begin(), harness.end());
    for (const std::string &layer : Tracer::layers())
        specs.push_back({"self." + layer + "_ms", "ms"});
    return specs;
}

} // namespace

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"perception_roi_ms", "ms"},
        {"planning_control_roi_ms", "ms"},
        {"work_p50_ms", "ms"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = makePerLayerSpecs();
    return specs;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

void
Metrics::set(const std::string &name, const std::string &unit,
             double value, std::size_t samples)
{
    for (Metric &m : list_) {
        if (m.name == name) {
            m = Metric{name, unit, value, samples};
            return;
        }
    }
    list_.push_back(Metric{name, unit, value, samples});
}

const Metric *
Metrics::find(const std::string &name) const
{
    for (const Metric &m : list_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

bool
Ledger::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return true;
    ++failed_;
    if (messages_.size() < 40)
        messages_.push_back("FAILED: " + what);
    return false;
}

const std::vector<std::string> &
Tracer::layers()
{
    static const std::vector<std::string> names = {
        "grid",     "search", "pointcloud", "linalg",
        "control",  "perception", "plan",   "symbolic",
        "service",  "setup",  "bench",
    };
    return names;
}

const std::string *
Tracer::intern(const std::string &text)
{
    auto it = index_.find(text);
    if (it != index_.end())
        return it->second;
    strings_.push_back(text);
    const std::string *stable = &strings_.back();
    index_.emplace(text, stable);
    return stable;
}

int
Tracer::add(const std::string &layer, const std::string &name,
            std::uint64_t unit, int parent, std::int64_t start_ns,
            std::int64_t end_ns)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{intern(layer), intern(name), unit, parent,
                          start_ns, std::max(start_ns, end_ns)});
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
Tracer::selfNsByLayer() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.end_ns - span.start_ns);
    }
    std::map<std::string, double> self;
    for (const std::string &layer : layers())
        self[layer] = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[*spans_[i].layer] +=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
            child_ns[i];
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << *s.name
            << "\",\"cat\":\"" << *s.layer
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(s.start_ns - t0) * 1e-3
            << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
            << ",\"args\":{\"unit\":" << s.unit << ",\"span\":" << i
            << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
