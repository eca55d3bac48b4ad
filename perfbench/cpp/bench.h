/**
 * @file
 * Shared machinery of the repository benchmark: options, statistics,
 * the metric catalogue, the failure ledger and the span tracer.
 *
 * The benchmark drives the program only through its public entry
 * points (Kernel::run, ParticleFilter, EkfSlam, MpcController, World
 * and PlanningService); everything here lives outside src/.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Parsed command line of one workload run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its spans (Chrome trace-event JSON). */
    std::string trace_path;
};

/** Steady-clock nanoseconds. */
std::int64_t nowNs();

/** Resident set of this process now (MiB). */
double residentMb();

/** Peak resident set of this process since start or the last reset (MiB). */
double residentPeakMb();

/** Restart the peak-resident-set count (Linux clear_refs); false if refused. */
bool resetResidentPeak();

/// @name Statistics
///@{
/** A percentile is reported only with this many samples beyond it. */
constexpr std::size_t kMinBeyond = 10;

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> values);

double mean(const std::vector<double> &values);

/**
 * Nearest-rank quantile q in (0, 1): the value at sorted index
 * ceil(q n) - 1. nullopt when fewer than kMinBeyond samples lie above
 * that index, so no percentile rests on a handful of samples.
 */
std::optional<double> quantile(std::vector<double> values, double q);

/**
 * Figure of one quantity of a kernel whose rounds cycle through a few
 * input decks: the median over decks of each deck's smallest value.
 * A deck repeats at several points of the run, so a stretch in which
 * the host ran slow drops out; the median over decks keeps one heavy
 * input from moving the figure. Empty decks are skipped.
 */
double deckFigure(const std::vector<std::vector<double>> &per_deck);

/** Windows quietWindowMedian() splits a run into. */
constexpr std::size_t kQuietWindows = 12;

/**
 * Median of the quieter windows of a run: the samples (in time order)
 * are split into kQuietWindows equal windows, and the 25th percentile
 * of the window medians is returned. A host that slows the run for a
 * while moves only the slowed windows; a change to the code path moves
 * every window. Falls back to the plain median below 12 samples per
 * window.
 */
double quietWindowMedian(const std::vector<double> &samples);

/** The highest percentile with kMinBeyond samples beyond it. */
struct Tail
{
    double value = 0.0;
    double q = 0.0;
};

/** Tail from the ladder 99.9/99.5/99/95/90/75; nullopt below 40 samples. */
std::optional<Tail> tail(std::vector<double> values);
///@}

/// @name Metric catalogue
///@{
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricSpec> &endToEndSpecs();

/** Per-layer metrics, printed by every traced run (0 where unused). */
const std::vector<MetricSpec> &perLayerSpecs();

/** Whether a name matches [A-Za-z0-9_.-]+ and starts alphanumeric. */
bool validMetricName(const std::string &name);
///@}

/** One measured value with the number of samples behind it. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
};

/** Named metric values; set() overwrites, so each name has one value. */
class Metrics
{
  public:
    void set(const std::string &name, const std::string &unit,
             double value, std::size_t samples);
    const Metric *find(const std::string &name) const;
    const std::vector<Metric> &all() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/**
 * Attempted/failed operation counts. Every failed check is a failed
 * operation, and any failed operation makes the run's outputs
 * incorrect.
 */
class Ledger
{
  public:
    /** Count one operation; returns @p ok. */
    bool check(bool ok, const std::string &what);

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> messages_;
};

/**
 * In-memory span recorder for traced runs. Each span names the layer
 * it is attributed to, its parent span and the unit of work (round,
 * tick or request) it belongs to; spans are written out once, at the
 * end of the run. A span's self time is its duration minus its
 * children's, so the self times of one unit add up to its root span.
 */
class Tracer
{
  public:
    /** Layers self time is attributed to (self.<layer>_ms metrics). */
    static const std::vector<std::string> &layers();

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a complete span; returns its index (-1 when disabled). */
    int add(const std::string &layer, const std::string &name,
            std::uint64_t unit, int parent, std::int64_t start_ns,
            std::int64_t end_ns);

    /** Count one traced unit of work. */
    void countUnit() { ++units_; }
    std::size_t units() const { return units_; }

    /** Self nanoseconds per layer, summed over all spans. */
    std::map<std::string, double> selfNsByLayer() const;

    /** Chrome trace-event JSON; false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const std::string *layer;
        const std::string *name;
        std::uint64_t unit;
        int parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    const std::string *intern(const std::string &text);

    bool enabled_;
    std::size_t units_ = 0;
    std::vector<Span> spans_;
    std::deque<std::string> strings_;
    std::map<std::string, const std::string *> index_;
};

/** Everything one workload run produces. */
struct Run
{
    explicit Run(const Options &o) : opt(o), tracer(o.trace) {}

    const Options &opt;
    Metrics e2e;
    Metrics layers;
    Ledger ledger;
    Tracer tracer;
    /** Untraced mean time per unit of work (trace-overhead baseline). */
    double untraced_unit_ns = 0.0;
};

void runTable1(Run &run);
void runRtLoop(Run &run);
void runServiceMix(Run &run);

/** Benchmark self-tests; returns the number of failed tests. */
int runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
