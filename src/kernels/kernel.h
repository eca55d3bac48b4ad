/**
 * @file
 * Common interface of the 16 RTRBench kernels.
 *
 * Every kernel builds its (synthetic) inputs outside the region of
 * interest, runs its algorithm inside it with phase profiling, and
 * reports timing fractions plus algorithm-specific metrics and series
 * (the data behind the paper's figures).
 */

#ifndef RTR_KERNELS_KERNEL_H
#define RTR_KERNELS_KERNEL_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/batch_engine.h"
#include "util/profiler.h"

namespace rtr {

/** Robot software pipeline stage (paper Fig. 1). */
enum class Stage
{
    Perception,
    Planning,
    Control,
};

/** Stage to display string. */
std::string stageName(Stage stage);

/**
 * Register the standard --threads option shared by the parallelized
 * kernels (pfl, srec, prm, mpc, cem): 0 = hardware concurrency
 * (the default), 1 = exact sequential execution. Results are bitwise-
 * identical at every setting; only wall-clock time changes.
 */
void addThreadsOption(ArgParser &parser);

/** Apply a parsed --threads value to the parallel runtime. */
void applyThreadsOption(const ArgParser &args);

/**
 * Register the standard --batch option shared by the Monte-Carlo
 * rollout kernels (cem, mpc, bo, pfl): "soa" = SIMD-across-environments
 * batch engine (the default), "scalar" = the preserved one-environment-
 * at-a-time reference. Rewards, traces, states and particle weights
 * are bitwise identical either way (DESIGN.md "Batched environments");
 * the switch exists for engine A/B timing on one binary. It is the one
 * engine option besides pfl's --raycast: every other layer runs its
 * single production engine, and its reference survives only as a test
 * oracle.
 */
void addBatchOption(ArgParser &parser);

/** Parse the --batch value to an engine; fatal() on anything unknown. */
BatchEngine batchEngineFromArgs(const ArgParser &args);

/** Result of one kernel run. */
struct KernelReport
{
    /** Whether the kernel accomplished its task. */
    bool success = false;
    /** Wall-clock seconds inside the region of interest. */
    double roi_seconds = 0.0;
    /** Phase timing accumulated inside the ROI. */
    PhaseProfiler profiler;
    /** Kernel-specific scalar metrics (error, path cost, counts, ...). */
    std::map<std::string, double> metrics;
    /** Kernel-specific series (the paper's figure data). */
    std::map<std::string, std::vector<double>> series;

    /** Fraction of ROI time spent in a phase. */
    double
    phaseFraction(const std::string &phase) const
    {
        return profiler.fractionOf(phase,
                                   static_cast<std::int64_t>(
                                       roi_seconds * 1e9));
    }
};

/**
 * Serialize a report to a file (CSV sections: phases, metrics, series)
 * so runs can be archived and plotted; fatal() if unwritable. The
 * per-kernel tools expose this as --output (paper Fig. 20).
 */
void writeReportFile(const KernelReport &report, const std::string &path);

/** Abstract kernel. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Kernel identifier, e.g. "pfl". */
    virtual std::string name() const = 0;

    /** Pipeline stage (Table I column 2). */
    virtual Stage stage() const = 0;

    /** One-line description. */
    virtual std::string description() const = 0;

    /** Register this kernel's options (with defaults) on a parser. */
    virtual void addOptions(ArgParser &parser) const = 0;

    /** Execute with the parsed configuration. */
    virtual KernelReport run(const ArgParser &args) const = 0;

    /**
     * Convenience: run with default options, optionally overridden by
     * "--name value" pairs.
     */
    KernelReport runWithDefaults(
        const std::vector<std::string> &overrides = {}) const;
};

} // namespace rtr

#endif // RTR_KERNELS_KERNEL_H
