/**
 * @file
 * Bayesian optimization with a GP surrogate and UCB acquisition
 * (kernel 16.bo).
 *
 * Each learning iteration refits the Gaussian process on all
 * observations, scores a large batch of random candidates with the
 * upper-confidence-bound acquisition, sorts them (with their metadata —
 * the paper notes BO's sort is ~6x costlier than CEM's), and evaluates
 * the true reward at the best candidate.
 */

#ifndef RTR_CONTROL_BAYES_OPT_H
#define RTR_CONTROL_BAYES_OPT_H

#include <array>
#include <functional>
#include <vector>

#include "control/gaussian_process.h"
#include "util/batch_engine.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** BO knobs (paper: 45 learning iterations). */
struct BoConfig
{
    /** Learning iterations (true-reward evaluations after seeding). */
    int iterations = 45;
    /** Random candidates scored by the acquisition per iteration. */
    int candidates_per_iteration = 25000;
    /** Exploration weight of UCB = mean + kappa * stddev. */
    double ucb_kappa = 2.0;
    /** Random seed observations before the GP loop starts. */
    int seed_observations = 5;
    /**
     * How candidates are scored: soa evaluates whole chunks through
     * GaussianProcess::predictBatch (SIMD across candidates), scalar
     * one predict() call at a time — identical UCB argmax either way.
     * Candidate draws are staged from the caller's stream in scalar
     * order before scoring under both engines (the RNG staging
     * contract, DESIGN.md "Batched environments").
     */
    BatchEngine batch_engine = BatchEngine::Soa;
    /** GP hyperparameters. */
    GpConfig gp;
};

/**
 * One true-reward observation with its GP metadata and episode trace —
 * the record BO keeps per sample. The paper notes BO's sort is ~6x
 * costlier than CEM's because "more metadata is kept with BO".
 */
struct BoObservation
{
    std::vector<double> params;
    double reward = 0.0;
    double predicted_mean = 0.0;
    double predicted_variance = 0.0;
    double acquisition = 0.0;
    int iteration = 0;
    /** Inline episode trace, as in CemSample. */
    std::array<double, 64> trace{};
    /** GP kernel-row cache against every prior observation. */
    std::array<double, 64> kernel_row{};
};

/** Optional episode-trace generator attached to each observation. */
using BoTraceFn = std::function<std::array<double, 64>(
    const std::vector<double> &)>;

/** BO outcome. */
struct BoResult
{
    /** Best parameters observed. */
    std::vector<double> best_params;
    /** Their true reward. */
    double best_reward = 0.0;
    /** True reward per learning iteration (paper Fig. 19 series). */
    std::vector<double> reward_history;
    /** Acquisition-function evaluations (the "iterations" the paper
     *  compares against cem: ~15000x more). */
    std::size_t acquisition_evals = 0;
    /** True reward-function evaluations. */
    std::size_t reward_evals = 0;
};

/** GP-UCB Bayesian optimizer over a box-bounded parameter space. */
class BayesOpt
{
  public:
    explicit BayesOpt(const BoConfig &config = {});

    /**
     * Maximize @p reward over [lo, hi]^n.
     *
     * Profiled phases: "gp-fit", "acquisition", "sort", "evaluate".
     */
    BoResult optimize(const std::function<double(
                          const std::vector<double> &)> &reward,
                      const std::vector<double> &lo,
                      const std::vector<double> &hi, Rng &rng,
                      PhaseProfiler *profiler = nullptr,
                      const BoTraceFn &trace = {}) const;

  private:
    BoConfig config_;
};

} // namespace rtr

#endif // RTR_CONTROL_BAYES_OPT_H
