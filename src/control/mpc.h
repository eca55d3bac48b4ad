/**
 * @file
 * Model Predictive Control for trajectory tracking (kernel 14.mpc).
 *
 * A kinematic unicycle follows a long reference trajectory under
 * velocity/acceleration constraints (paper Fig. 16). Each control step
 * solves a finite-horizon optimization — projected gradient descent
 * with numerical gradients over the control sequence — which is the
 * >80% "optimization" bottleneck the paper reports.
 */

#ifndef RTR_CONTROL_MPC_H
#define RTR_CONTROL_MPC_H

#include <vector>

#include "geom/vec2.h"
#include "util/batch_engine.h"
#include "util/profiler.h"

namespace rtr {

/** Unicycle model state. */
struct UnicycleState
{
    double x = 0.0;
    double y = 0.0;
    double theta = 0.0;
    /** Current linear velocity (for acceleration limits). */
    double v = 0.0;
};

/** MPC knobs. */
struct MpcConfig
{
    /** Lookahead steps. */
    int horizon = 15;
    /** Model timestep. */
    double dt = 0.1;
    /** Velocity limit (the paper's "not exceeding predefined velocity"). */
    double v_max = 2.0;
    /** Acceleration limit. */
    double a_max = 1.5;
    /** Turn-rate limit. */
    double omega_max = 1.5;
    /** Gradient-descent iterations per solve. */
    int opt_iterations = 40;
    /** Gradient-descent step size. */
    double learning_rate = 0.08;
    /** Cost weight: squared deviation from the reference. */
    double w_tracking = 10.0;
    /** Cost weight: control effort. */
    double w_effort = 0.05;
    /** Cost weight: control smoothness (state change along the path). */
    double w_smooth = 0.5;
    /**
     * How the gradient's perturbed rollouts run: soa batches the four
     * rollouts of each horizon coordinate into SIMD lanes, scalar runs
     * them one at a time (bitwise-identical solutions either way).
     */
    BatchEngine batch_engine = BatchEngine::Soa;
};

/** One MPC solve's outcome. */
struct MpcSolution
{
    /** Optimized linear velocities over the horizon. */
    std::vector<double> v;
    /** Optimized angular velocities over the horizon. */
    std::vector<double> omega;
    /** Final optimization cost. */
    double cost = 0.0;
    /** Cost-function evaluations spent (2 per gradient coordinate). */
    std::size_t cost_evals = 0;
};

/** Receding-horizon controller. */
class MpcController
{
  public:
    explicit MpcController(const MpcConfig &config = {});

    /**
     * Solve the horizon problem from the current state against the next
     * horizon() reference points. Profiled as "optimize".
     *
     * Warm-starts from the previous solution (shifted by one step).
     */
    MpcSolution solve(const UnicycleState &current,
                      const std::vector<Vec2> &reference,
                      PhaseProfiler *profiler = nullptr);

    /** Forward-simulate one control on the model ("simulate" phase). */
    static UnicycleState step(const UnicycleState &state, double v,
                              double omega, double dt);

    const MpcConfig &config() const { return config_; }

    /** Reset the warm start (e.g. when tracking a new trajectory). */
    void reset();

  private:
    MpcConfig config_;
    std::vector<double> warm_v_;
    std::vector<double> warm_omega_;
};

/** Whole-trajectory tracking statistics. */
struct TrackingResult
{
    /** Realized states, one per control step. */
    std::vector<UnicycleState> states;
    /** Mean distance to the reference. */
    double avg_error = 0.0;
    /** Peak distance to the reference. */
    double max_error = 0.0;
    /** Peak realized velocity (to verify the constraint held). */
    double max_velocity = 0.0;
    /** Total optimization cost-function evaluations. */
    std::size_t cost_evals = 0;
};

/**
 * Drive the unicycle along a long reference polyline with receding-
 * horizon MPC. "optimize" and "simulate" phases accumulate into the
 * profiler.
 */
TrackingResult trackTrajectory(MpcController &controller,
                               const std::vector<Vec2> &reference,
                               const UnicycleState &start,
                               PhaseProfiler *profiler = nullptr);

/** Long smooth reference trajectory (Fig. 16 stand-in). */
std::vector<Vec2> makeReferenceTrajectory(int n_points, double spacing);

} // namespace rtr

#endif // RTR_CONTROL_MPC_H
