/**
 * @file
 * Rapidly-exploring Random Tree planner (kernel 08.rrt).
 *
 * Grows a tree from the start configuration towards random samples
 * (with goal bias); every extension is collision-checked. Nearest
 * neighbors come from an incrementally-built k-d tree, or a brute-force
 * scan when configured (the paper's NN-search ablation).
 */

#ifndef RTR_PLAN_RRT_H
#define RTR_PLAN_RRT_H

#include "arm/workspace.h"
#include "plan/plan_types.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** RRT tuning knobs (mirrors the kernel's command-line options). */
struct RrtConfig
{
    /** Maximum joint-space extension per iteration (radians, L2). */
    double step_size = 0.25;
    /** Probability of sampling the goal instead of uniformly. */
    double goal_bias = 0.05;
    /** Joint-space distance at which the goal counts as reached. */
    double goal_tolerance = 0.05;
    /** Sample budget before giving up. */
    std::size_t max_samples = 200000;
    /** Interpolation resolution of motion collision checks (radians). */
    double collision_step = 0.05;
    /** Use the k-d tree for NN queries (false = brute force scan). */
    bool use_kdtree = true;
};

/** RRT planner over a configuration space with a collision checker. */
class RrtPlanner
{
  public:
    /** Referents must outlive the planner. */
    RrtPlanner(const ConfigSpace &space,
               const ArmCollisionChecker &checker,
               const RrtConfig &config = {});

    /**
     * Plan from start to goal.
     *
     * @param profiler Optional; accumulates "sample", "nn-search",
     *        "collision", and "extend" phases — the paper's RRT cost
     *        breakdown.
     */
    MotionPlan plan(const ArmConfig &start, const ArmConfig &goal,
                    Rng &rng, PhaseProfiler *profiler = nullptr) const;

  private:
    const ConfigSpace &space_;
    const ArmCollisionChecker &checker_;
    RrtConfig config_;
};

} // namespace rtr

#endif // RTR_PLAN_RRT_H
