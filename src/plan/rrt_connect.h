/**
 * @file
 * RRT-Connect: bidirectional RRT with a greedy connect step.
 *
 * A standard companion of the paper's RRT family (Kuffner & LaValle):
 * two trees grow from start and goal; each iteration extends one tree
 * towards a sample, then greedily extends the other tree towards the
 * new node until blocked or connected. Typically needs far fewer
 * samples than unidirectional RRT in cluttered spaces.
 */

#ifndef RTR_PLAN_RRT_CONNECT_H
#define RTR_PLAN_RRT_CONNECT_H

#include "arm/workspace.h"
#include "plan/plan_types.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** RRT-Connect tuning knobs. */
struct RrtConnectConfig
{
    /** Maximum joint-space extension per step (radians, L2). */
    double step_size = 0.25;
    /** Sample budget before giving up. */
    std::size_t max_samples = 200000;
    /** Interpolation resolution of motion collision checks (radians). */
    double collision_step = 0.05;
};

/** Bidirectional RRT planner. */
class RrtConnectPlanner
{
  public:
    /** Referents must outlive the planner. */
    RrtConnectPlanner(const ConfigSpace &space,
                      const ArmCollisionChecker &checker,
                      const RrtConnectConfig &config = {});

    /**
     * Plan from start to goal.
     *
     * @param profiler Optional; accumulates "sample", "nn-search",
     *        "collision", and "extend" phases like the other planners.
     */
    MotionPlan plan(const ArmConfig &start, const ArmConfig &goal,
                    Rng &rng, PhaseProfiler *profiler = nullptr) const;

  private:
    const ConfigSpace &space_;
    const ArmCollisionChecker &checker_;
    RrtConnectConfig config_;
};

} // namespace rtr

#endif // RTR_PLAN_RRT_CONNECT_H
