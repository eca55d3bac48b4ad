#include "plan/rrt_star.h"

#include <limits>

#include "pointcloud/bucket_kdtree.h"

namespace rtr {

RrtStarPlanner::RrtStarPlanner(const ConfigSpace &space,
                               const ArmCollisionChecker &checker,
                               const RrtStarConfig &config)
    : space_(space), checker_(checker), config_(config)
{
}

RrtStarPlan
RrtStarPlanner::plan(const ArmConfig &start, const ArmConfig &goal,
                     Rng &rng, PhaseProfiler *profiler) const
{
    RrtStarPlan result;
    std::size_t checks_before = checker_.checksPerformed();

    {
        ScopedPhase phase(profiler, "collision");
        if (checker_.configCollides(start) || checker_.configCollides(goal)) {
            result.collision_checks =
                checker_.checksPerformed() - checks_before;
            return result;
        }
    }

    std::vector<ArmConfig> nodes{start};
    std::vector<std::uint32_t> parents{0};
    std::vector<double> cost_to_come{0.0};
    DynBucketKdTree tree(space_.dof());
    tree.insert(start, 0);

    // Neighborhood hits, reused every iteration (the per-iteration
    // radiusSearch allocation used to dominate small-tree iterations).
    std::vector<KdHit> neighbors;

    // Best goal connection found so far: node id + cost through it.
    std::int64_t best_goal_parent = -1;
    double best_goal_cost = std::numeric_limits<double>::max();
    // Samples spent when the first solution appeared (for the
    // refine_factor termination rule).
    double first_solution_samples = 0.0;

    while (result.samples_drawn < config_.max_samples) {
        if (best_goal_parent >= 0 &&
            static_cast<double>(result.samples_drawn) >=
                first_solution_samples * (1.0 + config_.refine_factor))
            break;
        ++result.samples_drawn;

        ArmConfig sample;
        {
            ScopedPhase phase(profiler, "sample");
            sample = rng.chance(config_.goal_bias) ? goal
                                                   : space_.sample(rng);
            if (config_.informed_sampling && best_goal_parent >= 0) {
                // Reject samples that provably cannot shorten the
                // current best path (outside the informed spheroid).
                int guard = 0;
                while (ConfigSpace::distance(start, sample) +
                               ConfigSpace::distance(sample, goal) >
                           best_goal_cost &&
                       guard++ < 64) {
                    sample = space_.sample(rng);
                }
            }
        }

        std::uint32_t near_id;
        {
            ScopedPhase phase(profiler, "nn-search");
            ++result.nn_queries;
            near_id = tree.nearest(sample).id;
        }

        ArmConfig new_config;
        bool blocked;
        {
            ScopedPhase phase(profiler, "collision");
            new_config = ConfigSpace::steer(nodes[near_id], sample,
                                            config_.step_size);
            blocked = checker_.motionCollides(nodes[near_id], new_config,
                                              config_.collision_step);
        }
        if (blocked)
            continue;

        // Neighborhood query for choose-parent and rewiring. Hits
        // arrive sorted by (dist2, id) — the engines' contract — so
        // the choose-parent/rewire scan order is engine-independent.
        {
            ScopedPhase phase(profiler, "nn-search");
            ++result.nn_queries;
            tree.radiusSearchInto(new_config, config_.rewire_radius,
                                  neighbors);
        }

        // Choose-parent: connect through the neighbor minimizing
        // cost-to-come, among collision-free connections.
        std::uint32_t parent = near_id;
        double new_cost =
            cost_to_come[near_id] +
            ConfigSpace::distance(nodes[near_id], new_config);
        {
            ScopedPhase phase(profiler, "collision");
            for (const KdHit &hit : neighbors) {
                double through =
                    cost_to_come[hit.id] +
                    ConfigSpace::distance(nodes[hit.id], new_config);
                if (through < new_cost &&
                    !checker_.motionCollides(nodes[hit.id], new_config,
                                             config_.collision_step)) {
                    parent = hit.id;
                    new_cost = through;
                }
            }
        }

        std::uint32_t new_id;
        {
            ScopedPhase phase(profiler, "extend");
            new_id = static_cast<std::uint32_t>(nodes.size());
            nodes.push_back(new_config);
            parents.push_back(parent);
            cost_to_come.push_back(new_cost);
            tree.insert(new_config, new_id);
        }

        // Rewire: reconnect neighbors through the new node when that
        // shortens their cost-to-come (paper Fig. 11).
        {
            ScopedPhase phase(profiler, "rewire");
            for (const KdHit &hit : neighbors) {
                double through =
                    new_cost +
                    ConfigSpace::distance(new_config, nodes[hit.id]);
                if (through + 1e-12 < cost_to_come[hit.id] &&
                    !checker_.motionCollides(new_config, nodes[hit.id],
                                             config_.collision_step)) {
                    parents[hit.id] = new_id;
                    cost_to_come[hit.id] = through;
                    ++result.rewires;
                }
            }
        }

        // Track the best connection to the goal.
        double goal_dist = ConfigSpace::distance(new_config, goal);
        if (goal_dist <= config_.goal_tolerance) {
            double through = new_cost + goal_dist;
            if (through < best_goal_cost) {
                bool goal_blocked;
                {
                    ScopedPhase phase(profiler, "collision");
                    goal_blocked = checker_.motionCollides(
                        new_config, goal, config_.collision_step);
                }
                if (!goal_blocked) {
                    if (best_goal_parent < 0)
                        first_solution_samples = static_cast<double>(
                            result.samples_drawn);
                    best_goal_parent = new_id;
                    best_goal_cost = through;
                }
            }
        }
    }

    result.tree_size = nodes.size();
    result.collision_checks = checker_.checksPerformed() - checks_before;
    if (best_goal_parent < 0)
        return result;

    std::vector<ArmConfig> reversed{goal};
    std::uint32_t cur = static_cast<std::uint32_t>(best_goal_parent);
    while (true) {
        reversed.push_back(nodes[cur]);
        if (cur == 0)
            break;
        cur = parents[cur];
    }
    result.path.assign(reversed.rbegin(), reversed.rend());
    result.cost = pathCost(result.path);
    result.found = true;
    return result;
}

} // namespace rtr
