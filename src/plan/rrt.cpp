#include "plan/rrt.h"

#include <limits>

#include "pointcloud/bucket_kdtree.h"

namespace rtr {

double
pathCost(const std::vector<ArmConfig> &path)
{
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        cost += ConfigSpace::distance(path[i], path[i + 1]);
    return cost;
}

RrtPlanner::RrtPlanner(const ConfigSpace &space,
                       const ArmCollisionChecker &checker,
                       const RrtConfig &config)
    : space_(space), checker_(checker), config_(config)
{
}

MotionPlan
RrtPlanner::plan(const ArmConfig &start, const ArmConfig &goal, Rng &rng,
                 PhaseProfiler *profiler) const
{
    MotionPlan result;
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
    DynBucketKdTree tree(space_.dof());
    tree.insert(start, 0);

    auto nearest_node = [&](const ArmConfig &q) -> std::uint32_t {
        ++result.nn_queries;
        if (config_.use_kdtree)
            return tree.nearest(q).id;
        std::uint32_t best = 0;
        double best_d2 = std::numeric_limits<double>::max();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            double d2 = ConfigSpace::squaredDistance(nodes[i], q);
            if (d2 < best_d2) {
                best_d2 = d2;
                best = static_cast<std::uint32_t>(i);
            }
        }
        return best;
    };

    std::int64_t goal_node = -1;
    while (result.samples_drawn < config_.max_samples) {
        ++result.samples_drawn;

        ArmConfig sample;
        {
            ScopedPhase phase(profiler, "sample");
            sample = rng.chance(config_.goal_bias) ? goal
                                                   : space_.sample(rng);
        }

        std::uint32_t near_id;
        {
            ScopedPhase phase(profiler, "nn-search");
            near_id = nearest_node(sample);
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

        std::uint32_t new_id;
        {
            ScopedPhase phase(profiler, "extend");
            new_id = static_cast<std::uint32_t>(nodes.size());
            nodes.push_back(new_config);
            parents.push_back(near_id);
            if (config_.use_kdtree)
                tree.insert(new_config, new_id);
        }

        if (ConfigSpace::distance(new_config, goal) <=
            config_.goal_tolerance) {
            // Try connecting straight to the goal.
            bool goal_blocked;
            {
                ScopedPhase phase(profiler, "collision");
                goal_blocked = checker_.motionCollides(
                    new_config, goal, config_.collision_step);
            }
            if (!goal_blocked) {
                nodes.push_back(goal);
                parents.push_back(new_id);
                goal_node = static_cast<std::int64_t>(nodes.size()) - 1;
                break;
            }
        }
    }

    result.tree_size = nodes.size();
    result.collision_checks = checker_.checksPerformed() - checks_before;
    if (goal_node < 0)
        return result;

    std::vector<ArmConfig> reversed;
    std::uint32_t cur = static_cast<std::uint32_t>(goal_node);
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
