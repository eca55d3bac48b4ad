#include "plan/rrt_connect.h"

#include "pointcloud/bucket_kdtree.h"
#include "util/logging.h"

namespace rtr {

namespace {

/** One of the two trees: nodes, parents, and a kd-tree index. */
struct Tree
{
    std::vector<ArmConfig> nodes;
    std::vector<std::uint32_t> parents;
    DynBucketKdTree index;

    Tree(std::size_t dof, const ArmConfig &root) : index(dof)
    {
        nodes.push_back(root);
        parents.push_back(0);
        index.insert(root, 0);
    }

    std::uint32_t
    add(const ArmConfig &q, std::uint32_t parent)
    {
        auto id = static_cast<std::uint32_t>(nodes.size());
        nodes.push_back(q);
        parents.push_back(parent);
        index.insert(q, id);
        return id;
    }

    /** Root-to-node chain. */
    std::vector<ArmConfig>
    chain(std::uint32_t id) const
    {
        std::vector<ArmConfig> reversed;
        std::uint32_t cur = id;
        while (true) {
            reversed.push_back(nodes[cur]);
            if (cur == 0)
                break;
            cur = parents[cur];
        }
        return {reversed.rbegin(), reversed.rend()};
    }
};

} // namespace

RrtConnectPlanner::RrtConnectPlanner(const ConfigSpace &space,
                                     const ArmCollisionChecker &checker,
                                     const RrtConnectConfig &config)
    : space_(space), checker_(checker), config_(config)
{
}

MotionPlan
RrtConnectPlanner::plan(const ArmConfig &start, const ArmConfig &goal,
                        Rng &rng, PhaseProfiler *profiler) const
{
    MotionPlan result;
    std::size_t checks_before = checker_.checksPerformed();

    {
        ScopedPhase phase(profiler, "collision");
        if (checker_.configCollides(start) ||
            checker_.configCollides(goal)) {
            result.collision_checks =
                checker_.checksPerformed() - checks_before;
            return result;
        }
    }

    Tree start_tree(space_.dof(), start);
    Tree goal_tree(space_.dof(), goal);
    Tree *grow = &start_tree;   // tree extended towards the sample
    Tree *chase = &goal_tree;   // tree that then tries to connect
    bool grow_is_start = true;

    // One blocked-aware extension of `tree` towards `target` from its
    // nearest node; returns the new node id or -1.
    auto extend = [&](Tree &tree, const ArmConfig &target) {
        std::uint32_t near_id;
        {
            ScopedPhase phase(profiler, "nn-search");
            ++result.nn_queries;
            near_id = tree.index.nearest(target).id;
        }
        ArmConfig stepped;
        bool blocked;
        {
            ScopedPhase phase(profiler, "collision");
            stepped = ConfigSpace::steer(tree.nodes[near_id], target,
                                         config_.step_size);
            blocked = checker_.motionCollides(tree.nodes[near_id],
                                              stepped,
                                              config_.collision_step);
        }
        if (blocked)
            return static_cast<std::int64_t>(-1);
        ScopedPhase phase(profiler, "extend");
        return static_cast<std::int64_t>(tree.add(stepped, near_id));
    };

    while (result.samples_drawn < config_.max_samples) {
        ++result.samples_drawn;
        ArmConfig sample;
        {
            ScopedPhase phase(profiler, "sample");
            sample = space_.sample(rng);
        }

        std::int64_t new_id = extend(*grow, sample);
        if (new_id >= 0) {
            // Greedy connect: the other tree chases the new node until
            // blocked or reached.
            const ArmConfig &target =
                grow->nodes[static_cast<std::size_t>(new_id)];
            std::int64_t chase_id = -1;
            while (true) {
                std::int64_t stepped = extend(*chase, target);
                if (stepped < 0)
                    break;
                chase_id = stepped;
                if (ConfigSpace::distance(
                        chase->nodes[static_cast<std::size_t>(stepped)],
                        target) < 1e-9) {
                    // Connected: stitch the two chains together.
                    std::vector<ArmConfig> grow_chain = grow->chain(
                        static_cast<std::uint32_t>(new_id));
                    std::vector<ArmConfig> chase_chain = chase->chain(
                        static_cast<std::uint32_t>(chase_id));
                    // chase_chain ends at the meeting point; drop the
                    // duplicate and append reversed.
                    std::vector<ArmConfig> path;
                    if (grow_is_start) {
                        path = grow_chain;
                        for (auto it = chase_chain.rbegin() + 1;
                             it != chase_chain.rend(); ++it)
                            path.push_back(*it);
                    } else {
                        path.assign(chase_chain.begin(),
                                    chase_chain.end());
                        for (auto it = grow_chain.rbegin() + 1;
                             it != grow_chain.rend(); ++it)
                            path.push_back(*it);
                    }
                    result.path = std::move(path);
                    result.cost = pathCost(result.path);
                    result.found = true;
                    result.tree_size =
                        start_tree.nodes.size() + goal_tree.nodes.size();
                    result.collision_checks =
                        checker_.checksPerformed() - checks_before;
                    return result;
                }
            }
        }
        std::swap(grow, chase);
        grow_is_start = !grow_is_start;
    }

    result.tree_size = start_tree.nodes.size() + goal_tree.nodes.size();
    result.collision_checks = checker_.checksPerformed() - checks_before;
    return result;
}

} // namespace rtr
