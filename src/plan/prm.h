/**
 * @file
 * Probabilistic RoadMap planner (kernel 07.prm).
 *
 * Offline phase: sample collision-free configurations and connect
 * near neighbors into a roadmap (paper Fig. 8-(b)). Online phase:
 * connect start/goal into the roadmap and A* it with the L2 heuristic.
 * Only the online phase is on the robot's critical path.
 */

#ifndef RTR_PLAN_PRM_H
#define RTR_PLAN_PRM_H

#include <cstdint>

#include "arm/workspace.h"
#include "plan/plan_types.h"
#include "search/graph_search.h"
#include "search/search_engine.h"
#include "search/search_workspace.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** PRM tuning knobs. */
struct PrmConfig
{
    /** Roadmap size (collision-free samples). */
    std::size_t n_samples = 2000;
    /** Connect each sample to up to this many nearest roadmap nodes. */
    std::size_t k_neighbors = 10;
    /** Maximum joint-space length of a roadmap edge (radians, L2). */
    double max_edge_length = 1.0;
    /** Interpolation resolution of motion collision checks (radians). */
    double collision_step = 0.05;
    /** Which engine runs the online graph search. */
    SearchEngine search_engine = SearchEngine::Flat;
};

/**
 * Per-worker scratch of the online PRM query.
 *
 * A query needs a mutable view of the roadmap (start/goal get attached
 * as temporary nodes). The original implementation copied the graph
 * and every configuration per request; a workspace instead keeps a
 * private roadmap copy alive across queries — re-synced only when the
 * planner is rebuilt — and the query attaches into it, searches, and
 * detaches, leaving it ready for the next request. Warm workspaces
 * make repeat queries allocation-free outside path assembly.
 *
 * Not thread-safe: own one per thread (service WorkerContext pattern).
 */
struct PrmQueryWorkspace
{
    /** Private roadmap copy (adjacency capacity stays warm). */
    ExplicitGraph graph;
    /** build() stamp the copy was synced against (0 = never). */
    std::uint64_t build_version = 0;
    /** Attach scratch: (squared distance, node) candidate order. */
    std::vector<std::pair<double, std::uint32_t>> order;
    /** Undo log of the edges attach() added this query. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> added_edges;
    /** Flat-engine search state. */
    SearchWorkspace search;
};

/** Offline roadmap statistics. */
struct PrmBuildStats
{
    /** Samples drawn (including rejected colliding ones). */
    std::size_t samples_drawn = 0;
    /** Nodes kept in the roadmap. */
    std::size_t nodes = 0;
    /** Undirected edges in the roadmap. */
    std::size_t edges = 0;
    /** Configuration collision checks spent building. */
    std::size_t collision_checks = 0;
};

/** PRM planner: build once offline, query many times online. */
class PrmPlanner
{
  public:
    /** Referents must outlive the planner. */
    PrmPlanner(const ConfigSpace &space,
               const ArmCollisionChecker &checker,
               const PrmConfig &config = {});

    /**
     * Offline phase: sample and connect the roadmap.
     *
     * @param profiler Optional; accumulates "sampling" and
     *        "offline-connect" phases.
     */
    PrmBuildStats build(Rng &rng, PhaseProfiler *profiler = nullptr);

    /**
     * Online phase: connect start and goal to the roadmap and search.
     *
     * @param profiler Optional; accumulates "online-connect" and
     *        "graph-search" phases.
     */
    MotionPlan query(const ArmConfig &start, const ArmConfig &goal,
                     PhaseProfiler *profiler = nullptr) const;

    /**
     * Thread-safe online query against a caller-supplied checker.
     *
     * The built roadmap is immutable, so any number of threads may
     * query it concurrently as long as each brings its own collision
     * checker (the checker's FK scratch is not thread-safe) and reads
     * heuristic-eval counts through @p heuristic_evals instead of
     * lastHeuristicEvals(). The service runtime's PrmQuery handler is
     * the primary client.
     */
    MotionPlan query(const ArmConfig &start, const ArmConfig &goal,
                     const ArmCollisionChecker &checker,
                     PhaseProfiler *profiler,
                     std::size_t *heuristic_evals) const;

    /**
     * Thread-safe online query reusing a caller-owned workspace (see
     * PrmQueryWorkspace). Passing nullptr falls back to a per-call
     * workspace, i.e. the old copy-per-query behavior.
     */
    MotionPlan query(const ArmConfig &start, const ArmConfig &goal,
                     const ArmCollisionChecker &checker,
                     PhaseProfiler *profiler,
                     std::size_t *heuristic_evals,
                     PrmQueryWorkspace *ws) const;

    /** Roadmap node count (0 before build()). */
    std::size_t roadmapSize() const { return configs_.size(); }

    /** L2-norm evaluations during the last query's graph search. */
    std::size_t lastHeuristicEvals() const { return last_heuristic_evals_; }

  private:
    /** Connect a config to its k nearest roadmap nodes; returns edges. */
    std::size_t connectNode(std::uint32_t id, ExplicitGraph &graph) const;

    const ConfigSpace &space_;
    const ArmCollisionChecker &checker_;
    PrmConfig config_;

    std::vector<ArmConfig> configs_;
    ExplicitGraph graph_;
    /** Bumped per build(); workspaces re-sync their roadmap copy. */
    std::uint64_t build_version_ = 0;
    mutable std::size_t last_heuristic_evals_ = 0;
    /** Workspace of the non-thread-safe 2-arg query() overload. */
    mutable PrmQueryWorkspace query_ws_;
};

} // namespace rtr

#endif // RTR_PLAN_PRM_H
