/**
 * @file
 * The service's shared world state.
 *
 * A World is everything expensive the service builds once and serves
 * to thousands of requests: the city occupancy grid (pp2d), the PRM
 * roadmap (prm), the bucket k-d point index (NnBatch), and the ICP
 * target model with its prebuilt nearest-neighbor index (srec). The
 * paper benchmarks these kernels one query at a time; the ROADMAP
 * north-star is serving concurrent traffic, and roadmap/index reuse
 * across queries is where that throughput comes from.
 *
 * Immutability rules (the service's thread-safety foundation):
 *  - After the constructor returns, nothing in a World changes. All
 *    accessors return const references; any number of worker threads
 *    may query the grid, roadmap, and indices concurrently.
 *  - Objects with mutable scratch (the footprint's probe counter, the
 *    collision checker's FK scratch) are *prototypes*: workers clone
 *    them per-thread (see PlanningService's WorkerContext) and never
 *    touch the World's own copies.
 *  - The random request generators below are the one exception: they
 *    use the prototypes directly, so they are single-thread-only (call
 *    them from the load generator, not from workers).
 */

#ifndef RTR_SERVICE_WORLD_H
#define RTR_SERVICE_WORLD_H

#include <cstdint>

#include "arm/cspace.h"
#include "arm/planar_arm.h"
#include "arm/workspace.h"
#include "grid/footprint.h"
#include "grid/occupancy_grid2d.h"
#include "plan/prm.h"
#include "pointcloud/bucket_kdtree.h"
#include "pointcloud/icp.h"
#include "pointcloud/point_cloud.h"
#include "service/request.h"
#include "util/rng.h"

namespace rtr {
namespace service {

/**
 * World sizing knobs. The defaults are deliberately small: the target
 * is a *serving* workload — tens of thousands of sub-millisecond
 * requests — not the paper's single-ROI problem sizes.
 */
struct WorldConfig
{
    /** Master seed; every generated asset derives from it. */
    std::uint64_t seed = 42;

    /** City grid side (cells) and metric resolution (pp2d). */
    int grid_size = 64;
    double grid_resolution = 0.25;
    /** Robot footprint (m); small relative to street widths. */
    double footprint_length = 0.6;
    double footprint_width = 0.4;
    /**
     * WA* weight stamped on generated pp2d requests (1 = A*). The
     * serving workload wants bounded-suboptimal latency, not optimal
     * paths — see the bench_abl_wastar expansion/cost trade.
     */
    double pp2d_epsilon = 1.8;

    /** PRM roadmap: samples, neighbor count, max edge length (rad). */
    std::size_t prm_samples = 500;
    std::size_t prm_k = 5;
    double prm_max_edge = 1.2;
    /**
     * Interpolation resolution of edge collision checks (rad). The
     * serving profile trades check density for query latency; the
     * paper-fidelity kernels keep the planner default.
     */
    double prm_collision_step = 0.1;
    /** Arm degrees of freedom (Map-C workspace). */
    std::size_t arm_dof = 4;

    /** Uniformly scattered points behind the NnBatch index. */
    std::size_t nn_points = 4096;

    /** Graph-search engine of the pp2d and prm handlers; responses
     *  are byte-identical either way. */
    SearchEngine search_engine = SearchEngine::Flat;

    /** ICP target model: one simulated depth scan of the living room. */
    std::uint64_t icp_scene_seed = 7;
    /** Generated ICP request shape: source-scan size, iteration cap. */
    std::uint32_t icp_points = 48;
    int icp_iterations = 5;
};

/** Immutable shared state; build once, serve forever. */
class World
{
  public:
    explicit World(const WorldConfig &config = {});

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    const WorldConfig &config() const { return config_; }

    /// @name pp2d assets
    ///@{
    const OccupancyGrid2D &grid() const { return grid_; }
    /** Footprint prototype (mutable probe counter — clone per thread). */
    const RectFootprint &footprint() const { return footprint_; }
    ///@}

    /// @name prm assets
    ///@{
    const PlanarArm &arm() const { return arm_; }
    const Workspace &workspace() const { return workspace_; }
    const ConfigSpace &space() const { return space_; }
    /** Checker prototype (mutable FK scratch — clone per thread). */
    const ArmCollisionChecker &checkerPrototype() const { return checker_; }
    /** The built roadmap; query through the thread-safe overload. */
    const PrmPlanner &prm() const { return prm_; }
    ///@}

    /// @name NnBatch assets
    ///@{
    const PointCloud &nnCloud() const { return nn_cloud_; }
    const BucketKdTree<3> &nnIndex() const { return nn_index_; }
    ///@}

    /// @name IcpRegister assets
    ///@{
    /** The target model cloud (what icpTarget() indexes). */
    const PointCloud &icpModel() const { return icp_target_.target(); }
    const IcpTargetIndex &icpTarget() const { return icp_target_; }
    ///@}

    /// @name Deterministic request generators (single-thread-only)
    ///@{
    Pp2dPlanRequest randomPp2d(Rng &rng) const;
    PrmQueryRequest randomPrm(Rng &rng) const;
    NnBatchRequest randomNnBatch(Rng &rng, std::size_t n_queries = 16,
                                 std::uint32_t k = 4) const;
    IcpRegisterRequest randomIcp(Rng &rng) const;
    /** A request of the given type (dispatches to the above). */
    Request randomRequest(RequestType type, Rng &rng) const;
    ///@}

  private:
    WorldConfig config_;

    // pp2d
    OccupancyGrid2D grid_;
    RectFootprint footprint_;

    // prm (declaration order is lifetime order: the checker references
    // arm_/workspace_, the planner references space_/checker_)
    PlanarArm arm_;
    Workspace workspace_;
    ConfigSpace space_;
    ArmCollisionChecker checker_;
    PrmPlanner prm_;

    // NnBatch
    PointCloud nn_cloud_;
    BucketKdTree<3> nn_index_;

    // IcpRegister
    IcpTargetIndex icp_target_;
};

} // namespace service
} // namespace rtr

#endif // RTR_SERVICE_WORLD_H
