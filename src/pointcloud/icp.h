/**
 * @file
 * Iterative Closest Point registration: point-to-point and
 * point-to-plane.
 *
 * The registration core of the scene-reconstruction kernel (03.srec),
 * following the classic KinectFusion-style pipeline the paper builds on:
 * per iteration, correspondences via nearest-neighbor search, then the
 * closed-form optimal rigid motion via Horn's quaternion method
 * (point-to-point) or the linearized 6x6 normal equations
 * (point-to-plane). Every neighbor query runs on the leaf-bucketed k-d
 * tree (bucket_kdtree.h). Point-to-plane builds one index over its
 * target and estimates a target point's normal only when a
 * correspondence first hits it (IcpPlaneTarget).
 */

#ifndef RTR_POINTCLOUD_ICP_H
#define RTR_POINTCLOUD_ICP_H

#include <memory>

#include "pointcloud/point_cloud.h"
#include "util/profiler.h"

namespace rtr {

/** ICP tuning knobs. */
struct IcpConfig
{
    /** Maximum outer iterations. */
    int max_iterations = 30;
    /** Stop when RMSE improves by less than this between iterations. */
    double convergence_delta = 1e-6;
    /** Reject correspondences farther apart than this (0 = keep all). */
    double max_correspondence_distance = 0.0;
    /**
     * Trimmed ICP: keep only this fraction of correspondences (the
     * closest ones) each iteration. Guards the estimate against the
     * partial-overlap bias of scan regions absent from the target.
     */
    double trim_fraction = 1.0;
};

/** ICP outcome. */
struct IcpResult
{
    /** Estimated transform mapping source points onto the target. */
    RigidTransform3 transform;
    /** Root-mean-square correspondence error after the final iteration. */
    double rmse = 0.0;
    /** Outer iterations actually executed. */
    int iterations = 0;
    /** Whether the convergence threshold was reached (vs. iteration cap). */
    bool converged = false;
};

/**
 * Register @p source onto @p target.
 *
 * @param profiler Optional phase profiler; accumulates "icp-nn-build"
 *        (target index construction), "icp-nn" (correspondence search)
 *        and "icp-solve" (transform estimation) phases, matching the
 *        paper's breakdown of srec into point-cloud operations and
 *        matrix operations.
 */
IcpResult icpRegister(const PointCloud &source, const PointCloud &target,
                      const IcpConfig &config = {},
                      PhaseProfiler *profiler = nullptr);

/**
 * Prebuilt immutable target for icpRegister: the target cloud plus its
 * nearest-neighbor index, built once and shared by any number of
 * registrations (and any number of threads — queries are const). This
 * is the amortized path for serving workloads where many scans
 * register against one reference model: per-call icpRegister pays the
 * "icp-nn-build" phase every time, this class pays it once.
 *
 * The results are bitwise identical to the per-call overload: both run
 * the same core loop over the same index.
 */
class IcpTargetIndex
{
  public:
    explicit IcpTargetIndex(const PointCloud &target);
    ~IcpTargetIndex();
    IcpTargetIndex(const IcpTargetIndex &) = delete;
    IcpTargetIndex &operator=(const IcpTargetIndex &) = delete;

    /** The indexed target cloud (the copy the index refers into). */
    const PointCloud &target() const;

  private:
    friend IcpResult icpRegister(const PointCloud &,
                                 const IcpTargetIndex &,
                                 const IcpConfig &, PhaseProfiler *);
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Register @p source onto a prebuilt target index. Identical results
 * to the cloud overload; no "icp-nn-build" phase runs.
 */
IcpResult icpRegister(const PointCloud &source,
                      const IcpTargetIndex &target,
                      const IcpConfig &config = {},
                      PhaseProfiler *profiler = nullptr);

/**
 * Closed-form optimal rigid motion (Horn's quaternion method) mapping
 * the source points onto the paired target points. Exposed for testing
 * and for the matrix-operation microbenchmarks.
 */
RigidTransform3 bestRigidTransform(const std::vector<Vec3> &source,
                                   const std::vector<Vec3> &target);

/**
 * Per-point surface normals by local PCA: the smallest-eigenvalue
 * eigenvector of each point's k-neighborhood covariance. Orientation is
 * disambiguated towards @p viewpoint. When the cloud has fewer than k
 * points, a neighborhood repeats its farthest neighbor up to k.
 *
 * The eager form of the table IcpPlaneTarget fills on demand: the same
 * per-point routine, run for every point, so each normal is bitwise
 * equal to the one point-to-plane ICP computes for that point.
 *
 * @param profiler Optional; accumulates "icp-nn-build" (index
 *        construction), "normals-nn" (the irregular neighborhood
 *        gathering) and "normals-eigen" (the per-point 3x3 covariance
 *        eigendecompositions — matrix operations).
 */
std::vector<Vec3> estimateNormals(const PointCloud &cloud, int k,
                                  const Vec3 &viewpoint,
                                  PhaseProfiler *profiler = nullptr);

/**
 * Point-to-plane ICP target: the target cloud, its one nearest-neighbor
 * index, and a per-point normal table filled on demand. Registration
 * reads only the normals of target points that some correspondence
 * hits, so each such normal is estimated (k-neighborhood PCA on the
 * same index, as estimateNormals does) the first time a correspondence
 * hits it, and kept for the later iterations. A normal depends only on
 * the cloud, the point, k and the viewpoint, so results are the same
 * at any thread count and equal to registering against the eager
 * estimateNormals table.
 *
 * Holds a reference to the target cloud, which must outlive it and stay
 * unchanged. Not thread-safe: one registration at a time.
 */
class IcpPlaneTarget
{
  public:
    /**
     * Index @p target ("icp-nn-build" phase). Normals are estimated
     * from @p k neighbors and oriented towards @p viewpoint.
     */
    IcpPlaneTarget(const PointCloud &target, int k, const Vec3 &viewpoint,
                   PhaseProfiler *profiler = nullptr);
    ~IcpPlaneTarget();
    IcpPlaneTarget(const IcpPlaneTarget &) = delete;
    IcpPlaneTarget &operator=(const IcpPlaneTarget &) = delete;

    /** Normals estimated so far (at most the target's point count). */
    std::size_t normalsComputed() const;

  private:
    /** Target with a caller-supplied, complete normal table. */
    IcpPlaneTarget(const PointCloud &target,
                   const std::vector<Vec3> &normals,
                   PhaseProfiler *profiler);

    friend IcpResult icpPointToPlane(const PointCloud &,
                                     IcpPlaneTarget &, const IcpConfig &,
                                     PhaseProfiler *);
    friend IcpResult icpPointToPlane(const PointCloud &,
                                     const PointCloud &,
                                     const std::vector<Vec3> &,
                                     const IcpConfig &, PhaseProfiler *);
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Point-to-plane ICP: minimizes sum((R p + t - q) . n)^2 by solving the
 * linearized 6x6 normal equations each iteration. The registration
 * method of the KinectFusion-style pipeline the paper's srec kernel
 * builds on; unlike point-to-point it does not slide along planar
 * structure.
 *
 * Per iteration: "icp-nn" (correspondence search, entered exactly once
 * per iteration), then "normals-nn" / "normals-eigen" for target points
 * hit for the first time, then "icp-solve" (normal-equation assembly
 * and solve) and "icp-apply".
 */
IcpResult icpPointToPlane(const PointCloud &source, IcpPlaneTarget &target,
                          const IcpConfig &config = {},
                          PhaseProfiler *profiler = nullptr);

/**
 * Point-to-plane ICP against a precomputed normal table (one unit
 * normal per target point). Builds the target index ("icp-nn-build")
 * and runs the same loop as the IcpPlaneTarget overload, with every
 * normal already known.
 */
IcpResult icpPointToPlane(const PointCloud &source,
                          const PointCloud &target,
                          const std::vector<Vec3> &target_normals,
                          const IcpConfig &config = {},
                          PhaseProfiler *profiler = nullptr);

} // namespace rtr

#endif // RTR_POINTCLOUD_ICP_H
