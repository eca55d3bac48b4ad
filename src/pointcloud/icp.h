/**
 * @file
 * Iterative Closest Point (point-to-point) registration.
 *
 * The registration core of the scene-reconstruction kernel (03.srec),
 * following the classic KinectFusion-style pipeline the paper builds on:
 * per iteration, correspondences via nearest-neighbor search, then the
 * closed-form optimal rigid motion via Horn's quaternion method. Every
 * neighbor query runs on the leaf-bucketed k-d tree (bucket_kdtree.h).
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
 * disambiguated towards @p viewpoint.
 *
 * @param profiler Optional; accumulates "normals-nn-build" (index
 *        construction), "normals-nn" (the irregular neighborhood
 *        gathering) and "normals-eigen" (the per-point covariance
 *        eigendecompositions — matrix operations).
 */
std::vector<Vec3> estimateNormals(const PointCloud &cloud, int k,
                                  const Vec3 &viewpoint,
                                  PhaseProfiler *profiler = nullptr);

/**
 * Point-to-plane ICP: minimizes sum((R p + t - q) . n)^2 by solving the
 * linearized 6x6 normal equations each iteration. The registration
 * method of the KinectFusion-style pipeline the paper's srec kernel
 * builds on; unlike point-to-point it does not slide along planar
 * structure.
 *
 * @param target_normals One unit normal per target point.
 */
IcpResult icpPointToPlane(const PointCloud &source,
                          const PointCloud &target,
                          const std::vector<Vec3> &target_normals,
                          const IcpConfig &config = {},
                          PhaseProfiler *profiler = nullptr);

} // namespace rtr

#endif // RTR_POINTCLOUD_ICP_H
