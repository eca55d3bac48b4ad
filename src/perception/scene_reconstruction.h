/**
 * @file
 * Incremental 3-D scene reconstruction via ICP (kernel 03.srec).
 *
 * Point-based fusion in the style the paper builds on: each incoming
 * depth scan is registered against the accumulated model cloud with
 * ICP, transformed into the world frame, merged, and the model is kept
 * bounded by voxel downsampling (paper Fig. 4).
 */

#ifndef RTR_PERCEPTION_SCENE_RECONSTRUCTION_H
#define RTR_PERCEPTION_SCENE_RECONSTRUCTION_H

#include <vector>

#include "pointcloud/icp.h"
#include "pointcloud/point_cloud.h"
#include "util/profiler.h"

namespace rtr {

/** Reconstruction tuning knobs. */
struct SceneRecConfig
{
    /** ICP parameters for per-frame registration. */
    IcpConfig icp;
    /** Model resolution (voxel edge, world units). */
    double voxel_size = 0.05;
    /** Downsample the model every this many merged scans. */
    int downsample_interval = 4;

    SceneRecConfig()
    {
        icp.max_iterations = 30;
        icp.max_correspondence_distance = 0.4;
        icp.trim_fraction = 1.0;
    }
};

/** Incremental reconstructor. */
class SceneReconstructor
{
  public:
    explicit SceneReconstructor(const SceneRecConfig &config = {});

    /**
     * Register a new scan (camera-frame points) against the model and
     * merge it.
     *
     * The first scan defines the world frame. Each later scan is
     * registered by point-to-plane ICP against one index built over the
     * model, with model normals estimated on demand (IcpPlaneTarget).
     * Profiled phases: "icp-nn-build", "icp-nn", "normals-nn",
     * "normals-eigen", "icp-solve" and "icp-apply" (inside ICP) plus
     * "merge".
     *
     * @return Estimated world-from-camera transform of this scan.
     */
    RigidTransform3 addScan(const PointCloud &scan,
                            PhaseProfiler *profiler = nullptr);

    /** Accumulated world-frame model cloud. */
    const PointCloud &model() const { return model_; }

    /** Estimated camera poses, one per added scan. */
    const std::vector<RigidTransform3> &poses() const { return poses_; }

    /** RMSE of the most recent registration. */
    double lastRmse() const { return last_rmse_; }

    /** Number of scans merged. */
    std::size_t scanCount() const { return poses_.size(); }

    /** Model normals estimated by ICP, summed over registered scans. */
    std::size_t normalsComputed() const { return normals_computed_; }

    /** Model points indexed for ICP, summed over registered scans. */
    std::size_t modelPointsIndexed() const { return model_points_indexed_; }

  private:
    SceneRecConfig config_;
    PointCloud model_;
    std::vector<RigidTransform3> poses_;
    /** Last inter-frame motion, for constant-velocity seeding. */
    RigidTransform3 last_delta_;
    double last_rmse_ = 0.0;
    int scans_since_downsample_ = 0;
    std::size_t normals_computed_ = 0;
    std::size_t model_points_indexed_ = 0;
};

} // namespace rtr

#endif // RTR_PERCEPTION_SCENE_RECONSTRUCTION_H
