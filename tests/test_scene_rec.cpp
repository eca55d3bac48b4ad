/**
 * @file
 * Tests for incremental scene reconstruction.
 */

#include <gtest/gtest.h>

#include "kernels/registry.h"
#include "perception/scene_reconstruction.h"
#include "pointcloud/scene_gen.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(SceneRec, FirstScanDefinesFrame)
{
    SceneReconstructor rec;
    PointCloud scan({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}});
    RigidTransform3 pose = rec.addScan(scan);
    EXPECT_TRUE(pose.rotation.approxEquals(Matrix::identity(3)));
    EXPECT_NEAR(pose.translation.norm(), 0.0, 1e-12);
    EXPECT_EQ(rec.model().size(), 4u);
    EXPECT_EQ(rec.scanCount(), 1u);
}

TEST(SceneRec, RecoversCameraTrajectory)
{
    IndoorScene scene = IndoorScene::livingRoom(1);
    DepthCamera camera;
    camera.width = 80;
    camera.height = 60;
    const int frames = 8;
    std::vector<CameraPose> trajectory = makeTrajectory(scene, frames);
    Rng rng(2);

    SceneReconstructor rec;
    for (const CameraPose &pose : trajectory)
        rec.addScan(simulateScan(scene, pose, camera, rng));

    ASSERT_EQ(rec.poses().size(), static_cast<std::size_t>(frames));
    RigidTransform3 world_from_first =
        trajectory.front().worldFromCamera();
    double total_error = 0.0;
    for (int f = 0; f < frames; ++f) {
        RigidTransform3 gt = world_from_first.inverted().compose(
            trajectory[static_cast<std::size_t>(f)].worldFromCamera());
        total_error += (rec.poses()[static_cast<std::size_t>(f)]
                            .translation -
                        gt.translation)
                           .norm();
    }
    EXPECT_LT(total_error / frames, 0.08);
    EXPECT_LT(rec.lastRmse(), 0.1);
}

TEST(SceneRec, ModelGrowthBoundedByDownsampling)
{
    IndoorScene scene = IndoorScene::livingRoom(3);
    DepthCamera camera;
    camera.width = 60;
    camera.height = 45;
    Rng rng(4);
    SceneRecConfig config;
    config.downsample_interval = 2;
    config.voxel_size = 0.08;
    SceneReconstructor rec(config);

    std::vector<CameraPose> trajectory = makeTrajectory(scene, 6);
    std::size_t raw_total = 0;
    for (const CameraPose &pose : trajectory) {
        PointCloud scan = simulateScan(scene, pose, camera, rng);
        raw_total += scan.size();
        rec.addScan(scan);
    }
    // Fusion keeps the model far smaller than the raw concatenation.
    EXPECT_LT(rec.model().size(), raw_total / 2);
    EXPECT_GT(rec.model().size(), 1000u);
}

TEST(SceneRec, ProfilerCoversPipelinePhases)
{
    IndoorScene scene = IndoorScene::livingRoom(5);
    DepthCamera camera;
    camera.width = 40;
    camera.height = 30;
    Rng rng(6);
    SceneReconstructor rec;
    PhaseProfiler profiler;
    auto trajectory = makeTrajectory(scene, 3);
    for (const CameraPose &pose : trajectory)
        rec.addScan(simulateScan(scene, pose, camera, rng),
                    &profiler);
    EXPECT_GT(profiler.phaseNs("icp-nn"), 0);
    EXPECT_GT(profiler.phaseNs("icp-solve"), 0);
    EXPECT_GT(profiler.phaseNs("merge"), 0);
    EXPECT_GT(profiler.phaseNs("normals-nn"), 0);
    EXPECT_GT(profiler.phaseNs("normals-eigen"), 0);
    // One model index per registered scan, none for normals alone.
    EXPECT_EQ(profiler.phaseCount("icp-nn-build"), 2);
    EXPECT_EQ(profiler.phaseCount("normals-nn-build"), 0);
}

TEST(SceneRec, ParallelNormalCountsAreThreadInvariant)
{
    // srec estimates only the model normals ICP reads: fewer than the
    // model points it indexes, and the same count at any thread count.
    double computed = 0.0;
    for (const char *threads : {"1", "2", "4"}) {
        KernelReport report = makeKernel("srec")->runWithDefaults(
            {"--frames", "4", "--scan-width", "48", "--scan-height", "36",
             "--threads", threads});
        const double normals = report.metrics.at("normals_computed");
        const double indexed = report.metrics.at("model_points_indexed");
        EXPECT_GT(normals, 0.0);
        EXPECT_LT(normals, indexed) << threads << " threads";
        if (computed == 0.0)
            computed = normals;
        EXPECT_EQ(normals, computed) << threads << " threads";
    }
    setParallelThreads(0);
}

} // namespace
} // namespace rtr
