/**
 * @file
 * Tests for ICP registration (Horn's method, point-to-point,
 * point-to-plane) and the synthetic depth-scan generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "geom/angle.h"
#include "pointcloud/icp.h"
#include "pointcloud/scene_gen.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rtr {
namespace {

PointCloud
randomCloud(std::size_t n, Rng &rng, double extent = 1.0)
{
    PointCloud cloud;
    for (std::size_t i = 0; i < n; ++i)
        cloud.add({rng.uniform(-extent, extent),
                   rng.uniform(-extent, extent),
                   rng.uniform(-extent, extent)});
    return cloud;
}

TEST(Horn, RecoversExactTransform)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        PointCloud src = randomCloud(50, rng);
        RigidTransform3 gt;
        gt.rotation = rotationZ(rng.uniform(-kPi, kPi));
        gt.translation = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-3, 3)};
        std::vector<Vec3> dst;
        for (const Vec3 &p : src.points())
            dst.push_back(gt.apply(p));

        RigidTransform3 est = bestRigidTransform(src.points(), dst);
        EXPECT_NEAR((est.rotation - gt.rotation).frobeniusNorm(), 0.0,
                    1e-9);
        EXPECT_NEAR((est.translation - gt.translation).norm(), 0.0,
                    1e-9);
    }
}

TEST(Horn, ReturnsProperRotation)
{
    Rng rng(3);
    PointCloud src = randomCloud(30, rng);
    std::vector<Vec3> dst;
    RigidTransform3 gt;
    gt.rotation = rotationZ(0.7);
    for (const Vec3 &p : src.points())
        dst.push_back(gt.apply(p));
    RigidTransform3 est = bestRigidTransform(src.points(), dst);
    // R^T R = I and det R = +1.
    EXPECT_TRUE((est.rotation.transposed() * est.rotation)
                    .approxEquals(Matrix::identity(3), 1e-9));
}

TEST(IcpPointToPoint, ConvergesFromSmallOffset)
{
    Rng rng(4);
    PointCloud target = randomCloud(300, rng, 2.0);
    RigidTransform3 offset;
    offset.rotation = rotationZ(0.1);
    offset.translation = {0.05, -0.08, 0.02};
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 50;
    IcpResult result = icpRegister(source, target, config);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.rmse, 1e-4);
    EXPECT_NEAR((result.transform.rotation - offset.rotation)
                    .frobeniusNorm(),
                0.0, 1e-3);
}

TEST(IcpPointToPoint, ProfilerPhasesPopulated)
{
    Rng rng(5);
    PointCloud target = randomCloud(100, rng);
    PointCloud source = target;
    PhaseProfiler profiler;
    icpRegister(source, target, {}, &profiler);
    EXPECT_GT(profiler.phaseNs("icp-nn"), 0);
}

TEST(IcpPointToPoint, TrimmedVariantStillConverges)
{
    Rng rng(6);
    PointCloud target = randomCloud(300, rng, 2.0);
    RigidTransform3 offset;
    offset.translation = {0.1, 0.05, -0.03};
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 60;
    config.trim_fraction = 0.8;
    IcpResult result = icpRegister(source, target, config);
    EXPECT_LT(result.rmse, 1e-3);
}

TEST(IcpPointToPlane, RecoversTransformOnStructuredScene)
{
    // A synthetic corner: three orthogonal planes pin all 6 DoF.
    PointCloud target;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        double u = rng.uniform(0.0, 2.0), v = rng.uniform(0.0, 2.0);
        int plane = i % 3;
        if (plane == 0)
            target.add({u, v, 0.0});
        else if (plane == 1)
            target.add({u, 0.0, v});
        else
            target.add({0.0, u, v});
    }
    std::vector<Vec3> normals = estimateNormals(target, 10, {1.0, 1.0, 1.0});

    RigidTransform3 offset;
    offset.rotation = rotationZ(0.05);
    offset.translation = {0.03, -0.04, 0.05};
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 40;
    IcpResult result = icpPointToPlane(source, target, normals, config);
    EXPECT_LT(result.rmse, 1e-3);
    EXPECT_NEAR((result.transform.translation - offset.translation).norm(),
                0.0, 0.02);
}

TEST(IcpPointToPlane, DoesNotSlideOnPlaneWithFeatures)
{
    // A plane with a ridge: point-to-plane must recover in-plane
    // translation thanks to the ridge.
    PointCloud target;
    Rng rng(8);
    for (int i = 0; i < 500; ++i) {
        double x = rng.uniform(0.0, 4.0), y = rng.uniform(0.0, 4.0);
        double z = (x > 1.9 && x < 2.1) ? 0.3 : 0.0;
        target.add({x, y, z});
    }
    std::vector<Vec3> normals =
        estimateNormals(target, 10, {2.0, 2.0, 5.0});

    RigidTransform3 offset;
    offset.translation = {0.08, 0.0, 0.0};  // tangential shift
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 40;
    IcpResult result = icpPointToPlane(source, target, normals, config);
    EXPECT_NEAR(result.transform.translation.x, 0.08, 0.03);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Two ICP results agree bit for bit (transform, rmse, counts). */
void
expectSameResult(const IcpResult &a, const IcpResult &b)
{
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_TRUE(sameBits(a.rmse, b.rmse)) << a.rmse << " vs " << b.rmse;
    EXPECT_EQ(std::memcmp(a.transform.rotation.data(),
                          b.transform.rotation.data(), 9 * sizeof(double)),
              0);
    EXPECT_TRUE(sameBits(a.transform.translation.x, b.transform.translation.x));
    EXPECT_TRUE(sameBits(a.transform.translation.y, b.transform.translation.y));
    EXPECT_TRUE(sameBits(a.transform.translation.z, b.transform.translation.z));
}

TEST(IcpPlaneTarget, ParallelOnDemandNormalsMatchEagerBitwise)
{
    // srec's per-frame registration (model built from the scans so far,
    // point-to-plane ICP with k = 10 normals) with normals estimated on
    // demand must equal ICP fed the eager estimateNormals table, at any
    // thread count. Seed 7 is one where srec misses its pose-error bar.
    DepthCamera camera;
    camera.width = 48;
    camera.height = 36;
    IcpConfig config;
    config.max_iterations = 25;
    config.max_correspondence_distance = 0.5;
    for (std::uint64_t seed : {1u, 2u, 3u, 7u}) {
        IndoorScene scene = IndoorScene::livingRoom(seed);
        std::vector<CameraPose> trajectory = makeTrajectory(scene, 4);
        Rng rng(seed * 31 + 5);
        std::vector<PointCloud> scans;
        for (const CameraPose &pose : trajectory)
            scans.push_back(simulateScan(scene, pose, camera, rng));

        PointCloud model = scans[0];
        RigidTransform3 pose;
        std::size_t seed_computed = 0;
        for (std::size_t f = 1; f < scans.size(); ++f) {
            const PointCloud seeded = scans[f].transformed(pose);
            IcpResult first;
            std::size_t first_computed = 0;
            for (std::size_t threads : {1u, 2u, 4u}) {
                setParallelThreads(threads);
                std::vector<Vec3> normals =
                    estimateNormals(model, 10, pose.translation);
                IcpResult eager =
                    icpPointToPlane(seeded, model, normals, config);
                IcpPlaneTarget target(model, 10, pose.translation);
                IcpResult lazy = icpPointToPlane(seeded, target, config);
                SCOPED_TRACE("seed " + std::to_string(seed) + " frame " +
                             std::to_string(f) + " threads " +
                             std::to_string(threads));
                expectSameResult(eager, lazy);
                EXPECT_LT(target.normalsComputed(), model.size());
                if (threads == 1) {
                    first = lazy;
                    first_computed = target.normalsComputed();
                } else {
                    expectSameResult(first, lazy);
                    EXPECT_EQ(target.normalsComputed(), first_computed);
                }
            }
            seed_computed += first_computed;
            pose = first.transform.compose(pose);
            model.append(scans[f].transformed(pose));
            model = model.voxelDownsampled(0.04);
        }
        EXPECT_GT(seed_computed, 0u) << "seed " << seed;
    }
    setParallelThreads(0);
}

TEST(IcpPlaneTarget, TargetSmallerThanKPadsNeighborhoods)
{
    // 8 target points, k = 10: every neighborhood repeats its farthest
    // neighbor, on the on-demand path as in estimateNormals.
    Rng rng(12);
    PointCloud target;
    for (int i = 0; i < 8; ++i)
        target.add({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                    0.1 * rng.uniform(0.0, 1.0)});
    RigidTransform3 offset;
    offset.translation = {0.02, -0.01, 0.03};
    PointCloud source = target.transformed(offset.inverted());
    const Vec3 viewpoint{0.5, 0.5, 3.0};

    std::vector<Vec3> normals = estimateNormals(target, 10, viewpoint);
    IcpResult eager = icpPointToPlane(source, target, normals);
    IcpPlaneTarget plane(target, 10, viewpoint);
    IcpResult lazy = icpPointToPlane(source, plane);
    expectSameResult(eager, lazy);
    EXPECT_GT(plane.normalsComputed(), 0u);
    EXPECT_LE(plane.normalsComputed(), target.size());
}

TEST(SceneGen, LivingRoomIsDeterministic)
{
    IndoorScene a = IndoorScene::livingRoom(9);
    IndoorScene b = IndoorScene::livingRoom(9);
    ASSERT_EQ(a.furniture().size(), b.furniture().size());
    EXPECT_GT(a.furniture().size(), 3u);
}

TEST(SceneGen, RaycastHitsRoomShell)
{
    IndoorScene scene = IndoorScene::livingRoom(1);
    Vec3 center = scene.room().center();
    // Straight up must hit the ceiling.
    double up = scene.raycast(center, {0, 0, 1}, 100.0);
    EXPECT_NEAR(up, scene.room().hi.z - center.z, 1e-9);
    // Distance is capped at max range.
    EXPECT_DOUBLE_EQ(scene.raycast(center, {0, 0, 1}, 0.5), 0.5);
}

TEST(SceneGen, ScanPointsMatchSceneGeometry)
{
    IndoorScene scene = IndoorScene::livingRoom(2);
    DepthCamera camera;
    camera.noise_stddev = 0.0;
    CameraPose pose;
    pose.position = scene.room().center();
    pose.yaw = 0.4;
    Rng rng(3);
    PointCloud scan = simulateScan(scene, pose, camera, rng);
    ASSERT_GT(scan.size(), 100u);

    // Every camera-frame point, mapped to world, must lie on a surface:
    // re-raycasting towards it gives (almost) its distance.
    RigidTransform3 world_from_cam = pose.worldFromCamera();
    for (std::size_t i = 0; i < scan.size(); i += 97) {
        Vec3 world = world_from_cam.apply(scan[i]);
        Vec3 dir = (world - pose.position).normalized();
        double dist = scene.raycast(pose.position, dir, 100.0);
        EXPECT_NEAR(dist, (world - pose.position).norm(), 1e-6);
    }
}

TEST(SceneGen, TrajectoryStaysInsideRoom)
{
    IndoorScene scene = IndoorScene::livingRoom(4);
    auto poses = makeTrajectory(scene, 20);
    ASSERT_EQ(poses.size(), 20u);
    for (const CameraPose &pose : poses)
        EXPECT_TRUE(scene.room().contains(pose.position));
}

} // namespace
} // namespace rtr
