/**
 * @file
 * Tests for the DDA ray-caster, including a property sweep against the
 * brute-force reference implementation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "geom/angle.h"
#include "grid/map_gen.h"
#include "grid/raycast.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rtr {
namespace {

OccupancyGrid2D
boxWorld()
{
    // 20 x 20 room with walls on the border and a block at x:10..12,
    // y:8..10.
    OccupancyGrid2D grid(20, 20, 1.0);
    for (int i = 0; i < 20; ++i) {
        grid.setOccupied(i, 0);
        grid.setOccupied(i, 19);
        grid.setOccupied(0, i);
        grid.setOccupied(19, i);
    }
    for (int x = 10; x <= 12; ++x) {
        for (int y = 8; y <= 10; ++y)
            grid.setOccupied(x, y);
    }
    return grid;
}

TEST(Raycast, AxisAlignedKnownDistances)
{
    OccupancyGrid2D grid = boxWorld();
    Vec2 origin{5.5, 9.5};
    // Ray along +x hits the block face at x = 10.
    EXPECT_NEAR(castRay(grid, origin, 0.0, 100.0), 4.5, 1e-9);
    // Ray along -x hits the left wall face at x = 1.
    EXPECT_NEAR(castRay(grid, origin, kPi, 100.0), 4.5, 1e-9);
    // Ray along +y hits the top wall face at y = 19.
    EXPECT_NEAR(castRay(grid, origin, kPi / 2.0, 100.0), 9.5, 1e-9);
}

TEST(Raycast, MaxRangeWhenNothingHit)
{
    OccupancyGrid2D grid = boxWorld();
    Vec2 origin{5.5, 5.5};
    EXPECT_DOUBLE_EQ(castRay(grid, origin, kPi / 4.0, 2.0), 2.0);
}

TEST(Raycast, OriginInsideObstacleIsZero)
{
    OccupancyGrid2D grid = boxWorld();
    EXPECT_DOUBLE_EQ(castRay(grid, {11.0, 9.0}, 0.3, 100.0), 0.0);
}

TEST(Raycast, DiagonalDistance)
{
    OccupancyGrid2D grid(10, 10, 1.0);
    grid.setOccupied(5, 5);
    // 45-degree ray from (3.5, 3.5) enters cell (5,5) at (5,5): the
    // distance is sqrt(2) * 1.5.
    double d = castRay(grid, {3.5, 3.5}, kPi / 4.0, 100.0);
    EXPECT_NEAR(d, std::sqrt(2.0) * 1.5, 1e-9);
}

TEST(Raycast, ScanProducesOneRangePerBeam)
{
    OccupancyGrid2D grid = boxWorld();
    std::vector<double> out;
    castScan(grid, {9.5, 4.5}, -kPi, kTwoPi, 36, 50.0, out);
    ASSERT_EQ(out.size(), 36u);
    for (double r : out) {
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, 50.0);
    }
}

TEST(Raycast, ResolutionIndependence)
{
    // The same world geometry at finer resolution gives the same
    // distances.
    OccupancyGrid2D coarse = boxWorld();
    OccupancyGrid2D fine = scaleMap(coarse, 4);
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        Vec2 origin{rng.uniform(1.5, 8.5), rng.uniform(1.5, 7.5)};
        double angle = rng.uniform(-kPi, kPi);
        double dc = castRay(coarse, origin, angle, 40.0);
        double df = castRay(fine, origin, angle, 40.0);
        EXPECT_NEAR(dc, df, 1e-9) << "origin (" << origin.x << ","
                                  << origin.y << ") angle " << angle;
    }
}

/** Property sweep: DDA matches the brute-force small-step reference. */
class RaycastVsReference : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RaycastVsReference, AgreesOnRandomMaps)
{
    Rng rng(GetParam());
    OccupancyGrid2D grid = makeRandomObstacleMap(48, 48, 0.15, GetParam());
    int tested = 0;
    while (tested < 60) {
        Vec2 origin{rng.uniform(1.0, 47.0), rng.uniform(1.0, 47.0)};
        if (grid.occupiedWorld(origin))
            continue;
        ++tested;
        double angle = rng.uniform(-kPi, kPi);
        double fast = castRay(grid, origin, angle, 30.0);
        double slow = castRayReference(grid, origin, angle, 30.0);
        // The reference steps at resolution/50, so tolerate that much.
        EXPECT_NEAR(fast, slow, grid.resolution() * 0.05)
            << "origin (" << origin.x << "," << origin.y << ") angle "
            << angle;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaycastVsReference,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/**
 * The bitwise-identity contract of the hierarchical engine: castRay
 * (pyramid empty-region skipping) must return the exact same double
 * as castRayScalar (probe every cell) for arbitrary maps, origins,
 * angles, and ranges — including rays starting inside occupied cells,
 * rays starting outside the map, and corner-grazing diagonals.
 */
class RaycastHierFuzz : public ::testing::TestWithParam<double>
{
};

TEST_P(RaycastHierFuzz, BitwiseIdenticalToScalarAcrossDensities)
{
    const double density = GetParam();
    Rng rng(static_cast<std::uint64_t>(density * 1000.0) + 3);
    for (std::uint64_t map_seed = 1; map_seed <= 4; ++map_seed) {
        OccupancyGrid2D grid =
            makeRandomObstacleMap(96, 64, density, map_seed);
        for (int i = 0; i < 250; ++i) {
            // Origins over (and slightly beyond) the whole map, free
            // or occupied alike.
            Vec2 origin{rng.uniform(-2.0, 98.0), rng.uniform(-2.0, 66.0)};
            double angle = rng.uniform(-kPi, kPi);
            double max_range = rng.uniform(0.5, 140.0);
            double hier = castRay(grid, origin, angle, max_range);
            double scalar = castRayScalar(grid, origin, angle, max_range);
            EXPECT_EQ(hier, scalar)
                << "origin (" << origin.x << "," << origin.y
                << ") angle " << angle << " range " << max_range
                << " density " << density << " seed " << map_seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Densities, RaycastHierFuzz,
                         ::testing::Values(0.0, 0.02, 0.15, 0.45));

TEST(RaycastHier, CornerGrazingAndAxisAlignedRaysMatchScalar)
{
    OccupancyGrid2D grid = boxWorld();
    // Cell-corner origins and axis/diagonal angles hit boundary ties
    // in the DDA; both engines must resolve them identically.
    const double angles[] = {0.0,       kPi / 4.0,  kPi / 2.0,
                             3 * kPi / 4.0, kPi,    -kPi / 4.0,
                             -kPi / 2.0, -3 * kPi / 4.0};
    for (int x = 1; x <= 18; x += 3) {
        for (int y = 1; y <= 18; y += 3) {
            for (double angle : angles) {
                Vec2 corner{static_cast<double>(x),
                            static_cast<double>(y)};
                EXPECT_EQ(castRay(grid, corner, angle, 50.0),
                          castRayScalar(grid, corner, angle, 50.0))
                    << "corner (" << x << "," << y << ") angle "
                    << angle;
            }
        }
    }
}

TEST(RaycastHier, MatchesReferenceOnIndoorMap)
{
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 3);
    Rng rng(9);
    int tested = 0;
    while (tested < 120) {
        Vec2 origin{rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0)};
        if (grid.occupiedWorld(origin))
            continue;
        ++tested;
        double angle = rng.uniform(-kPi, kPi);
        double fast = castRay(grid, origin, angle, 15.0);
        double slow = castRayReference(grid, origin, angle, 15.0);
        EXPECT_NEAR(fast, slow, grid.resolution() * 0.05);
    }
}

TEST(RaycastHier, SkipsProbesInOpenSpace)
{
    // A big empty room: the pyramid should cut probes by an order of
    // magnitude while the step count stays that of the scalar DDA.
    OccupancyGrid2D grid(512, 512, 0.05);
    for (int i = 0; i < 512; ++i) {
        grid.setOccupied(i, 0);
        grid.setOccupied(i, 511);
        grid.setOccupied(0, i);
        grid.setOccupied(511, i);
    }
    RayCastStats hier, scalar;
    Rng rng(4);
    for (int i = 0; i < 64; ++i) {
        double angle = rng.uniform(-kPi, kPi);
        Vec2 origin{12.8, 12.8};
        EXPECT_EQ(castRayCounted(grid, origin, angle, 30.0, hier),
                  castRayScalarCounted(grid, origin, angle, 30.0,
                                       scalar));
    }
    EXPECT_EQ(hier.steps, scalar.steps);
    EXPECT_LT(hier.probes * 10, scalar.probes)
        << "pyramid skipped too few probes: " << hier.probes << " vs "
        << scalar.probes;
}

TEST(RaycastHier, TracksDynamicEdits)
{
    // Incremental pyramid maintenance: occupy and free cells and check
    // the engines stay identical after every edit burst.
    OccupancyGrid2D grid(100, 70, 0.5);
    Rng rng(31);
    for (int round = 0; round < 40; ++round) {
        for (int e = 0; e < 25; ++e) {
            grid.setOccupied(static_cast<int>(rng.index(100)),
                             static_cast<int>(rng.index(70)),
                             rng.uniform() < 0.5);
        }
        for (int i = 0; i < 25; ++i) {
            Vec2 origin{rng.uniform(0.0, 50.0), rng.uniform(0.0, 35.0)};
            double angle = rng.uniform(-kPi, kPi);
            EXPECT_EQ(castRay(grid, origin, angle, 60.0),
                      castRayScalar(grid, origin, angle, 60.0))
                << "round " << round;
        }
    }
}

TEST(RaycastHier, ScanCountersEqualSumOfPerRayCounters)
{
    // castScanCounted adds up exactly the counters of its rays: the
    // per-ray castRayCounted / castRayScalarCounted totals.
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 3);
    const Vec2 origin{15.0, 10.0};
    const int n_rays = 60;
    const double start = -2.0, fov = 4.0, max_range = 20.0;
    const double step = fov / n_rays;
    for (RayEngine engine : {RayEngine::Hierarchical, RayEngine::Scalar}) {
        RayCastStats scan_stats, ray_stats;
        std::vector<double> scan;
        castScanCounted(grid, origin, start, fov, n_rays, max_range, scan,
                        engine, scan_stats);
        ASSERT_EQ(scan.size(), static_cast<std::size_t>(n_rays));
        for (int i = 0; i < n_rays; ++i) {
            const double angle = start + i * step;
            const double range =
                engine == RayEngine::Hierarchical
                    ? castRayCounted(grid, origin, angle, max_range,
                                     ray_stats)
                    : castRayScalarCounted(grid, origin, angle, max_range,
                                           ray_stats);
            EXPECT_EQ(scan[static_cast<std::size_t>(i)], range);
        }
        EXPECT_EQ(scan_stats.steps, ray_stats.steps)
            << rayEngineName(engine);
        EXPECT_EQ(scan_stats.probes, ray_stats.probes)
            << rayEngineName(engine);
    }
}

TEST(RaycastHier, TracksInterleavedApplyEditsBatches)
{
    // Batched edits (applyEdits) interleaved with hier scans: after
    // every batch the hier engine must match the scalar engine on a
    // twin grid maintained by sequential setOccupied calls.
    OccupancyGrid2D grid(100, 70, 0.5);
    OccupancyGrid2D twin(100, 70, 0.5);
    Rng rng(53);
    std::vector<double> hier, scalar;
    std::vector<CellEdit> edits;
    for (int round = 0; round < 30; ++round) {
        edits.clear();
        for (int e = 0; e < 40; ++e) {
            // Cluster edits so batches hit repeated words/blocks, and
            // stray out of bounds sometimes (must be ignored).
            edits.push_back({static_cast<int>(rng.index(104)) - 2,
                             static_cast<int>(rng.index(74)) - 2,
                             rng.uniform() < 0.5});
        }
        grid.applyEdits(edits);
        for (const CellEdit &e : edits)
            twin.setOccupied(e.x, e.y, e.occupied);
        for (int i = 0; i < 10; ++i) {
            Vec2 origin{rng.uniform(0.0, 50.0), rng.uniform(0.0, 35.0)};
            double start = rng.uniform(-kPi, kPi);
            castScan(grid, origin, start, 3.0, 24, 60.0, hier,
                     RayEngine::Hierarchical);
            castScan(twin, origin, start, 3.0, 24, 60.0, scalar,
                     RayEngine::Scalar);
            EXPECT_EQ(0, std::memcmp(hier.data(), scalar.data(),
                                     hier.size() * sizeof(double)))
                << "round " << round;
        }
    }
}

TEST(CastScanBatch, BitwiseIdenticalAcrossThreadCountsAndEngines)
{
    // The pfl ray path: castScanBatch under both engines, at 1, 2 and
    // all threads, against per-ray scalar casts made serially.
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 5);
    Rng rng(19);
    std::vector<Pose2> poses;
    while (poses.size() < 30) {
        Pose2 pose{rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0),
                   rng.uniform(-kPi, kPi)};
        if (!grid.occupiedWorld(pose.position()))
            poses.push_back(pose);
    }
    const int n_beams = 32;
    const double beam_step = 4.0 / n_beams;
    std::vector<double> reference;
    for (const Pose2 &pose : poses) {
        for (int b = 0; b < n_beams; ++b)
            reference.push_back(castRayScalar(
                grid, pose.position(), pose.theta - 2.0 + b * beam_step,
                12.0));
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{0}}) {
        setParallelThreads(threads);
        for (RayEngine engine :
             {RayEngine::Hierarchical, RayEngine::Scalar}) {
            std::vector<double> batch;
            castScanBatch(grid, poses, -2.0, 4.0, n_beams, 12.0, batch,
                          engine);
            ASSERT_EQ(batch.size(), reference.size());
            EXPECT_EQ(0, std::memcmp(batch.data(), reference.data(),
                                     batch.size() * sizeof(double)))
                << "threads " << threads << " engine "
                << rayEngineName(engine);
        }
    }
    setParallelThreads(0);
}

TEST(RayEngineSelection, NamesRoundTripAndRejectUnknown)
{
    RayEngine engine;
    ASSERT_TRUE(parseRayEngine("hier", engine));
    EXPECT_EQ(engine, RayEngine::Hierarchical);
    ASSERT_TRUE(parseRayEngine("scalar", engine));
    EXPECT_EQ(engine, RayEngine::Scalar);
    EXPECT_FALSE(parseRayEngine("packet", engine));
    EXPECT_FALSE(parseRayEngine("vector", engine));
    EXPECT_FALSE(parseRayEngine("", engine));
    EXPECT_STREQ(rayEngineName(RayEngine::Hierarchical), "hier");
    EXPECT_STREQ(rayEngineName(RayEngine::Scalar), "scalar");
}

TEST(CastScanBatch, MatchesPerPoseCastRay)
{
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 5);
    Rng rng(13);
    std::vector<Pose2> poses;
    while (poses.size() < 40) {
        Pose2 pose{rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0),
                   rng.uniform(-kPi, kPi)};
        if (!grid.occupiedWorld(pose.position()))
            poses.push_back(pose);
    }
    const int n_beams = 24;
    const double start_angle = -2.0, fov = 4.0, max_range = 12.0;
    std::vector<double> batch;
    castScanBatch(grid, poses, start_angle, fov, n_beams, max_range,
                  batch);
    std::vector<double> batch_scalar;
    castScanBatch(grid, poses, start_angle, fov, n_beams, max_range,
                  batch_scalar, RayEngine::Scalar);
    ASSERT_EQ(batch.size(), poses.size() * n_beams);
    ASSERT_EQ(batch_scalar.size(), batch.size());
    const double beam_step = fov / static_cast<double>(n_beams);
    for (std::size_t i = 0; i < poses.size(); ++i) {
        for (int b = 0; b < n_beams; ++b) {
            double angle = poses[i].theta + start_angle +
                           static_cast<double>(b) * beam_step;
            double expected = castRay(grid, poses[i].position(), angle,
                                      max_range);
            EXPECT_EQ(batch[i * n_beams + b], expected);
            EXPECT_EQ(batch_scalar[i * n_beams + b], expected);
        }
    }
}

} // namespace
} // namespace rtr
