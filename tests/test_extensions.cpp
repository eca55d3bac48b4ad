/**
 * @file
 * Tests for the optional/extension features: informed RRT* sampling,
 * adaptive (ESS-based) resampling, report serialization, and
 * fuzz-style cross-checks of the heap against the standard library.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <queue>
#include <sstream>

#include "arm/cspace.h"
#include "arm/workspace.h"
#include "geom/angle.h"
#include "grid/map_gen.h"
#include "kernels/registry.h"
#include "perception/particle_filter.h"
#include "plan/rrt_star.h"
#include "search/dary_heap.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(InformedRrtStar, StillFindsValidPlansAndHelpsQuality)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 4, 0.45);
    Workspace workspace = makeMapC();
    ConfigSpace space(4, -kPi, kPi);
    ArmCollisionChecker checker(arm, workspace);

    Rng endpoint_rng(5);
    auto sample_free = [&]() -> ArmConfig {
        while (true) {
            ArmConfig q = space.sample(endpoint_rng);
            if (!checker.configCollides(q))
                return q;
        }
    };
    ArmConfig start = sample_free();
    ArmConfig goal;
    do {
        goal = sample_free();
    } while (ConfigSpace::distance(start, goal) < 1.2);

    RrtStarConfig plain;
    plain.max_samples = 2000;
    plain.refine_factor = 1e18;
    RrtStarConfig informed = plain;
    informed.informed_sampling = true;

    double plain_total = 0.0, informed_total = 0.0;
    int both = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng_a(seed), rng_b(seed);
        RrtStarPlan a = RrtStarPlanner(space, checker, plain)
                            .plan(start, goal, rng_a);
        RrtStarPlan b = RrtStarPlanner(space, checker, informed)
                            .plan(start, goal, rng_b);
        if (!a.found || !b.found)
            continue;
        ++both;
        plain_total += a.cost;
        informed_total += b.cost;
        // Informed plans remain valid.
        for (std::size_t i = 0; i + 1 < b.path.size(); ++i)
            EXPECT_FALSE(
                checker.motionCollides(b.path[i], b.path[i + 1], 0.05));
    }
    ASSERT_GE(both, 3);
    // Focusing samples can only help (or tie) on average.
    EXPECT_LE(informed_total, plain_total * 1.05);
}

TEST(AdaptiveResampling, EssDetectsDegeneracy)
{
    OccupancyGrid2D map = makeIndoorMap(80, 60, 0.25, 1);
    ParticleFilter filter(map, 100);
    Rng rng(2);
    filter.initializeUniform(rng);
    // Fresh uniform weights: ESS == n.
    EXPECT_NEAR(filter.effectiveSampleSize(), 100.0, 1e-6);
    EXPECT_FALSE(filter.resampleIfNeeded(rng, 0.5));

    // After a measurement the weights skew and ESS drops.
    Pose2 pose{8.0, 7.5, 0.0};
    LaserScan scan = simulateScan(map, pose, 40, 10.0, 0.0, rng);
    filter.measurementUpdate(scan);
    double ess = filter.effectiveSampleSize();
    EXPECT_LT(ess, 100.0);
    if (ess < 50.0) {
        EXPECT_TRUE(filter.resampleIfNeeded(rng, 0.5));
        EXPECT_NEAR(filter.effectiveSampleSize(), 100.0, 1e-6);
    }
}

TEST(ReportFile, RoundTripsSections)
{
    KernelReport report =
        makeKernel("dmp")->runWithDefaults({"--rollouts", "5"});
    std::string path = ::testing::TempDir() + "/dmp_report.csv";
    writeReportFile(report, path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("section,key,value"), std::string::npos);
    EXPECT_NE(contents.find("run,success,1"), std::string::npos);
    EXPECT_NE(contents.find("metric,tracking_error_m"),
              std::string::npos);
    EXPECT_NE(contents.find("series,traj_x"), std::string::npos);
    EXPECT_NE(contents.find("phase_ns,rollout"), std::string::npos);
    std::remove(path.c_str());
}

TEST(MinHeapFuzz, MatchesStdPriorityQueue)
{
    Rng rng(3);
    MinHeap<std::uint32_t> ours;
    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        reference;

    for (int op = 0; op < 20000; ++op) {
        bool push = reference.empty() || rng.chance(0.55);
        if (push) {
            double key = rng.uniform(0, 1000);
            auto id = static_cast<std::uint32_t>(rng.index(1 << 20));
            ours.push(key, id);
            reference.emplace(key, id);
        } else {
            auto [key, id] = ours.pop();
            ASSERT_DOUBLE_EQ(key, reference.top().first);
            reference.pop();
        }
        ASSERT_EQ(ours.size(), reference.size());
    }
}

TEST(RngEngineFuzz, IndexNeverOutOfRange)
{
    Rng rng(4);
    for (int i = 0; i < 10000; ++i) {
        std::size_t n = 1 + rng.index(50);
        EXPECT_LT(rng.index(n), n);
    }
}

} // namespace
} // namespace rtr
