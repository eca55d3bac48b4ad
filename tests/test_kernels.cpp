/**
 * @file
 * Integration tests: every RTRBench kernel runs end-to-end at a
 * reduced configuration, succeeds, and reports the phases and metrics
 * its paper section promises.
 */

#include <gtest/gtest.h>

#include "kernels/registry.h"

namespace rtr {
namespace {

TEST(Registry, HasAllSixteenKernels)
{
    EXPECT_EQ(kernelNames().size(), 16u);
    auto kernels = makeAllKernels();
    ASSERT_EQ(kernels.size(), 16u);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        EXPECT_EQ(kernels[i]->name(), kernelNames()[i]);
}

TEST(Registry, StagesMatchTableOne)
{
    EXPECT_EQ(makeKernel("pfl")->stage(), Stage::Perception);
    EXPECT_EQ(makeKernel("ekfslam")->stage(), Stage::Perception);
    EXPECT_EQ(makeKernel("srec")->stage(), Stage::Perception);
    for (const char *name : {"pp2d", "pp3d", "movtar", "prm", "rrt",
                             "rrtstar", "rrtpp", "sym-blkw", "sym-fext"})
        EXPECT_EQ(makeKernel(name)->stage(), Stage::Planning) << name;
    for (const char *name : {"dmp", "mpc", "cem", "bo"})
        EXPECT_EQ(makeKernel(name)->stage(), Stage::Control) << name;
}

TEST(Registry, EveryKernelDocumentsItsOptions)
{
    for (const std::string &name : kernelNames()) {
        auto kernel = makeKernel(name);
        ArgParser parser(name);
        kernel->addOptions(parser);
        std::string usage = parser.usage();
        EXPECT_NE(usage.find("--help"), std::string::npos) << name;
        EXPECT_FALSE(kernel->description().empty()) << name;
    }
}

/** Small-but-real configurations, one per kernel. */
std::vector<std::string>
smallConfig(const std::string &name)
{
    if (name == "pfl")
        return {"--particles", "300", "--steps", "25"};
    if (name == "ekfslam")
        return {"--steps", "200"};
    if (name == "srec")
        return {"--frames", "6", "--scan-width", "60",
                "--scan-height", "45"};
    if (name == "pp2d")
        return {"--map-size", "256"};
    if (name == "pp3d")
        return {"--map-size", "64", "--map-depth", "16"};
    if (name == "movtar")
        return {"--env-size", "64", "--trajectory-steps", "90"};
    if (name == "prm")
        return {"--samples", "1200"};
    if (name == "rrt" || name == "rrtpp")
        return {};
    if (name == "rrtstar")
        return {"--samples", "1500"};
    if (name == "sym-blkw")
        return {"--blocks", "5"};
    if (name == "sym-fext")
        return {"--waypoints", "5"};
    if (name == "dmp")
        return {"--rollouts", "20"};
    if (name == "mpc")
        return {"--ref-points", "40"};
    if (name == "cem")
        return {"--repeats", "50"};
    if (name == "bo")
        return {"--candidates", "2000", "--iterations", "20"};
    return {};
}

class KernelRuns : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelRuns, SucceedsAtReducedScale)
{
    auto kernel = makeKernel(GetParam());
    KernelReport report = kernel->runWithDefaults(smallConfig(GetParam()));
    EXPECT_TRUE(report.success) << GetParam();
    EXPECT_GT(report.roi_seconds, 0.0);
    EXPECT_FALSE(report.metrics.empty());
    EXPECT_FALSE(report.profiler.phases().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelRuns,
    ::testing::Values("pfl", "ekfslam", "srec", "pp2d", "pp3d", "movtar",
                      "prm", "rrt", "rrtstar", "rrtpp", "sym-blkw",
                      "sym-fext", "dmp", "mpc", "cem", "bo"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(KernelMetrics, BottlenecksMatchTableOne)
{
    // Spot-check that each kernel's dominant phase metric exists and is
    // a meaningful fraction, per Table I.
    auto expect_metric = [](const std::string &kernel,
                            const std::string &metric, double min_value,
                            std::vector<std::string> config) {
        KernelReport report =
            makeKernel(kernel)->runWithDefaults(std::move(config));
        ASSERT_TRUE(report.metrics.count(metric))
            << kernel << " lacks " << metric;
        EXPECT_GE(report.metrics.at(metric), min_value)
            << kernel << "." << metric;
    };

    // The Table-I profile was measured probing every traversed cell, so
    // reproduce it with the scalar ray-cast engine; the hierarchical
    // engine exists precisely to shrink this fraction.
    KernelReport pfl = makeKernel("pfl")->runWithDefaults(
        {"--particles", "300", "--steps", "20", "--raycast", "scalar"});
    ASSERT_TRUE(pfl.metrics.count("raycast_fraction"));
    // The ray-cast work as counts, which are the same in every build:
    // one ray per particle and beam (60 by default) at each of the 20
    // steps, and at least 20 cell probes per ray against one
    // likelihood evaluation per ray in the weight update.
    EXPECT_EQ(pfl.metrics.at("rays_cast"), 300.0 * 60.0 * 20.0);
    EXPECT_GE(pfl.metrics.at("probes_per_ray_scalar"),
              pfl.metrics.at("probes_per_ray_hier"));
    EXPECT_GE(pfl.metrics.at("probes_per_ray_scalar"), 20.0);
#ifndef RTR_INSTRUMENTED
    // The wall-time share. Sanitizer instrumentation slows the rest of
    // the filter more than the ray loop (it read 0.28-0.50 under
    // UBSan and ASan), so only uninstrumented builds hold this floor.
    EXPECT_GE(pfl.metrics.at("raycast_fraction"), 0.5)
        << "pfl.raycast_fraction";
#endif
    expect_metric("ekfslam", "matrix_ops_fraction", 0.7,
                  {"--steps", "150"});
    expect_metric("pp2d", "collision_fraction", 0.5,
                  {"--map-size", "256"});
    expect_metric("rrt", "collision_fraction", 0.3, {});
    expect_metric("mpc", "optimize_fraction", 0.8,
                  {"--ref-points", "30"});
}

TEST(KernelSeries, FigureDataIsEmitted)
{
    // Fig. 2: pfl spread series shrinks.
    KernelReport pfl = makeKernel("pfl")->runWithDefaults(
        {"--particles", "300", "--steps", "25"});
    ASSERT_TRUE(pfl.series.count("spread"));
    const auto &spread = pfl.series.at("spread");
    ASSERT_GE(spread.size(), 10u);
    EXPECT_LT(spread.back(), spread.front());

    // Fig. 18: cem reward series exists and improves.
    KernelReport cem =
        makeKernel("cem")->runWithDefaults({"--repeats", "5"});
    ASSERT_TRUE(cem.series.count("reward"));
    EXPECT_EQ(cem.series.at("reward").size(), 75u);
}

TEST(KernelDeterminism, SameSeedSameMetrics)
{
    auto run = [] {
        return makeKernel("rrt")->runWithDefaults({"--seed", "5"});
    };
    KernelReport a = run();
    KernelReport b = run();
    EXPECT_DOUBLE_EQ(a.metrics.at("path_cost_rad"),
                     b.metrics.at("path_cost_rad"));
    EXPECT_DOUBLE_EQ(a.metrics.at("samples"), b.metrics.at("samples"));
}

} // namespace
} // namespace rtr
