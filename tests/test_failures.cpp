/**
 * @file
 * Failure-injection tests: user errors must die through fatal() with a
 * diagnostic (exit code 1), internal contract violations through
 * panic() (abort), and an unknown engine name in an RTR_* engine
 * variable with exit code 2. Uses gtest death tests.
 */

#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "grid/map_io.h"
#include "grid/raycast.h"
#include "kernels/registry.h"
#include "linalg/decomp.h"
#include "pointcloud/nn_engine.h"
#include "search/search_engine.h"
#include "util/args.h"
#include "util/batch_engine.h"
#include "util/stats.h"

namespace rtr {
namespace {

using FailuresDeathTest = ::testing::Test;

TEST(FailuresDeathTest, UnknownOptionIsFatal)
{
    ArgParser parser("tool");
    parser.addOption("known", "1", "a known option");
    EXPECT_EXIT(parser.parse({"--unknown", "3"}),
                ::testing::ExitedWithCode(1), "unknown argument");
}

TEST(FailuresDeathTest, MissingOptionValueIsFatal)
{
    ArgParser parser("tool");
    parser.addOption("samples", "1", "sample count");
    EXPECT_EXIT(parser.parse({"--samples"}),
                ::testing::ExitedWithCode(1), "expects a value");
}

TEST(FailuresDeathTest, NonNumericValueIsFatal)
{
    ArgParser parser("tool");
    parser.addOption("epsilon", "1.0", "weight");
    parser.parse({"--epsilon", "fast"});
    EXPECT_EXIT(parser.getDouble("epsilon"),
                ::testing::ExitedWithCode(1), "expects a number");
}

TEST(FailuresDeathTest, FlagWithValueIsFatal)
{
    ArgParser parser("tool");
    parser.addFlag("verbose", "chatty");
    EXPECT_EXIT(parser.parse({"--verbose=1"}),
                ::testing::ExitedWithCode(1), "does not take a value");
}

TEST(FailuresDeathTest, MissingMapFileIsFatal)
{
    EXPECT_EXIT(loadMovingAiMapFile("/nonexistent/path/boston.map"),
                ::testing::ExitedWithCode(1), "cannot open map file");
}

TEST(FailuresDeathTest, MalformedMapHeaderIsFatal)
{
    std::stringstream stream("type octile\nbananas 7\nmap\n");
    EXPECT_EXIT(loadMovingAiMap(stream), ::testing::ExitedWithCode(1),
                "unexpected token");
}

TEST(FailuresDeathTest, TruncatedMapBodyIsFatal)
{
    std::stringstream stream("height 3\nwidth 3\nmap\n...\n");
    EXPECT_EXIT(loadMovingAiMap(stream), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(FailuresDeathTest, SingularInverseIsFatal)
{
    Matrix singular{{1, 2}, {2, 4}};
    EXPECT_EXIT(inverse(singular), ::testing::ExitedWithCode(1),
                "singular");
}

TEST(FailuresDeathTest, UnknownKernelIsFatal)
{
    EXPECT_EXIT(makeKernel("warp-drive"), ::testing::ExitedWithCode(1),
                "unknown kernel");
}

TEST(FailuresDeathTest, QuantileOfEmptySetPanics)
{
    EXPECT_DEATH(quantile({}, 0.5), "empty sample set");
}

TEST(FailuresDeathTest, MatrixShapeMismatchPanics)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_DEATH(a * b, "matmul shape mismatch");
}

TEST(FailuresDeathTest, ReportFileToUnwritablePathIsFatal)
{
    KernelReport report;
    EXPECT_EXIT(writeReportFile(report, "/nonexistent/dir/report.csv"),
                ::testing::ExitedWithCode(1), "cannot write report");
}

/**
 * Sets one environment variable and runs death tests in the threadsafe
 * style for one scope, restoring both afterwards. The threadsafe style
 * re-executes the test binary, so the read-once engine defaults are
 * read fresh from the environment instead of inherited from this
 * process (where another test may have cached them already).
 */
class EngineEnvScope
{
  public:
    EngineEnvScope(const char *var, const char *value)
        : var_(var), style_(::testing::GTEST_FLAG(death_test_style))
    {
        if (const char *old = std::getenv(var))
            old_value_ = old;
        ::setenv(var, value, 1);
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
    ~EngineEnvScope()
    {
        if (old_value_)
            ::setenv(var_, old_value_->c_str(), 1);
        else
            ::unsetenv(var_);
        ::testing::GTEST_FLAG(death_test_style) = style_;
    }
    EngineEnvScope(const EngineEnvScope &) = delete;
    EngineEnvScope &operator=(const EngineEnvScope &) = delete;

  private:
    const char *var_;
    std::string style_;
    std::optional<std::string> old_value_;
};

TEST(FailuresDeathTest, UnknownRayEngineExitsWithStatus2)
{
    EngineEnvScope env("RTR_RAYCAST", "packet");
    EXPECT_EXIT(defaultRayEngine(), ::testing::ExitedWithCode(2),
                "RTR_RAYCAST=packet is not an engine \\(expected hier or "
                "scalar\\)");
}

TEST(FailuresDeathTest, UnknownSearchEngineExitsWithStatus2)
{
    EngineEnvScope env("RTR_SEARCH", "flatt");
    EXPECT_EXIT(defaultSearchEngine(), ::testing::ExitedWithCode(2),
                "RTR_SEARCH=flatt is not an engine \\(expected flat or "
                "heap\\)");
}

TEST(FailuresDeathTest, UnknownNnEngineExitsWithStatus2)
{
    EngineEnvScope env("RTR_NN_ENGINE", "nodes");
    EXPECT_EXIT(defaultNnEngine(), ::testing::ExitedWithCode(2),
                "RTR_NN_ENGINE=nodes is not an engine \\(expected bucket "
                "or node\\)");
}

TEST(FailuresDeathTest, UnknownBatchEngineExitsWithStatus2)
{
    EngineEnvScope env("RTR_BATCH_ENGINE", "scaler");
    EXPECT_EXIT(defaultBatchEngine(), ::testing::ExitedWithCode(2),
                "RTR_BATCH_ENGINE=scaler is not an engine \\(expected soa "
                "or scalar\\)");
}

} // namespace
} // namespace rtr
