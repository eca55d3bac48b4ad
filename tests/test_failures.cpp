/**
 * @file
 * Failure-injection tests: user errors must die through fatal() with a
 * diagnostic (exit code 1), internal contract violations through
 * panic() (abort). Uses gtest death tests.
 */

#include <string>

#include <gtest/gtest.h>

#include "grid/map_io.h"
#include "kernels/registry.h"
#include "linalg/decomp.h"
#include "util/args.h"
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

} // namespace
} // namespace rtr
