/**
 * @file
 * google-benchmark microkernels: the primitive operations the paper's
 * per-kernel analyses identify as acceleration targets (ray-casting,
 * footprint collision checks, L2 norms, matrix multiply/invert, k-d
 * tree queries, record sorts, symbolic state application).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "arm/cspace.h"
#include "bench_common.h"
#include "util/stopwatch.h"
#include "control/cem.h"
#include "grid/footprint.h"
#include "grid/map_gen.h"
#include "grid/raycast.h"
#include "linalg/decomp.h"
#include "grid/distance_transform.h"
#include "linalg/matrix.h"
#include "pointcloud/dyn_kdtree.h"
#include "symbolic/blocks_world.h"
#include "symbolic/planner.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace rtr;

void
BM_Raycast(benchmark::State &state)
{
    OccupancyGrid2D map = makeIndoorMap(240, 160, 0.25, 1);
    Rng rng(2);
    Vec2 origin{30.0, 20.0};
    while (map.occupiedWorld(origin))
        origin.x += 0.25;
    double angle = 0.0;
    for (auto _ : state) {
        angle += 0.1;
        benchmark::DoNotOptimize(castRay(map, origin, angle, 10.0));
    }
}
BENCHMARK(BM_Raycast);

/**
 * The pfl-style scan workload on a fine (0.05 m) indoor map — the
 * configuration the bitboard/pyramid engine targets. The map is the
 * standard 240x160 @ 0.25 m building upsampled 5x, so the geometry is
 * identical to the kernel's and only the cell count (1200x800) grows.
 */
OccupancyGrid2D
fineIndoorMap()
{
    return scaleMap(makeIndoorMap(240, 160, 0.25, 1), 5);
}

Vec2
freeScanOrigin(const OccupancyGrid2D &map)
{
    Vec2 origin{30.0, 20.0};
    while (map.occupiedWorld(origin))
        origin.x += map.resolution();
    return origin;
}

void
castScanFine(benchmark::State &state, RayEngine engine)
{
    OccupancyGrid2D map = fineIndoorMap();
    Vec2 origin = freeScanOrigin(map);
    std::vector<double> out;
    for (auto _ : state) {
        castScan(map, origin, -2.0, 4.0, 60, 20.0, out, engine);
        benchmark::DoNotOptimize(out.data());
    }
}

void
BM_CastScanScalar(benchmark::State &state)
{
    castScanFine(state, RayEngine::Scalar);
}
BENCHMARK(BM_CastScanScalar);

void
BM_CastScanHier(benchmark::State &state)
{
    castScanFine(state, RayEngine::Hierarchical);
}
BENCHMARK(BM_CastScanHier);

void
BM_FootprintCollision(benchmark::State &state)
{
    OccupancyGrid2D map = makeCityMap(512, 0.5, 1);
    RectFootprint car(4.8, 1.8);
    Rng rng(3);
    std::vector<Pose2> poses;
    for (int i = 0; i < 256; ++i)
        poses.push_back(Pose2{rng.uniform(10, 240), rng.uniform(10, 240),
                              rng.uniform(-kPi, kPi)});
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            car.collides(map, poses[i++ % poses.size()]));
    }
}
BENCHMARK(BM_FootprintCollision);

void
BM_L2Norm5D(benchmark::State &state)
{
    Rng rng(4);
    ConfigSpace space(5, -kPi, kPi);
    ArmConfig a = space.sample(rng);
    ArmConfig b = space.sample(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ConfigSpace::distance(a, b));
        a[0] += 1e-9;  // defeat caching
    }
}
BENCHMARK(BM_L2Norm5D);

void
BM_MatrixMultiply(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1, 1);
            b(r, c) = rng.uniform(-1, 1);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_MatrixMultiply)->Arg(8)->Arg(15)->Arg(31);

/**
 * The seed's matmul inner loop with its `lhs == 0.0` skip, kept here
 * (and only here) after its removal from Matrix::operator* so
 * EXPERIMENTS.md can keep quoting a measured before/after for the
 * branch. On the dense random operands every kernel actually feeds the
 * multiply, the branch never fires and only costs the compare.
 */
void
BM_MatrixMultiplyZeroSkip(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1, 1);
            b(r, c) = rng.uniform(-1, 1);
        }
    }
    for (auto _ : state) {
        Matrix out(n, n);
        const double *ap = a.data();
        const double *bp = b.data();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t k = 0; k < n; ++k) {
                double lhs = ap[i * n + k];
                if (lhs == 0.0)
                    continue;
                const double *rhs_row = bp + k * n;
                double *out_row = out.data() + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    out_row[j] += lhs * rhs_row[j];
            }
        }
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_MatrixMultiplyZeroSkip)->Arg(8)->Arg(15)->Arg(31);

void
matrixMultiplyOnPath(benchmark::State &state, LinalgPath path)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1, 1);
            b(r, c) = rng.uniform(-1, 1);
        }
    }
    Matrix out;
    for (auto _ : state) {
        gemm(a, b, out, 1.0, 0.0, path);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}

void
BM_GemmScalar(benchmark::State &state)
{
    matrixMultiplyOnPath(state, LinalgPath::Scalar);
}
BENCHMARK(BM_GemmScalar)->Arg(8)->Arg(15)->Arg(35)->Arg(96);

void
BM_GemmSimd(benchmark::State &state)
{
    matrixMultiplyOnPath(state, LinalgPath::Simd);
}
BENCHMARK(BM_GemmSimd)->Arg(8)->Arg(15)->Arg(35)->Arg(96);

void
choleskyOnPath(benchmark::State &state, LinalgPath path)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1, 1);
    Matrix spd = multiplyTransposed(a, a);
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    Matrix rhs(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        rhs(i, 0) = rng.uniform(-1, 1);
    for (auto _ : state) {
        CholeskyDecomposition chol(spd, path);
        benchmark::DoNotOptimize(chol.solve(rhs));
    }
}

void
BM_CholeskyScalar(benchmark::State &state)
{
    choleskyOnPath(state, LinalgPath::Scalar);
}
BENCHMARK(BM_CholeskyScalar)->Arg(8)->Arg(16)->Arg(50);

void
BM_CholeskySimd(benchmark::State &state)
{
    choleskyOnPath(state, LinalgPath::Simd);
}
BENCHMARK(BM_CholeskySimd)->Arg(8)->Arg(16)->Arg(50);

void
BM_MatrixInverse(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1, 1);
        a(r, r) += 2.0;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(inverse(a));
}
BENCHMARK(BM_MatrixInverse)->Arg(8)->Arg(15)->Arg(31);

void
BM_KdTreeNearest(benchmark::State &state)
{
    Rng rng(7);
    DynKdTree tree(5);
    for (int i = 0; i < 20000; ++i) {
        std::vector<double> p(5);
        for (double &v : p)
            v = rng.uniform(-3, 3);
        tree.insert(p, static_cast<std::uint32_t>(i));
    }
    std::vector<double> q(5, 0.0);
    for (auto _ : state) {
        q[0] = rng.uniform(-3, 3);
        benchmark::DoNotOptimize(tree.nearest(q));
    }
}
BENCHMARK(BM_KdTreeNearest);

void
BM_SortSampleRecords(benchmark::State &state)
{
    // The cem/bo sort: reward-keyed records carrying parameter vectors
    // and inline traces.
    Rng rng(8);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<CemSample> master(n);
    for (std::size_t i = 0; i < n; ++i) {
        master[i].params = {rng.uniform(), rng.uniform(), rng.uniform()};
        master[i].reward = rng.uniform();
        for (double &t : master[i].trace)
            t = rng.uniform();
    }
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<CemSample> copy = master;
        state.ResumeTiming();
        std::sort(copy.begin(), copy.end(),
                  [](const CemSample &a, const CemSample &b) {
                      return a.reward > b.reward;
                  });
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_SortSampleRecords)->Arg(15)->Arg(50)->Arg(500);

void
BM_SymbolicApply(benchmark::State &state)
{
    SymbolicProblem problem = makeBlocksWorld(8, 1);
    std::vector<GroundAction> actions = groundActions(problem);
    SymbolicState current = problem.initial;
    std::size_t i = 0;
    for (auto _ : state) {
        const GroundAction &action = actions[i++ % actions.size()];
        if (action.applicable(current))
            benchmark::DoNotOptimize(action.apply(current));
        else
            benchmark::DoNotOptimize(&action);
    }
}
BENCHMARK(BM_SymbolicApply);

void
BM_ChamferDistanceTransform(benchmark::State &state)
{
    OccupancyGrid2D map = makeRandomObstacleMap(256, 256, 0.1, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(distanceTransform(map));
}
BENCHMARK(BM_ChamferDistanceTransform);

/**
 * --json mode: measure the castScan workload on the fine indoor map
 * with both engines (warmup per bench_common.h), assert bitwise
 * identity, and write a machine-readable baseline so future PRs can
 * track ns/ray and cells-visited/ray without parsing bench output.
 */
int
writeRaycastBaseline(const std::string &path)
{
    const int n_rays = 60;
    const std::size_t n_origins = 64;
    const double max_range = 20.0;
    const double fov = 4.0;
    OccupancyGrid2D map = fineIndoorMap();

    // Scan origins spread over free space, pfl-style.
    Rng rng(7);
    std::vector<Vec2> origins;
    while (origins.size() < n_origins) {
        Vec2 p{map.origin().x + rng.uniform(1.0, map.worldWidth() - 1.0),
               map.origin().y + rng.uniform(1.0, map.worldHeight() - 1.0)};
        if (!map.occupiedWorld(p))
            origins.push_back(p);
    }

    // Timed sweeps run the production (uncounted) engines — the stats
    // counters cost a per-step store each and would distort ns/ray.
    auto sweep = [&](RayEngine engine, std::vector<double> &ranges) {
        ranges.clear();
        std::vector<double> scan;
        for (const Vec2 &origin : origins) {
            castScan(map, origin, -2.0, fov, n_rays, max_range, scan,
                     engine);
            ranges.insert(ranges.end(), scan.begin(), scan.end());
        }
    };
    // Separate uninstrumented pass for traversal statistics.
    auto count = [&](RayEngine engine, RayCastStats &stats) {
        std::vector<double> scan;
        for (const Vec2 &origin : origins)
            castScanCounted(map, origin, -2.0, fov, n_rays, max_range,
                            scan, engine, stats);
    };

    std::vector<double> scalar_ranges, hier_ranges;
    RayCastStats scalar_stats, hier_stats;
    // Warmup passes (not measured).
    for (int w = 0; w < rtr::bench::warmupRuns(); ++w) {
        sweep(RayEngine::Scalar, scalar_ranges);
        sweep(RayEngine::Hierarchical, hier_ranges);
    }
    // Best-of-N to shed scheduler noise on shared machines.
    const int reps = 5;
    double scalar_sec = 1e300, hier_sec = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch scalar_timer;
        sweep(RayEngine::Scalar, scalar_ranges);
        scalar_sec = std::min(scalar_sec, scalar_timer.elapsedSec());
        Stopwatch hier_timer;
        sweep(RayEngine::Hierarchical, hier_ranges);
        hier_sec = std::min(hier_sec, hier_timer.elapsedSec());
    }
    count(RayEngine::Scalar, scalar_stats);
    count(RayEngine::Hierarchical, hier_stats);

    const bool identical = scalar_ranges == hier_ranges;
    const double rays =
        static_cast<double>(origins.size()) * n_rays;

    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    rtr::bench::JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "castScan");
    json.beginObject("map");
    json.field("generator", "indoor");
    json.field("width", map.width());
    json.field("height", map.height());
    json.field("resolution_m", map.resolution());
    json.endObject();
    json.field("rays", static_cast<long long>(rays));
    json.field("max_range_m", max_range);
    json.beginObject("scalar");
    json.field("ns_per_ray", scalar_sec * 1e9 / rays);
    json.field("cells_per_ray",
               static_cast<double>(scalar_stats.probes) / rays);
    json.endObject();
    json.beginObject("hierarchical");
    json.field("ns_per_ray", hier_sec * 1e9 / rays);
    json.field("cells_per_ray",
               static_cast<double>(hier_stats.probes) / rays);
    json.field("steps_per_ray",
               static_cast<double>(hier_stats.steps) / rays);
    json.endObject();
    json.field("speedup", scalar_sec / hier_sec);
    json.field("bitwise_identical", identical);
    json.endObject();
    std::cout << "castScan baseline (" << static_cast<long long>(rays)
              << " rays, " << map.width() << "x" << map.height() << " @ "
              << map.resolution() << " m):\n"
              << "  scalar: " << scalar_sec * 1e9 / rays
              << " ns/ray, "
              << static_cast<double>(scalar_stats.probes) / rays
              << " cells/ray\n"
              << "  hier:   " << hier_sec * 1e9 / rays << " ns/ray, "
              << static_cast<double>(hier_stats.probes) / rays
              << " probes/ray\n"
              << "  hier speedup: " << scalar_sec / hier_sec
              << "x, bitwise identical: "
              << (identical ? "yes" : "NO") << "\n"
              << "  wrote " << path << "\n";
    return identical ? 0 : 2;
}

/** Fill a matrix with uniform(-1, 1) draws. */
void
fillRandom(Matrix &m, Rng &rng)
{
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
        m.data()[i] = rng.uniform(-1, 1);
}

/** Best-of-@p reps seconds for one call of @p body, after one warmup. */
template <typename F>
double
bestOf(int reps, F &&body)
{
    body();
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        body();
        best = std::min(best, timer.elapsedSec());
    }
    return best;
}

/**
 * --json mode, dense-linalg block: time the GEMM and Cholesky
 * micro-kernels, the scalar reference (multiplyScalar,
 * LinalgPath::Scalar) vs the production SIMD path, across the
 * EKF/GP-relevant size range, assert bitwise identity at every size,
 * and write BENCH_gemm.json so future PRs can track GFLOP/s. Returns
 * nonzero if any scalar/SIMD pair differs bitwise.
 */
int
writeGemmBaseline(const std::string &path)
{
    const int reps = 5;
    Rng rng(11);
    bool all_identical = true;

    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    rtr::bench::JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "dense_linalg");
    json.field("simd_backend", simd::kBackendName);
    json.field("vector_width",
               static_cast<long long>(simd::VecD::kWidth));

    std::cout << "dense-linalg baseline (backend " << simd::kBackendName
              << ", width " << simd::VecD::kWidth << "):\n";

    // GEMM sweep. 8..35 bracket the EKF state sizes (n = 3 + 2L for
    // 4..16 landmarks); 50 is the GP's largest Gram matrix; 64/96 show
    // where the micro-kernel is heading asymptotically.
    json.beginArray("gemm");
    for (std::size_t n : {8u, 11u, 15u, 23u, 35u, 50u, 64u, 96u}) {
        Matrix a(n, n), b(n, n);
        fillRandom(a, rng);
        fillRandom(b, rng);
        // Enough multiplies per rep to dwarf timer granularity.
        const int iters = static_cast<int>(
            std::max<std::size_t>(1, 3000000 / (n * n * n)));
        Matrix out;
        const double scalar_sec = bestOf(reps, [&] {
            for (int i = 0; i < iters; ++i)
                out = a.multiplyScalar(b);
        }) / iters;
        const Matrix scalar_out = out;
        const double simd_sec = bestOf(reps, [&] {
            for (int i = 0; i < iters; ++i)
                out = a * b;
        }) / iters;
        const bool identical =
            std::memcmp(scalar_out.data(), out.data(),
                        sizeof(double) * n * n) == 0;
        all_identical = all_identical && identical;
        const double flops = 2.0 * static_cast<double>(n) * n * n;
        json.beginObject();
        json.field("n", static_cast<long long>(n));
        json.field("scalar_ns", scalar_sec * 1e9);
        json.field("simd_ns", simd_sec * 1e9);
        json.field("scalar_gflops", flops / scalar_sec * 1e-9);
        json.field("simd_gflops", flops / simd_sec * 1e-9);
        json.field("speedup", scalar_sec / simd_sec);
        json.field("bitwise_identical", identical);
        json.endObject();
        std::cout << "  gemm n=" << n << ": " << scalar_sec * 1e9
                  << " -> " << simd_sec * 1e9 << " ns ("
                  << flops / simd_sec * 1e-9 << " GFLOP/s, "
                  << scalar_sec / simd_sec << "x, bitwise "
                  << (identical ? "yes" : "NO") << ")\n";
    }
    json.endArray();

    // Cholesky sweep: factor + single-RHS solve (the GP predict shape).
    json.beginArray("cholesky");
    for (std::size_t n : {8u, 16u, 35u, 50u, 96u}) {
        Matrix g(n, n);
        fillRandom(g, rng);
        Matrix spd = multiplyTransposed(g, g);
        for (std::size_t i = 0; i < n; ++i)
            spd(i, i) += static_cast<double>(n);
        Matrix rhs(n, 1);
        fillRandom(rhs, rng);
        const int iters = static_cast<int>(
            std::max<std::size_t>(1, 1000000 / (n * n * n)));
        Matrix x;
        auto factorSolve = [&](LinalgPath path) {
            return bestOf(reps, [&] {
                for (int i = 0; i < iters; ++i) {
                    CholeskyDecomposition chol(spd, path);
                    chol.solveInto(rhs, x);
                }
            }) / iters;
        };
        const double scalar_sec = factorSolve(LinalgPath::Scalar);
        const Matrix scalar_l =
            CholeskyDecomposition(spd, LinalgPath::Scalar).lower();
        const Matrix scalar_x = x;
        const double simd_sec = factorSolve(LinalgPath::Simd);
        const Matrix simd_l = CholeskyDecomposition(spd).lower();
        const bool identical =
            std::memcmp(scalar_l.data(), simd_l.data(),
                        sizeof(double) * n * n) == 0 &&
            std::memcmp(scalar_x.data(), x.data(),
                        sizeof(double) * n) == 0;
        all_identical = all_identical && identical;
        json.beginObject();
        json.field("n", static_cast<long long>(n));
        json.field("scalar_ns", scalar_sec * 1e9);
        json.field("simd_ns", simd_sec * 1e9);
        json.field("speedup", scalar_sec / simd_sec);
        json.field("bitwise_identical", identical);
        json.endObject();
        std::cout << "  chol n=" << n << ": " << scalar_sec * 1e9
                  << " -> " << simd_sec * 1e9 << " ns ("
                  << scalar_sec / simd_sec << "x, bitwise "
                  << (identical ? "yes" : "NO") << ")\n";
    }
    json.endArray();

    json.field("bitwise_identical", all_identical);
    json.endObject();
    std::cout << "  wrote " << path << "\n";
    return all_identical ? 0 : 2;
}

} // namespace

/**
 * Custom main: `bench_micro --json [path ...]` writes the baselines
 * named on the command line and exits. A path whose file name contains
 * "raycast" receives the ray-cast baseline, one containing "gemm" the
 * dense-linalg baseline; with no path, both go to their default files
 * (BENCH_raycast.json, BENCH_gemm.json). Anything else is handed to
 * google-benchmark unchanged (after the shared harness strips
 * --trace/--counters).
 */
int
main(int argc, char **argv)
{
    rtr::bench::Harness harness(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            // In --json mode this main owns the argv contract (the
            // google-benchmark path below has its own strict
            // ReportUnrecognizedArguments); reject anything that is
            // not the --json flag and its positional paths.
            rtr::bench::requireKnownOptions(
                argc, argv, {"--json [raycast.json] [gemm.json]"});
            std::vector<std::string> paths;
            for (int j = i + 1; j < argc && argv[j][0] != '-'; ++j)
                paths.push_back(argv[j]);
            if (paths.empty())
                paths = {"BENCH_raycast.json", "BENCH_gemm.json"};
            int rc = 0;
            for (const std::string &path : paths) {
                const std::string name =
                    path.substr(path.find_last_of('/') + 1);
                int path_rc = 1;
                if (name.find("raycast") != std::string::npos)
                    path_rc = writeRaycastBaseline(path);
                else if (name.find("gemm") != std::string::npos)
                    path_rc = writeGemmBaseline(path);
                else
                    std::cerr << "--json: '" << path << "' names neither "
                              << "baseline (its file name must contain "
                              << "'raycast' or 'gemm')\n";
                rc = rc ? rc : path_rc;
            }
            return rc;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
