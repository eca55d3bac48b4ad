/**
 * @file
 * Ablation: nearest-neighbor engines.
 *
 * Two axes, matching the paper's claim that NN search is 31-49% of the
 * sampling-based planners and a major share of ICP:
 *
 *  1. structure: k-d tree vs brute-force scan inside RRT (the original
 *     ablation — what having a tree at all buys as the tree grows);
 *  2. layout: the leaf-bucketed SoA "bucket" engine vs the one-point-
 *     per-node "node" reference tree, micro (build / query / insert-
 *     heavy), calling both trees directly. The kernels run the bucket
 *     engine only; the node tree is kept as the reference this axis
 *     and the k-d tree tests compare against.
 *
 * Both engines return exactly identical hits under the (dist2, id)
 * tie-break contract; the bench asserts this on every micro workload.
 *
 * `--json [path]` additionally writes BENCH_nn.json (default path) so
 * EXPERIMENTS.md tracks measured numbers.
 */

#include <cstring>

#include "bench_common.h"
#include "pointcloud/bucket_kdtree.h"
#include "pointcloud/dyn_kdtree.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace rtr;
using namespace rtr::bench;

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

/** Uniform points in the arm-planner range, 5-D joint space. */
std::vector<std::vector<double>>
randomPoints(std::size_t n, std::size_t dim, Rng &rng)
{
    std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
    for (auto &p : pts)
        for (double &v : p)
            v = rng.uniform(-3.0, 3.0);
    return pts;
}

/** Exact hit-list equality: same ids AND bitwise-same dist2. */
bool
sameHits(const std::vector<KdHit> &a, const std::vector<KdHit> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].dist2 != b[i].dist2)
            return false;
    return true;
}

/** One micro size-point: both engines over the same workload. */
struct MicroResult
{
    std::size_t n = 0;
    double node_build_ms = 0.0, bucket_build_ms = 0.0;
    double node_nn_us = 0.0, bucket_nn_us = 0.0;
    double node_knn_us = 0.0, bucket_knn_us = 0.0;
    double node_radius_us = 0.0, bucket_radius_us = 0.0;
    double node_insert_us = 0.0, bucket_insert_us = 0.0;
    bool identical = true;
};

/**
 * Micro comparison at one size: static build + nearest / kNearest /
 * radius query cost, plus the RRT-style interleaved insert+nearest
 * loop, node vs bucket. Verifies exact result identity throughout.
 */
MicroResult
microAt(std::size_t n, Rng &rng)
{
    constexpr std::size_t kDim = 5;
    constexpr std::size_t kK = 10;
    constexpr double kRadius = 0.6;
    const int reps = 3;
    const std::size_t n_queries = 2000;

    MicroResult res;
    res.n = n;
    const auto points = randomPoints(n, kDim, rng);
    const auto queries = randomPoints(n_queries, kDim, rng);

    DynKdTree node(kDim);
    DynBucketKdTree bucket(kDim);
    res.node_build_ms = bestOf(reps, [&] {
        node.clear();
        for (std::size_t i = 0; i < n; ++i)
            node.insert(points[i], static_cast<std::uint32_t>(i));
    }) * 1e3;
    res.bucket_build_ms = bestOf(reps, [&] {
        bucket.build(points);
    }) * 1e3;

    double sink = 0.0;
    res.node_nn_us = bestOf(reps, [&] {
        for (const auto &q : queries)
            sink += node.nearest(q).dist2;
    }) * 1e6 / static_cast<double>(n_queries);
    res.bucket_nn_us = bestOf(reps, [&] {
        for (const auto &q : queries)
            sink += bucket.nearest(q).dist2;
    }) * 1e6 / static_cast<double>(n_queries);

    std::vector<KdHit> node_hits, bucket_hits;
    res.node_knn_us = bestOf(reps, [&] {
        for (const auto &q : queries) {
            node.kNearestInto(q, kK, node_hits);
            sink += node_hits.back().dist2;
        }
    }) * 1e6 / static_cast<double>(n_queries);
    res.bucket_knn_us = bestOf(reps, [&] {
        for (const auto &q : queries) {
            bucket.kNearestInto(q, kK, bucket_hits);
            sink += bucket_hits.back().dist2;
        }
    }) * 1e6 / static_cast<double>(n_queries);

    res.node_radius_us = bestOf(reps, [&] {
        for (const auto &q : queries) {
            node.radiusSearchInto(q, kRadius, node_hits);
            sink += static_cast<double>(node_hits.size());
        }
    }) * 1e6 / static_cast<double>(n_queries);
    res.bucket_radius_us = bestOf(reps, [&] {
        for (const auto &q : queries) {
            bucket.radiusSearchInto(q, kRadius, bucket_hits);
            sink += static_cast<double>(bucket_hits.size());
        }
    }) * 1e6 / static_cast<double>(n_queries);

    // RRT-style loop: alternate insert and nearest on a growing tree.
    res.node_insert_us = bestOf(reps, [&] {
        DynKdTree t(kDim);
        for (std::size_t i = 0; i < n; ++i) {
            t.insert(points[i], static_cast<std::uint32_t>(i));
            sink += t.nearest(queries[i % n_queries]).dist2;
        }
    }) * 1e6 / static_cast<double>(n);
    res.bucket_insert_us = bestOf(reps, [&] {
        DynBucketKdTree t(kDim);
        for (std::size_t i = 0; i < n; ++i) {
            t.insert(points[i], static_cast<std::uint32_t>(i));
            sink += t.nearest(queries[i % n_queries]).dist2;
        }
    }) * 1e6 / static_cast<double>(n);
    if (sink < 0)
        std::cout << "";  // keep the measurements live

    // Identity check over every query, all three query kinds.
    for (const auto &q : queries) {
        KdHit a = node.nearest(q);
        KdHit b = bucket.nearest(q);
        if (a.id != b.id || a.dist2 != b.dist2)
            res.identical = false;
        node.kNearestInto(q, kK, node_hits);
        bucket.kNearestInto(q, kK, bucket_hits);
        if (!sameHits(node_hits, bucket_hits))
            res.identical = false;
        node.radiusSearchInto(q, kRadius, node_hits);
        bucket.radiusSearchInto(q, kRadius, bucket_hits);
        if (!sameHits(node_hits, bucket_hits))
            res.identical = false;
    }
    return res;
}

void
writeJson(const std::string &path,
          const std::vector<MicroResult> &micro, bool all_identical)
{
    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "nn_engines");
    json.field("dim", 5);
    json.field("leaf_capacity",
               static_cast<long long>(detail::BucketKdCore::kLeafCapacity));
    json.beginArray("micro");
    for (const MicroResult &m : micro) {
        json.beginObject();
        json.field("n", static_cast<long long>(m.n));
        json.field("node_build_ms", m.node_build_ms);
        json.field("bucket_build_ms", m.bucket_build_ms);
        json.field("node_nearest_us", m.node_nn_us);
        json.field("bucket_nearest_us", m.bucket_nn_us);
        json.field("node_knearest_us", m.node_knn_us);
        json.field("bucket_knearest_us", m.bucket_knn_us);
        json.field("node_radius_us", m.node_radius_us);
        json.field("bucket_radius_us", m.bucket_radius_us);
        json.field("node_insert_nearest_us", m.node_insert_us);
        json.field("bucket_insert_nearest_us", m.bucket_insert_us);
        json.field("nearest_speedup", m.node_nn_us / m.bucket_nn_us);
        json.field("identical", m.identical);
        json.endObject();
    }
    json.endArray();
    json.field("all_identical", all_identical);
    json.endObject();
    std::cout << "\nwrote " << path << "\n";
}

/** The original ablation: kd-tree vs brute force inside RRT. */
void
structureAblation()
{
    Table micro({"tree size", "kd-tree us/query", "brute us/query",
                 "speedup"});
    Rng rng(1);
    for (std::size_t n : {1000u, 10000u, 50000u}) {
        DynKdTree tree(5);
        const auto points = randomPoints(n, 5, rng);
        for (std::size_t i = 0; i < n; ++i)
            tree.insert(points[i], static_cast<std::uint32_t>(i));
        const auto qs = randomPoints(2000, 5, rng);

        Stopwatch kd_timer;
        double checksum = 0.0;
        for (const auto &q : qs)
            checksum += tree.nearest(q).dist2;
        double kd_us = kd_timer.elapsedSec() * 1e6 /
                       static_cast<double>(qs.size());

        Stopwatch brute_timer;
        for (const auto &q : qs) {
            double best = 1e300;
            for (const auto &p : points) {
                double d2 = 0.0;
                for (std::size_t d = 0; d < 5; ++d) {
                    double diff = p[d] - q[d];
                    d2 += diff * diff;
                }
                best = std::min(best, d2);
            }
            checksum += best;
        }
        double brute_us = brute_timer.elapsedSec() * 1e6 /
                          static_cast<double>(qs.size());

        micro.addRow({Table::count(static_cast<long long>(n)),
                      Table::num(kd_us, 2), Table::num(brute_us, 2),
                      Table::num(brute_us / kd_us, 1) + "x"});
        if (checksum < 0)
            std::cout << "";  // keep the checksum live
    }
    micro.print();

    std::cout << "\nend-to-end rrt kernel (mean of 8 seeds):\n";
    Table e2e({"nn structure", "ROI ms (mean)", "nn share (mean)"});
    for (int brute : {0, 1}) {
        RunningStat roi, nn;
        for (int seed = 1; seed <= 8; ++seed) {
            KernelReport report = runKernel(
                "rrt", {"--no-kdtree", std::to_string(brute), "--seed",
                        std::to_string(seed), "--instance-seed",
                        std::to_string(seed)});
            roi.add(report.roi_seconds * 1e3);
            nn.add(report.metrics.at("nn_fraction"));
        }
        e2e.addRow({brute ? "brute force" : "kd-tree",
                    Table::num(roi.mean(), 2), Table::pct(nn.mean())});
    }
    e2e.print();
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv);
    requireKnownOptions(argc, argv, {"--json [path]"});
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_path = "BENCH_nn.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[i + 1];
        }
    }

    banner("ablation — nearest-neighbor engines",
           "NN search is 31-49% of the sampling-based planners and a "
           "major share of ICP (Table 1 / Fig. 5)");

    std::cout << "\n[1] structure: kd-tree vs brute-force scan (RRT)\n";
    structureAblation();

    std::cout << "\n[2] layout: bucket (leaf-bucketed SoA) vs node "
                 "(one-point-per-node) engine, 5-D\n";
    Table layout({"points", "phase", "node", "bucket", "speedup",
                  "identical"});
    std::vector<MicroResult> micro;
    Rng rng(3);
    bool all_identical = true;
    for (std::size_t n : {1000u, 10000u, 100000u}) {
        MicroResult m = microAt(n, rng);
        micro.push_back(m);
        all_identical = all_identical && m.identical;
        const std::string count = Table::count(static_cast<long long>(n));
        const std::string same = m.identical ? "yes" : "NO";
        layout.addRow({count, "build (ms)",
                       Table::num(m.node_build_ms, 2),
                       Table::num(m.bucket_build_ms, 2),
                       Table::num(m.node_build_ms / m.bucket_build_ms, 1) +
                           "x",
                       same});
        layout.addRow({count, "nearest (us)", Table::num(m.node_nn_us, 2),
                       Table::num(m.bucket_nn_us, 2),
                       Table::num(m.node_nn_us / m.bucket_nn_us, 1) + "x",
                       same});
        layout.addRow({count, "kNearest-10 (us)",
                       Table::num(m.node_knn_us, 2),
                       Table::num(m.bucket_knn_us, 2),
                       Table::num(m.node_knn_us / m.bucket_knn_us, 1) +
                           "x",
                       same});
        layout.addRow({count, "radius 0.6 (us)",
                       Table::num(m.node_radius_us, 2),
                       Table::num(m.bucket_radius_us, 2),
                       Table::num(m.node_radius_us / m.bucket_radius_us,
                                  1) +
                           "x",
                       same});
        layout.addRow({count, "insert+nearest (us)",
                       Table::num(m.node_insert_us, 2),
                       Table::num(m.bucket_insert_us, 2),
                       Table::num(m.node_insert_us / m.bucket_insert_us,
                                  1) +
                           "x",
                       same});
    }
    layout.print();

    if (!json_path.empty())
        writeJson(json_path, micro, all_identical);

    if (!all_identical) {
        std::cerr << "\nFAIL: engines disagreed on some workload\n";
        return 2;
    }
    return 0;
}
