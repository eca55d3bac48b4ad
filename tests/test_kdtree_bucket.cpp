/**
 * @file
 * Randomized fuzz suite for the leaf-bucketed ("bucket") NN engine.
 *
 * The engine's contract is exactness: hits identical (ids AND dist2,
 * under the documented (dist2, id) tie-break) to both a brute-force
 * oracle and the preserved one-point-per-node reference engine, for
 * nearest / kNearest / radiusSearch, across bulk builds, interleaved
 * incremental inserts, duplicate points, and runtime dimensions.
 * Every comparison below is therefore EXPECT_EQ, never near.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "pointcloud/bucket_kdtree.h"
#include "pointcloud/dyn_kdtree.h"
#include "pointcloud/kdtree.h"
#include "util/rng.h"

namespace rtr {
namespace {

/** Brute-force oracle under the (dist2, id) order: all hits sorted. */
std::vector<KdHit>
oracleAllHits(const std::vector<std::vector<double>> &points,
              const std::vector<double> &query)
{
    std::vector<KdHit> hits;
    hits.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        double d2 = 0.0;
        for (std::size_t d = 0; d < query.size(); ++d) {
            double diff = points[i][d] - query[d];
            d2 += diff * diff;
        }
        hits.push_back(KdHit{static_cast<std::uint32_t>(i), d2});
    }
    std::sort(hits.begin(), hits.end(), kdHitLess);
    return hits;
}

void
expectSameHits(const std::vector<KdHit> &got,
               const std::vector<KdHit> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << what << " hit " << i;
        EXPECT_EQ(got[i].dist2, want[i].dist2) << what << " hit " << i;
    }
}

std::vector<double>
randomPoint(std::size_t dim, Rng &rng, double lo, double hi)
{
    std::vector<double> p(dim);
    for (double &v : p)
        v = rng.uniform(lo, hi);
    return p;
}

/**
 * The core fuzz driver: grow a point set (bulk seed + incremental
 * inserts, optionally with exact duplicates), and after every growth
 * step check a few queries through all three implementations.
 */
void
fuzzDynTrees(std::size_t dim, std::uint64_t seed, bool with_duplicates)
{
    Rng rng(seed);
    DynBucketKdTree bucket(dim);
    DynKdTree node(dim);
    std::vector<std::vector<double>> points;

    // Seed with a bulk build (ids are indices, as the consumers use).
    const std::size_t n_seed = 64 + static_cast<std::size_t>(
                                        rng.uniform(0.0, 64.0));
    for (std::size_t i = 0; i < n_seed; ++i)
        points.push_back(randomPoint(dim, rng, -5.0, 5.0));
    bucket.build(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        node.insert(points[i], static_cast<std::uint32_t>(i));

    std::vector<KdHit> bucket_buf, node_buf;
    for (int round = 0; round < 12; ++round) {
        // Interleave inserts (crossing the pending-flush and the
        // binary-counter merge boundaries as the set grows).
        const int n_insert = 1 + static_cast<int>(rng.uniform(0.0, 40.0));
        for (int i = 0; i < n_insert; ++i) {
            std::vector<double> p;
            if (with_duplicates && !points.empty() &&
                rng.uniform(0.0, 1.0) < 0.5) {
                const auto src = static_cast<std::size_t>(
                    rng.uniform(0.0, static_cast<double>(points.size())));
                p = points[std::min(src, points.size() - 1)];
            } else {
                p = randomPoint(dim, rng, -5.0, 5.0);
            }
            const auto id = static_cast<std::uint32_t>(points.size());
            bucket.insert(p, id);
            node.insert(p, id);
            points.push_back(std::move(p));
        }
        ASSERT_EQ(bucket.size(), points.size());

        for (int q = 0; q < 8; ++q) {
            std::vector<double> query;
            if (with_duplicates && rng.uniform(0.0, 1.0) < 0.3) {
                // Query exactly on a stored point: dist2 == 0 ties.
                const auto src = static_cast<std::size_t>(rng.uniform(
                    0.0, static_cast<double>(points.size())));
                query = points[std::min(src, points.size() - 1)];
            } else {
                query = randomPoint(dim, rng, -6.0, 6.0);
            }
            const auto oracle = oracleAllHits(points, query);

            // nearest
            const KdHit bn = bucket.nearest(query);
            const KdHit nn = node.nearest(query);
            EXPECT_EQ(bn.id, oracle.front().id);
            EXPECT_EQ(bn.dist2, oracle.front().dist2);
            EXPECT_EQ(nn.id, bn.id);
            EXPECT_EQ(nn.dist2, bn.dist2);

            // kNearest (spans smaller-than-k and larger-than-leaf)
            const std::size_t k = 1 + static_cast<std::size_t>(
                                          rng.uniform(0.0, 48.0));
            bucket.kNearestInto(query, k, bucket_buf);
            node.kNearestInto(query, k, node_buf);
            std::vector<KdHit> want(
                oracle.begin(),
                oracle.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(k, oracle.size())));
            expectSameHits(bucket_buf, want, "bucket kNearest");
            expectSameHits(node_buf, want, "node kNearest");

            // radiusSearch (radius drawn to cover empty..most hits)
            const double radius = rng.uniform(0.0, 6.0);
            bucket.radiusSearchInto(query, radius, bucket_buf);
            node.radiusSearchInto(query, radius, node_buf);
            std::vector<KdHit> in_radius;
            for (const KdHit &h : oracle) {
                if (h.dist2 <= radius * radius)
                    in_radius.push_back(h);
            }
            expectSameHits(bucket_buf, in_radius, "bucket radius");
            expectSameHits(node_buf, in_radius, "node radius");
        }
    }
}

class BucketFuzzDims : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BucketFuzzDims, RandomPoints)
{
    fuzzDynTrees(GetParam(), GetParam() * 7919 + 13, false);
}

TEST_P(BucketFuzzDims, DuplicatePointsAndOnPointQueries)
{
    fuzzDynTrees(GetParam(), GetParam() * 104729 + 101, true);
}

INSTANTIATE_TEST_SUITE_P(Dims, BucketFuzzDims,
                         ::testing::Values(1, 2, 3, 5, 7));

TEST(BucketKdTree, EmptyAndClear)
{
    BucketKdTree<3> tree;
    EXPECT_TRUE(tree.empty());
    tree.insert({1, 2, 3}, 7);
    EXPECT_EQ(tree.size(), 1u);
    KdHit hit = tree.nearest({1, 2, 3});
    EXPECT_EQ(hit.id, 7u);
    EXPECT_EQ(hit.dist2, 0.0);
    tree.clear();
    EXPECT_TRUE(tree.empty());
}

TEST(BucketKdTree, BulkBuildMatchesReference)
{
    Rng rng(42);
    std::vector<std::array<double, 3>> points(3000);
    for (auto &p : points)
        for (double &v : p)
            v = rng.uniform(-10.0, 10.0);

    BucketKdTree<3> bucket;
    bucket.build(points);
    KdTree<3> node;
    node.build(points);

    for (int q = 0; q < 300; ++q) {
        std::array<double, 3> query{rng.uniform(-12, 12),
                                    rng.uniform(-12, 12),
                                    rng.uniform(-12, 12)};
        const KdHit b = bucket.nearest(query);
        const KdHit n = node.nearest(query);
        EXPECT_EQ(b.id, n.id);
        EXPECT_EQ(b.dist2, n.dist2);

        auto bk = bucket.kNearest(query, 12);
        auto nk = node.kNearest(query, 12);
        expectSameHits(bk, nk, "kNearest");

        auto br = bucket.radiusSearch(query, 2.5);
        auto nr = node.radiusSearch(query, 2.5);
        expectSameHits(br, nr, "radius");
    }
}

TEST(BucketKdTree, BatchedQueriesMatchScalarLoop)
{
    Rng rng(77);
    std::vector<std::array<double, 3>> points(5000);
    for (auto &p : points)
        for (double &v : p)
            v = rng.uniform(-10.0, 10.0);
    std::vector<std::array<double, 3>> queries(600);
    for (auto &q : queries)
        for (double &v : q)
            v = rng.uniform(-11.0, 11.0);

    BucketKdTree<3> tree;
    tree.build(points);

    std::vector<KdHit> batch;
    tree.nearestBatch(queries, batch);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const KdHit one = tree.nearest(queries[i]);
        EXPECT_EQ(batch[i].id, one.id);
        EXPECT_EQ(batch[i].dist2, one.dist2);
    }

    const std::size_t k = 9;
    std::vector<KdHit> kbatch;
    tree.kNearestBatch(queries, k, kbatch);
    ASSERT_EQ(kbatch.size(), queries.size() * k);
    std::vector<KdHit> one;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        tree.kNearestInto(queries[i], k, one);
        ASSERT_EQ(one.size(), k);
        for (std::size_t j = 0; j < k; ++j) {
            EXPECT_EQ(kbatch[i * k + j].id, one[j].id);
            EXPECT_EQ(kbatch[i * k + j].dist2, one[j].dist2);
        }
    }
}

TEST(BucketKdTree, KNearestBatchPadsWhenTreeSmallerThanK)
{
    BucketKdTree<2> tree;
    tree.insert({0.0, 0.0}, 0);
    tree.insert({1.0, 0.0}, 1);
    std::vector<std::array<double, 2>> queries{{0.1, 0.0}, {0.9, 0.0}};
    std::vector<KdHit> out;
    tree.kNearestBatch(queries, 4, out);
    ASSERT_EQ(out.size(), 8u);
    // Query 0: hits are id 0 then id 1; slots 2..3 repeat the last.
    EXPECT_EQ(out[0].id, 0u);
    EXPECT_EQ(out[1].id, 1u);
    EXPECT_EQ(out[2].id, 1u);
    EXPECT_EQ(out[3].id, 1u);
    // Query 1: nearest is id 1.
    EXPECT_EQ(out[4].id, 1u);
    EXPECT_EQ(out[5].id, 0u);
}

TEST(BucketKdTree, AllDuplicatePointsTieBreakBySmallestId)
{
    // Fully degenerate input: every point identical. The (dist2, id)
    // order makes results well-defined anyway: ids ascending.
    BucketKdTree<3> bucket;
    KdTree<3> node;
    std::vector<std::array<double, 3>> points(200, {1.0, 2.0, 3.0});
    bucket.build(points);
    node.build(points);

    const std::array<double, 3> query{1.0, 2.0, 3.0};
    EXPECT_EQ(bucket.nearest(query).id, 0u);
    EXPECT_EQ(node.nearest(query).id, 0u);

    auto bk = bucket.kNearest(query, 5);
    auto nk = node.kNearest(query, 5);
    ASSERT_EQ(bk.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(bk[i].id, i);
        EXPECT_EQ(nk[i].id, i);
    }

    auto br = bucket.radiusSearch(query, 0.5);
    ASSERT_EQ(br.size(), 200u);
    for (std::uint32_t i = 0; i < 200; ++i)
        EXPECT_EQ(br[i].id, i);
}

} // namespace
} // namespace rtr
