/**
 * @file
 * Property suite for the SIMD dense-linalg micro-kernels.
 *
 * The contract (DESIGN.md "Dense linear algebra"): the SIMD paths of
 * the GEMM family and the Cholesky/LU factor+solve are BITWISE
 * identical to the preserved scalar reference paths, for every shape —
 * including sizes that are not multiples of the vector width. These
 * tests sweep sizes 1..17, compare with memcmp (not a tolerance), and
 * additionally pin the aliasing traps and IEEE NaN/Inf propagation.
 *
 * Both paths run in-process: the scalar reference through the
 * explicit entry points (Matrix::multiplyScalar, LinalgPath::Scalar),
 * the SIMD path through the production calls. Under
 * -DRTR_FORCE_SCALAR_SIMD=ON both compile to scalar code and the suite
 * degenerates to self-consistency, which is exactly what the scalar CI
 * leg is for.
 */

#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/decomp.h"
#include "linalg/matrix.h"
#include "util/simd.h"

namespace rtr {
namespace {

bool
bitwiseEqual(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       sizeof(double) * a.rows() * a.cols()) == 0;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i)
        m.data()[i] = dist(rng);
    return m;
}

Matrix
randomSpd(std::size_t n, std::mt19937 &rng)
{
    Matrix a = randomMatrix(n, n, rng);
    Matrix spd = multiplyTransposed(a, a);
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(LinalgSimd, BackendReportsSaneWidth)
{
    const std::size_t w = simd::VecD::kWidth;
    EXPECT_TRUE(w == 1 || w == 2 || w == 4);
#if defined(RTR_FORCE_SCALAR_SIMD)
    EXPECT_EQ(w, 1u);
    EXPECT_STREQ(simd::kBackendName, "scalar");
#endif
}

TEST(LinalgSimd, MultiplyBitwiseMatchesScalarAcrossSizes)
{
    std::mt19937 rng(7);
    for (std::size_t m = 1; m <= 17; ++m) {
        for (std::size_t k : {1u, 2u, 3u, 5u, 8u, 13u, 17u}) {
            for (std::size_t n = 1; n <= 17; ++n) {
                Matrix a = randomMatrix(m, k, rng);
                Matrix b = randomMatrix(k, n, rng);
                const Matrix ref = a.multiplyScalar(b);
                const Matrix simd = a * b;
                ASSERT_TRUE(bitwiseEqual(ref, simd))
                    << "simd product differs at " << m << "x" << k << "x"
                    << n;
            }
        }
    }
}

TEST(LinalgSimd, GemmAlphaBetaBitwiseMatchesScalar)
{
    std::mt19937 rng(11);
    for (std::size_t n = 1; n <= 17; n += 2) {
        for (double alpha : {1.0, 0.75}) {
            for (double beta : {0.0, 1.0, -0.5}) {
                Matrix a = randomMatrix(n, n + 1, rng);
                Matrix b = randomMatrix(n + 1, n + 2, rng);
                Matrix c0 = randomMatrix(n, n + 2, rng);

                Matrix c_scalar = c0;
                gemm(a, b, c_scalar, alpha, beta, LinalgPath::Scalar);
                Matrix c_simd = c0;
                gemm(a, b, c_simd, alpha, beta, LinalgPath::Simd);
                ASSERT_TRUE(bitwiseEqual(c_scalar, c_simd))
                    << "gemm differs at n=" << n << " alpha=" << alpha
                    << " beta=" << beta;
            }
        }
    }
}

TEST(LinalgSimd, MultiplyTransposedBitwiseMatchesMaterializedTranspose)
{
    std::mt19937 rng(13);
    for (std::size_t m = 1; m <= 17; m += 3) {
        for (std::size_t k = 1; k <= 17; k += 2) {
            for (std::size_t n = 1; n <= 17; n += 3) {
                Matrix a = randomMatrix(m, k, rng);
                Matrix b = randomMatrix(n, k, rng);
                const Matrix ref = a.multiplyScalar(b.transposed());
                const Matrix fused = multiplyTransposed(a, b);
                ASSERT_TRUE(bitwiseEqual(ref, fused))
                    << "multiplyTransposed differs at " << m << "x" << k
                    << "x" << n;
            }
        }
    }
}

TEST(LinalgSimd, SymmetricSandwichBitwiseMatchesComposition)
{
    std::mt19937 rng(17);
    for (std::size_t n = 1; n <= 17; ++n) {
        Matrix h = randomMatrix(2, n, rng);
        Matrix p = randomSpd(n, rng);
        const Matrix ref =
            h.multiplyScalar(p).multiplyScalar(h.transposed());
        Matrix out, work;
        symmetricSandwich(h, p, out, work);
        ASSERT_TRUE(bitwiseEqual(ref, out)) << "sandwich differs at n=" << n;
    }
}

TEST(LinalgSimd, AddScaledOuterBitwiseMatchesScalar)
{
    std::mt19937 rng(19);
    for (std::size_t m = 1; m <= 17; m += 2) {
        for (std::size_t n = 1; n <= 17; n += 3) {
            Matrix x = randomMatrix(m, 1, rng);
            Matrix y = randomMatrix(n, 1, rng);
            Matrix c0 = randomMatrix(m, n, rng);
            Matrix c_scalar = c0;
            addScaledOuter(c_scalar, 1.25, x, y, LinalgPath::Scalar);
            Matrix c_simd = c0;
            addScaledOuter(c_simd, 1.25, x, y, LinalgPath::Simd);
            ASSERT_TRUE(bitwiseEqual(c_scalar, c_simd))
                << "addScaledOuter differs at " << m << "x" << n;
        }
    }
}

TEST(LinalgSimd, CholeskyFactorAndLogDetBitwiseAcrossSizes)
{
    std::mt19937 rng(23);
    for (std::size_t n = 1; n <= 17; ++n) {
        Matrix spd = randomSpd(n, rng);
        CholeskyDecomposition ref(spd, LinalgPath::Scalar);
        CholeskyDecomposition simd(spd, LinalgPath::Simd);
        ASSERT_FALSE(ref.failed());
        ASSERT_FALSE(simd.failed());
        ASSERT_TRUE(bitwiseEqual(ref.lower(), simd.lower()))
            << "Cholesky factor differs at n=" << n;
        // Bitwise-equal factors make logDeterminant bitwise equal too.
        const double ld_ref = ref.logDeterminant();
        const double ld_simd = simd.logDeterminant();
        ASSERT_EQ(std::memcmp(&ld_ref, &ld_simd, sizeof(double)), 0);
    }
}

TEST(LinalgSimd, CholeskySolveBitwiseAcrossSizesAndRhsWidths)
{
    std::mt19937 rng(29);
    for (std::size_t n = 1; n <= 17; ++n) {
        Matrix spd = randomSpd(n, rng);
        // One decomposition per path: factor AND solve must both be
        // path-independent.
        CholeskyDecomposition ref(spd, LinalgPath::Scalar);
        CholeskyDecomposition simd(spd, LinalgPath::Simd);
        for (std::size_t m : {1u, 2u, 3u, 5u}) {
            Matrix b = randomMatrix(n, m, rng);
            const Matrix x_ref = ref.solve(b);
            const Matrix x_simd = simd.solve(b);
            ASSERT_TRUE(bitwiseEqual(x_ref, x_simd))
                << "Cholesky solve differs at n=" << n << " rhs=" << m;
        }
    }
}

TEST(LinalgSimd, CholeskySolveIntoMatchesSolve)
{
    std::mt19937 rng(31);
    Matrix spd = randomSpd(13, rng);
    CholeskyDecomposition chol(spd);
    Matrix b = randomMatrix(13, 1, rng);
    const Matrix x = chol.solve(b);
    Matrix into;
    chol.solveInto(b, into);
    EXPECT_TRUE(bitwiseEqual(x, into));
    // In-place: x aliasing b is supported for solveInto.
    Matrix b2 = b;
    chol.solveInto(b2, b2);
    EXPECT_TRUE(bitwiseEqual(x, b2));
}

TEST(LinalgSimd, CholeskyFailureFlagAgreesOnNonSpd)
{
    Matrix not_spd{{1.0, 2.0}, {2.0, 1.0}}; // eigenvalues 3, -1
    CholeskyDecomposition ref(not_spd, LinalgPath::Scalar);
    CholeskyDecomposition simd(not_spd, LinalgPath::Simd);
    EXPECT_TRUE(ref.failed());
    EXPECT_TRUE(simd.failed());
}

TEST(LinalgSimd, LuSolveAndInverseBitwiseAcrossSizes)
{
    std::mt19937 rng(37);
    for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 17u}) {
        Matrix a = randomMatrix(n, n, rng);
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += 3.0; // keep it comfortably non-singular
        Matrix b = randomMatrix(n, 3, rng);
        LuDecomposition lu_ref(a, LinalgPath::Scalar);
        const Matrix x_ref = lu_ref.solve(b);
        const Matrix inv_ref = lu_ref.inverse();
        LuDecomposition lu_simd(a, LinalgPath::Simd);
        const Matrix x_simd = lu_simd.solve(b);
        const Matrix inv_simd = lu_simd.inverse();
        ASSERT_TRUE(bitwiseEqual(x_ref, x_simd)) << "LU solve n=" << n;
        ASSERT_TRUE(bitwiseEqual(inv_ref, inv_simd)) << "LU inverse n=" << n;
    }
}

/**
 * Run a product, a rank-1 update, a Cholesky factor + solve and an LU
 * solve + inverse on one path for each group of five inputs
 * (a, b, spd, x, rhs), and return every result in order.
 */
std::vector<Matrix>
runAllOps(const std::vector<Matrix> &inputs, LinalgPath path)
{
    std::vector<Matrix> out;
    for (std::size_t i = 0; i + 4 < inputs.size(); i += 5) {
        const Matrix &a = inputs[i];
        const Matrix &b = inputs[i + 1];
        const Matrix &spd = inputs[i + 2];
        const Matrix &x = inputs[i + 3];
        const Matrix &rhs = inputs[i + 4];
        Matrix c = b;
        gemm(a, b, c, 0.75, -0.5, path);
        out.push_back(c);
        Matrix outer = spd;
        addScaledOuter(outer, 1.25, x, x, path);
        out.push_back(outer);
        CholeskyDecomposition chol(spd, path);
        out.push_back(chol.lower());
        out.push_back(chol.solve(rhs));
        LuDecomposition lu(a, path);
        out.push_back(lu.solve(rhs));
        out.push_back(lu.inverse());
    }
    return out;
}

/**
 * The path is a per-call argument, not process state: one thread on the
 * scalar reference and one on the SIMD kernels, running concurrently
 * over the same inputs, must produce bitwise-identical results. The
 * name keeps this case in the ThreadSanitizer leg's test filter.
 */
TEST(LinalgSimd, ParallelScalarAndSimdCallersAgreeBitwise)
{
    std::mt19937 rng(43);
    std::vector<Matrix> inputs;
    for (std::size_t n = 1; n <= 17; ++n) {
        Matrix a = randomMatrix(n, n, rng);
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += 3.0; // keep it comfortably non-singular
        inputs.push_back(a);
        inputs.push_back(randomMatrix(n, n, rng));
        inputs.push_back(randomSpd(n, rng));
        inputs.push_back(randomMatrix(n, 1, rng));
        inputs.push_back(randomMatrix(n, 3, rng));
    }
    std::vector<Matrix> scalar_out, simd_out;
    for (int round = 0; round < 4; ++round) {
        std::thread scalar([&] {
            scalar_out = runAllOps(inputs, LinalgPath::Scalar);
        });
        std::thread simd([&] {
            simd_out = runAllOps(inputs, LinalgPath::Simd);
        });
        scalar.join();
        simd.join();
        ASSERT_EQ(scalar_out.size(), simd_out.size());
        for (std::size_t i = 0; i < scalar_out.size(); ++i)
            ASSERT_TRUE(bitwiseEqual(scalar_out[i], simd_out[i]))
                << "result " << i << " differs in round " << round;
    }
}

TEST(LinalgSimdDeathTest, GemmOutputAliasingInputTraps)
{
    Matrix a = Matrix::identity(4);
    Matrix b = Matrix::identity(4);
    EXPECT_DEATH(gemm(a, b, a, 1.0, 0.0), "aliases");
    EXPECT_DEATH(gemm(a, b, b, 1.0, 1.0), "aliases");
}

TEST(LinalgSimdDeathTest, MultiplyTransposedAliasingTraps)
{
    Matrix a = Matrix::identity(4);
    Matrix b = Matrix::identity(4);
    EXPECT_DEATH(multiplyTransposed(a, b, a), "aliases");
    EXPECT_DEATH(multiplyTransposed(a, b, b), "aliases");
}

TEST(LinalgSimdDeathTest, SymmetricSandwichAliasingTraps)
{
    Matrix h = Matrix::identity(3);
    Matrix p = Matrix::identity(3);
    Matrix out, work;
    EXPECT_DEATH(symmetricSandwich(h, p, h, work), "aliases");
    EXPECT_DEATH(symmetricSandwich(h, p, out, p), "aliases");
    Matrix shared = Matrix::identity(3);
    EXPECT_DEATH(symmetricSandwich(h, p, shared, shared), "aliases");
}

TEST(LinalgSimdDeathTest, AddScaledOuterAliasingTraps)
{
    // 1x1 so the shape checks pass and the aliasing trap is what fires.
    Matrix x(1, 1), y(1, 1);
    EXPECT_DEATH(addScaledOuter(x, 1.0, x, y), "aliases");
    EXPECT_DEATH(addScaledOuter(y, 1.0, x, y), "aliases");
}

TEST(LinalgSimd, NanPropagatesThroughZeroWeightedRows)
{
    // The seed's zero-skip branch turned 0 * NaN into 0. IEEE says NaN;
    // both paths must now agree on that.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Matrix a(2, 2); // all zeros
    Matrix b = Matrix::identity(2);
    b(0, 0) = nan;
    const Matrix ref = a.multiplyScalar(b);
    const Matrix simd = a * b;
    EXPECT_TRUE(std::isnan(ref(0, 0)));
    EXPECT_TRUE(std::isnan(simd(0, 0)));
    EXPECT_TRUE(bitwiseEqual(ref, simd));
}

TEST(LinalgSimd, InfAndNanPropagationBitwiseAgrees)
{
    std::mt19937 rng(41);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n : {3u, 7u, 11u}) {
        Matrix a = randomMatrix(n, n, rng);
        Matrix b = randomMatrix(n, n, rng);
        a(0, n / 2) = inf;
        b(n / 2, n - 1) = -inf; // inf * -inf and inf * finite mix
        a(n - 1, 0) = nan;
        const Matrix ref = a.multiplyScalar(b);
        const Matrix simd = a * b;
        ASSERT_TRUE(bitwiseEqual(ref, simd)) << "NaN/Inf differs n=" << n;
        EXPECT_TRUE(std::isnan(simd(n - 1, 0)));
    }
}

TEST(LinalgSimd, GemmBetaZeroNeverReadsPoisonedOutput)
{
    // With beta == 0, C's prior contents (even NaN) must not leak.
    Matrix a = Matrix::identity(5);
    Matrix b = Matrix::constant(5, 5, 2.0);
    Matrix c = Matrix::constant(5, 5,
                                std::numeric_limits<double>::quiet_NaN());
    gemm(a, b, c, 1.0, 0.0, LinalgPath::Simd);
    EXPECT_TRUE(c.approxEquals(b, 0.0));
    Matrix c2 = Matrix::constant(5, 5,
                                 std::numeric_limits<double>::quiet_NaN());
    gemm(a, b, c2, 1.0, 0.0, LinalgPath::Scalar);
    EXPECT_TRUE(c2.approxEquals(b, 0.0));
}

TEST(LinalgSimd, EmptyAndDegenerateShapes)
{
    Matrix empty;
    Matrix out = empty * empty;
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 0u);
    // Inner dimension 0: product is the zero matrix.
    Matrix a(3, 0), b(0, 4);
    Matrix z = a * b;
    EXPECT_TRUE(z.approxEquals(Matrix(3, 4), 0.0));
    EXPECT_TRUE(z.approxEquals(a.multiplyScalar(b), 0.0));
}

} // namespace
} // namespace rtr
