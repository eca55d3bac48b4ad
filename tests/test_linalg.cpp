/**
 * @file
 * Unit and property tests for the linalg library: Matrix, LU, Cholesky,
 * and the symmetric eigensolver.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/decomp.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace rtr {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniform(-1.0, 1.0);
    }
    return m;
}

Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix a = randomMatrix(n, n, rng);
    // A^T A + n I is symmetric positive definite.
    Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
    m(0, 0) = 9.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
}

TEST(Matrix, IdentityAndDiagonal)
{
    Matrix id = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(id.trace(), 3.0);
    Matrix d = Matrix::diagonal({1, 2, 3});
    EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MultiplicationAgainstKnownResult)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = a * b;
    EXPECT_TRUE(c.approxEquals(Matrix{{19, 22}, {43, 50}}));
}

TEST(Matrix, MultiplyByIdentityIsNoop)
{
    Rng rng(1);
    Matrix a = randomMatrix(4, 4, rng);
    EXPECT_TRUE((a * Matrix::identity(4)).approxEquals(a));
    EXPECT_TRUE((Matrix::identity(4) * a).approxEquals(a));
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(2);
    Matrix a = randomMatrix(3, 5, rng);
    EXPECT_TRUE(a.transposed().transposed().approxEquals(a));
    // (AB)^T = B^T A^T
    Matrix b = randomMatrix(5, 2, rng);
    EXPECT_TRUE((a * b).transposed().approxEquals(b.transposed() *
                                                  a.transposed()));
}

TEST(Matrix, BlockRoundTrip)
{
    Matrix m(4, 4);
    Matrix sub{{1, 2}, {3, 4}};
    m.setBlock(1, 2, sub);
    EXPECT_TRUE(m.block(1, 2, 2, 2).approxEquals(sub));
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, AddSubScale)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{4, 3}, {2, 1}};
    EXPECT_TRUE((a + b).approxEquals(Matrix{{5, 5}, {5, 5}}));
    EXPECT_TRUE((a - a).approxEquals(Matrix(2, 2)));
    EXPECT_TRUE((a * 2.0).approxEquals(Matrix{{2, 4}, {6, 8}}));
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix m{{3, 0}, {0, 4}};
    EXPECT_DOUBLE_EQ(m.frobeniusNorm(), 5.0);
}

/** LU inversion property over a range of sizes. */
class LuSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LuSizes, InverseTimesSelfIsIdentity)
{
    Rng rng(GetParam() * 31 + 1);
    std::size_t n = GetParam();
    Matrix a = randomMatrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += 2.0;  // keep it comfortably nonsingular
    Matrix inv = inverse(a);
    EXPECT_TRUE((a * inv).approxEquals(Matrix::identity(n), 1e-8));
    EXPECT_TRUE((inv * a).approxEquals(Matrix::identity(n), 1e-8));
}

TEST_P(LuSizes, SolveMatchesMultiplication)
{
    Rng rng(GetParam() * 17 + 5);
    std::size_t n = GetParam();
    Matrix a = randomMatrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += 2.0;
    Matrix x_true = randomMatrix(n, 2, rng);
    Matrix b = a * x_true;
    Matrix x = solve(a, b);
    EXPECT_TRUE(x.approxEquals(x_true, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(Lu, DetectsSingularity)
{
    Matrix singular{{1, 2}, {2, 4}};
    LuDecomposition lu(singular);
    EXPECT_TRUE(lu.singular());
    EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
}

TEST(Lu, DeterminantKnownValues)
{
    LuDecomposition lu(Matrix{{2, 0}, {0, 3}});
    EXPECT_NEAR(lu.determinant(), 6.0, 1e-12);
    // Permutation-sensitive sign.
    LuDecomposition swapped(Matrix{{0, 1}, {1, 0}});
    EXPECT_NEAR(swapped.determinant(), -1.0, 1e-12);
}

TEST(Lu, DeterminantMultiplicative)
{
    Rng rng(23);
    Matrix a = randomMatrix(4, 4, rng);
    Matrix b = randomMatrix(4, 4, rng);
    double det_a = LuDecomposition(a).determinant();
    double det_b = LuDecomposition(b).determinant();
    double det_ab = LuDecomposition(a * b).determinant();
    EXPECT_NEAR(det_ab, det_a * det_b, 1e-8 * std::abs(det_ab) + 1e-10);
}

/** Cholesky property over sizes. */
class CholeskySizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CholeskySizes, FactorReconstructs)
{
    Rng rng(GetParam() * 7 + 3);
    Matrix spd = randomSpd(GetParam(), rng);
    CholeskyDecomposition chol(spd);
    ASSERT_FALSE(chol.failed());
    const Matrix &l = chol.lower();
    EXPECT_TRUE((l * l.transposed()).approxEquals(spd, 1e-8));
}

TEST_P(CholeskySizes, SolveAgreesWithLu)
{
    Rng rng(GetParam() * 13 + 7);
    Matrix spd = randomSpd(GetParam(), rng);
    Matrix b = randomMatrix(GetParam(), 1, rng);
    CholeskyDecomposition chol(spd);
    ASSERT_FALSE(chol.failed());
    EXPECT_TRUE(chol.solve(b).approxEquals(solve(spd, b), 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 4, 9, 16));

TEST(Cholesky, RejectsIndefinite)
{
    Matrix indefinite{{1, 0}, {0, -1}};
    CholeskyDecomposition chol(indefinite);
    EXPECT_TRUE(chol.failed());
}

TEST(Cholesky, LogDeterminant)
{
    Matrix spd{{4, 0}, {0, 9}};
    CholeskyDecomposition chol(spd);
    ASSERT_FALSE(chol.failed());
    EXPECT_NEAR(chol.logDeterminant(), std::log(36.0), 1e-10);
}

TEST(Eigen, DiagonalMatrixEigenvaluesSorted)
{
    SymmetricEigen eig = symmetricEigen(Matrix::diagonal({1.0, 5.0, 3.0}));
    ASSERT_EQ(eig.values.size(), 3u);
    EXPECT_NEAR(eig.values[0], 5.0, 1e-10);
    EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
    EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(Eigen, ReconstructsMatrix)
{
    Rng rng(31);
    Matrix spd = randomSpd(6, rng);
    SymmetricEigen eig = symmetricEigen(spd);
    Matrix lambda = Matrix::diagonal(eig.values);
    Matrix reconstructed =
        eig.vectors * lambda * eig.vectors.transposed();
    EXPECT_TRUE(reconstructed.approxEquals(spd, 1e-7));
}

TEST(Eigen, VectorsAreOrthonormal)
{
    Rng rng(37);
    Matrix spd = randomSpd(5, rng);
    SymmetricEigen eig = symmetricEigen(spd);
    Matrix should_be_identity = eig.vectors.transposed() * eig.vectors;
    EXPECT_TRUE(should_be_identity.approxEquals(Matrix::identity(5),
                                                1e-8));
}

TEST(Eigen, EigenpairsSatisfyDefinition)
{
    Rng rng(41);
    Matrix spd = randomSpd(4, rng);
    SymmetricEigen eig = symmetricEigen(spd);
    for (std::size_t j = 0; j < 4; ++j) {
        Matrix v = eig.vectors.block(0, j, 4, 1);
        Matrix av = spd * v;
        Matrix lv = v * eig.values[j];
        EXPECT_TRUE(av.approxEquals(lv, 1e-7));
    }
}

/** symmetricEigen3 must reproduce symmetricEigen bit for bit. */
void
expectEigen3MatchesBitwise(const double (&a)[3][3])
{
    Matrix m(3, 3);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c)
            m(r, c) = a[r][c];
    }
    SymmetricEigen ref = symmetricEigen(m);
    SymmetricEigen3 fixed = symmetricEigen3(a);
    EXPECT_EQ(std::memcmp(fixed.values, ref.values.data(),
                          sizeof(fixed.values)),
              0);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            const double want = ref.vectors(r, c);
            EXPECT_EQ(std::memcmp(&fixed.vectors[r][c], &want,
                                  sizeof(double)),
                      0)
                << "vector entry (" << r << "," << c << ")";
        }
    }
}

TEST(Eigen3, BitwiseEqualsSymmetricEigen)
{
    // Random symmetric matrices, indefinite ones included.
    Rng rng(43);
    for (int trial = 0; trial < 200; ++trial) {
        double a[3][3];
        for (int r = 0; r < 3; ++r) {
            for (int c = r; c < 3; ++c)
                a[r][c] = a[c][r] = rng.uniform(-2.0, 2.0);
        }
        expectEigen3MatchesBitwise(a);
    }
    // Diagonal: converged before the first rotation, sorted only.
    expectEigen3MatchesBitwise({{1.0, 0.0, 0.0}, {0.0, 5.0, 0.0},
                                {0.0, 0.0, 3.0}});
    expectEigen3MatchesBitwise({{-2.0, 0.0, 0.0}, {0.0, 0.0, 0.0},
                                {0.0, 0.0, 7.5}});
    // Repeated eigenvalues: a multiple of the identity, and
    // Q diag(1, 1, 3) Q^T for a rotation Q.
    expectEigen3MatchesBitwise({{2.0, 0.0, 0.0}, {0.0, 2.0, 0.0},
                                {0.0, 0.0, 2.0}});
    expectEigen3MatchesBitwise({{5.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0},
                                {2.0 / 3.0, 5.0 / 3.0, 2.0 / 3.0},
                                {2.0 / 3.0, 2.0 / 3.0, 5.0 / 3.0}});
    // Zero eigenvalues: the zero matrix, rank one (u u^T) and rank two
    // (a planar neighborhood covariance).
    expectEigen3MatchesBitwise({{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0},
                                {0.0, 0.0, 0.0}});
    expectEigen3MatchesBitwise({{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0},
                                {3.0, 6.0, 9.0}});
    expectEigen3MatchesBitwise({{2.0, 1.0, 0.0}, {1.0, 2.0, 0.0},
                                {0.0, 0.0, 0.0}});
}

} // namespace
} // namespace rtr
