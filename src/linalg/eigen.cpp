#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/simd.h"

namespace rtr {

namespace {

/**
 * Plane rotation of two contiguous rows: x'[k] = c*x[k] - s*y[k],
 * y'[k] = s*x[k] + c*y[k]. Per-element arithmetic is unchanged from
 * the scalar loop (two multiplies and an add/sub per output), so the
 * vectorized form is bitwise identical to it.
 */
inline void
rotateRows(double *x, double *y, double c, double s, std::size_t n)
{
    using simd::VecD;
    const VecD vc = VecD::broadcast(c);
    const VecD vs = VecD::broadcast(s);
    std::size_t k = 0;
    for (; k + VecD::kWidth <= n; k += VecD::kWidth) {
        const VecD xv = VecD::load(x + k);
        const VecD yv = VecD::load(y + k);
        (vc * xv - vs * yv).store(x + k);
        (vs * xv + vc * yv).store(y + k);
    }
    for (; k < n; ++k) {
        const double xk = x[k], yk = y[k];
        x[k] = c * xk - s * yk;
        y[k] = s * xk + c * yk;
    }
}

/**
 * Row-major 3x3 stack storage with the element interface of Matrix
 * that jacobiEigen uses.
 */
struct Fixed3
{
    double m[9];

    double &operator()(std::size_t r, std::size_t c) { return m[r * 3 + c]; }
    double *data() { return m; }
};

/**
 * Cyclic Jacobi on the n x n symmetric @p a, accumulating the rotations
 * into @p v (identity on entry). On return a's diagonal holds the
 * eigenvalues, v's columns the eigenvectors, and order[0..n) the
 * column indices sorted by descending eigenvalue. The one sweep both
 * symmetricEigen (Matrix) and symmetricEigen3 (Fixed3) run.
 */
template <typename Storage>
void
jacobiEigen(Storage &a, Storage &v, std::size_t n, int max_sweeps,
            std::size_t *order)
{
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        // Sum of squared off-diagonal magnitudes decides convergence.
        double off = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = r + 1; c < n; ++c)
                off += a(r, c) * a(r, c);
        }
        if (off < 1e-24)
            break;

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                if (std::abs(a(p, q)) < 1e-300)
                    continue;
                // Compute the Jacobi rotation that zeroes a(p,q).
                double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
                double t = (theta >= 0 ? 1.0 : -1.0) /
                           (std::abs(theta) +
                            std::sqrt(theta * theta + 1.0));
                double c = 1.0 / std::sqrt(t * t + 1.0);
                double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    double akp = a(k, p), akq = a(k, q);
                    a(k, p) = c * akp - s * akq;
                    a(k, q) = s * akp + c * akq;
                }
                // Rows p and q are contiguous; the column updates above
                // and the eigenvector update below are strided and stay
                // scalar.
                rotateRows(a.data() + p * n, a.data() + q * n, c, s, n);
                for (std::size_t k = 0; k < n; ++k) {
                    double vkp = v(k, p), vkq = v(k, q);
                    v(k, p) = c * vkp - s * vkq;
                    v(k, q) = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    std::iota(order, order + n, std::size_t{0});
    std::sort(order, order + n, [&](std::size_t i, std::size_t j) {
        return a(i, i) > a(j, j);
    });
}

} // namespace

SymmetricEigen
symmetricEigen(const Matrix &input, int max_sweeps)
{
    RTR_ASSERT(input.rows() == input.cols(), "eigen of non-square matrix");
    const std::size_t n = input.rows();
    Matrix a = input;
    Matrix v = Matrix::identity(n);
    std::vector<std::size_t> order(n);
    jacobiEigen(a, v, n, max_sweeps, order.data());

    SymmetricEigen result;
    result.values.resize(n);
    result.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        result.values[j] = a(order[j], order[j]);
        for (std::size_t i = 0; i < n; ++i)
            result.vectors(i, j) = v(i, order[j]);
    }
    return result;
}

SymmetricEigen3
symmetricEigen3(const double (&input)[3][3], int max_sweeps)
{
    Fixed3 a{}, v{};
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            a(r, c) = input[r][c];
            v(r, c) = r == c ? 1.0 : 0.0;
        }
    }
    std::size_t order[3] = {};
    jacobiEigen(a, v, 3, max_sweeps, order);

    SymmetricEigen3 result{};
    for (std::size_t j = 0; j < 3; ++j) {
        result.values[j] = a(order[j], order[j]);
        for (std::size_t i = 0; i < 3; ++i)
            result.vectors[i][j] = v(i, order[j]);
    }
    return result;
}

} // namespace rtr
