#include "linalg/decomp.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"
#include "util/simd.h"

namespace rtr {

namespace {

using simd::VecD;

constexpr std::size_t kW = VecD::kWidth;

// Row helpers shared by the LU/Cholesky substitution passes. Each maps
// to one multiply and one add/sub per element in both branches, and the
// vector lanes are independent, so per-element results are bitwise
// identical whichever branch runs (src/linalg is built with
// -ffp-contract=off, so the scalar branch cannot fuse either).

/** dst[0..m) -= f * src[0..m). */
inline void
subScaledRow(double *dst, const double *src, double f, std::size_t m,
             bool use_simd)
{
    std::size_t i = 0;
    if (use_simd) {
        const VecD vf = VecD::broadcast(f);
        for (; i + kW <= m; i += kW)
            VecD::mulSub(VecD::load(dst + i), vf, VecD::load(src + i))
                .store(dst + i);
    }
    for (; i < m; ++i)
        dst[i] -= f * src[i];
}

/** dst[0..m) -= coef[0..m) * x. */
inline void
subScaledVec(double *dst, const double *coef, double x, std::size_t m,
             bool use_simd)
{
    std::size_t i = 0;
    if (use_simd) {
        const VecD vx = VecD::broadcast(x);
        for (; i + kW <= m; i += kW)
            VecD::mulSub(VecD::load(dst + i), VecD::load(coef + i), vx)
                .store(dst + i);
    }
    for (; i < m; ++i)
        dst[i] -= coef[i] * x;
}

/** dst[0..m) *= s. */
inline void
scaleRow(double *dst, double s, std::size_t m, bool use_simd)
{
    std::size_t i = 0;
    if (use_simd) {
        const VecD vs = VecD::broadcast(s);
        for (; i + kW <= m; i += kW)
            (VecD::load(dst + i) * vs).store(dst + i);
    }
    for (; i < m; ++i)
        dst[i] *= s;
}

} // namespace

LuDecomposition::LuDecomposition(const Matrix &a, LinalgPath path)
    : n_(a.rows()), use_simd_(path == LinalgPath::Simd), lu_(a),
      pivot_(a.rows())
{
    RTR_ASSERT(a.rows() == a.cols(), "LU of non-square matrix");
    for (std::size_t i = 0; i < n_; ++i)
        pivot_[i] = i;

    for (std::size_t col = 0; col < n_; ++col) {
        // Find pivot row.
        std::size_t best = col;
        double best_abs = std::abs(lu_(col, col));
        for (std::size_t r = col + 1; r < n_; ++r) {
            double v = std::abs(lu_(r, col));
            if (v > best_abs) {
                best_abs = v;
                best = r;
            }
        }
        if (best_abs < 1e-13) {
            singular_ = true;
            continue;
        }
        if (best != col) {
            for (std::size_t c = 0; c < n_; ++c)
                std::swap(lu_(best, c), lu_(col, c));
            std::swap(pivot_[best], pivot_[col]);
            pivot_sign_ = -pivot_sign_;
        }
        // Eliminate below the pivot. The row update vectorizes across
        // the contiguous trailing columns with unchanged per-element
        // arithmetic, so results match the historical scalar loop
        // bitwise. The whole-row zero-skip is kept: it fires for
        // structured inputs (block-diagonal normal equations) and
        // skipping a row is exact.
        double inv_pivot = 1.0 / lu_(col, col);
        const double *pivot_row = lu_.data() + col * n_ + col + 1;
        for (std::size_t r = col + 1; r < n_; ++r) {
            double factor = lu_(r, col) * inv_pivot;
            lu_(r, col) = factor;
            if (factor == 0.0)
                continue;
            subScaledRow(lu_.data() + r * n_ + col + 1, pivot_row, factor,
                         n_ - col - 1, use_simd_);
        }
    }
}

Matrix
LuDecomposition::solve(const Matrix &b) const
{
    RTR_ASSERT(b.rows() == n_, "solve rhs row mismatch");
    RTR_ASSERT(!singular_, "solve with singular matrix");
    const std::size_t m = b.cols();
    Matrix x(n_, m);
    // Apply row permutation.
    for (std::size_t r = 0; r < n_; ++r) {
        const double *brow = b.data() + pivot_[r] * m;
        std::copy(brow, brow + m, x.data() + r * m);
    }
    // Forward substitution with unit-diagonal L. Row updates vectorize
    // across the contiguous right-hand-side columns; per-element term
    // order is unchanged from the historical loops.
    for (std::size_t r = 1; r < n_; ++r) {
        for (std::size_t k = 0; k < r; ++k) {
            double factor = lu_(r, k);
            if (factor == 0.0)
                continue;
            subScaledRow(x.data() + r * m, x.data() + k * m, factor, m,
                         use_simd_);
        }
    }
    // Backward substitution with U.
    for (std::size_t ri = n_; ri-- > 0;) {
        for (std::size_t k = ri + 1; k < n_; ++k) {
            double factor = lu_(ri, k);
            if (factor == 0.0)
                continue;
            subScaledRow(x.data() + ri * m, x.data() + k * m, factor, m,
                         use_simd_);
        }
        double inv = 1.0 / lu_(ri, ri);
        scaleRow(x.data() + ri * m, inv, m, use_simd_);
    }
    return x;
}

Matrix
LuDecomposition::inverse() const
{
    return solve(Matrix::identity(n_));
}

double
LuDecomposition::determinant() const
{
    if (singular_)
        return 0.0;
    double det = pivot_sign_;
    for (std::size_t i = 0; i < n_; ++i)
        det *= lu_(i, i);
    return det;
}

CholeskyDecomposition::CholeskyDecomposition(const Matrix &a, LinalgPath path)
    : n_(a.rows()), use_simd_(path == LinalgPath::Simd),
      l_(a.rows(), a.rows())
{
    RTR_ASSERT(a.rows() == a.cols(), "Cholesky of non-square matrix");
    if (use_simd_)
        factorSimd(a);
    else
        factorScalar(a);
    if (!failed_) {
        // Keep Lᵀ as well: the single-RHS forward solve walks rows of
        // Lᵀ (columns of L) and needs them contiguous to vectorize.
        lt_ = Matrix(n_, n_);
        for (std::size_t r = 0; r < n_; ++r) {
            for (std::size_t c = 0; c <= r; ++c)
                lt_.data()[c * n_ + r] = l_.data()[r * n_ + c];
        }
    }
}

/**
 * The preserved scalar reference: the seed's left-looking dot-product
 * form. Element (r,c) accumulates -l(r,k)*l(c,k) for k ascending, then
 * takes sqrt (diagonal) or divides by l(c,c).
 */
void
CholeskyDecomposition::factorScalar(const Matrix &a)
{
    for (std::size_t r = 0; r < n_; ++r) {
        for (std::size_t c = 0; c <= r; ++c) {
            double sum = a(r, c);
            for (std::size_t k = 0; k < c; ++k)
                sum -= l_(r, k) * l_(c, k);
            if (r == c) {
                if (sum <= 0.0) {
                    failed_ = true;
                    return;
                }
                l_(r, c) = std::sqrt(sum);
            } else {
                l_(r, c) = sum / l_(c, c);
            }
        }
    }
}

/**
 * Right-looking, column-blocked factorization. Each element still
 * receives exactly the same subtraction sequence as the left-looking
 * scalar path — one multiply and one subtract per k, k ascending, with
 * identical operand values (l(·,k) is final before block k's trailing
 * update runs) — so the factor is bitwise identical to factorScalar.
 * The blocking win: a kNB-column panel's contribution to the trailing
 * matrix is applied with the output row loaded once per kW-wide chunk
 * instead of once per k.
 */
void
CholeskyDecomposition::factorSimd(const Matrix &a)
{
    const std::size_t n = n_;
    double *l = l_.data();
    const double *ap = a.data();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c <= r; ++c)
            l[r * n + c] = ap[r * n + c];
    }
    constexpr std::size_t kNB = 8;
    // colbuf holds the panel's columns contiguously (column j of L is
    // strided in row-major storage); buf[r] == l(r, j) once scaled.
    std::vector<double> colbuf(kNB * n, 0.0);
    for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
        const std::size_t jb = std::min(kNB, n - j0);
        const std::size_t pend = j0 + jb;
        // Factor the panel columns in order.
        for (std::size_t j = j0; j < pend; ++j) {
            const double d = l[j * n + j];
            if (d <= 0.0) {
                failed_ = true;
                return;
            }
            const double ljj = std::sqrt(d);
            l[j * n + j] = ljj;
            double *buf = colbuf.data() + (j - j0) * n;
            for (std::size_t r = j + 1; r < n; ++r) {
                const double v = l[r * n + j] / ljj;
                l[r * n + j] = v;
                buf[r] = v;
            }
            // Rank-1 update restricted to the remaining panel columns
            // (at most kNB-1 wide; scalar, same mul+sub per element).
            for (std::size_t r = j + 1; r < n; ++r) {
                const double lrj = buf[r];
                double *lrow = l + r * n;
                const std::size_t cend = std::min(pend, r + 1);
                for (std::size_t c = j + 1; c < cend; ++c)
                    lrow[c] -= lrj * buf[c];
            }
        }
        // Trailing update: columns >= pend, rows r >= c. For each
        // kW-wide chunk of a row, subtract the whole panel (k = j0..
        // pend-1, ascending) while the chunk stays in registers.
        for (std::size_t r = pend; r < n; ++r) {
            double *lrow = l + r * n;
            const std::size_t cend = r + 1;
            std::size_t c = pend;
            for (; c + kW <= cend; c += kW) {
                VecD acc = VecD::load(lrow + c);
                for (std::size_t j = 0; j < jb; ++j) {
                    const double *buf = colbuf.data() + j * n;
                    acc = VecD::mulSub(acc, VecD::broadcast(buf[r]),
                                       VecD::load(buf + c));
                }
                acc.store(lrow + c);
            }
            for (; c < cend; ++c) {
                double acc = lrow[c];
                for (std::size_t j = 0; j < jb; ++j) {
                    const double *buf = colbuf.data() + j * n;
                    acc -= buf[r] * buf[c];
                }
                lrow[c] = acc;
            }
        }
    }
}

Matrix
CholeskyDecomposition::solve(const Matrix &b) const
{
    Matrix x;
    solveInto(b, x);
    return x;
}

void
CholeskyDecomposition::solveInto(const Matrix &b, Matrix &x) const
{
    RTR_ASSERT(!failed_, "solve with failed Cholesky factorization");
    RTR_ASSERT(b.rows() == n_, "solve rhs row mismatch");
    if (&x != &b)
        x = b;
    const std::size_t m = x.cols();
    double *xp = x.data();
    const double *l = l_.data();
    if (m == 1) {
        // Single right-hand side (the GP-predict shape): vectorize
        // across rows of x. Forward walks row k of Lᵀ (contiguous),
        // backward walks row k of L (contiguous).
        const double *lt = lt_.data();
        // Forward: L y = b, right-looking.
        for (std::size_t k = 0; k < n_; ++k) {
            xp[k] *= 1.0 / l[k * n_ + k];
            subScaledVec(xp + k + 1, lt + k * n_ + k + 1, xp[k],
                         n_ - k - 1, use_simd_);
        }
        // Backward: Lᵀ x = y, right-looking (k descending).
        for (std::size_t k = n_; k-- > 0;) {
            xp[k] *= 1.0 / l[k * n_ + k];
            subScaledVec(xp, l + k * n_, xp[k], k, use_simd_);
        }
    } else {
        // Matrix right-hand side: vectorize across the contiguous
        // columns of each row.
        // Forward: L y = b, right-looking.
        for (std::size_t k = 0; k < n_; ++k) {
            scaleRow(xp + k * m, 1.0 / l[k * n_ + k], m, use_simd_);
            for (std::size_t r = k + 1; r < n_; ++r)
                subScaledRow(xp + r * m, xp + k * m, l[r * n_ + k], m,
                             use_simd_);
        }
        // Backward: Lᵀ x = y, right-looking (k descending).
        for (std::size_t k = n_; k-- > 0;) {
            scaleRow(xp + k * m, 1.0 / l[k * n_ + k], m, use_simd_);
            for (std::size_t r = 0; r < k; ++r)
                subScaledRow(xp + r * m, xp + k * m, l[k * n_ + r], m,
                             use_simd_);
        }
    }
}

double
CholeskyDecomposition::logDeterminant() const
{
    RTR_ASSERT(!failed_, "logDeterminant of failed factorization");
    double sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
        sum += std::log(l_(i, i));
    return 2.0 * sum;
}

Matrix
inverse(const Matrix &a)
{
    LuDecomposition lu(a);
    if (lu.singular())
        fatal("inverse of a singular ", a.rows(), "x", a.cols(), " matrix");
    return lu.inverse();
}

Matrix
solve(const Matrix &a, const Matrix &b)
{
    LuDecomposition lu(a);
    if (lu.singular())
        fatal("solve with a singular ", a.rows(), "x", a.cols(), " matrix");
    return lu.solve(b);
}

} // namespace rtr
