#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/simd.h"

namespace rtr {

namespace {

using simd::VecD;

// Register tile shape of the GEMM micro-kernel: kMR rows of A are
// broadcast against kNR (= two vectors) output columns, so a full tile
// holds kMR * 2 accumulators in registers. 4 x 8 on AVX2, 4 x 4 on
// SSE2/NEON, 4 x 2 in the scalar-fallback build.
constexpr std::size_t kW = VecD::kWidth;
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 2 * kW;

// Per-element epilogue c = alpha*acc + beta*c. The special cases pin
// the exact operation sequence of the two hot configurations: plain
// product (beta == 0, store) and accumulate (alpha == beta == 1,
// c + acc). With beta == 0 the old value is never used, so C may hold
// NaN or garbage without poisoning the result. combineVec must mirror
// this ladder exactly — the bitwise-identity contract is per element.
inline double
combineScalar(double acc, double cold, double alpha, double beta)
{
    if (beta == 0.0)
        return alpha == 1.0 ? acc : alpha * acc;
    if (alpha == 1.0 && beta == 1.0)
        return cold + acc;
    double scaled_acc = alpha * acc;
    double scaled_old = beta * cold;
    return scaled_acc + scaled_old;
}

inline VecD
combineVec(VecD acc, const double *cp, double alpha, double beta)
{
    if (beta == 0.0)
        return alpha == 1.0 ? acc : VecD::broadcast(alpha) * acc;
    const VecD cold = VecD::load(cp);
    if (alpha == 1.0 && beta == 1.0)
        return cold + acc;
    return VecD::broadcast(alpha) * acc + VecD::broadcast(beta) * cold;
}

/**
 * Full register tile: Rows x kNR outputs. Accumulates over k in
 * ascending order with one multiply and one add per element per step
 * (VecD::mulAdd never fuses), which keeps every output element bitwise
 * identical to the scalar i-k-j loop.
 */
template <int Rows>
inline void
tileFull(const double *a, std::size_t lda, const double *b, std::size_t ldb,
         double *c, std::size_t ldc, std::size_t kdim, double alpha,
         double beta)
{
    VecD acc0[Rows], acc1[Rows];
    for (int r = 0; r < Rows; ++r) {
        acc0[r] = VecD::zero();
        acc1[r] = VecD::zero();
    }
    for (std::size_t k = 0; k < kdim; ++k) {
        const double *brow = b + k * ldb;
        const VecD b0 = VecD::load(brow);
        const VecD b1 = VecD::load(brow + kW);
        for (int r = 0; r < Rows; ++r) {
            const VecD av = VecD::broadcast(a[r * lda + k]);
            acc0[r] = VecD::mulAdd(acc0[r], av, b0);
            acc1[r] = VecD::mulAdd(acc1[r], av, b1);
        }
    }
    for (int r = 0; r < Rows; ++r) {
        double *cp = c + r * ldc;
        combineVec(acc0[r], cp, alpha, beta).store(cp);
        combineVec(acc1[r], cp + kW, alpha, beta).store(cp + kW);
    }
}

/**
 * Right-edge tile with ncols < kNR live columns. B must be a packed
 * panel (leading dimension kNR, zero-padded), so the full-width loads
 * stay in bounds; the dead lanes compute zeros that are never stored.
 */
template <int Rows>
inline void
tilePartial(const double *a, std::size_t lda, const double *b, double *c,
            std::size_t ldc, std::size_t kdim, std::size_t ncols,
            double alpha, double beta)
{
    VecD acc0[Rows], acc1[Rows];
    for (int r = 0; r < Rows; ++r) {
        acc0[r] = VecD::zero();
        acc1[r] = VecD::zero();
    }
    for (std::size_t k = 0; k < kdim; ++k) {
        const double *brow = b + k * kNR;
        const VecD b0 = VecD::load(brow);
        const VecD b1 = VecD::load(brow + kW);
        for (int r = 0; r < Rows; ++r) {
            const VecD av = VecD::broadcast(a[r * lda + k]);
            acc0[r] = VecD::mulAdd(acc0[r], av, b0);
            acc1[r] = VecD::mulAdd(acc1[r], av, b1);
        }
    }
    double tmp[kNR];
    for (int r = 0; r < Rows; ++r) {
        acc0[r].store(tmp);
        acc1[r].store(tmp + kW);
        double *cp = c + r * ldc;
        for (std::size_t j = 0; j < ncols; ++j)
            cp[j] = combineScalar(tmp[j], cp[j], alpha, beta);
    }
}

/**
 * Blocked SIMD GEMM driver: C = alpha*op(B-product) + beta*C where the
 * product is A*B (b_transposed == false) or A*Bᵀ (true). Strided Bᵀ
 * panels and right-edge partial panels are packed into a zero-padded
 * thread-local scratch so the micro-kernel always sees contiguous,
 * full-width rows.
 */
void
gemmSimd(std::size_t m, std::size_t kdim, std::size_t n, const double *a,
         std::size_t lda, const double *b, std::size_t ldb,
         bool b_transposed, double *c, std::size_t ldc, double alpha,
         double beta)
{
    thread_local std::vector<double> pack;
    for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
        const std::size_t nr = std::min(kNR, n - j0);
        const double *bp = b + j0;
        std::size_t bld = ldb;
        if (b_transposed || nr < kNR) {
            pack.assign(kNR * std::max<std::size_t>(kdim, 1), 0.0);
            if (b_transposed) {
                for (std::size_t jj = 0; jj < nr; ++jj) {
                    const double *brow = b + (j0 + jj) * ldb;
                    for (std::size_t k = 0; k < kdim; ++k)
                        pack[k * kNR + jj] = brow[k];
                }
            } else {
                for (std::size_t k = 0; k < kdim; ++k) {
                    const double *brow = b + k * ldb + j0;
                    for (std::size_t jj = 0; jj < nr; ++jj)
                        pack[k * kNR + jj] = brow[jj];
                }
            }
            bp = pack.data();
            bld = kNR;
        }
        for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
            const std::size_t mr = std::min(kMR, m - i0);
            const double *ap = a + i0 * lda;
            double *cp = c + i0 * ldc + j0;
            if (nr == kNR) {
                switch (mr) {
                case 4:
                    tileFull<4>(ap, lda, bp, bld, cp, ldc, kdim, alpha, beta);
                    break;
                case 3:
                    tileFull<3>(ap, lda, bp, bld, cp, ldc, kdim, alpha, beta);
                    break;
                case 2:
                    tileFull<2>(ap, lda, bp, bld, cp, ldc, kdim, alpha, beta);
                    break;
                default:
                    tileFull<1>(ap, lda, bp, bld, cp, ldc, kdim, alpha, beta);
                    break;
                }
            } else {
                switch (mr) {
                case 4:
                    tilePartial<4>(ap, lda, bp, cp, ldc, kdim, nr, alpha,
                                   beta);
                    break;
                case 3:
                    tilePartial<3>(ap, lda, bp, cp, ldc, kdim, nr, alpha,
                                   beta);
                    break;
                case 2:
                    tilePartial<2>(ap, lda, bp, cp, ldc, kdim, nr, alpha,
                                   beta);
                    break;
                default:
                    tilePartial<1>(ap, lda, bp, cp, ldc, kdim, nr, alpha,
                                   beta);
                    break;
                }
            }
        }
    }
}

/**
 * Scalar reference for the GEMM family: the historical i-k-j loop with
 * a row accumulator, followed by the same per-element epilogue as the
 * SIMD path. src/linalg is compiled with -ffp-contract=off, so the
 * compiler cannot fuse the multiply-add here and break the bitwise
 * contract against the explicit-intrinsic path.
 */
void
gemmScalar(std::size_t m, std::size_t kdim, std::size_t n, const double *a,
           std::size_t lda, const double *b, std::size_t ldb,
           bool b_transposed, double *c, std::size_t ldc, double alpha,
           double beta)
{
    thread_local std::vector<double> rowacc;
    rowacc.assign(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        std::fill(rowacc.begin(), rowacc.end(), 0.0);
        for (std::size_t k = 0; k < kdim; ++k) {
            const double av = a[i * lda + k];
            if (b_transposed) {
                for (std::size_t j = 0; j < n; ++j)
                    rowacc[j] += av * b[j * ldb + k];
            } else {
                const double *brow = b + k * ldb;
                for (std::size_t j = 0; j < n; ++j)
                    rowacc[j] += av * brow[j];
            }
        }
        double *crow = c + i * ldc;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = combineScalar(rowacc[j], crow[j], alpha, beta);
    }
}

inline bool
sameBuffer(const Matrix &x, const Matrix &y)
{
    return x.data() != nullptr && x.data() == y.data();
}

} // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        RTR_ASSERT(row.size() == cols_, "ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::constant(std::size_t rows, std::size_t cols, double value)
{
    Matrix m(rows, cols);
    for (double &x : m.data_)
        x = value;
    return m;
}

Matrix
Matrix::diagonal(const std::vector<double> &entries)
{
    Matrix m(entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, i) = entries[i];
    return m;
}

Matrix
Matrix::columnVector(const std::vector<double> &entries)
{
    Matrix m(entries.size(), 1);
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, 0) = entries[i];
    return m;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    RTR_ASSERT(r < rows_ && c < cols_, "matrix index (", r, ",", c,
               ") out of ", rows_, "x", cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    RTR_ASSERT(r < rows_ && c < cols_, "matrix index (", r, ",", c,
               ") out of ", rows_, "x", cols_);
    return data_[r * cols_ + c];
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    Matrix out = *this;
    out += o;
    return out;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    Matrix out = *this;
    out -= o;
    return out;
}

Matrix
Matrix::operator*(const Matrix &o) const
{
    RTR_ASSERT(cols_ == o.rows_, "matmul shape mismatch: ", rows_, "x",
               cols_, " * ", o.rows_, "x", o.cols_);
    Matrix out(rows_, o.cols_);
    gemmSimd(rows_, cols_, o.cols_, data_.data(), cols_, o.data_.data(),
             o.cols_, false, out.data_.data(), o.cols_, 1.0, 0.0);
    return out;
}

Matrix
Matrix::multiplyScalar(const Matrix &o) const
{
    RTR_ASSERT(cols_ == o.rows_, "matmul shape mismatch: ", rows_, "x",
               cols_, " * ", o.rows_, "x", o.cols_);
    Matrix out(rows_, o.cols_);
    gemmScalar(rows_, cols_, o.cols_, data_.data(), cols_, o.data_.data(),
               o.cols_, false, out.data_.data(), o.cols_, 1.0, 0.0);
    return out;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix out = *this;
    out *= s;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &o)
{
    RTR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_, "add shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &o)
{
    RTR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_, "sub shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (double &x : data_)
        x *= s;
    return *this;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = data_[r * cols_ + c];
    }
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double sum = 0.0;
    for (double x : data_)
        sum += x * x;
    return std::sqrt(sum);
}

double
Matrix::trace() const
{
    RTR_ASSERT(rows_ == cols_, "trace of non-square matrix");
    double sum = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        sum += data_[i * cols_ + i];
    return sum;
}

bool
Matrix::approxEquals(const Matrix &o, double eps) const
{
    if (rows_ != o.rows_ || cols_ != o.cols_)
        return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - o.data_[i]) > eps)
            return false;
    }
    return true;
}

void
Matrix::setBlock(std::size_t row, std::size_t col, const Matrix &src)
{
    RTR_ASSERT(row + src.rows_ <= rows_ && col + src.cols_ <= cols_,
               "setBlock out of bounds");
    for (std::size_t r = 0; r < src.rows_; ++r) {
        for (std::size_t c = 0; c < src.cols_; ++c)
            data_[(row + r) * cols_ + (col + c)] = src(r, c);
    }
}

Matrix
Matrix::block(std::size_t row, std::size_t col, std::size_t h,
              std::size_t w) const
{
    RTR_ASSERT(row + h <= rows_ && col + w <= cols_, "block out of bounds");
    Matrix out(h, w);
    for (std::size_t r = 0; r < h; ++r) {
        for (std::size_t c = 0; c < w; ++c)
            out(r, c) = data_[(row + r) * cols_ + (col + c)];
    }
    return out;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        oss << "[";
        for (std::size_t c = 0; c < cols_; ++c) {
            oss << data_[r * cols_ + c];
            if (c + 1 < cols_)
                oss << ", ";
        }
        oss << "]\n";
    }
    return oss.str();
}

Matrix
operator*(double s, const Matrix &m)
{
    return m * s;
}

void
gemm(const Matrix &a, const Matrix &b, Matrix &c, double alpha, double beta,
     LinalgPath path)
{
    RTR_ASSERT(a.cols() == b.rows(), "gemm shape mismatch: ", a.rows(), "x",
               a.cols(), " * ", b.rows(), "x", b.cols());
    RTR_ASSERT(!sameBuffer(c, a) && !sameBuffer(c, b),
               "gemm output aliases an input");
    if (beta == 0.0) {
        if (c.rows() != a.rows() || c.cols() != b.cols())
            c.resize(a.rows(), b.cols());
    } else {
        RTR_ASSERT(c.rows() == a.rows() && c.cols() == b.cols(),
                   "gemm accumulate shape mismatch: C is ", c.rows(), "x",
                   c.cols(), ", product is ", a.rows(), "x", b.cols());
    }
    auto *kernel = path == LinalgPath::Simd ? gemmSimd : gemmScalar;
    kernel(a.rows(), a.cols(), b.cols(), a.data(), a.cols(), b.data(),
           b.cols(), false, c.data(), c.cols(), alpha, beta);
}

void
multiplyTransposed(const Matrix &a, const Matrix &b, Matrix &out)
{
    RTR_ASSERT(a.cols() == b.cols(),
               "multiplyTransposed shape mismatch: ", a.rows(), "x",
               a.cols(), " * (", b.rows(), "x", b.cols(), ")^T");
    RTR_ASSERT(!sameBuffer(out, a) && !sameBuffer(out, b),
               "multiplyTransposed output aliases an input");
    if (out.rows() != a.rows() || out.cols() != b.rows())
        out.resize(a.rows(), b.rows());
    gemmSimd(a.rows(), a.cols(), b.rows(), a.data(), a.cols(), b.data(),
             b.cols(), true, out.data(), out.cols(), 1.0, 0.0);
}

Matrix
multiplyTransposed(const Matrix &a, const Matrix &b)
{
    Matrix out;
    multiplyTransposed(a, b, out);
    return out;
}

void
symmetricSandwich(const Matrix &h, const Matrix &p, Matrix &out, Matrix &work)
{
    RTR_ASSERT(p.rows() == p.cols(), "symmetricSandwich: P must be square");
    RTR_ASSERT(h.cols() == p.rows(),
               "symmetricSandwich shape mismatch: H is ", h.rows(), "x",
               h.cols(), ", P is ", p.rows(), "x", p.cols());
    RTR_ASSERT(!sameBuffer(out, h) && !sameBuffer(out, p) &&
                   !sameBuffer(work, h) && !sameBuffer(work, p) &&
                   !sameBuffer(out, work),
               "symmetricSandwich output/workspace aliases an input");
    gemm(h, p, work, 1.0, 0.0);          // work = H P
    multiplyTransposed(work, h, out);    // out  = (H P) Hᵀ
}

void
addScaledOuter(Matrix &c, double alpha, const Matrix &x, const Matrix &y,
               LinalgPath path)
{
    RTR_ASSERT(x.cols() == 1 && y.cols() == 1,
               "addScaledOuter expects column vectors");
    RTR_ASSERT(c.rows() == x.rows() && c.cols() == y.rows(),
               "addScaledOuter shape mismatch: C is ", c.rows(), "x",
               c.cols(), ", outer product is ", x.rows(), "x", y.rows());
    RTR_ASSERT(!sameBuffer(c, x) && !sameBuffer(c, y),
               "addScaledOuter output aliases an input");
    const std::size_t m = c.rows();
    const std::size_t n = c.cols();
    const double *xp = x.data();
    const double *yp = y.data();
    for (std::size_t i = 0; i < m; ++i) {
        const double s = alpha * xp[i];
        double *crow = c.data() + i * n;
        std::size_t j = 0;
        if (path == LinalgPath::Simd) {
            const VecD vs = VecD::broadcast(s);
            for (; j + kW <= n; j += kW) {
                VecD::mulAdd(VecD::load(crow + j), vs, VecD::load(yp + j))
                    .store(crow + j);
            }
        }
        for (; j < n; ++j)
            crow[j] += s * yp[j];
    }
}

} // namespace rtr
