/**
 * @file
 * Dense row-major double matrix.
 *
 * This is the linear-algebra substrate of the EKF-SLAM, scene
 * reconstruction, MPC, and Bayesian-optimization kernels. The paper
 * identifies "frequent matrix operations (multiplication, inversion)" as
 * the dominant cost of 02.ekfslam; all such operations route through this
 * class so the benchmark harness can attribute time to them.
 *
 * Production products and factorizations always run the SIMD
 * micro-kernels. The scalar reference paths are reachable only through
 * explicit entry points (multiplyScalar, and a trailing LinalgPath
 * argument on gemm, addScaledOuter and the decompositions), which the
 * tests and bench_micro use to check the bitwise-identity contract
 * (DESIGN.md "Dense linear algebra"). There is no process-wide switch,
 * so concurrent callers cannot change each other's path.
 */

#ifndef RTR_LINALG_MATRIX_H
#define RTR_LINALG_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace rtr {

/** Dense matrix of doubles with value semantics. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Build from nested initializer list (rows of equal length). */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    /** rows x cols matrix filled with a constant. */
    static Matrix constant(std::size_t rows, std::size_t cols, double value);

    /** Diagonal matrix from a vector of diagonal entries. */
    static Matrix diagonal(const std::vector<double> &entries);

    /** Column vector from entries. */
    static Matrix columnVector(const std::vector<double> &entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * Reshape to rows x cols and zero-fill. Reuses the existing heap
     * allocation when capacity suffices — this is the workspace-reuse
     * primitive behind the no-temporary entry points below.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Element access (row, col); bounds-checked in debug builds. */
    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /** Raw storage pointer (row-major). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    Matrix operator+(const Matrix &o) const;
    Matrix operator-(const Matrix &o) const;
    Matrix operator*(const Matrix &o) const;
    Matrix operator*(double s) const;
    Matrix &operator+=(const Matrix &o);
    Matrix &operator-=(const Matrix &o);
    Matrix &operator*=(double s);

    /**
     * Matrix product through the preserved scalar reference path (the
     * plain i-k-j triple loop). operator* runs the SIMD path, which is
     * bitwise identical to this by contract; tests/test_linalg_simd.cpp
     * cross-checks the two.
     */
    Matrix multiplyScalar(const Matrix &o) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Trace (sum of diagonal entries; matrix must be square). */
    double trace() const;

    /** Whether shapes and all entries match within eps. */
    bool approxEquals(const Matrix &o, double eps = 1e-9) const;

    /**
     * Copy block src into this matrix with its top-left corner at
     * (row, col). The block must fit.
     */
    void setBlock(std::size_t row, std::size_t col, const Matrix &src);

    /** Extract an h x w block whose top-left corner is at (row, col). */
    Matrix block(std::size_t row, std::size_t col, std::size_t h,
                 std::size_t w) const;

    /** Human-readable multi-line rendering (for diagnostics). */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Scalar-on-the-left multiplication. */
Matrix operator*(double s, const Matrix &m);

/**
 * Which implementation a linalg entry point runs: the SIMD micro-
 * kernels (production) or the preserved scalar reference loops (the
 * test oracle). Both are bitwise identical by contract.
 */
enum class LinalgPath
{
    Simd,
    Scalar,
};

/**
 * Fused no-temporary entry points. All of them trap (RTR_ASSERT, which
 * is active in release builds) when an output matrix aliases an input —
 * the blocked kernels would silently corrupt otherwise.
 *
 * gemm: C = alpha*A*B + beta*C. With beta == 0, C is never read (so it
 * may hold NaN/garbage) and is reshaped to A.rows x B.cols; otherwise
 * its shape must already match.
 */
void gemm(const Matrix &a, const Matrix &b, Matrix &c, double alpha,
          double beta, LinalgPath path = LinalgPath::Simd);

/**
 * out = A * Bᵀ without materialising the transpose. A is m x k, B is
 * n x k, out becomes m x n. Bitwise identical to
 * a.multiplyScalar(b.transposed()).
 */
void multiplyTransposed(const Matrix &a, const Matrix &b, Matrix &out);

/** Convenience allocating form of the above. */
Matrix multiplyTransposed(const Matrix &a, const Matrix &b);

/**
 * out = H * P * Hᵀ (the EKF innovation-covariance sandwich) with the
 * intermediate H*P kept in the caller-provided workspace `work` — no
 * hidden allocations once the workspaces have grown to size. H is
 * m x n, P is n x n, out becomes m x m and work m x n.
 */
void symmetricSandwich(const Matrix &h, const Matrix &p, Matrix &out,
                       Matrix &work);

/**
 * Rank-1 update C += alpha * x * yᵀ for column vectors x (m x 1) and
 * y (n x 1); C must be m x n.
 */
void addScaledOuter(Matrix &c, double alpha, const Matrix &x,
                    const Matrix &y, LinalgPath path = LinalgPath::Simd);

} // namespace rtr

#endif // RTR_LINALG_MATRIX_H
