/**
 * @file
 * Matrix decompositions and solvers: LU with partial pivoting and
 * Cholesky for symmetric positive-definite systems.
 */

#ifndef RTR_LINALG_DECOMP_H
#define RTR_LINALG_DECOMP_H

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace rtr {

/**
 * LU decomposition with partial pivoting (PA = LU).
 *
 * Construction factors the matrix once; solve()/inverse() reuse the
 * factorization. Elimination and substitution run the SIMD row
 * kernels; LinalgPath::Scalar selects the preserved scalar loops (the
 * test oracle), bitwise identical by contract.
 */
class LuDecomposition
{
  public:
    /** Factor a square matrix. Singular inputs set singular() true.
     *  @p path also applies to every later solve()/inverse(). */
    explicit LuDecomposition(const Matrix &a,
                             LinalgPath path = LinalgPath::Simd);

    /** Whether the matrix was detected as (numerically) singular. */
    bool singular() const { return singular_; }

    /** Solve A x = b for a matrix of right-hand sides. */
    Matrix solve(const Matrix &b) const;

    /** A^-1 via n solves against the identity. */
    Matrix inverse() const;

    /** Determinant of A. */
    double determinant() const;

  private:
    std::size_t n_;
    bool use_simd_;
    Matrix lu_;
    std::vector<std::size_t> pivot_;
    int pivot_sign_ = 1;
    bool singular_ = false;
};

/**
 * Cholesky decomposition (A = L L^T) of a symmetric positive-definite
 * matrix. Used by the Gaussian-process substrate of the BO kernel.
 *
 * The factorization and both substitution passes have SIMD and scalar
 * implementations, chosen per decomposition by its LinalgPath (SIMD
 * unless a test asks for the scalar oracle); the two are bitwise
 * identical by contract (see DESIGN.md "Dense linear algebra"). Both
 * substitution passes are right-looking so they vectorize for
 * single-column right-hand sides; the backward pass
 * therefore accumulates its per-element terms in descending k order,
 * which differs from the historical ascending order by ordinary
 * floating-point rounding only.
 */
class CholeskyDecomposition
{
  public:
    /** Factor an SPD matrix. Non-SPD inputs set failed() true.
     *  @p path also applies to every later solve(). */
    explicit CholeskyDecomposition(const Matrix &a,
                                   LinalgPath path = LinalgPath::Simd);

    /** Whether factorization failed (matrix not positive-definite). */
    bool failed() const { return failed_; }

    /** Lower-triangular factor L. */
    const Matrix &lower() const { return l_; }

    /** Solve A x = b via forward/backward substitution. */
    Matrix solve(const Matrix &b) const;

    /**
     * solve() into a caller-owned output (capacity reuse for per-call
     * hot paths such as GP predict). x may be the same object as b.
     */
    void solveInto(const Matrix &b, Matrix &x) const;

    /** log(det(A)) computed stably from the factor. */
    double logDeterminant() const;

  private:
    void factorScalar(const Matrix &a);
    void factorSimd(const Matrix &a);

    std::size_t n_;
    bool use_simd_;
    Matrix l_;
    Matrix lt_; // Lᵀ, kept for contiguous single-RHS forward solves
    bool failed_ = false;
};

/** Convenience: A^-1 via LU; calls fatal() on singular input. */
Matrix inverse(const Matrix &a);

/** Convenience: solve A x = b via LU; calls fatal() on singular input. */
Matrix solve(const Matrix &a, const Matrix &b);

} // namespace rtr

#endif // RTR_LINALG_DECOMP_H
