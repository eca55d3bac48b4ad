/**
 * @file
 * Symmetric eigen decomposition (cyclic Jacobi).
 *
 * Used by the ICP substrate: the optimal rotation between point-cloud
 * correspondences is recovered from the dominant eigenvector of Horn's
 * 4x4 symmetric quaternion matrix, and each point-to-plane target
 * normal is the smallest-eigenvalue eigenvector of a 3x3 neighborhood
 * covariance. Both entry points run one Jacobi sweep routine — the
 * dense Matrix one on heap storage, the 3x3 one on the stack — so the
 * 3x3 result is bitwise identical to symmetricEigen on the same input.
 */

#ifndef RTR_LINALG_EIGEN_H
#define RTR_LINALG_EIGEN_H

#include <vector>

#include "linalg/matrix.h"

namespace rtr {

/** Result of a symmetric eigen decomposition. */
struct SymmetricEigen
{
    /** Eigenvalues in descending order. */
    std::vector<double> values;
    /** Matching eigenvectors as matrix columns. */
    Matrix vectors;
};

/**
 * Eigen decomposition of a symmetric matrix by the cyclic Jacobi method.
 * The input must be symmetric; asymmetry beyond roundoff is a caller bug.
 */
SymmetricEigen symmetricEigen(const Matrix &a, int max_sweeps = 64);

/** Result of a 3x3 symmetric eigen decomposition (no heap storage). */
struct SymmetricEigen3
{
    /** Eigenvalues in descending order. */
    double values[3];
    /** Matching eigenvectors as columns: vectors[row][column]. */
    double vectors[3][3];
};

/**
 * symmetricEigen of a 3x3 symmetric matrix (row-major a[row][col]) on
 * fixed stack storage. Same sweep, same operations in the same order:
 * values and vectors are bitwise equal to symmetricEigen's.
 */
SymmetricEigen3 symmetricEigen3(const double (&a)[3][3],
                                int max_sweeps = 64);

} // namespace rtr

#endif // RTR_LINALG_EIGEN_H
