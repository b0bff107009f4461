"""Independent serial reference implementations used as ground truth.

These deliberately share nothing with the systolic modules beyond the field
layer, so agreement between the two paths is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .gfield import Field, Poly, poly_divmod, poly_monic


class SingularMatrixError(ArithmeticError):
    """A pivot (leading principal minor) vanished during elimination."""


def euclid_poly_gcd(field: Field, a: Poly, b: Poly) -> Poly:
    """Monic GCD by repeated polynomial division with remainder."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    return poly_monic(field, a)


def euclid_int_gcd(a: int, b: int) -> int:
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def dense_lu_solve_nopivot(m, b):
    """Solve m x = b by Gaussian elimination without pivoting; returns (x, U).

    Each elimination step is one rank-one update of the trailing rows by the
    pivot row (the outer-product form of Gaussian elimination).  Raises
    SingularMatrixError when a pivot is not above 1e-12 * max|m|, which
    refuses a (nearly) zero pivot as the band recursions this oracle
    validates do, and a NaN one; or when an overflow leaves U or x not
    finite.
    """
    a = np.array(m, dtype=float)
    rhs = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or rhs.shape != (n,):
        raise ValueError("shape mismatch")
    tol = 1e-12 * np.max(np.abs(a))
    # an overflow is refused below, after it has run its course
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            piv = a[k, k]
            if not abs(piv) > tol:
                raise SingularMatrixError(f"zero pivot at step {k}")
            f = a[k + 1:, k] / piv
            a[k + 1:, k:] -= np.outer(f, a[k, k:])
            rhs[k + 1:] -= f * rhs[k]
            a[k + 1:, k] = 0.0
        x = np.zeros(n)
        for k in range(n - 1, -1, -1):
            x[k] = (rhs[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise SingularMatrixError("elimination overflows")
    return x, a


def serial_cyclic_jacobi(m):
    """Cyclic-by-rows Jacobi for a symmetric matrix.

    Sweeps until off(A) <= 1e-12 * |A|_F, or 30 sweeps.  An asymmetry up to
    1e-12 * max|m| is averaged out first.  Returns (eigenvalues,
    eigenvectors, sweeps); column j of the eigenvector matrix pairs with
    eigenvalue j.  Rotation angles are capped at pi/4.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * np.max(np.abs(a))):
        raise ValueError("matrix must be symmetric")
    # halving before adding cannot overflow; a symmetric pair is kept as it
    # is, because halving a subnormal entry rounds
    a = np.where(a == a.T, a, 0.5 * a + 0.5 * a.T)
    v = np.eye(n)
    off_diagonal = ~np.eye(n, dtype=bool)
    # hypot scales internally, so neither norm overflows or underflows
    norm = math.hypot(*a.ravel())
    sweeps = 0
    while sweeps < 30 and math.hypot(*a[off_diagonal]) > 1e-12 * norm:
        for i in range(n - 1):
            for j in range(i + 1, n):
                apq = a[i, j]
                if apq == 0.0:
                    continue
                tau = (a[j, j] - a[i, i]) / (2.0 * apq)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[i, i] = c
                rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        sweeps += 1
    return np.diag(a).copy(), v, sweeps
