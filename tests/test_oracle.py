"""Serial reference implementations: self-checks and cross-checks."""

import random

import numpy as np
import pytest
from gf_tools import poly_mul
from test_toeplitz import EXTREMES

from systolic.gfield import Field, poly_divmod, poly_monic
from systolic.oracle import (
    SingularMatrixError,
    dense_lu_solve_nopivot,
    euclid_int_gcd,
    euclid_poly_gcd,
    serial_cyclic_jacobi,
)

RNG = random.Random(77)


def test_poly_gcd_with_zero():
    f = Field(7)
    a = (3, 2, 5)
    assert euclid_poly_gcd(f, a, ()) == poly_monic(f, a)
    with pytest.raises(ValueError):
        euclid_poly_gcd(f, (), ())


def test_poly_gcd_gf2_known():
    f = Field(2)
    # (x+1)^3 and (x+1)^2 share (x+1)^2 = x^2+1 over GF(2)
    g = euclid_poly_gcd(f, (1, 1, 1, 1), (1, 0, 1))
    assert g == (1, 0, 1)
    _, r1 = poly_divmod(f, (1, 1, 1, 1), g)
    _, r2 = poly_divmod(f, (1, 0, 1), g)
    assert r1 == () and r2 == ()


def test_poly_gcd_gf7_constructed():
    f = Field(7)
    a = poly_mul(f, (2, 1), (3, 1))
    b = poly_mul(f, (2, 1), (5, 1))
    assert euclid_poly_gcd(f, a, b) == (2, 1)


def test_int_gcd_examples():
    assert euclid_int_gcd(12, 18) == 6
    assert 12 % 6 == 0 and 18 % 6 == 0
    assert euclid_int_gcd(-9, 0) == 9
    for _ in range(25):
        b = RNG.randint(1, 10**9)
        assert euclid_int_gcd(1, b) == 1
    with pytest.raises(ValueError):
        euclid_int_gcd(0, 0)


def test_lu_identity():
    x, u = dense_lu_solve_nopivot(np.eye(4), np.arange(4.0))
    assert np.array_equal(x, np.arange(4.0))
    assert np.array_equal(u, np.eye(4))


def test_lu_2x2_row_sums():
    x, _ = dense_lu_solve_nopivot([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_random_dominant_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.uniform(-1, 1, (8, 8))
        m += np.diag(np.sum(np.abs(m), axis=1) + 1)
        b = rng.uniform(-1, 1, 8)
        x, u = dense_lu_solve_nopivot(m, b)
        assert np.max(np.abs(m @ x - b)) < 1e-12
        assert np.allclose(np.triu(u), u)


def test_lu_zero_pivot():
    with pytest.raises(SingularMatrixError):
        dense_lu_solve_nopivot([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])


def test_oracles_refuse_a_wrong_shape():
    with pytest.raises(ValueError, match="shape mismatch"):
        dense_lu_solve_nopivot(np.eye(2), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="must be square"):
        serial_cyclic_jacobi(np.zeros((2, 3)))


def test_jacobi_diagonal_is_fixed_point():
    vals, vecs, sweeps = serial_cyclic_jacobi(np.diag([3.0, 1.0, 2.0]))
    assert sweeps == 0
    assert np.array_equal(np.sort(vals), [1.0, 2.0, 3.0])
    assert np.array_equal(vecs, np.eye(3))


def test_jacobi_2x2():
    vals, _, _ = serial_cyclic_jacobi([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(np.sort(vals), [-1.0, 1.0], atol=1e-14)


def test_jacobi_residual_selfcheck():
    rng = np.random.default_rng(4)
    for _ in range(6):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = q @ np.diag(rng.uniform(-4, 4, 8)) @ q.T
        a = 0.5 * (a + a.T)
        vals, vecs, _ = serial_cyclic_jacobi(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ vecs - vecs @ np.diag(vals)) < 1e-10 * scale


@pytest.mark.parametrize("k", [-60, 700])
def test_jacobi_stop_rule_is_scale_free(k):
    nrng = np.random.default_rng(60)
    for n in (3, 6):
        q, _ = np.linalg.qr(nrng.normal(size=(n, n)))
        a = q @ np.diag(nrng.uniform(-5, 5, n)) @ q.T
        a = 0.5 * (a + a.T)
        vals, _, sweeps = serial_cyclic_jacobi(a)
        vals_k, _, sweeps_k = serial_cyclic_jacobi(2.0 ** k * a)
        assert sweeps_k == sweeps > 0, n
        assert np.max(np.abs(np.ldexp(vals_k, -k) - vals)) <= 1e-12 * np.linalg.norm(a), n


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        serial_cyclic_jacobi([[0.0, 1.0], [0.5, 0.0]])


def test_lu_pivot_rule_is_scale_free():
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, (6, 6))
    m += np.diag(np.sum(np.abs(m), axis=1) + 1)
    b = rng.uniform(-1, 1, 6)
    x, _ = dense_lu_solve_nopivot(m, b)
    x_small, _ = dense_lu_solve_nopivot(2.0 ** -60 * m, 2.0 ** -60 * b)
    assert np.array_equal(x_small, x)


def test_jacobi_averages_an_asymmetry_from_either_triangle():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = q @ np.diag([-2.0, 1.0, 3.0]) @ q.T
    a = 0.5 * (a + a.T)
    eps = 0.9e-12 * np.max(np.abs(a))
    upper, lower = a.copy(), a.copy()
    upper[0, 2] += eps
    lower[2, 0] += eps
    vals_upper, _, _ = serial_cyclic_jacobi(upper)
    vals_lower, _, _ = serial_cyclic_jacobi(lower)
    assert np.array_equal(vals_upper, vals_lower)


def test_lu_refuses_what_an_overflow_makes_of_a_pivot_or_of_x():
    # Toeplitz systems of order 2..4 with entries near both ends of the float
    # range: each one solves to a finite x or is refused, never with a warning
    rng = random.Random(0)
    solved = 0
    for _ in range(20_000):
        n = rng.randint(1, 3)
        diags = np.array(rng.choices(EXTREMES, k=2 * n + 1))
        rhs = rng.choices(EXTREMES, k=n + 1)
        idx = np.arange(n + 1)
        try:
            x, u = dense_lu_solve_nopivot(diags[idx[None, :] - idx[:, None] + n], rhs)
        except SingularMatrixError:
            continue
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(u)), (diags, rhs)
        solved += 1
    assert solved > 6000
    # step 0 overflows the second pivot to inf, which leaves the third NaN
    m = [[1e300, 1e308, 0.0], [-1e300, 1e308, 1e308], [1e300, -1e308, 1.0]]
    with pytest.raises(SingularMatrixError, match="zero pivot at step 2"):
        dense_lu_solve_nopivot(m, [1.0, 1.0, 1.0])
    # an infinite last pivot would give a finite x of 0
    with pytest.raises(SingularMatrixError, match="elimination overflows"):
        dense_lu_solve_nopivot([[1e300, 1e308], [-1e300, 1e308]], [1.0, 1.0])
