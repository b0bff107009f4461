"""Parallel Jacobi: rotations, the pairing permutation, both schedules."""

import functools
import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_golden_traces import RUNS

from systolic import eigen
from systolic.eigen import (
    _delayed_grids,
    _inverse_permutation,
    apply_rotations,
    jacobi_rotation,
    off_norm,
    pack_grid,
    permute,
    position_permutation,
    run_sweeps,
    step_rotations,
)
from systolic.engine import to_jsonl
from systolic.oracle import serial_cyclic_jacobi

RNG = np.random.default_rng(55)


def labels(size):
    """A matrix whose diagonal holds each position's original index."""
    return np.diag(np.arange(size, dtype=float))


def diagonal_pairs(mat):
    """Original indices meeting in each diagonal cell of a permuted ``labels``."""
    idx = [int(x) for x in np.diag(mat)]
    return list(zip(idx[0::2], idx[1::2]))


def grid_step(mat):
    """One broadcast step as run_sweeps takes it: rotate every block, then permute."""
    rots = step_rotations(mat)
    return permute(apply_rotations(mat, rots)), rots


def as_bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def random_symmetric(n, spread=5.0):
    q, _ = np.linalg.qr(RNG.normal(size=(n, n)))
    a = q @ np.diag(RNG.uniform(-spread, spread, n)) @ q.T
    return 0.5 * (a + a.T)


def test_rotation_identity_when_diagonal():
    assert jacobi_rotation(3.0, 0.0, -1.0) == (1.0, 0.0)


def test_rotation_equal_diagonal_gives_pi_over_4():
    c, s = jacobi_rotation(1.0, 1.0, 1.0)
    assert abs(c - 2 ** -0.5) < 1e-15 and abs(s - 2 ** -0.5) < 1e-15
    # block (1,1;1,1) diagonalises to {0, 2}
    r = np.array([[c, s], [-s, c]])
    d = r.T @ np.array([[1.0, 1.0], [1.0, 1.0]]) @ r
    assert abs(d[0, 1]) < 1e-15
    assert np.allclose(np.sort(np.diag(d)), [0.0, 2.0], atol=1e-15)


def test_rotation_2x2_eigenvalues():
    c, s = jacobi_rotation(2.0, 1.0, 2.0)
    r = np.array([[c, s], [-s, c]])
    d = r.T @ np.array([[2.0, 1.0], [1.0, 2.0]]) @ r
    # characteristic roots of [[2,1],[1,2]] are 1 and 3
    assert np.allclose(np.sort(np.diag(d)), [1.0, 3.0], atol=1e-14)
    assert abs(d[0, 1]) < 1e-14


def test_rotation_properties_random():
    for _ in range(200):
        a, b, d = RNG.uniform(-5, 5, 3)
        c, s = jacobi_rotation(a, b, d)
        assert abs(c * c + s * s - 1.0) < 1e-14
        assert abs(s) <= c + 1e-15  # |angle| <= pi/4


def test_position_permutation_step1_pairs():
    g = permute(labels(8))
    assert [(a + 1, b + 1) for a, b in diagonal_pairs(g)] == [(1, 4), (2, 6), (3, 8), (5, 7)]


def test_every_pair_once_per_sweep():
    g = labels(8)
    seen = []
    for _ in range(7):
        seen.extend(tuple(sorted(p)) for p in diagonal_pairs(g))
        g = permute(g)
    assert len(seen) == 28 and len(set(seen)) == 28
    assert np.array_equal(g, labels(8))  # orbit closes after n-1 steps


def test_permutation_period_property():
    g = start = labels(12)
    for _ in range(2 * (12 - 1)):
        g = permute(g)
    assert np.array_equal(g, start)


def test_permutation_orbit_closes_after_size_minus_one_steps():
    # run_sweeps reads its results in place at each sweep boundary
    for size in range(2, 131, 2):
        g = start = np.arange(size * size, dtype=float).reshape(size, size)
        for _ in range(size - 1):
            g = permute(g)
        assert np.array_equal(g, start), size


def test_permutation_is_nearest_neighbour():
    for size in (2, 4, 8, 16):
        sig = position_permutation(size)
        assert sorted(sig) == list(range(size))
        assert all(abs(sig[p] - p) <= 2 for p in range(size))
        assert sig[0] == 0
    with pytest.raises(ValueError, match="even sizes"):
        position_permutation(3)


def test_grid_step_diagonal_input_unchanged():
    a = np.diag([4.0, 1.0, 3.0, 2.0])
    mat, _ = pack_grid(a)
    new, rots = grid_step(mat)
    assert all(r == (1.0, 0.0) for r in rots)
    # entries only moved, never altered
    assert sorted(np.diag(new)) == sorted(np.diag(a))
    assert off_norm(new) == 0.0


def test_grid_step_block_diagonal_exact():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    mat, _ = pack_grid(a)
    new, rots = grid_step(mat)
    assert np.allclose(np.sort(np.diag(new)), [-1.0, -1.0, 1.0, 1.0], atol=1e-15)


def test_off_norm_decrease_law():
    for _ in range(5):
        a = random_symmetric(8)
        mat, _ = pack_grid(a)
        for _step in range(14):
            rots = step_rotations(mat)
            beta2 = sum(mat[2 * i, 2 * i + 1] ** 2
                        for i, r in enumerate(rots) if r != (1.0, 0.0))
            before = off_norm(mat) ** 2
            mat, _ = grid_step(mat)
            after = off_norm(mat) ** 2
            assert abs(after - (before - 2.0 * beta2)) < 1e-10 * max(before, 1e-30)


def test_symmetry_preserved_each_step():
    m, _ = pack_grid(random_symmetric(10))
    for _ in range(12):
        m, _ = grid_step(m)
        assert np.allclose(m, m.T, atol=1e-12 * np.max(np.abs(m)))


def test_conservation_of_trace_and_frobenius():
    a = random_symmetric(8)
    mat, _ = pack_grid(a)
    t0, f0 = np.trace(a), np.linalg.norm(a)
    for _ in range(20):
        mat, _ = grid_step(mat)
    assert abs(np.trace(mat) - t0) < 1e-12 * max(abs(t0), 1.0)
    assert abs(np.linalg.norm(mat) - f0) < 1e-12 * f0


def test_run_sweeps_diagonal_matrix():
    res = run_sweeps(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(res.eigenvalues, [1.0, 2.0, 3.0, 4.0])
    assert res.report.rotations_performed == 0
    assert res.report.converged


def test_run_sweeps_2x2():
    res = run_sweeps(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(np.sort(res.eigenvalues), [-1.0, 1.0], atol=1e-15)


def test_run_sweeps_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        run_sweeps(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_run_sweeps_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'serial'"):
        run_sweeps(np.eye(2), mode="serial")


@pytest.mark.parametrize("n", [4, 5, 16])
def test_matches_serial_oracle(n):
    a = random_symmetric(n)
    res = run_sweeps(a)
    vals_o, _, _ = serial_cyclic_jacobi(a)
    scale = np.linalg.norm(a)
    assert np.max(np.abs(np.sort(res.eigenvalues) - np.sort(vals_o))) < 1e-8 * scale
    assert res.report.sweeps_used <= 10


def test_eigenvector_residuals():
    for n in (4, 7, 12):
        a = random_symmetric(n)
        res = run_sweeps(a, compute_vectors=True)
        v = res.eigenvectors
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ v - v @ np.diag(res.eigenvalues)) <= 1e-8 * scale
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10


def test_odd_size_padding_is_decoupled():
    a = random_symmetric(5)
    res = run_sweeps(a)
    vals_o, _, _ = serial_cyclic_jacobi(a)
    assert np.max(np.abs(np.sort(res.eigenvalues) - np.sort(vals_o))) < 1e-8 * np.linalg.norm(a)
    assert len(res.eigenvalues) == 5


def test_delayed_equals_broadcast_grid_for_grid():
    for n in (4, 8):
        a = random_symmetric(n)
        rb = run_sweeps(a, mode="broadcast")
        rd = run_sweeps(a, mode="delayed")
        assert as_bytes(rb.eigenvalues) == as_bytes(rd.eigenvalues)
        assert as_bytes(rb.report.off_norms) == as_bytes(rd.report.off_norms)
        assert rb.report.sweeps_used == rd.report.sweeps_used
        # step-by-step: replay broadcast and compare against the grids the
        # delayed array holds, read the way run_sweeps reads them
        mat, _ = pack_grid(a)
        size = mat.shape[0]
        steps = rd.report.sweeps_used * (size - 1)
        rotated_d = _delayed_grids(mat, None)
        for s in range(steps):
            rot = apply_rotations(mat, step_rotations(mat))
            assert as_bytes(rot) == as_bytes(next(rotated_d)[0])
            mat = permute(rot)


def test_delayed_dependency_slack():
    # |delta_ij - delta_{i+1,j+1}| <= 2 for every in-range pair
    h = 8
    delta = [[abs(i - j) for j in range(h)] for i in range(h)]
    for i in range(h - 1):
        for j in range(h - 1):
            assert abs(delta[i][j] - delta[i + 1][j + 1]) <= 2


def test_delayed_utilisation_one_third():
    a = random_symmetric(16)
    rd = run_sweeps(a, mode="delayed", trace=True)
    tr = rd.report.trace
    ticks = max(rec.tick for rec in tr) + 1
    diag_counts = {}
    for rec in tr:
        if rec.cell.row == rec.cell.col:
            diag_counts[rec.cell.row] = diag_counts.get(rec.cell.row, 0) + 1
    fracs = [c / ticks for c in diag_counts.values()]
    assert all(0.28 <= f <= 0.38 for f in fracs)


def test_nonconvergence_is_reported_not_fatal():
    a = random_symmetric(12)
    res = run_sweeps(a, max_sweeps=1)
    assert not res.report.converged
    assert res.report.sweeps_used == 1


def test_delayed_minimal_and_odd_sizes():
    rd = run_sweeps(np.array([[0.0, 1.0], [1.0, 0.0]]), mode="delayed")
    assert np.allclose(np.sort(rd.eigenvalues), [-1.0, 1.0], atol=1e-15)
    a = random_symmetric(5)
    rd = run_sweeps(a, mode="delayed")
    rb = run_sweeps(a, mode="broadcast")
    assert np.array_equal(np.sort(rd.eigenvalues), np.sort(rb.eigenvalues))


def test_delayed_eigenvectors_from_trace():
    a = random_symmetric(6)
    res = run_sweeps(a, mode="delayed", compute_vectors=True)
    v = res.eigenvectors
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ v - v @ np.diag(res.eigenvalues)) <= 1e-8 * scale
    assert np.linalg.norm(v.T @ v - np.eye(6)) <= 1e-10


def test_delayed_builds_no_array_for_a_diagonal_matrix():
    for mode in ("broadcast", "delayed"):
        res = run_sweeps(np.diag([1.0, 3.0]), mode=mode)
        assert res.report.sweeps_used == 0 and res.report.converged
        assert res.report.ticks == 0


def test_delayed_report_equals_broadcast():
    for n in (4, 7, 10):
        a = random_symmetric(n)
        rb = run_sweeps(a, mode="broadcast", compute_vectors=True)
        rd = run_sweeps(a, mode="delayed", compute_vectors=True)
        assert rd.report.rotations_performed == rb.report.rotations_performed > 0
        assert as_bytes(rd.report.off_norms) == as_bytes(rb.report.off_norms)
        assert rd.report.sweeps_used == rb.report.sweeps_used
        assert as_bytes(rd.eigenvalues) == as_bytes(rb.eigenvalues)
        assert as_bytes(rd.eigenvectors) == as_bytes(rb.eigenvectors)


@pytest.mark.parametrize("n", [31, 32])
def test_schedules_agree_byte_for_byte_at_the_benchmark_s_large_size(n):
    # a 16 x 16 grid, where every cell sends both parities' blocks in turn;
    # the odd size is padded to the same grid
    a = np.random.default_rng(1).normal(size=(n, n))
    a = a + a.T
    rb = run_sweeps(a, mode="broadcast")
    rd = run_sweeps(a, mode="delayed")
    assert as_bytes(rd.eigenvalues) == as_bytes(rb.eigenvalues)
    assert as_bytes(rd.report.off_norms) == as_bytes(rb.report.off_norms)
    assert rd.report.sweeps_used == rb.report.sweeps_used
    assert rd.report.rotations_performed == rb.report.rotations_performed > 0
    assert rd.report.ticks > 0


_ZEROS = st.sampled_from([0.0, -0.0])
_ENTRIES = st.one_of(_ZEROS, _ZEROS, st.sampled_from([1.0, -1.0, 2.0, -2.0]),
                     st.floats(-4.0, 4.0, allow_subnormal=False))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: hnp.arrays(float, (n, n), elements=_ENTRIES)))
@example(np.array([[0.0, 0, 0, 0, 0], [-2, -0.0, 0, 0, 0], [0, 0, 2, 0, 0],
                   [0, 0, 0, -0.0, 0], [0, 0, 0, 0, 4]]))
def test_schedules_agree_byte_for_byte(lower):
    # signed zeros included: both schedules apply rotate_block to every
    # block, so a zero keeps or loses its sign in both alike
    a = np.where(np.tri(len(lower), dtype=bool), lower, lower.T)
    rb = run_sweeps(a, mode="broadcast")
    rd = run_sweeps(a, mode="delayed")
    assert as_bytes(rd.eigenvalues) == as_bytes(rb.eigenvalues)
    assert as_bytes(rd.report.off_norms) == as_bytes(rb.report.off_norms)


def test_overflowing_rotation_is_silent_in_both_schedules(monkeypatch):
    # with TOL = 0 an off-diagonal entry decays until (delta - alpha) / (2 beta)
    # overflows; both schedules then take the identity rotation, unwarned
    monkeypatch.setattr(eigen, "TOL", 0.0)
    a = np.array([[-2.0, 2.0, -1.0], [2.0, 2.0, -2.0], [-1.0, -2.0, 1.0]])
    rb = run_sweeps(a, mode="broadcast")
    rd = run_sweeps(a, mode="delayed")
    assert as_bytes(rd.eigenvalues) == as_bytes(rb.eigenvalues)
    assert as_bytes(rd.report.off_norms) == as_bytes(rb.report.off_norms)


@pytest.mark.parametrize("n", [5, 8])
def test_eigenvalues_stay_with_their_index_after_one_sweep(n):
    # strongly diagonally dominant: each eigenvalue lies next to its own
    # diagonal entry, so a misread position would show as a large error
    rng = np.random.default_rng(n)
    off = rng.uniform(-1e-3, 1e-3, (n, n))
    a = np.diag(10.0 * rng.permutation(n) + 1.0) + np.tril(off, -1) + np.tril(off, -1).T
    for mode in ("broadcast", "delayed"):
        res = run_sweeps(a, max_sweeps=1, mode=mode)
        assert res.report.sweeps_used == 1, mode
        assert np.max(np.abs(res.eigenvalues - np.diag(a))) < 1e-4, mode


def test_delayed_stops_after_converged_sweep(monkeypatch):
    a = random_symmetric(6)
    with monkeypatch.context() as m:
        m.setattr(eigen, "TOL", 0.0)  # never converges, so all ten sweeps run
        full = run_sweeps(a, mode="delayed", trace=True)
    early = run_sweeps(a, mode="delayed", trace=True)
    assert full.report.sweeps_used == 10 and early.report.sweeps_used < 10
    # the farthest cell from the diagonal runs step s on tick 3s + h - 1
    # (h = 3 block rows); the array stops right after the last converged step
    steps = early.report.sweeps_used * 5
    assert early.report.ticks == 3 * (steps - 1) + 3
    assert len(early.report.trace) < len(full.report.trace)
    assert list(early.report.trace) == list(full.report.trace)[:len(early.report.trace)]


def test_trace_is_opt_in():
    a = random_symmetric(4)
    assert run_sweeps(a, mode="delayed").report.trace is None
    assert run_sweeps(a, mode="broadcast", trace=True).report.trace is None


@pytest.mark.parametrize("bad, message", [
    (np.zeros((0, 0)), "must not be empty"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "must be finite"),
    (np.array([[np.inf]]), "must be finite"),
    (np.zeros((2, 3)), "must be square"),
])
def test_pack_grid_rejects_empty_and_nonfinite(bad, message):
    with pytest.raises(ValueError, match=message):
        pack_grid(bad)


@pytest.mark.parametrize("a", [
    pytest.param([[1e308, 1e308], [1e308, -1e308]], id="float-maximum"),
    pytest.param([[1.0, 0.0], [0.0, 5e-324]], id="subnormal"),
])
def test_pack_grid_keeps_extreme_symmetric_entries(a):
    # averaging halves each entry before adding, so no sum overflows, and
    # leaves a symmetric pair as it is, so no subnormal entry is rounded
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mat, _ = pack_grid(a)
    assert np.array_equal(mat, a)


@pytest.mark.parametrize("k", [-40, 600, -600, -1000, 1020])
@pytest.mark.parametrize("mode", ["broadcast", "delayed"])
def test_results_scale_exactly_with_the_input(k, mode):
    # a relative stop rule and a working matrix scaled by a power of two
    # make every decision of the sweep loop independent of the scale, up to
    # entries near the float maximum
    for n in (2, 5, 8):
        a = random_symmetric(n)
        base = run_sweeps(a, mode=mode)
        scaled = run_sweeps(2.0 ** k * a, mode=mode)
        assert np.array_equal(scaled.eigenvalues, 2.0 ** k * base.eigenvalues), n
        assert scaled.report.sweeps_used == base.report.sweeps_used, n
        assert scaled.report.off_norms == [2.0 ** k * x for x in base.report.off_norms], n


def test_zero_matrix_needs_no_sweep():
    for mode in ("broadcast", "delayed"):
        res = run_sweeps(np.zeros((3, 3)), mode=mode)
        assert res.report.sweeps_used == 0 and res.report.converged
        assert np.array_equal(res.eigenvalues, np.zeros(3))


@pytest.mark.parametrize("a", [
    *(pytest.param(2.0 ** k * np.array([[0.0, 1.0], [0.0, 0.0]]), id=f"2^{k}")
      for k in (-60, 0, 600)),
    pytest.param(np.array([[0.0, 1.0], [1.0 + 2.0 ** -20, 0.0]]), id="relative-1e-6"),
])
def test_asymmetry_is_rejected_at_any_scale(a):
    with pytest.raises(ValueError, match="symmetric"):
        run_sweeps(a)
    with pytest.raises(ValueError, match="symmetric"):
        serial_cyclic_jacobi(a)


def test_eigenvalues_near_the_float_maximum():
    # |A|_F = sqrt(8) * 1e308 lies beyond the float range; the eigenvalues do not
    a = 1e308 * _with_spectrum(8, np.repeat([1.0, -1.0], 4))
    for mode in ("broadcast", "delayed"):
        res = run_sweeps(a, mode=mode)
        assert res.report.converged, mode
        assert np.sort(res.eigenvalues) == pytest.approx(np.repeat([-1e308, 1e308], 4), rel=1e-12)
        assert res.report.off_norms[0] == np.inf, mode


def _with_spectrum(seed, values):
    rng = np.random.default_rng(seed)
    n = len(values)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(values) @ q.T
    return 0.5 * (a + a.T)


def test_random_64_converges_within_ten_sweeps():
    a = _with_spectrum(64, np.random.default_rng(64).uniform(-5, 5, 64))
    res = run_sweeps(a)
    assert res.report.converged and res.report.sweeps_used <= 10


@pytest.mark.parametrize("spectrum", ["graded", "repeated", "clustered"])
def test_hard_spectra(spectrum):
    values = {"graded": 10.0 ** -np.arange(16),
              "repeated": np.repeat([1.0, -2.0], 8),
              "clustered": 1.0 + 1e-10 * np.arange(16)}[spectrum]
    n = len(values)
    a = _with_spectrum(16, values)
    rb = run_sweeps(a, mode="broadcast")
    rd = run_sweeps(a, mode="delayed")
    assert np.array_equal(rd.eigenvalues, rb.eigenvalues)
    assert rd.report.off_norms == rb.report.off_norms
    # Weyl: the diagonal is within off(A) of the spectrum, plus rounding;
    # small eigenvalues get no relative accuracy from this bound
    u = np.finfo(float).eps / 2
    err = np.max(np.abs(np.sort(rb.eigenvalues) - np.sort(values)))
    assert err <= rb.report.off_norms[-1] + 10 * n * u * np.linalg.norm(a)
    if spectrum != "repeated":  # converges only linearly; may need > 10 sweeps
        assert rb.report.converged


@pytest.mark.parametrize("n", [16, 32])
def test_ultimately_quadratic_convergence(n, monkeypatch):
    monkeypatch.setattr(eigen, "TOL", 0.0)
    for seed in range(3):
        a = _with_spectrum(seed, np.random.default_rng(seed).uniform(-5, 5, n))
        res = run_sweeps(a)
        fro = np.linalg.norm(a)
        r = [x / fro for x in res.report.off_norms[n - 2::n - 1]]  # sweep ends
        tail = [(before, after) for before, after in zip(r, r[1:])
                if before < 1e-3 and after > 1e-13]
        assert tail, seed
        for before, after in tail:
            assert after <= 100 * before ** 2, (seed, before, after)


def _vectors_column_pair_by_pair(a):
    """Eigenvectors as the solver once built them: each step rotates V one
    column pair at a time, skipping identity pairs, then permutes columns."""
    mat, n = pack_grid(a)
    size = mat.shape[0]
    vec = np.eye(size)
    for _ in range(run_sweeps(a).report.sweeps_used * (size - 1)):
        rots = step_rotations(mat)
        for j, (c, s) in enumerate(rots):
            if s != 0.0 or c != 1.0:
                c0 = vec[:, 2 * j].copy()
                c1 = vec[:, 2 * j + 1].copy()
                vec[:, 2 * j] = c * c0 - s * c1
                vec[:, 2 * j + 1] = s * c0 + c * c1
        vec = vec[:, _inverse_permutation(size)]
        mat = permute(apply_rotations(mat, rots))
    return vec[:n, :n]


def _vector_cases():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3, 4, 5, 7, 8, 12, 16, 33):
        a = rng.uniform(-4.0, 4.0, (n, n))
        a = a + a.T
        yield f"random-{n}", a
        zeros = np.where(rng.random((n, n)) < 0.7, 0.0, a)
        yield f"zero-heavy-{n}", np.where(np.tri(n, dtype=bool), zeros, zeros.T)
        yield f"diagonal-{n}", np.diag(rng.integers(-3, 4, n).astype(float))
        ints = rng.integers(-2, 3, (n, n)).astype(float)
        yield f"integer-{n}", np.where(np.tri(n, dtype=bool), ints, ints.T)
        signed = a.copy()
        signed[n // 2, :] = signed[:, n // 2] = -0.0
        yield f"negative-zero-row-{n}", signed


@pytest.mark.parametrize("mode", ["broadcast", "delayed"])
def test_eigenvectors_equal_the_column_pair_loop(mode):
    # V never holds -0.0 and every c > 0, so rotating all column pairs at
    # once leaves an identity pair's columns exactly as they were
    for name, a in _vector_cases():
        if mode == "delayed" and len(a) > 12:
            continue
        got = run_sweeps(a, mode=mode, compute_vectors=True).eigenvectors
        assert as_bytes(got) == as_bytes(_vectors_column_pair_by_pair(a)), name


def test_every_3x3_sign_matrix_in_both_schedules():
    # all 729 symmetric 3x3 matrices with entries from {-0.0, 1, -1}
    lower = np.tri(3, dtype=bool)
    for entries in itertools.product((-0.0, 1.0, -1.0), repeat=6):
        a = np.zeros((3, 3))
        a[lower] = entries
        a = np.where(lower, a, a.T)
        rb = run_sweeps(a, mode="broadcast")
        rd = run_sweeps(a, mode="delayed")
        assert as_bytes(rd.eigenvalues) == as_bytes(rb.eigenvalues), entries
        assert as_bytes(rd.report.off_norms) == as_bytes(rb.report.off_norms), entries
        vals_o, _, _ = serial_cyclic_jacobi(a)
        err = np.max(np.abs(np.sort(rb.eigenvalues) - np.sort(vals_o)))
        assert err <= 1e-8 * np.linalg.norm(a), entries


def test_reused_delayed_plans_run_as_fresh_builds(monkeypatch):
    # matrices of a few sizes, each size several times over, traced: a run
    # on a reused plan gives the results and trace bytes of a fresh build
    cases = [random_symmetric(n) for n in (2, 5, 8, 6, 8, 2, 5) for _ in range(2)]

    def runs():
        return [(as_bytes(r.eigenvalues), as_bytes(r.report.off_norms), r.report.ticks,
                 to_jsonl(r.report.trace))
                for r in (run_sweeps(a, mode="delayed", trace=True) for a in cases)]

    reused = runs()
    monkeypatch.setattr(eigen, "_delayed_inputs", eigen._delayed_inputs.__wrapped__)
    assert runs() == reused


def test_a_reused_delayed_plan_gives_the_golden_trace():
    make, records, digest = RUNS["eigen-delayed"]
    spec, _ = eigen._delayed_inputs(6)
    for a in (random_symmetric(6), random_symmetric(5), np.ones((6, 6))):
        assert as_bytes(run_sweeps(a, mode="delayed").eigenvalues) == \
            as_bytes(run_sweeps(a, mode="broadcast").eigenvalues)
    plan = spec.plan
    tr = make()
    assert spec.plan is plan
    assert len(tr) == records
    assert hashlib.sha256(to_jsonl(tr).encode()).hexdigest() == digest


def test_a_delayed_run_longer_than_any_before_runs_as_a_fresh_build(monkeypatch):
    # short runs first, then one that runs past the schedule they expanded
    # on the shared plan: every run gives the trace of a fresh build
    monkeypatch.setattr(eigen, "TOL", 0.0)
    monkeypatch.setattr(eigen, "_delayed_inputs",
                        functools.lru_cache(maxsize=4)(eigen._delayed_inputs.__wrapped__))
    cases = [(random_symmetric(6), sweeps) for sweeps in (1, 2, 1, 40)]

    def runs():
        return [(as_bytes(r.eigenvalues), r.report.ticks, to_jsonl(r.report.trace))
                for r in (run_sweeps(a, mode="delayed", max_sweeps=sweeps, trace=True)
                          for a, sweeps in cases)]

    reused = runs()
    spec, _ = eigen._delayed_inputs(6)
    assert max(ticks for _, ticks, _ in reused[:3]) + 256 < reused[3][1] <= len(spec.plan.schedule)
    monkeypatch.setattr(eigen, "_delayed_inputs", eigen._delayed_inputs.__wrapped__)
    assert runs() == reused
