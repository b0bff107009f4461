"""Parallel Jacobi: rotations, the pairing permutation, both schedules."""

import numpy as np
import pytest

from systolic.eigen import (
    BlockGrid,
    apply_rotations,
    default_threshold_schedule,
    grid_step,
    jacobi_rotation,
    off_norm,
    pack_grid,
    permute,
    position_permutation,
    run_sweeps,
    step_rotations,
)
from systolic.oracle import serial_cyclic_jacobi

RNG = np.random.default_rng(55)


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
    g, _ = pack_grid(np.zeros((8, 8)))
    g = permute(g)
    assert [(a + 1, b + 1) for a, b in g.diagonal_pairs()] == [(1, 4), (2, 6), (3, 8), (5, 7)]


def test_every_pair_once_per_sweep():
    g, _ = pack_grid(np.zeros((8, 8)))
    seen = []
    for _ in range(7):
        seen.extend(tuple(sorted(p)) for p in g.diagonal_pairs())
        g = permute(g)
    assert len(seen) == 28 and len(set(seen)) == 28
    assert g.tracker == tuple(range(8))  # orbit closes after n-1 steps


def test_permutation_period_property():
    g, _ = pack_grid(np.zeros((12, 12)))
    start = g.tracker
    for _ in range(2 * (12 - 1)):
        g = permute(g)
    assert g.tracker == start


def test_permutation_is_nearest_neighbour():
    for size in (2, 4, 8, 16):
        sig = position_permutation(size)
        assert sorted(sig) == list(range(size))
        assert all(abs(sig[p] - p) <= 2 for p in range(size))
        assert sig[0] == 0


def test_grid_step_diagonal_input_unchanged():
    a = np.diag([4.0, 1.0, 3.0, 2.0])
    grid, _ = pack_grid(a)
    new, rots = grid_step(grid, 0.0)
    assert all(r == (1.0, 0.0) for r in rots)
    # entries only moved, never altered
    assert sorted(np.diag(new.mat)) == sorted(np.diag(a))
    assert off_norm(new.mat) == 0.0


def test_grid_step_block_diagonal_exact():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    grid, _ = pack_grid(a)
    new, rots = grid_step(grid, 0.0)
    assert np.allclose(np.sort(np.diag(new.mat)), [-1.0, -1.0, 1.0, 1.0], atol=1e-15)


def test_off_norm_decrease_law():
    for _ in range(5):
        a = random_symmetric(8)
        grid, _ = pack_grid(a)
        for _step in range(14):
            rots, _ = step_rotations(grid.mat, 0.0)
            beta2 = sum(grid.mat[2 * i, 2 * i + 1] ** 2
                        for i, r in enumerate(rots) if r != (1.0, 0.0))
            before = off_norm(grid.mat) ** 2
            grid, _ = grid_step(grid, 0.0)
            after = off_norm(grid.mat) ** 2
            assert abs(after - (before - 2.0 * beta2)) < 1e-10 * max(before, 1e-30)


def test_symmetry_preserved_each_step():
    grid, _ = pack_grid(random_symmetric(10))
    for _ in range(12):
        grid, _ = grid_step(grid, 0.0)
        grid.check_symmetry(tol=1e-12)


def test_conservation_of_trace_and_frobenius():
    a = random_symmetric(8)
    grid, _ = pack_grid(a)
    t0, f0 = np.trace(a), np.linalg.norm(a)
    for _ in range(20):
        grid, _ = grid_step(grid, 0.0)
    assert abs(np.trace(grid.mat) - t0) < 1e-12 * max(abs(t0), 1.0)
    assert abs(np.linalg.norm(grid.mat) - f0) < 1e-12 * f0


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
        rd = run_sweeps(a, mode="delayed", trace=True)
        assert np.array_equal(np.sort(rb.eigenvalues), np.sort(rd.eigenvalues))
        assert rb.report.sweeps_used == rd.report.sweeps_used
        # step-by-step: replay broadcast and compare against the delayed trace
        from systolic.eigen import delayed_grids_from_trace
        grid, _ = pack_grid(a)
        thr = default_threshold_schedule(grid.mat)
        steps = rd.report.sweeps_used * (grid.size - 1)
        rotated_d = delayed_grids_from_trace(rd.report.trace, grid.size,
                                             10 * (grid.size - 1))
        for s in range(steps):
            rots, _ = step_rotations(grid.mat, thr(s // (grid.size - 1)))
            rot = apply_rotations(grid.mat, rots)
            assert np.array_equal(rot, rotated_d[s])
            grid = permute(BlockGrid(mat=rot, tracker=grid.tracker))


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
        assert rd.report.skipped_per_sweep == rb.report.skipped_per_sweep
        assert rd.report.off_norms == rb.report.off_norms
        assert rd.report.sweeps_used == rb.report.sweeps_used
        assert np.array_equal(rd.eigenvalues, rb.eigenvalues)
        assert np.array_equal(rd.eigenvectors, rb.eigenvectors)


def test_delayed_stops_after_converged_sweep():
    a = random_symmetric(6)
    full = run_sweeps(a, mode="delayed", tol=0.0, trace=True)
    early = run_sweeps(a, mode="delayed", trace=True)
    assert full.report.sweeps_used == 10 and early.report.sweeps_used < 10
    # the farthest cell from the diagonal runs step s on tick 3s + h - 1
    # (h = 3 block rows); the array stops right after the last converged step
    steps = early.report.sweeps_used * 5
    assert early.report.ticks == 3 * (steps - 1) + 3
    assert len(early.report.trace) < len(full.report.trace)
    assert early.report.trace.records == full.report.trace.records[:len(early.report.trace)]


def test_trace_is_opt_in():
    a = random_symmetric(4)
    assert run_sweeps(a, mode="delayed").report.trace is None
    assert run_sweeps(a, mode="broadcast", trace=True).report.trace is None


@pytest.mark.parametrize("bad, message", [
    (np.zeros((0, 0)), "must not be empty"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "must be finite"),
    (np.array([[np.inf]]), "must be finite"),
])
def test_pack_grid_rejects_empty_and_nonfinite(bad, message):
    with pytest.raises(ValueError, match=message):
        pack_grid(bad)
