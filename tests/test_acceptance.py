"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 4 is the long
pole (an exhaustive million-case sweep); everything else finishes in seconds.
"""

import contextlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from systolic import cli, eigen, engine, intgcd, oracle, polygcd, toeplitz
from systolic.gfield import Field
from systolic.oracle import euclid_int_gcd, euclid_poly_gcd, serial_cyclic_jacobi
from systolic.toeplitz import SingularMinorError, ToeplitzBands


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS")


# criteria 1-3 share the random pair population per field
POLY_PAIRS_PER_FIELD = 500


@pytest.fixture(scope="module")
def poly_runs():
    rng = random.Random(20240811)
    runs = {}
    t0 = time.monotonic()
    for p in (2, 7, 257):
        field = Field(p)
        entries = []
        for _ in range(POLY_PAIRS_PER_FIELD):
            a, b = cli.gen_poly_pair(rng, p, 16)
            want = euclid_poly_gcd(field, a, b)
            per_variant = {}
            for variant in ("fig4", "appA"):
                per_variant[variant] = polygcd.systolic_poly_gcd(field, a, b, variant)
            entries.append((a, b, want, per_variant))
        runs[p] = (field, entries)
    return runs, time.monotonic() - t0


def test_criterion_1_poly_gcd_equivalence(poly_runs):
    runs, elapsed = poly_runs
    with criterion(1, "polynomial GCD oracle equivalence, both variants"):
        for p, (field, entries) in runs.items():
            for a, b, want, per_variant in entries:
                for variant in ("fig4", "appA"):
                    assert per_variant[variant].gcd == want, (p, variant, a, b)
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_poly_gcd_latency_and_size(poly_runs):
    runs, _ = poly_runs
    with criterion(2, "poly GCD latency <= 2(m+n+1) on m+n+1 cells"):
        for p, (field, entries) in runs.items():
            for a, b, want, per_variant in entries:
                cells = len(a) + len(b) - 1
                for variant in ("fig4", "appA"):
                    run = per_variant[variant]
                    assert run.cells == cells
                    assert run.latency <= 2 * (cells)


def test_criterion_3_pipelining_batches():
    rng = random.Random(99)
    with criterion(3, "five back-to-back pairs equal isolated runs"):
        for p in (2, 7, 257):
            field = Field(p)
            for variant in ("fig4", "appA"):
                pairs = [cli.gen_poly_pair(rng, p, 10) for _ in range(5)]
                batch = polygcd.pipeline_batch(field, pairs, variant)
                single = [polygcd.systolic_poly_gcd(field, a, b, variant).gcd
                          for a, b in pairs]
                assert batch == single


def test_criterion_4_pm_serial_exhaustive():
    with criterion(4, "pm_serial = Euclid exhaustively below 2^10"):
        bound = 1 << 10
        serial = intgcd.pm_serial
        precursor = intgcd.pm_precursor
        gcd = euclid_int_gcd
        checked = 0
        for a in range(1, bound, 2):
            for b in range(1, bound):
                g = gcd(a, b)
                if serial(a, b) != g or serial(a, -b) != g:
                    raise AssertionError(f"pm_serial wrong at a={a} b=+/-{b}")
                gp, it = precursor(a, b, 10)
                if gp != g or it > 21:
                    raise AssertionError(f"precursor wrong at {a},{b}: {gp},{it}")
                gp, it = precursor(a, -b, 10)
                if gp != g or it > 21:
                    raise AssertionError(f"precursor wrong at {a},-{b}: {gp},{it}")
                checked += 2
        assert checked == 2 * 512 * 1023  # ~ 10^6 signed cases
        # the published swap-on-nonpositive-delta loops forever here:
        assert serial(5, 3) == 1


def test_criterion_5_systolic_int_gcd():
    rng = random.Random(7)
    with criterion(5, "bit-serial pipeline = Euclid on ceil(3.1106n)+1 cells"):
        sizes = [rng.randint(4, 16) for _ in range(600)]
        sizes += [rng.randint(17, 32) for _ in range(250)]
        sizes += [rng.randint(33, 48) for _ in range(100)]
        sizes += [rng.randint(49, 64) for _ in range(50)]
        assert len(sizes) == 1000
        for n in sizes:
            a = rng.randint(1, (1 << n) - 1)
            b = rng.randint(1, (1 << n) - 1)
            run = intgcd.systolic_int_gcd(a, b, n)
            assert run.cells == intgcd.cell_count(n)
            assert run.gcd == euclid_int_gcd(a, b), (a, b, n)


def test_criterion_6_toeplitz_accuracy_and_costs():
    rng = random.Random(6)
    with criterion(6, "Toeplitz systolic vs dense LU, 4n steps, 8 registers"):
        for n in (4, 8, 16, 32, 64):
            for _ in range(40):
                tb = cli.gen_toeplitz(rng, n)
                run = toeplitz.systolic_toeplitz_solve(tb)
                x_o, _ = oracle.dense_lu_solve_nopivot(tb.to_dense(),
                                                       np.array(tb.rhs))
                rel = np.max(np.abs(run.x - x_o)) / max(np.max(np.abs(x_o)), 1e-30)
                assert rel < 1e-10, (n, rel)
                assert run.ticks == 4 * n + 1  # x_k sits in cell k after step 4n
                assert all(len(rec.state) == 8 for rec in run.trace)
                mults = toeplitz.count_trace_multiplications(run.trace, n)
                assert mults <= 4.5 * n * n + 20 * n


def test_criterion_7_toeplitz_breakdown():
    with criterion(7, "a_0 = 0 raises the singular-minor error"):
        n = 6
        diags = [1.0] * (2 * n + 1)
        diags[n] = 0.0
        bad = ToeplitzBands(n, tuple(diags), tuple([1.0] * (n + 1)))
        with pytest.raises(SingularMinorError):
            toeplitz.bareiss_forward(bad)
        with pytest.raises(SingularMinorError):
            toeplitz.systolic_toeplitz_solve(bad)


FIG12_ROWS = [
    [(1, 2), (3, 4), (5, 6), (7, 8)],
    [(1, 4), (2, 6), (3, 8), (5, 7)],
    [(1, 6), (4, 8), (2, 7), (3, 5)],
    [(1, 8), (6, 7), (4, 5), (2, 3)],
    [(1, 7), (8, 5), (6, 3), (4, 2)],
    [(1, 5), (7, 3), (8, 2), (6, 4)],
    [(1, 3), (5, 2), (7, 4), (8, 6)],
]


def test_criterion_8_jacobi_pairing_schedule():
    with criterion(8, "n=8 pairing sequence reproduces the published rows"):
        # each diagonal entry holds the original index of its position
        grid = np.diag(np.arange(8.0))
        seen = []
        for row in FIG12_ROWS:
            idx = [int(x) + 1 for x in np.diag(grid)]
            pairs = list(zip(idx[0::2], idx[1::2]))
            assert pairs == row
            seen.extend(tuple(sorted(p)) for p in pairs)
            grid = eigen.permute(grid)
        assert len(set(seen)) == 28  # each unordered pair exactly once


def test_criterion_9_jacobi_accuracy():
    rng = np.random.default_rng(9)
    with criterion(9, "eigenvalues vs cyclic oracle, S <= 10, off-norm law"):
        for n in (4, 8, 16, 32):
            for _ in range(25):
                q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                a = q @ np.diag(rng.uniform(-5, 5, n)) @ q.T
                a = 0.5 * (a + a.T)
                res = eigen.run_sweeps(a)
                vals_o, _, _ = serial_cyclic_jacobi(a)
                scale = np.linalg.norm(a)
                err = np.max(np.abs(np.sort(res.eigenvalues) - np.sort(vals_o)))
                assert err <= 1e-8 * scale, (n, err / scale)
                assert res.report.converged and res.report.sweeps_used <= 10
        # strict decrease law: off^2 drops by exactly 2 sum(beta^2) per step
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            a = q @ np.diag(rng.uniform(-5, 5, 8)) @ q.T
            a = 0.5 * (a + a.T)
            grid, _ = eigen.pack_grid(a)
            for s in range(3 * 7):
                rots = eigen.step_rotations(grid)
                beta2 = sum(grid[2 * i, 2 * i + 1] ** 2
                            for i, r in enumerate(rots) if r != (1.0, 0.0))
                before = eigen.off_norm(grid) ** 2
                grid = eigen.permute(eigen.apply_rotations(grid, rots))
                after = eigen.off_norm(grid) ** 2
                assert abs(after - (before - 2.0 * beta2)) <= 1e-10 * max(before, 1e-30)


def test_criterion_10_schedule_equivalence():
    rng = np.random.default_rng(10)
    with criterion(10, "delayed grids equal broadcast grids; utilisation ~ 1/3"):
        for trial in range(20):
            n = (4, 8, 16)[trial % 3]
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = q @ np.diag(rng.uniform(-4, 4, n)) @ q.T
            a = 0.5 * (a + a.T)
            rd = eigen.run_sweeps(a, mode="delayed", max_sweeps=10, trace=True)
            rb = eigen.run_sweeps(a, mode="broadcast", max_sweeps=10)
            assert rd.eigenvalues.tobytes() == rb.eigenvalues.tobytes()
            assert (np.array(rd.report.off_norms).tobytes()
                    == np.array(rb.report.off_norms).tobytes())
            grid, _ = eigen.pack_grid(a)
            size = grid.shape[0]
            rotated = eigen._delayed_grids(grid, None)
            steps = rd.report.sweeps_used * (size - 1)
            for s in range(steps):
                rot = eigen.apply_rotations(grid, eigen.step_rotations(grid))
                assert rot.tobytes() == next(rotated)[0].tobytes(), (trial, s)
                grid = eigen.permute(rot)
            if n == 16:
                tr = rd.report.trace
                ticks = max(rec.tick for rec in tr) + 1
                counts = {}
                for rec in tr:
                    if rec.cell.row == rec.cell.col:
                        counts[rec.cell.row] = counts.get(rec.cell.row, 0) + 1
                assert all(0.28 <= c / ticks <= 0.38 for c in counts.values())


def test_criterion_11_engine_determinism(tmp_path):
    with criterion(11, "repeated verify runs are byte-identical"):
        for family in ("polygcd", "intgcd", "toeplitz", "eigen"):
            outs = []
            for attempt in range(2):
                trace = tmp_path / f"{family}-{attempt}.jsonl"
                proc = subprocess.run(
                    [sys.executable, "-m", "systolic.cli", "--seed", "42",
                     "--trace", str(trace), "verify", family, "--count", "3"],
                    capture_output=True)
                assert proc.returncode == 0, proc.stderr
                outs.append((proc.stdout, trace.read_bytes()))
            assert outs[0] == outs[1], family
