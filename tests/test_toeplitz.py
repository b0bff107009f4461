"""Toeplitz solver: band recursions vs dense LU, and the two-phase array."""

import hashlib
import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from test_golden_traces import RUNS

from systolic import toeplitz
from systolic.engine import to_jsonl
from systolic.oracle import SingularMatrixError, dense_lu_solve_nopivot
from systolic.toeplitz import (
    SingularMinorError,
    ToeplitzBands,
    bareiss_back_substitute,
    bareiss_forward,
    bareiss_solve,
    count_trace_multiplications,
    make_toeplitz_step,
    systolic_toeplitz_solve,
    toeplitz_registers,
)

RNG = np.random.default_rng(123)


def random_dominant(n):
    d = RNG.uniform(-1.0, 1.0, 2 * n + 1)
    d[n] = np.sum(np.abs(d)) + 1.0
    b = RNG.uniform(-1.0, 1.0, n + 1)
    return ToeplitzBands(n, tuple(d), tuple(b))


def regenerate_u(tb):
    """The dense upper-triangular factor as back-substitution regenerates it:
    cell j enters its back-substitution activation r (tick 2n + 2r + j)
    holding U[n-r-j, n-r] in beta, so step r rebuilds column n-r.  Read from
    the array's trace; the serial path runs the same updates."""
    n = tb.n
    beta = [regs["beta"] for regs in toeplitz_registers(tb)]
    u = np.zeros((n + 1, n + 1))
    for rec in systolic_toeplitz_solve(tb).trace:
        j = rec.cell.col
        if rec.tick >= 2 * n:
            r = (rec.tick - 2 * n - j) // 2
            u[n - r - j, n - r] = beta[j]
        beta[j] = rec.state["beta"]
    return u


SPEC_3X3 = ToeplitzBands(2, (0.0, 2.0, 4.0, 1.0, 0.0), (5.0, 7.0, 6.0))


def test_bands_validation():
    with pytest.raises(ValueError):
        ToeplitzBands(2, (1.0, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        ToeplitzBands(2, (0.0,) * 5, (1.0,))
    with pytest.raises(ValueError, match="n must be at least 0, got -1"):
        ToeplitzBands(-1, (), ())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bands_reject_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        ToeplitzBands(1, (0.0, bad, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ToeplitzBands(1, (0.0, 1.0, 0.0), (1.0, bad))


def test_to_dense_layout():
    dense = SPEC_3X3.to_dense()
    assert np.array_equal(dense, [[4.0, 1.0, 0.0],
                                  [2.0, 4.0, 1.0],
                                  [0.0, 2.0, 4.0]])


def test_identity_has_zero_multipliers():
    st = bareiss_forward(ToeplitzBands(3, (0.0,) * 3 + (1.0,) + (0.0,) * 3,
                                       (1.0, 2.0, 3.0, 4.0)))
    assert np.array_equal(st.m_neg[1:], np.zeros(3))
    assert np.array_equal(st.m_pos[1:], np.zeros(3))
    assert np.array_equal(bareiss_back_substitute(st), [1.0, 2.0, 3.0, 4.0])


def test_forward_matches_dense_lu():
    _, u = dense_lu_solve_nopivot(SPEC_3X3.to_dense(), np.array(SPEC_3X3.rhs))
    assert np.max(np.abs(regenerate_u(SPEC_3X3) - u)) < 1e-12


def test_back_substitute_spec_instance():
    x = bareiss_solve(SPEC_3X3)
    assert np.max(np.abs(SPEC_3X3.to_dense() @ x - SPEC_3X3.rhs)) < 1e-12


def test_serial_matches_oracle_n32():
    tb = random_dominant(32)
    x = bareiss_solve(tb)
    x_o, u_o = dense_lu_solve_nopivot(tb.to_dense(), np.array(tb.rhs))
    assert np.max(np.abs(x - x_o)) < 1e-10
    assert np.max(np.abs(regenerate_u(tb) - u_o)) < 1e-10


def test_a0_zero_breaks_down():
    bad = ToeplitzBands(2, (1.0, 1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(SingularMinorError):
        bareiss_forward(bad)
    with pytest.raises(SingularMinorError):
        systolic_toeplitz_solve(bad)


def test_back_substitution_checks_regenerated_pivots():
    # the forward pass's tolerance also guards every regenerated diagonal
    st = bareiss_forward(SPEC_3X3)
    assert st.tol == 1e-12 * 4.0
    st.beta[0] = st.tol  # the stage-n pivot, regenerated first
    with pytest.raises(SingularMinorError, match="regenerated diagonal 2"):
        bareiss_back_substitute(st)


def test_storage_is_linear():
    for n in (8, 16, 32):
        st = bareiss_forward(random_dominant(n))
        words = sum(len(getattr(st, f)) for f in
                    ("m_neg", "m_pos", "beta", "eta"))
        assert words <= 7 * (n + 1)


def test_systolic_identity():
    tb = ToeplitzBands(2, (0.0, 0.0, 1.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    run = systolic_toeplitz_solve(tb)
    assert np.array_equal(run.x, [1.0, 2.0, 3.0])
    assert run.ticks == 4 * 2 + 1


def test_systolic_spec_instance():
    run = systolic_toeplitz_solve(SPEC_3X3)
    x_o, _ = dense_lu_solve_nopivot(SPEC_3X3.to_dense(), np.array(SPEC_3X3.rhs))
    assert np.max(np.abs(run.x - x_o)) < 1e-12
    assert run.ticks == 9  # completes by step 4n with n = order - 1 = 2


def test_residuals_serial_and_systolic():
    for n in (4, 16, 63):
        tb = random_dominant(n)
        dense = tb.to_dense()
        scale = np.max(np.abs(dense))
        for x in (bareiss_solve(tb), systolic_toeplitz_solve(tb).x):
            res = np.max(np.abs(dense @ x - tb.rhs))
            assert res / (scale * max(np.max(np.abs(x)), 1.0) + np.max(np.abs(tb.rhs))) < 1e-10


def test_activity_discipline_and_register_count():
    n = 8
    run = systolic_toeplitz_solve(random_dominant(n))
    for rec in run.trace:
        k = rec.cell.col
        t = rec.tick
        assert (t + k) % 2 == 0
        assert (k <= t < 2 * n - k) or (2 * n + k <= t <= 4 * n - k)
        assert len(rec.state) == 8
    # every cell appears: 2(n-k)+1 activations for cell k
    counts = {}
    for rec in run.trace:
        counts[rec.cell.col] = counts.get(rec.cell.col, 0) + 1
    assert counts == {k: 2 * (n - k) + 1 for k in range(n + 1)}


def test_multiplication_count_bound():
    for n in (8, 16, 32):
        run = systolic_toeplitz_solve(random_dominant(n))
        mults = count_trace_multiplications(run.trace, n)
        assert mults == int(4.5 * n * n + 2.5 * n + 2)
        assert mults <= 4.5 * n * n + 20 * n


def test_symmetric_initialisation_relations():
    n = 6
    d = RNG.uniform(-1.0, 1.0, 2 * n + 1)
    d[n + 1:] = d[:n][::-1]  # a_k = a_{-k}
    d[n] = np.sum(np.abs(d)) + 1.0
    tb = ToeplitzBands(n, tuple(d), tuple(RNG.uniform(-1, 1, n + 1)))
    states = toeplitz_registers(tb)
    for k in range(n + 1):
        assert states[k]["alpha"] == states[k]["delta"]  # a_{-(k+1)} = a_{k+1}
        assert states[k]["beta"] == states[k]["gamma"]  # a_k = a_{-k}
    for k in range(n):
        assert states[k]["alpha"] == states[k + 1]["gamma"]  # shifted bands line up
        assert states[k]["delta"] == states[k + 1]["beta"]


def test_cell0_first_activation_identity():
    # identity bands: lambda = a_{-1}/a_0 = 0 and mu = 0 on the first tick
    tb = ToeplitzBands(3, (0.0,) * 3 + (1.0,) + (0.0,) * 3, (1.0,) * 4)
    init = toeplitz_registers(tb)[0]
    step = make_toeplitz_step(3, 1e-12, 0)
    st, outs = step(tuple(init.values()), (0.0,) * 3, 0)  # inR1..inR3, not read at tick 0
    st = dict(zip(init, st))
    outs = dict(zip(("outL1", "outL2", "outL3", "outR1", "outR2"), outs))
    assert st["lam"] == 0.0 and st["mu"] == 0.0
    assert outs["outR1"] == 0.0 and outs["outR2"] == 0.0


def test_interior_cell_zero_multipliers_keep_bands():
    tb = random_dominant(3)
    step = make_toeplitz_step(3, 1e-12, 2)
    before = toeplitz_registers(tb)[2]
    ins = (0.0, 0.0) + (0.0,) * 3  # inL1, inL2; inR1..inR3 are not read at tick 2
    st, _ = step(tuple(before.values()), ins, 2)
    st = dict(zip(before, st))
    for reg in ("alpha", "beta", "gamma", "delta"):
        assert st[reg] == before[reg]


def straight_line_appendix_c(bands):
    """Direct serial transcription of the cell program; no engine involved.

    Keeps per-cell register arrays and a table of last-written port values,
    evaluating the same phase windows tick by tick.
    """
    n = bands.n
    regs = toeplitz_registers(bands)
    ports = {}  # (k, name) -> value written last tick or earlier
    history = []
    for t in range(4 * n + 1):
        writes = {}
        for k in range(n + 1):
            if (t + k) % 2:
                continue
            s = regs[k]
            if k <= t < 2 * n - k:
                if t > k:
                    s["alpha"] = ports[(k + 1, "outL1")]
                    s["delta"] = ports[(k + 1, "outL2")]
                    s["xi"] = ports[(k + 1, "outL3")]
                if k == 0:
                    s["lam"] = s["alpha"] / s["gamma"]
                else:
                    s["lam"] = ports[(k - 1, "outR1")]
                    s["mu"] = ports[(k - 1, "outR2")]
                    s["alpha"] -= s["lam"] * s["gamma"]
                s["beta"] -= s["lam"] * s["delta"]
                s["eta"] -= s["lam"] * s["xi"]
                if k == 0:
                    s["mu"] = s["delta"] / s["beta"]
                else:
                    s["gamma"] -= s["mu"] * s["alpha"]
                    s["delta"] -= s["mu"] * s["beta"]
                    s["xi"] -= s["mu"] * s["eta"]
                writes[(k, "outL1")] = s["alpha"]
                writes[(k, "outL2")] = s["delta"]
                writes[(k, "outL3")] = s["xi"]
                writes[(k, "outR1")] = s["lam"]
                writes[(k, "outR2")] = s["mu"]
                history.append((t, k, dict(s)))
            elif 2 * n + k <= t <= 4 * n - k:
                if t > 2 * n + k:
                    s["lam"] = ports[(k + 1, "outL1")]
                    s["mu"] = ports[(k + 1, "outL2")]
                    s["eta"] = ports[(k + 1, "outL3")]
                if k == 0:
                    s["xi"] = s["eta"] / s["beta"]
                    s["delta"] = s["mu"] * s["beta"]
                else:
                    s["xi"] = ports[(k - 1, "outR1")]
                    s["delta"] = ports[(k - 1, "outR2")]
                    s["eta"] -= s["beta"] * s["xi"]
                    s["delta"] += s["mu"] * s["beta"]
                s["beta"] += s["lam"] * s["delta"]
                writes[(k, "outL1")] = s["lam"]
                writes[(k, "outL2")] = s["mu"]
                writes[(k, "outL3")] = s["eta"]
                writes[(k, "outR1")] = s["xi"]
                writes[(k, "outR2")] = s["delta"]
                history.append((t, k, dict(s)))
        ports.update(writes)
    return history, [regs[k]["xi"] for k in range(n + 1)]


def test_engine_matches_straight_line_transcription():
    tb = random_dominant(3)
    run = systolic_toeplitz_solve(tb)
    history, x = straight_line_appendix_c(tb)
    assert np.array_equal(run.x, x)
    traced = [(rec.tick, rec.cell.col, rec.state) for rec in run.trace]
    assert len(traced) == len(history)
    for (t1, k1, s1), (t2, k2, s2) in zip(traced, history):
        assert (t1, k1) == (t2, k2)
        assert s1 == s2


@pytest.mark.parametrize("k", [-600, -60, 600])
def test_scaled_system_solves_bit_identically(k):
    # the pivot rule is relative with no floor, so a 2^k-scaled system takes
    # the same decisions and every rounding scales exactly
    tb = random_dominant(15)
    scaled = ToeplitzBands(15, tuple(np.ldexp(tb.diagonals, k)), tuple(np.ldexp(tb.rhs, k)))
    assert np.array_equal(bareiss_solve(scaled), bareiss_solve(tb))
    assert np.array_equal(systolic_toeplitz_solve(scaled, trace=False).x,
                          systolic_toeplitz_solve(tb, trace=False).x)


def _symmetric_bands(col):
    """Bands of the symmetric Toeplitz matrix whose first column is col."""
    n = len(col) - 1
    return tuple(col[abs(k)] for k in range(-n, n + 1))


@pytest.mark.parametrize("family, param, n", [
    *(("kms", rho, n) for n in (15, 31) for rho in (0.5, 0.9, 0.99, 0.999, 0.9999)),
    ("prolate", 0.25, 15), ("prolate", 0.4, 15), ("prolate", 0.4, 31),
])
def test_error_grows_no_faster_than_the_condition_number(family, param, n):
    # Bareiss without pivoting is weakly stable on symmetric positive
    # definite Toeplitz matrices (Bojanczyk, Brent, de Hoog & Sweet 1995):
    # the error is O(kappa * u).  KMS: a_k = rho^|k|; prolate: a_0 = 2w,
    # a_k = sin(2 pi w k) / (pi k)
    k = np.arange(1, n + 1)
    if family == "kms":
        col = np.concatenate(([1.0], param ** k))
    else:
        col = np.concatenate(([2.0 * param], np.sin(2.0 * np.pi * param * k) / (np.pi * k)))
    rhs = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    tb = ToeplitzBands(n, _symmetric_bands(col), tuple(rhs))
    dense = tb.to_dense()
    x_ref = np.linalg.solve(dense, rhs)
    bound = 4.0 * np.linalg.cond(dense) * 2.0 ** -53
    for x in (bareiss_solve(tb), systolic_toeplitz_solve(tb, trace=False).x):
        assert np.linalg.norm(x - x_ref) <= bound * np.linalg.norm(x_ref)


def _solve_both(tb):
    """(serial x bytes, array x bytes), each None for a breakdown."""
    out = []
    for solve in (bareiss_solve, lambda tb: systolic_toeplitz_solve(tb, trace=False).x):
        try:
            out.append(solve(tb).tobytes())
        except SingularMinorError:
            out.append(None)
    return out


@pytest.mark.parametrize("n, band_values", [(1, (-1.0, 0.0, 1.0, 2.0)), (2, (-1.0, 0.0, 1.0))],
                         ids=["n1", "n2"])
def test_every_small_system_solves_alike_in_both_modes(n, band_values):
    # every system with these bands and rhs from {1, -1, 2}: both modes solve
    # or both break down, with x equal to the byte, and they break down
    # exactly where the LU oracle does
    for diags in itertools.product(band_values, repeat=2 * n + 1):
        for rhs in itertools.product((1.0, -1.0, 2.0), repeat=n + 1):
            tb = ToeplitzBands(n, diags, rhs)
            serial, systolic = _solve_both(tb)
            assert serial == systolic, (diags, rhs)
            dense = tb.to_dense()
            try:
                x_o, _ = dense_lu_solve_nopivot(dense, np.array(rhs))
            except SingularMatrixError:
                assert serial is None, (diags, rhs)
                continue
            assert serial is not None, (diags, rhs)
            x = np.frombuffer(serial)
            scale = np.max(np.abs(dense)) * max(np.max(np.abs(x)), 1.0) + np.max(np.abs(rhs))
            assert np.max(np.abs(dense @ x - rhs)) / scale < 1e-10, (diags, rhs)
            assert np.max(np.abs(x - x_o)) < 1e-8, (diags, rhs)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 63, 128])
def test_random_dominant_systems_solve_alike_in_both_modes(n):
    for _ in range(3):
        serial, systolic = _solve_both(random_dominant(n))
        assert serial is not None and serial == systolic


EXTREMES = (0.0, 1.0, -1.0, 2.0, 1e160, 1e-160, 1e-300, 1e300, 1e308, -1e308, 1e-320)


def test_extreme_valued_systems_solve_to_a_finite_x_or_break_down_alike():
    # entries near both ends of the float range: each system either solves
    # to a finite x, the same to the byte in both modes, or breaks down in
    # both with the same message, and the serial path's numpy never warns
    rng = random.Random(0)
    systems = [ToeplitzBands(1, (-1e308, 1e308, -1.0), (1e308, 1e308)),  # x overflows
               ToeplitzBands(0, (1e-320,), (1.0,))]  # the tolerance underflows to 0
    for _ in range(1500):
        n = rng.randint(0, 3)
        systems.append(ToeplitzBands(n, tuple(rng.choices(EXTREMES, k=2 * n + 1)),
                                     tuple(rng.choices(EXTREMES, k=n + 1))))
    kinds = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tb in systems:
            out = []
            for solve in (bareiss_solve, lambda tb: systolic_toeplitz_solve(tb, trace=False).x):
                try:
                    x = solve(tb)
                except SingularMinorError as exc:
                    out.append(str(exc))
                else:
                    assert np.all(np.isfinite(x)), tb
                    out.append(x.tobytes())
            assert out[0] == out[1], tb
            kinds.add(type(out[0]))
    assert kinds == {str, bytes}


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(("dominant", "kms", "prolate")), hst.integers(1, 33),
       hst.floats(0.0, 1.0), hst.integers(-60, 60), hst.integers(0, 2 ** 32 - 1))
def test_serial_x_is_the_array_x_to_the_byte(family, n, u, k, seed):
    # dominant bands, KMS (a_k = rho^|k|, rho in [0.5, 0.9999]) and prolate
    # (a_0 = 2w, a_k = sin(2 pi w k) / (pi k), w in [0.25, 0.4]) systems,
    # scaled by 2^k: the serial path runs the array's updates in its order
    rng = np.random.default_rng(seed)
    j = np.arange(1, n + 1)
    if family == "dominant":
        diags = rng.uniform(-1.0, 1.0, 2 * n + 1)
        diags[n] = np.sum(np.abs(diags)) + 1.0
    else:
        if family == "kms":
            col = np.concatenate(([1.0], (0.5 + 0.4999 * u) ** j))
        else:
            w = 0.25 + 0.15 * u
            col = np.concatenate(([2.0 * w], np.sin(2.0 * np.pi * w * j) / (np.pi * j)))
        diags = col[np.abs(np.arange(-n, n + 1))]
    rhs = rng.uniform(-1.0, 1.0, n + 1)
    tb = ToeplitzBands(n, tuple(np.ldexp(diags, k)), tuple(np.ldexp(rhs, k)))
    serial, systolic = _solve_both(tb)
    assert serial == systolic


def _near_singular(n):
    """a_0 = 1e-9, a_{+-1} = 1, a_k = 0.1^|k|: every pivot passes, but the
    first multiplier, 1e9, exceeds the growth bound on the first tick."""
    col = [1e-9, 1.0] + [0.1 ** k for k in range(2, n + 1)]
    return ToeplitzBands(n, tuple(col[abs(k)] for k in range(-n, n + 1)),
                         tuple(np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)))


def _last_tick_breakdown(n):
    """a_0 = 1e-300 alone, b_0 = 1e10 and every other b_j = 1: x_0, which
    cell 0 yields on the last tick of the run, overflows."""
    return ToeplitzBands(n, (0.0,) * n + (1e-300,) + (0.0,) * n, (1e10,) + (1.0,) * n)


def _solve_traced(tb):
    """(x bytes, trace bytes) of an array solve, or its breakdown message."""
    try:
        r = systolic_toeplitz_solve(tb)
    except SingularMinorError as exc:
        return str(exc)
    return r.x.tobytes(), to_jsonl(r.trace)


def test_reused_plans_solve_as_fresh_builds(monkeypatch):
    # systems of a few orders, each order several times over and with
    # breakdowns among them, traced: a solve on a reused plan gives the x,
    # breakdown message and trace bytes of a fresh build
    cases = [random_dominant(n) for n in (0, 1, 3, 8, 3, 0, 8, 1) for _ in range(2)]
    zero_a0 = ToeplitzBands(3, (1.0,) * 3 + (0.0,) + (1.0,) * 3, (1.0,) * 4)
    cases[3:3] = [_last_tick_breakdown(3), zero_a0]
    cases[9:9] = [_near_singular(8), ToeplitzBands(1, (1.0, 1.0, 1.0), (1.0, 2.0))]

    def runs():
        return [_solve_traced(tb) for tb in cases]

    reused = runs()
    assert {type(r) for r in reused} == {str, tuple}
    monkeypatch.setattr(toeplitz, "_toeplitz_inputs", toeplitz._toeplitz_inputs.__wrapped__)
    assert runs() == reused


def test_a_reused_plan_gives_the_golden_trace():
    make, records, digest = RUNS["toeplitz"]
    spec, _ = toeplitz._toeplitz_inputs(8)
    for tb in (random_dominant(8), _last_tick_breakdown(8), _near_singular(8), random_dominant(8)):
        _solve_traced(tb)
    plan = spec.plan
    tr = make()
    assert spec.plan is plan
    assert len(tr) == records
    assert hashlib.sha256(to_jsonl(tr).encode()).hexdigest() == digest


def test_a_breakdown_between_two_clean_solves_changes_neither(monkeypatch):
    # one system breaks down on its run's last tick, the a_0 = 0 one on its
    # first: between two clean solves of the same order on one plan,
    # neither leaves anything behind
    n = 15
    first, second = random_dominant(n), random_dominant(n)
    zero_a0 = ToeplitzBands(n, (1.0,) * n + (0.0,) + (1.0,) * n, (1.0,) * (n + 1))
    reused = [_solve_traced(tb) for tb in (first, _last_tick_breakdown(n), second, zero_a0, first)]
    assert reused[1] == "x_0 is not finite"
    assert reused[3] == "a_0 is (numerically) zero"
    monkeypatch.setattr(toeplitz, "_toeplitz_inputs", toeplitz._toeplitz_inputs.__wrapped__)
    assert reused[0] == reused[4] == _solve_traced(first)
    assert reused[2] == _solve_traced(second)


@pytest.mark.parametrize("n", [0, 1])
def test_the_smallest_orders_solve_on_a_reused_plan(n):
    for _ in range(3):
        tb = random_dominant(n)
        r = systolic_toeplitz_solve(tb)
        assert r.cells == n + 1 and r.ticks == 4 * n + 1
        assert r.x.tobytes() == bareiss_solve(tb).tobytes()
        assert np.allclose(tb.to_dense() @ r.x, tb.rhs, rtol=0, atol=1e-12)
