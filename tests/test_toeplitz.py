"""Toeplitz solver: band recursions vs dense LU, and the two-phase array."""

import numpy as np
import pytest

from systolic.oracle import dense_lu_solve_nopivot
from systolic.toeplitz import (
    BareissBandState,
    SingularMinorError,
    ToeplitzBands,
    bareiss_back_substitute,
    bareiss_forward,
    bareiss_solve,
    count_trace_multiplications,
    regenerate_u,
    systolic_toeplitz_solve,
    toeplitz_cell_state,
)

RNG = np.random.default_rng(123)


def random_dominant(n):
    d = RNG.uniform(-1.0, 1.0, 2 * n + 1)
    d[n] = np.sum(np.abs(d)) + 1.0
    b = RNG.uniform(-1.0, 1.0, n + 1)
    return ToeplitzBands(n, tuple(d), tuple(b))


SPEC_3X3 = ToeplitzBands(2, (0.0, 2.0, 4.0, 1.0, 0.0), (5.0, 7.0, 6.0))


def test_bands_validation():
    with pytest.raises(ValueError):
        ToeplitzBands(2, (1.0, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        ToeplitzBands(2, (0.0,) * 5, (1.0,))


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
    st = bareiss_forward(SPEC_3X3)
    _, u = dense_lu_solve_nopivot(SPEC_3X3.to_dense(), np.array(SPEC_3X3.rhs))
    assert np.max(np.abs(regenerate_u(st) - u)) < 1e-12


def test_back_substitute_spec_instance():
    x = bareiss_solve(SPEC_3X3)
    assert np.max(np.abs(SPEC_3X3.to_dense() @ x - SPEC_3X3.rhs)) < 1e-12


def test_serial_matches_oracle_n32():
    tb = random_dominant(32)
    x = bareiss_solve(tb)
    x_o, u_o = dense_lu_solve_nopivot(tb.to_dense(), np.array(tb.rhs))
    assert np.max(np.abs(x - x_o)) < 1e-10
    assert np.max(np.abs(regenerate_u(bareiss_forward(tb)) - u_o)) < 1e-10


def test_a0_zero_breaks_down():
    bad = ToeplitzBands(2, (1.0, 1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(SingularMinorError):
        bareiss_forward(bad)
    with pytest.raises(SingularMinorError):
        systolic_toeplitz_solve(bad)


def test_storage_is_linear():
    for n in (8, 16, 32):
        st = bareiss_forward(random_dominant(n))
        assert st.storage_words() <= 7 * (n + 1)


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
    states = [toeplitz_cell_state(tb, k) for k in range(n + 1)]
    for k in range(n + 1):
        assert states[k]["alpha"] == states[k]["delta"]  # a_{-(k+1)} = a_{k+1}
        assert states[k]["beta"] == states[k]["gamma"]  # a_k = a_{-k}
    for k in range(n):
        assert states[k]["alpha"] == states[k + 1]["gamma"]  # shifted bands line up
        assert states[k]["delta"] == states[k + 1]["beta"]


def test_cell0_first_activation_identity():
    # identity bands: lambda = a_{-1}/a_0 = 0 and mu = 0 on the first tick
    from systolic.engine import CellContext, CellId
    from systolic.toeplitz import make_toeplitz_step
    tb = ToeplitzBands(3, (0.0,) * 3 + (1.0,) + (0.0,) * 3, (1.0,) * 4)
    step = make_toeplitz_step(3, 1e-12)
    st, outs = step(toeplitz_cell_state(tb, 0), {}, CellContext(CellId(0, 0), 0))
    assert st["lam"] == 0.0 and st["mu"] == 0.0
    assert outs["outR1"] == 0.0 and outs["outR2"] == 0.0


def test_interior_cell_zero_multipliers_keep_bands():
    from systolic.engine import CellContext, CellId
    from systolic.toeplitz import make_toeplitz_step
    tb = random_dominant(3)
    step = make_toeplitz_step(3, 1e-12)
    before = toeplitz_cell_state(tb, 2)
    ins = {"inL1": 0.0, "inL2": 0.0}
    st, _ = step(before, ins, CellContext(CellId(0, 2), 2))
    for reg in ("alpha", "beta", "gamma", "delta"):
        assert st[reg] == before[reg]


def straight_line_appendix_c(bands):
    """Direct serial transcription of the cell program; no engine involved.

    Keeps per-cell register arrays and a table of last-written port values,
    evaluating the same phase windows tick by tick.
    """
    n = bands.n
    regs = [toeplitz_cell_state(bands, k) for k in range(n + 1)]
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
