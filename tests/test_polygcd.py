"""Systolic polynomial GCD: cell programs, framing, drivers, properties."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from gf_tools import div, poly_mul
from hypothesis import strategies as st
from test_golden_traces import RUNS

from systolic import polygcd
from systolic.engine import to_jsonl
from systolic.gfield import Field, poly_divmod, poly_monic, poly_normalize
from systolic.oracle import euclid_poly_gcd
from systolic.polygcd import (
    A_INITIAL,
    A_SHIFT,
    A_SWAP,
    A_TRANS,
    CELL_PORTS,
    S_INITIAL,
    S_REDUCE_A,
    S_REDUCE_B,
    _build_schedule,
    appA_initial_state,
    fig4_initial_state,
    make_appA_step,
    make_fig4_step,
    pipeline_batch,
    systolic_poly_gcd,
)

RNG = random.Random(9)


def rand_poly(field, max_deg, nonzero_const=True):
    d = RNG.randint(0, max_deg)
    c = [RNG.randrange(field.p) for _ in range(d + 1)]
    if nonzero_const:
        c[0] = RNG.randrange(1, field.p)
    c[-1] = RNG.randrange(1, field.p)
    return tuple(c)


# -- framing ------------------------------------------------------------------


def test_encode_alignment_example():
    lines, lengths = _build_schedule([((1, 1), (1,))], "fig4")  # A = x+1, B = 1
    assert lengths == [2]
    assert lines["ain"][1:3] == [1, 1]
    assert lines["bin"][1:3] == [1, 0]  # b0 shares the leading slot with a1
    assert lines["din"][1] == 1


def test_encode_single_slot():
    lines, lengths = _build_schedule([((1,), (1,))], "fig4")
    assert lengths == [1] and lines["din"][1] == 0


def test_encode_rejects_double_zero():
    for pairs in ([((), ())], [((1,), (1,)), ((2,), (0, 0))]):  # (2,) is 0 mod 2
        with pytest.raises(ValueError):
            pipeline_batch(Field(2), pairs, "fig4")


def test_encode_appA_sig_distance_is_degree_gap():
    lines, _ = _build_schedule([((3, 0, 0, 2), (5, 1))], "appA")  # deg 3 vs deg 1
    assert lines["sigin"][1:].index(1) == 2  # first sig bit d = 2 slots after start
    assert lines["bin"][1] == 1  # leading terms still share slot 0


def test_batch_layout_one_slot_frame_then_another():
    # GF(7): 3 then 1 + 2x + 3x^2 / 4 + 5x, packed from tick 1
    one, two = ((1,), (3,)), ((1, 2, 3), (4, 5))
    lines, lengths = _build_schedule([one, two], "fig4")
    assert lengths == [1, 3]
    assert lines == {"ain": [0, 1, 3, 2, 1],
                     "bin": [0, 3, 5, 4, 0],
                     "startin": [1, 1, 0, 0, 0],  # frame 1's start rides in frame 0's slot
                     "din": [0, 0, 1, 0, 0]}
    lines, lengths = _build_schedule([one, two], "appA")
    assert lengths == [1, 3]
    assert lines == {"ain": [0, 1, 3, 2, 1],
                     "bin": [0, 3, 5, 4, 0],
                     "startin": [0, 1, 1, 0, 0],
                     "stopin": [0, 1, 0, 0, 1],  # a one-slot frame starts and stops at once
                     "sigin": [0, 1, 0, 1, 1]}
    # appA puts the operand of higher degree on the a-line
    assert _build_schedule([one, two[::-1]], "appA") == (lines, lengths)


# -- Fig. 4 cell program -------------------------------------------------------


def named(step, variant):
    """`step` called on register and port tuples in declared order, its
    results named back."""
    ins_names, outs_names = CELL_PORTS[variant]

    def call(state, ins):
        new, outs = step(tuple(state.values()), tuple(ins[p] for p in ins_names), 0)
        return dict(zip(state, new)), dict(zip(outs_names, outs))
    return call


def fig4_cell(p=2):
    return named(make_fig4_step(Field(p)), "fig4")


def appA_cell(p=2):
    return named(make_appA_step(Field(p)), "appA")


def test_fig4_start_reduceA_branch():
    step = fig4_cell(2)
    st = fig4_initial_state()
    st["start"] = 1
    new, _ = step(st, {"ain": 1, "bin": 1, "startin": 0, "din": 0})
    assert new["state"] == S_REDUCE_A
    assert new["q"] == 1 and new["a"] == 0 and new["d"] == -1


def test_fig4_start_zero_a_gives_zero_quotient():
    step = fig4_cell(2)
    st = fig4_initial_state()
    st["start"] = 1
    new, _ = step(st, {"ain": 0, "bin": 1, "startin": 0, "din": -1})
    assert new["state"] == S_REDUCE_A and new["q"] == 0


def test_fig4_reduceA_cancellation():
    step = fig4_cell(2)
    st = fig4_initial_state()
    st.update(state=S_REDUCE_A, q=1)
    _, outs = step(st, {"ain": 1, "bin": 1, "startin": 0, "din": 0})
    assert outs["aout"] == 0  # ain - q*bin


def test_fig4_reduceB_symmetry():
    step = fig4_cell(7)
    st = fig4_initial_state()
    st["start"] = 1
    new, _ = step(st, {"ain": 2, "bin": 3, "startin": 0, "din": -1})
    assert new["state"] == S_REDUCE_B
    assert (new["q"] * 2) % 7 == 3  # q = bin/ain
    assert new["b"] == 0 and new["d"] == 0


# -- Appendix A cell program ----------------------------------------------------


def test_appA_zero_b_enters_shift():
    step = appA_cell(2)
    st = appA_initial_state()
    new, _ = step(st, {"ain": 1, "bin": 0, "startin": 1, "stopin": 0, "sigin": 0})
    assert new["state"] == A_SHIFT


def test_appA_swap_cancellation_clears_sig():
    step = appA_cell(2)
    st = appA_initial_state()
    st.update(state=A_SWAP, q=1)
    new, outs = step(st, {"ain": 1, "bin": 1, "startin": 0, "stopin": 0, "sigin": 0})
    assert outs["bout"] == 0  # a - q*b
    assert new["sig"] == 0


def test_appA_stop_returns_to_initial():
    step = appA_cell(2)
    for mode in (A_SHIFT, A_SWAP, A_TRANS):
        st = appA_initial_state()
        st.update(state=mode, q=1)
        new, _ = step(st, {"ain": 0, "bin": 0, "startin": 0, "stopin": 1, "sigin": 0})
        assert new["state"] == A_INITIAL


def test_appA_start_with_stop_stays_initial():
    step = appA_cell(2)
    new, _ = step(appA_initial_state(),
                  {"ain": 1, "bin": 1, "startin": 1, "stopin": 1, "sigin": 1})
    assert new["state"] == A_INITIAL


# -- driver --------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["fig4", "appA"])
def test_gcd_of_equal_polys(variant):
    f = Field(2)
    run = systolic_poly_gcd(f, (1, 1), (1, 1), variant)
    assert run.gcd == (1, 1)


@pytest.mark.parametrize("variant", ["fig4", "appA"])
def test_gf2_known_gcd(variant):
    f = Field(2)
    run = systolic_poly_gcd(f, (1, 1, 1, 1), (1, 0, 1), variant)
    assert run.gcd == (1, 0, 1)


@pytest.mark.parametrize("variant", ["fig4", "appA"])
def test_gf7_monic_gcd(variant):
    f = Field(7)
    # (x+2)(x+3) = x^2+5x+6 and (x+2)(x+5) = x^2+3 mod 7
    run = systolic_poly_gcd(f, (6, 5, 1), (3, 0, 1), variant)
    assert run.gcd == (2, 1)


@pytest.mark.parametrize("variant", ["fig4", "appA"])
def test_common_x_power_reattached(variant):
    f = Field(7)
    run = systolic_poly_gcd(f, (0, 0, 6, 5, 1), (0, 0, 3, 0, 1), variant)
    assert run.gcd == (0, 0, 2, 1)


def test_zero_operand():
    f = Field(7)
    for variant in ("fig4", "appA"):
        assert systolic_poly_gcd(f, (), (3, 2, 5), variant).gcd == poly_monic(f, (3, 2, 5))
        assert systolic_poly_gcd(f, (3, 2, 5), (), variant).gcd == poly_monic(f, (3, 2, 5))
    with pytest.raises(ValueError):
        systolic_poly_gcd(f, (), (), "fig4")


def test_an_unknown_variant_is_refused():
    f = Field(7)
    with pytest.raises(ValueError, match="unknown variant 'fig5'"):
        systolic_poly_gcd(f, (1, 1), (1,), "fig5")
    with pytest.raises(ValueError, match="unknown variant 'fig5'"):
        pipeline_batch(f, [((1, 1), (1,))], "fig5")


@pytest.mark.parametrize("p", [2, 7, 257])
def test_oracle_equivalence_sample(p):
    f = Field(p)
    for _ in range(60):
        a, b = rand_poly(f, 8), rand_poly(f, 8)
        want = euclid_poly_gcd(f, a, b)
        for variant in ("fig4", "appA"):
            run = systolic_poly_gcd(f, a, b, variant)
            assert run.gcd == want
            assert run.cells == len(a) + len(b) - 1
            assert run.latency <= 2 * run.cells


def test_divisibility_and_coprime_quotients():
    f = Field(7)
    for _ in range(40):
        a, b = rand_poly(f, 7), rand_poly(f, 7)
        g = systolic_poly_gcd(f, a, b, "fig4").gcd
        qa, ra = poly_divmod(f, a, g)
        qb, rb = poly_divmod(f, b, g)
        assert ra == () and rb == ()
        assert euclid_poly_gcd(f, qa, qb) == (1,)


def _reduce(field, a, b):
    """One transformation, deg a >= deg b: a less the multiple of b that
    cancels a's leading term."""
    q = div(field, a[-1], b[-1])
    shifted = (0,) * (len(a) - len(b)) + tuple(field.mul(q, x) for x in b)
    return poly_normalize(field, [x - y for x, y in zip(a, shifted)])


def _reduction_sequence(field, a, b):
    """Desk replication of the transformation sequence; yields degree drops."""
    while a and b:
        total = len(a) + len(b)
        if len(a) >= len(b):
            a = _reduce(field, a, b)
        else:
            b = _reduce(field, b, a)
        yield total - len(a) - len(b)


def test_single_reduction_preserves_gcd_and_drops_degree():
    f = Field(7)
    for _ in range(40):
        a, b = rand_poly(f, 6), rand_poly(f, 6)
        if len(a) < len(b):
            a, b = b, a
        a_bar = _reduce(f, a, b)
        assert len(a_bar) < len(a)
        if a_bar or b:
            assert euclid_poly_gcd(f, a_bar, b) == euclid_poly_gcd(f, a, b)


def test_reduction_value_budget():
    f = Field(2)
    for _ in range(60):
        a, b = rand_poly(f, 9), rand_poly(f, 9)
        assert sum(_reduction_sequence(f, a, b)) <= len(a) + len(b) - 1


def test_cross_variant_agreement():
    for p in (2, 257):
        f = Field(p)
        for _ in range(40):
            a, b = rand_poly(f, 9), rand_poly(f, 9)
            r1 = systolic_poly_gcd(f, a, b, "fig4")
            r2 = systolic_poly_gcd(f, a, b, "appA")
            assert r1.gcd == r2.gcd


@pytest.mark.parametrize("variant", ["fig4", "appA"])
def test_batch_matches_isolated(variant):
    f = Field(7)
    pairs = [(rand_poly(f, 6), rand_poly(f, 6)) for _ in range(5)]
    got = pipeline_batch(f, pairs, variant)
    want = [systolic_poly_gcd(f, a, b, variant).gcd for a, b in pairs]
    assert got == want


def test_batch_repeated_pair():
    f = Field(2)
    got = pipeline_batch(f, [((1, 1, 1), (1, 1))] * 2, "fig4")
    assert got[0] == got[1]


def test_batch_empty():
    assert pipeline_batch(Field(2), [], "fig4") == []


def test_batch_fig4_one_slot_frame_then_another():
    # two constants make a one-slot frame whose slot also carries the next
    # frame's start bit
    f = Field(7)
    a, b = (2, 1, 5, 1, 6, 1, 6, 2, 4, 0, 2, 5, 3, 4), (5, 6, 3, 0, 5, 5, 2, 6, 3, 5)
    assert pipeline_batch(f, [((1,), (3,)), (a, b)], "fig4") == [(1,), (1,)]
    assert pipeline_batch(f, [(a, b), ((1,), (3,))], "fig4") == [(1,), (1,)]


def _every_pair(field, max_deg):
    """Every pair of polynomials of degree <= max_deg, zero included, but not (0, 0)."""
    polys = [poly_normalize(field, c)
             for c in itertools.product(range(field.p), repeat=max_deg + 1)]
    return [(a, b) for a in polys for b in polys if a or b]


@pytest.mark.parametrize("variant", ["fig4", "appA"])
@pytest.mark.parametrize("p, max_deg, count", [(2, 5, 4095), (3, 3, 6560)])
def test_streamed_batches_equal_euclid_exhaustively(p, max_deg, count, variant):
    field = Field(p)
    pairs = _every_pair(field, max_deg)
    assert len(pairs) == count
    got = []
    for k in range(0, len(pairs), 256):
        got += pipeline_batch(field, pairs[k:k + 256], variant)
    bad = [(a, b, g) for (a, b), g in zip(pairs, got) if g != euclid_poly_gcd(field, a, b)]
    assert len(got) == count and not bad, bad[:5]


@st.composite
def poly_streams(draw):
    """A field and 1..5 pairs, not both zero, degrees 0..5 (constants included)."""
    field = Field(draw(st.sampled_from([2, 3, 7, 257])))
    poly = st.lists(st.integers(0, field.p - 1), max_size=6).map(tuple)
    pair = st.tuples(poly, poly).filter(lambda ab: any(ab[0]) or any(ab[1]))
    return field, draw(st.lists(pair, min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(poly_streams(), st.sampled_from(["fig4", "appA"]))
def test_batch_equals_single_property(stream, variant):
    field, pairs = stream
    want = [systolic_poly_gcd(field, a, b, variant).gcd for a, b in pairs]
    assert pipeline_batch(field, pairs, variant) == want


SHAPES = ("random", "degree0", "equal_degree", "zero_operand", "gcd_is_operand", "repeated")


def shift(a, k):
    """The normalized polynomial a times x**k (k >= 0)."""
    return (0,) * k + a if a else a


@st.composite
def shaped_pairs(draw):
    """A pair over GF(2) or GF(2^31 - 1) of a named shape, times a common x^k."""
    field = Field(draw(st.sampled_from([2, 2**31 - 1])))
    coeff = st.integers(0, field.p - 1)

    def poly(lo, hi):
        """Degree in [lo, hi], nonzero leading coefficient."""
        body = draw(st.lists(coeff, min_size=lo, max_size=hi))
        return poly_normalize(field, tuple(body) + (draw(st.integers(1, field.p - 1)),))

    shape = draw(st.sampled_from(SHAPES))
    if shape == "random":
        a, b = poly(0, 6), poly(0, 6)
    elif shape == "degree0":
        a, b = poly(0, 0), poly(0, 6)
    elif shape == "equal_degree":
        d = draw(st.integers(0, 6))
        a, b = poly(d, d), poly(d, d)
    elif shape == "zero_operand":
        a, b = (), poly(0, 6)
    elif shape == "gcd_is_operand":
        a = poly(0, 4)
        b = poly_mul(field, a, poly(0, 3))
    else:  # repeated factors: g^2 h1 and g^3 h2
        g = poly(1, 2)
        g2 = poly_mul(field, g, g)
        a = poly_mul(field, g2, poly(0, 2))
        b = poly_mul(field, poly_mul(field, g2, g), poly(0, 2))
    if draw(st.booleans()):
        a, b = b, a
    k = draw(st.integers(0, 3))
    return field, shift(a, k), shift(b, k)


@settings(max_examples=200, deadline=None)
@given(shaped_pairs(), st.sampled_from(["fig4", "appA"]))
def test_single_run_equals_euclid_property(pair, variant):
    field, a, b = pair
    run = systolic_poly_gcd(field, a, b, variant)
    assert run.gcd == euclid_poly_gcd(field, a, b)
    assert run.latency <= 2 * run.cells


# -- one plan per chain shape -----------------------------------------------


def _pairs_of_cells(field, n_cells, count):
    """`count` pairs, a nonzero constant term each, whose chain has `n_cells` cells."""
    def poly(degree):
        c = [RNG.randrange(field.p) for _ in range(degree + 1)]
        c[0], c[-1] = RNG.randrange(1, field.p), RNG.randrange(1, field.p)
        return tuple(c)

    return [(poly(da), poly(n_cells - 1 - da))
            for da in (RNG.randrange(n_cells) for _ in range(count))]


def _streamed(field, pairs, variant):
    runs = polygcd._run_stream(field, pairs, variant, trace=True)
    return [(r.gcd, r.latency, r.cells, r.ticks) for r in runs], to_jsonl(runs[0].trace)


def test_reused_chains_run_as_fresh_builds(monkeypatch):
    # one cell count in turn over GF(2), GF(7) and GF(257), and a few
    # others, in single runs and streamed batches of both variants: a run on
    # a reused plan gives the GCDs, latencies and trace bytes of a fresh build
    cases = []
    for n_cells, p in itertools.product((9, 4, 9, 1), (2, 7, 257)):
        f = Field(p)
        cases += [(f, [pair], v) for pair in _pairs_of_cells(f, n_cells, 2) for v in ("fig4", "appA")]
        cases += [(f, _pairs_of_cells(f, n_cells, 3), v) for v in ("fig4", "appA")]

    def runs():
        return [_streamed(f, pairs, v) for f, pairs, v in cases]

    reused = runs()
    monkeypatch.setattr(polygcd, "_chain_spec", polygcd._chain_spec.__wrapped__)
    assert runs() == reused
    for f, pairs, v in cases:
        assert pipeline_batch(f, pairs, v) == [euclid_poly_gcd(f, a, b) for a, b in pairs]


@pytest.mark.parametrize("variant", ["fig4", "appA"])
def test_a_reused_chain_gives_the_golden_trace(variant):
    make, records, digest = RUNS[f"polygcd-{variant}"]
    spec = polygcd._chain_spec(23, variant)  # the golden pair's m + n + 1
    for p in (2, 257, 7):
        f = Field(p)
        for a, b in _pairs_of_cells(f, 23, 2):
            assert systolic_poly_gcd(f, a, b, variant, trace=True).gcd == euclid_poly_gcd(f, a, b)
        pairs = _pairs_of_cells(f, 23, 3)
        assert pipeline_batch(f, pairs, variant) == [euclid_poly_gcd(f, a, b) for a, b in pairs]
    plan = spec.plan
    tr = make()
    assert spec.plan is plan
    assert len(tr) == records
    assert hashlib.sha256(to_jsonl(tr).encode()).hexdigest() == digest
