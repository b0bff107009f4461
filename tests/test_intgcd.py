"""Integer GCD: plus-minus iteration, Appendix-B cell, bit-serial pipeline."""

import random

import pytest

from systolic import intgcd
from systolic.engine import CellId, CellProgram, build_array, chain_wires, linear
from systolic.intgcd import (
    PORTS,
    cell_count,
    encode_bitframe,
    gcd_cell_initial_state,
    gcd_cell_step,
    pm_precursor,
    pm_serial,
    pm_steps,
    systolic_int_gcd,
)
from systolic.oracle import euclid_int_gcd

RNG = random.Random(31)

ZERO_IN = {"ain": 0, "bin": 0, "startin": 0, "startoddin": 0, "epsin": 0, "negin": 0}


def test_precursor_examples():
    assert pm_precursor(3, 3, 2) == (3, 1)
    g, it = pm_precursor(3, 5, 3)
    assert g == 1 and it <= 7
    g, it = pm_precursor(9, 6, 4)
    assert g == 3 and it <= 9


def test_precursor_preconditions():
    with pytest.raises(ValueError):
        pm_precursor(4, 3, 3)
    with pytest.raises(ValueError):
        pm_precursor(3, 0, 3)
    with pytest.raises(ValueError):
        pm_precursor(3, 9, 3)


def test_serial_examples():
    assert pm_serial(3, 5) == 1
    for _ in range(30):
        a = RNG.randrange(1, 1 << 16, 2)
        assert pm_serial(a, a) == a
    with pytest.raises(ValueError):
        pm_serial(6, 3)


def test_swap_condition_regression():
    # swapping on delta <= 0, as printed, never terminates on (5, 3)
    assert pm_serial(5, 3) == 1
    assert pm_serial(3, 5) == 1


def test_serial_matches_euclid_sample():
    for _ in range(600):
        a = RNG.randrange(1, 1 << 12, 2)
        b = RNG.randint(-(1 << 12), 1 << 12) or 1
        assert pm_serial(a, b) == euclid_int_gcd(a, b)


def test_step_invariants():
    # odd-part gcd constant, and the plus-minus update always leaves b even
    for _ in range(60):
        a = RNG.randrange(1, 1 << 10, 2)
        b = RNG.randint(1, 1 << 10)
        want = euclid_int_gcd(a, b)

        def odd_part_gcd(x, y):
            x, y = abs(x), abs(y)
            while x % 2 == 0 and x:
                x //= 2
            while y % 2 == 0 and y:
                y //= 2
            return euclid_int_gcd(x, y) if (x or y) else 0
        for sa, sb, _delta in pm_steps(a, b):
            assert sb % 2 == 0
            assert odd_part_gcd(sa, sb if sb else sa) == want


def test_precursor_iteration_bound_random():
    for _ in range(300):
        n = RNG.randint(2, 14)
        a = RNG.randrange(1, 1 << n, 2)
        b = RNG.randint(1, (1 << n) - 1)
        _, it = pm_precursor(a, b, n)
        assert it <= 2 * n + 1


# -- Appendix B cell -----------------------------------------------------------


def test_cell_quiescent():
    st, outs = gcd_cell_step(gcd_cell_initial_state(), dict(ZERO_IN), None)
    assert all(v == 0 for v in st.values())
    assert all(v == 0 for v in outs.values())


def test_cell_startodd_trigger():
    # start with both low bits set: startodd raised, wait cleared, shift = not(a & b)
    st = gcd_cell_initial_state()
    ins = dict(ZERO_IN, ain=1, bin=1, startin=1)
    new, _ = gcd_cell_step(st, ins, None)
    assert new["startodd"] == 1
    assert new["wait"] == 0
    assert new["shift"] == 0
    assert new["swap"] == 0


def test_cell_wait_persists_until_nonzero():
    st = gcd_cell_initial_state()
    new, _ = gcd_cell_step(st, dict(ZERO_IN, startin=1), None)
    assert new["wait"] == 1 and new["startodd"] == 0
    new, _ = gcd_cell_step(new, dict(ZERO_IN), None)
    assert new["wait"] == 1
    new, _ = gcd_cell_step(new, dict(ZERO_IN, bin=1), None)
    assert new["wait"] == 0 and new["startodd"] == 1
    assert new["swap"] == 1  # a bit was zero: roles must swap


def test_single_cell_transmits_a_when_b_zero():
    # with b = 0 the cell models "halve b", leaving a untouched
    frame = encode_bitframe(1, 1, 3)  # reuse the a-lane only
    a_bits = (1, 0, 1, 1, 0)
    arr = build_array(linear(1), {CellId(0, 0): CellProgram(gcd_cell_step,
                                                            gcd_cell_initial_state())})
    outs = []
    for t in range(len(a_bits) + 2):
        ain = a_bits[t] if t < len(a_bits) else 0
        res = arr.tick({CellId(0, 0): dict(ZERO_IN, ain=ain, startin=1 if t == 0 else 0)})
        outs.append(res[(CellId(0, 0), "aout")])
    assert tuple(outs[1:1 + len(a_bits)]) == a_bits


# -- pipeline ------------------------------------------------------------------


def test_cell_count_values():
    assert cell_count(64) == 201
    assert cell_count(10) == 33  # ceil(31.106) + 1


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_bitframe(0, 3, 4)
    with pytest.raises(ValueError):
        encode_bitframe(16, 3, 4)


def test_systolic_examples():
    assert systolic_int_gcd(12, 18, 6).gcd == 6
    for _ in range(10):
        a = RNG.randint(1, (1 << 16) - 1)
        assert systolic_int_gcd(a, a, 16).gcd == a
        b = RNG.randint(1, (1 << 12) - 1)
        assert systolic_int_gcd(1, b, 12).gcd == 1


def test_systolic_rejects_nonpositive():
    with pytest.raises(ValueError):
        systolic_int_gcd(0, 4, 4)
    with pytest.raises(ValueError):
        systolic_int_gcd(4, 0, 4)


def test_systolic_matches_euclid_random():
    for _ in range(40):
        n = RNG.randint(3, 20)
        a = RNG.randint(1, (1 << n) - 1)
        b = RNG.randint(1, (1 << n) - 1)
        run = systolic_int_gcd(a, b, n)
        assert run.gcd == euclid_int_gcd(a, b)
        assert run.cells == cell_count(n)


def test_activation_gating_is_equivalent(monkeypatch):
    cases = []
    for _ in range(12):
        n = RNG.randint(4, 18)
        cases.append((RNG.randint(1, (1 << n) - 1), RNG.randint(1, (1 << n) - 1), n))
    gated = [systolic_int_gcd(a, b, n).raw_output for a, b, n in cases]

    def ungated_pipeline(n_cells, frame_len):
        # every cell clocked on every tick
        spec = linear(n_cells, chain_wires(n_cells, PORTS))
        return build_array(spec, {CellId(0, k): CellProgram(gcd_cell_step, gcd_cell_initial_state())
                                  for k in range(n_cells)})

    monkeypatch.setattr(intgcd, "_gcd_pipeline", ungated_pipeline)
    assert [systolic_int_gcd(a, b, n).raw_output for a, b, n in cases] == gated
