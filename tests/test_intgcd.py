"""Integer GCD: plus-minus iteration, Appendix-B cell, bit-serial pipeline."""

import functools
import hashlib
import inspect
import random

import pytest
from mutants import MUTANTS
from pm_model import pm_states, worst_steps
from test_golden_traces import RUNS

from systolic import intgcd
from systolic.engine import (CellId, CellProgram, SimulationError, build_array, chain_wires,
                             linear, run, to_jsonl)
from systolic.intgcd import (
    CELL_PORTS,
    MAX_BITS,
    PORTS,
    cell_count,
    encode_bitframe,
    gcd_cell_initial_state,
    gcd_cell_step,
    pm_precursor,
    pm_serial,
    pm_steps,
    strip_twos,
    systolic_int_gcd,
)
from systolic.oracle import euclid_int_gcd

RNG = random.Random(31)

ZERO_IN = {"ain": 0, "bin": 0, "startin": 0, "startoddin": 0, "epsin": 0, "negin": 0}


def cell_step(state, ins):
    """gcd_cell_step on register and port tuples in declared order, named back."""
    new, outs = gcd_cell_step(tuple(state.values()), tuple(ins[p] for p in CELL_PORTS[0]), 0)
    return dict(zip(state, new)), dict(zip(CELL_PORTS[1], outs))


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
    with pytest.raises(ValueError, match="must not be negative"):
        pm_precursor(3, 5, -2)


def test_strip_twos():
    assert strip_twos(12, 18) == (9, 6, 1)  # 6 and 9 after one halving, the odd one first
    assert strip_twos(0, 40) == (5, 0, 3)
    with pytest.raises(ValueError, match=r"gcd\(0, 0\) is undefined"):
        strip_twos(0, 0)


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
    st, outs = cell_step(gcd_cell_initial_state(), ZERO_IN)
    assert all(v == 0 for v in st.values())
    assert all(v == 0 for v in outs.values())


def test_cell_startodd_trigger():
    # start with both low bits set: startodd raised, wait cleared, shift = not(a & b)
    st = gcd_cell_initial_state()
    ins = dict(ZERO_IN, ain=1, bin=1, startin=1)
    new, _ = cell_step(st, ins)
    assert new["startodd"] == 1
    assert new["wait"] == 0
    assert new["shift"] == 0
    assert new["swap"] == 0


def test_cell_wait_persists_until_nonzero():
    st = gcd_cell_initial_state()
    new, _ = cell_step(st, dict(ZERO_IN, startin=1))
    assert new["wait"] == 1 and new["startodd"] == 0
    new, _ = cell_step(new, ZERO_IN)
    assert new["wait"] == 1
    new, _ = cell_step(new, dict(ZERO_IN, bin=1))
    assert new["wait"] == 0 and new["startodd"] == 1
    assert new["swap"] == 1  # a bit was zero: roles must swap


def test_single_cell_transmits_a_when_b_zero():
    # with b = 0 the cell models "halve b", leaving a untouched
    a_bits = (1, 0, 1, 1, 0)
    arr = build_array(linear(1, ports=lambda cell: CELL_PORTS),
                      {CellId(0, 0): CellProgram(gcd_cell_step, gcd_cell_initial_state())})
    lines = dict.fromkeys(ZERO_IN, ()) | {"ain": a_bits, "startin": (1,)}
    outs, _ = run(arr, {CellId(0, 0): lines}, len(a_bits) + 2)
    # index t of an output line holds the write of tick t - 1
    assert tuple(outs[CellId(0, 0), "aout"][2:2 + len(a_bits)]) == a_bits


# -- pipeline ------------------------------------------------------------------


def test_cell_count_values():
    assert cell_count(64) == 201
    assert cell_count(10) == 33  # ceil(31.106) + 1
    # the float product 3.1106 * n rounds below the ceiling at these n
    assert cell_count(498_390_965_217) == 1_550_294_936_406
    assert cell_count(45 * 10**15) == 139_977_000_000_000_001
    assert cell_count(35 * 10**16) == 1_088_710_000_000_000_001


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


@pytest.mark.parametrize("n", [0, -5])
def test_systolic_rejects_word_size_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        systolic_int_gcd(3, 5, n)


def test_word_sizes_are_bounded_and_range_checks_compare_bit_lengths():
    # none of these builds 2**n: each returns or raises at once
    huge = 99_999_999_999
    for go in (systolic_int_gcd, pm_precursor):
        with pytest.raises(ValueError, match=f" {MAX_BITS}, got {huge}"):
            go(3, 5, huge)
    assert pm_precursor(3, 5, MAX_BITS)[0] == 1
    with pytest.raises(ValueError, match="must lie in"):
        encode_bitframe(2**64, 3, 64)
    # the bounds themselves: |x| <= 2**n for the precursor, x < 2**n for the pipeline
    assert pm_precursor(3, 2**10, 10)[0] == 1
    with pytest.raises(ValueError):
        pm_precursor(3, 2**10 + 2, 10)
    with pytest.raises(ValueError):
        pm_precursor(-(2**10 + 1), 2, 10)
    assert systolic_int_gcd(2**6 - 1, 2**6 - 3, 6).gcd == 1
    with pytest.raises(ValueError, match="inputs must be < 2"):
        systolic_int_gcd(2**6, 3, 6)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_systolic_exhaustive_small_words(n):
    for a in range(1, 1 << n):
        for b in range(1, 1 << n):
            assert systolic_int_gcd(a, b, n).gcd == euclid_int_gcd(a, b), (a, b)


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
        spec = linear(n_cells, chain_wires(n_cells, PORTS), ports=lambda cell: CELL_PORTS)
        return spec, {CellId(0, k): CellProgram(gcd_cell_step, gcd_cell_initial_state())
                      for k in range(n_cells)}

    monkeypatch.setattr(intgcd, "_gcd_pipeline", ungated_pipeline)
    assert [systolic_int_gcd(a, b, n).raw_output for a, b, n in cases] == gated


def test_reused_pipelines_run_as_fresh_builds(monkeypatch):
    # pairs of a few widths, each width several times over, traced: a run on
    # a reused plan gives the results and trace bytes of a fresh build
    cases = [(RNG.randint(1, (1 << n) - 1), RNG.randint(1, (1 << n) - 1), n)
             for n in (3, 9, 16, 9, 3, 16) for _ in range(3)]

    def runs():
        return [(r.raw_output, r.ticks, to_jsonl(r.trace))
                for r in (systolic_int_gcd(a, b, n, trace=True) for a, b, n in cases)]

    reused = runs()
    monkeypatch.setattr(intgcd, "_gcd_pipeline", intgcd._gcd_pipeline.__wrapped__)
    assert runs() == reused


def test_a_reused_pipeline_gives_the_golden_trace():
    make, records, digest = RUNS["intgcd"]
    spec, progs = intgcd._gcd_pipeline(cell_count(16), 18)
    for a, b in ((65535, 1), (12345, 54321), (46563, 31276), (2, 65534)):
        assert systolic_int_gcd(a, b, 16).gcd == euclid_int_gcd(a, b)
        assert systolic_int_gcd(a, b, 16, trace=True).gcd == euclid_int_gcd(a, b)
    plan = spec.plan
    # a run that a payload kind flip stops mid-way leaves nothing behind:
    # the next run of the width still gives the golden trace, and the flip
    # is still refused on the reused plan
    flipped = encode_bitframe(46563, 31276, 16) | {"startin": (True,)}
    for _ in range(2):
        with pytest.raises(SimulationError, match="'startout'.*int -> bool"):
            run(build_array(spec, progs), {CellId(0, 0): flipped}, 60)
        tr = make()
        assert len(tr) == records
        assert hashlib.sha256(to_jsonl(tr).encode()).hexdigest() == digest
    assert spec.plan is plan


# -- each cell against the plus-minus steps ------------------------------------


def signed(bits) -> int:
    """An LSB-first two's-complement word."""
    value = sum(bit << i for i, bit in enumerate(bits))
    return value - (1 << len(bits)) if bits[-1] else value


def frames(records, cells: int, n: int) -> list[tuple[int, int] | None]:
    """Each cell's output frame in the records of a traced run of a
    pipeline of ``cells`` cells, in cell order: its aout and bout words of
    n+2 bits, read from the tick on which its startout is 1, or None if it
    writes no whole frame on consecutive ticks."""
    written = [[] for _ in range(cells)]
    for r in records:
        written[r.cell.col].append((r.tick, r.outputs))
    width = n + 2
    words = []
    for ticks in written:
        start = next((j for j, (_, outs) in enumerate(ticks) if outs["startout"] == 1), len(ticks))
        frame = ticks[start:start + width]
        if len(frame) < width or frame[-1][0] - frame[0][0] != width - 1:
            words.append(None)
        else:
            words.append((signed([outs["aout"] for _, outs in frame]),
                          signed([outs["bout"] for _, outs in frame])))
    return words


def met_pairs(records, cells: int) -> set[tuple[tuple, tuple]]:
    """The (registers, inputs) pairs on which the cells stepped in the
    records of a traced run of a pipeline of ``cells`` cells: a cell's
    registers before a step are those of its record before, and an input a
    record leaves out reads 0."""
    regs = [tuple(gcd_cell_initial_state().values())] * cells
    pairs = set()
    for r in records:
        pairs.add((regs[r.cell.col], tuple({**ZERO_IN, **r.inputs}.values())))
        regs[r.cell.col] = tuple(r.state.values())
    return pairs


@functools.cache
def small_word_runs() -> tuple[list, dict[int, set]]:
    """Every pair at every n <= 5, run traced once: (n, a, b, the run's
    cell frames) per run, and per n the pairs its runs met."""
    runs, met = [], {}
    for n in range(1, 6):
        met[n] = set()
        for a in range(1, 2**n):
            for b in range(1, 2**n):
                run = systolic_int_gcd(a, b, n, trace=True)
                records = list(run.trace)
                runs.append((n, a, b, frames(records, run.cells, n)))
                met[n] |= met_pairs(records, run.cells)
    return runs, met


def test_every_cell_takes_one_plus_minus_step():
    # ROADMAP item 13: cell k's frame holds (|a|, |b|) after k+1 steps of
    # the model, one halving of b or one reduction each, and (|g|, 0) once
    # b is 0; every pair at every n <= 5
    for n, a, b, cell_frames in small_word_runs()[0]:
        states = pm_states(a, b)
        for k, frame in enumerate(cell_frames):
            want = tuple(map(abs, states[min(k, len(states) - 1)]))
            if frame is None or tuple(map(abs, frame)) != want:
                pytest.fail(f"a = {a}, b = {b}, n = {n}: cell {k} of {len(cell_frames)} "
                            f"writes the frame {frame}, but the model holds {want} "
                            f"after step {k + 1}")


def test_the_pipeline_has_a_cell_for_every_step_of_its_worst_pair():
    # the slack, cell_count(n) - worst_steps(n), is 2 to 4 at n <= 8
    for n in range(1, 9):
        assert cell_count(n) > worst_steps(n), n


# the cell's five branches, in the order its if/elif chain tries them: the
# first nonzero bit of a frame, waiting for it, shifting b, the sign and
# swap set-up of a reduction, and the reduction's serial add
BRANCHES = ("odd", "wait", "shift", "swap", "add")


def branch(regs, ins) -> str:
    """The branch of ``gcd_cell_step`` that a (registers, inputs) pair takes."""
    a, b, start, startodd = ins[:4]
    wait = (regs[6] | start) & (1 - startodd)
    if startodd or (wait and (a | b)):
        return "odd"
    return "wait" if wait else "shift" if regs[7] else "swap" if regs[3] else "add"


# every register and input tuple of bits, by the value they spell LSB first
REGS = [tuple((v >> k) & 1 for k in range(12)) for v in range(2**12)]
INS = [tuple((v >> k) & 1 for k in range(6)) for v in range(2**6)]
# sha256 of the cell's whole truth table, as the test below lays it out
TABLE_DIGEST = "b571b3f0d84b64b7ecefb41b91a3868482d0429ec9c39175a845069764b4d743"


def test_the_cell_s_whole_truth_table_is_pinned():
    # ROADMAP item 17: all 2**18 (registers, inputs) pairs in index order,
    # registers in the low 12 bits of the index and inputs in the high 6,
    # each giving its 12 registers and 6 outputs one byte each; a rewrite
    # of the cell is equal exactly when the digest is
    table = bytearray()
    for ins in INS:
        for regs in REGS:
            state, outs = gcd_cell_step(regs, ins, 0)
            table += bytes(state + outs)
    assert hashlib.sha256(table).hexdigest() == TABLE_DIGEST


def mutated_cell(name: str):
    """``gcd_cell_step`` with the substitution of the mutant ``name`` in
    tests/mutants.py."""
    mutant = next(m for m in MUTANTS if m.name == name)
    source = inspect.getsource(gcd_cell_step)
    assert source.count(mutant.old) == 1, name
    scope = dict(vars(intgcd))
    exec(source.replace(mutant.old, mutant.new), scope)
    return scope["gcd_cell_step"]


@pytest.mark.parametrize("name", ["the integer GCD cell's first odd bit shifts on b alone",
                                  "the integer GCD cell's swap set-up keeps aout"])
def test_the_mutants_only_the_table_kills_agree_on_every_met_pair(name):
    # ROADMAP item 17: no run at n <= 5 tells these mutants from the cell,
    # since they agree on every pair the runs meet, but the whole table
    # does, so they are not equivalent
    step = mutated_cell(name)
    met = set().union(*small_word_runs()[1].values())
    assert all(step(regs, ins, 0) == gcd_cell_step(regs, ins, 0) for regs, ins in met)
    assert any(step(regs, ins, 0) != gcd_cell_step(regs, ins, 0) for ins in INS for regs in REGS)
