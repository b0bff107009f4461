"""Engine kernel: construction checks, two-phase timing, determinism."""

import json
import random

import pytest

from systolic import engine
from systolic.engine import (
    Array,
    ArraySpec,
    CellId,
    CellProgram,
    ConstructionError,
    SimulationError,
    Trace,
    Wire,
    build_array,
    chain_wires,
    linear,
    grid,
    run,
)


def passthrough(state, ins, ctx):
    return state, {"aout": ins.get("ain", 0)}


def make_chain(n, activation=None, eval_order=None):
    spec = linear(n, chain_wires(n, ("a",)), activation=activation)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(n)}
    return build_array(spec, progs, eval_order=eval_order)


def impulse_schedule(value=7):
    def sched(t):
        return {CellId(0, 0): {"ain": value if t == 0 else 0}}
    return sched


def test_build_linear_chain():
    arr = make_chain(3)
    assert arr.tick_count == 0
    assert arr.state_of((0, 0)) == {}


def test_build_grid():
    wiring = [Wire(CellId(0, 0), "aout", CellId(0, 1), "ain"),
              Wire(CellId(0, 0), "aout", CellId(1, 0), "bin"),
              Wire(CellId(1, 1), "aout", CellId(0, 1), "bin")]
    spec = grid(2, 2, wiring)
    progs = {CellId(r, c): CellProgram(passthrough) for r in range(2) for c in range(2)}
    arr = build_array(spec, progs)
    assert arr.tick_count == 0


def test_wire_out_of_bounds():
    wiring = [Wire(CellId(0, 0), "aout", CellId(5, 5), "ain")]
    spec = grid(2, 2, wiring)
    progs = {CellId(r, c): CellProgram(passthrough) for r in range(2) for c in range(2)}
    with pytest.raises(ConstructionError):
        build_array(spec, progs)


def test_wire_not_nearest_neighbour():
    spec = linear(3, [Wire(CellId(0, 0), "aout", CellId(0, 2), "ain")])
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(3)}
    with pytest.raises(ConstructionError):
        build_array(spec, progs)


def test_duplicate_destination_port():
    wiring = [Wire(CellId(0, 0), "aout", CellId(0, 1), "ain"),
              Wire(CellId(0, 2), "aout", CellId(0, 1), "ain")]
    spec = linear(3, wiring)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(3)}
    with pytest.raises(ConstructionError):
        build_array(spec, progs)


def test_missing_program():
    spec = linear(2, chain_wires(2, ("a",)))
    with pytest.raises(ConstructionError):
        build_array(spec, {CellId(0, 0): CellProgram(passthrough)})


def test_unit_delay_single_cell():
    arr = make_chain(1)
    outs, _ = run(arr, impulse_schedule(), 3)
    assert outs[1][(CellId(0, 0), "aout")] == 7


def test_delay_equals_path_length():
    arr = make_chain(3)
    outs, _ = run(arr, impulse_schedule(), 6)
    last = CellId(0, 2)
    seen = {t: o[(last, "aout")] for t, o in outs.items() if (last, "aout") in o}
    assert seen[3] == 7
    assert all(v == 0 for t, v in seen.items() if t != 3)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_impulse_through_k_delay_cells(k):
    arr = make_chain(k)
    outs, _ = run(arr, impulse_schedule(), k + 2)
    assert outs[k][(CellId(0, k - 1), "aout")] == 7


def test_missing_boundary_input_raises():
    def needs_input(state, ins, ctx):
        return state, {"aout": ins["ain"]}

    spec = linear(1)
    arr = build_array(spec, {CellId(0, 0): CellProgram(needs_input)})
    with pytest.raises(SimulationError):
        arr.tick()


def test_inactive_cell_state_unchanged_and_untraced():
    def counter(state, ins, ctx):
        return {"n": state.get("n", 0) + 1}, {}

    spec = linear(2, activation=lambda cell: (range(4),) if cell.col == 0 else ())
    progs = {CellId(0, k): CellProgram(counter, {"n": 0}) for k in range(2)}
    arr = build_array(spec, progs)
    _, tr = run(arr, None, 4, trace=True)
    assert arr.state_of((0, 0)) == {"n": 4}
    assert arr.state_of((0, 1)) == {"n": 0}
    assert all(rec.cell == CellId(0, 0) for rec in tr)


def windowed_counters(windows, n_ticks):
    """Cells counting their activations; the step raises outside its windows."""
    def counter(state, ins, ctx):
        if not any(ctx.tick in w for w in windows[ctx.cell.col]):
            raise AssertionError(f"cell {ctx.cell.col} clocked at tick {ctx.tick}")
        return {"n": state["n"] + 1, "last": ctx.tick}, {}

    spec = linear(len(windows), activation=lambda cell: windows[cell.col])
    progs = {CellId(0, k): CellProgram(counter, {"n": 0, "last": -1})
             for k in range(len(windows))}
    arr = build_array(spec, progs)
    _, tr = run(arr, None, n_ticks, trace=True)
    return arr, tr


def test_step_never_called_outside_windows():
    windows = [(range(0, 3),), (range(2, 9, 3),), (range(1, 2), range(5, 7))]
    arr, tr = windowed_counters(windows, 12)
    ticks = {k: sorted(r.tick for r in tr if r.cell.col == k) for k in range(3)}
    assert ticks == {0: [0, 1, 2], 1: [2, 5, 8], 2: [1, 5, 6]}
    assert [arr.state_of((0, k))["n"] for k in range(3)] == [3, 3, 3]


def test_stride_empty_and_late_windows():
    windows = [(range(1, 10, 4),),      # stride 4
               (),                      # never clocked
               (range(5, 5),),          # empty range
               (range(7, 100),)]        # starts late, outlasts the run
    arr, tr = windowed_counters(windows, 10)
    assert [(arr.state_of((0, k))["n"], arr.state_of((0, k))["last"]) for k in range(4)] == \
        [(3, 9), (0, -1), (0, -1), (3, 9)]
    # records of one tick come out in cell order
    assert [(r.tick, r.cell.col) for r in tr] == [(1, 0), (5, 0), (7, 3), (8, 3), (9, 0), (9, 3)]


def test_overlapping_windows_clock_once():
    arr, tr = windowed_counters([(range(0, 4), range(2, 6), range(3, 4))], 8)
    assert arr.state_of((0, 0))["n"] == 6
    assert [r.tick for r in tr] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("window", [[0, 1], range(-2, 3)])
def test_bad_window_rejected(window):
    spec = linear(1, activation=lambda cell: (window,))
    with pytest.raises(ConstructionError):
        build_array(spec, {CellId(0, 0): CellProgram(passthrough)})


def test_run_zero_ticks():
    arr = make_chain(2)
    outs, tr = run(arr, impulse_schedule(), 0)
    assert outs == {} and len(tr) == 0


def test_rerun_identical_traces():
    def go():
        arr = make_chain(4)
        _, tr = run(arr, impulse_schedule(), 9, trace=True)
        return tr.to_jsonl()

    assert go() == go()


def test_unit_delay_law_random_passthrough():
    # the value read at tick T must be the neighbour's write from T-1
    rng = random.Random(5)
    n = 6
    spec = linear(n, chain_wires(n, ("a",)))
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(n)}
    arr = build_array(spec, progs)
    stream = [rng.randrange(100) for _ in range(24)]
    sched = lambda t: {CellId(0, 0): {"ain": stream[t] if t < len(stream) else 0}}
    _, tr = run(arr, sched, len(stream) + n, trace=True)
    writes = {}
    for rec in tr:
        writes[(rec.cell.col, rec.tick)] = rec.outputs["aout"]
        if rec.cell.col > 0 and "ain" in rec.inputs:
            assert rec.inputs["ain"] == writes[(rec.cell.col - 1, rec.tick - 1)]


def test_evaluation_order_independence():
    rng = random.Random(11)

    def shuffled(cells, t):
        cells = list(cells)
        random.Random((t * 2654435761) & 0xFFFF).shuffle(cells)
        return cells

    def go(order, activation=None):
        arr = make_chain(5, activation=activation, eval_order=order)
        _, tr = run(arr, impulse_schedule(), 12, trace=True)
        return tr.to_jsonl()

    assert go(None) == go(shuffled)
    # cell k clocked on ticks k..k+5 and then on every second tick
    windows = lambda cell: (range(cell.col, cell.col + 6), range(cell.col + 6, 12, 2))
    assert go(None, windows) == go(shuffled, windows)
    assert go(None, windows) != go(None)


def test_trace_jsonl_fields_and_rendering():
    def cell(state, ins, ctx):
        return {"flag": True, "count": 3, "x": 0.5}, {"aout": ins.get("ain", 0)}

    spec = linear(1)
    arr = build_array(spec, {CellId(0, 0): CellProgram(cell)})
    tr = Trace()
    arr.tick({CellId(0, 0): {"ain": 7}}, trace=tr)
    rec = json.loads(tr.to_jsonl().splitlines()[0])
    assert set(rec) == {"tick", "row", "col", "state", "in", "out"}
    assert rec["state"] == {"flag": 1, "count": 3, "x": 0.5}  # bits as 0/1
    assert rec["in"] == {"ain": 7}
    assert rec["out"] == {"aout": 7}


def test_port_kind_is_stable():
    flip = {"n": 0}

    def cell(state, ins, ctx):
        flip["n"] += 1
        return state, {"aout": 1 if flip["n"] == 1 else 1.5}

    spec = linear(2, chain_wires(2, ("a",)))
    arr = build_array(spec, {CellId(0, 0): CellProgram(cell),
                             CellId(0, 1): CellProgram(passthrough)})
    arr.tick()
    with pytest.raises(SimulationError):
        arr.tick()
