"""Engine kernel: construction checks, two-phase timing, determinism."""

import dataclasses
import json
import random
import sys

import numpy as np
import pytest

from systolic import cli, eigen, intgcd, polygcd, toeplitz
from systolic.engine import (
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
from systolic.gfield import Field


def passthrough(state, ins, tick):
    return state, ins[:1]


def chain_cell(cell):
    return ("ain",), ("aout",)


def make_chain(n, activation=None):
    spec = linear(n, chain_wires(n, ("a",)), activation=activation, ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(n)}
    return build_array(spec, progs)


def in_order(spec, order):
    """``spec``, its plan made to step each tick's cells in the order
    ``order(cells, t)`` puts them, by permuting each per-tick tuple of its
    schedule as it is expanded; a spec without windows first gets an
    always-on one, so that it has a schedule.  None keeps the plan's order."""
    if order is None:
        return spec
    if spec.activation is None:
        spec = dataclasses.replace(spec, activation=lambda cell: (range(sys.maxsize),))
    plan = spec.plan
    expand = plan.expand

    def permuted():
        lo = len(plan.schedule)
        expand()
        plan.schedule[lo:] = [tuple(order(list(on), t))
                              for t, on in enumerate(plan.schedule[lo:], lo)]

    plan.expand = permuted
    return spec


def by_cell(trace):
    """The records of ``trace`` in cell order within each tick."""
    return Trace(sorted(trace, key=lambda r: (r.tick, r.cell)))


def impulse_schedule(value=7):
    return {CellId(0, 0): {"ain": [value]}}


def test_build_linear_chain():
    arr = make_chain(3)
    assert arr.tick_count == 0
    assert arr.states() == [(), (), ()]


def test_build_grid():
    wiring = [Wire(CellId(0, 0), "aout", CellId(0, 1), "ain"),
              Wire(CellId(0, 0), "aout", CellId(1, 0), "bin"),
              Wire(CellId(1, 1), "aout", CellId(0, 1), "bin")]
    spec = grid(2, 2, wiring, ports=lambda cell: (("ain", "bin"), ("aout",)))
    progs = {CellId(r, c): CellProgram(passthrough) for r in range(2) for c in range(2)}
    arr = build_array(spec, progs)
    assert arr.tick_count == 0


def test_wire_out_of_bounds():
    wiring = [Wire(CellId(0, 0), "aout", CellId(5, 5), "ain")]
    spec = grid(2, 2, wiring, ports=chain_cell)
    progs = {CellId(r, c): CellProgram(passthrough) for r in range(2) for c in range(2)}
    with pytest.raises(ConstructionError):
        build_array(spec, progs)


def test_wire_not_nearest_neighbour():
    spec = linear(3, [Wire(CellId(0, 0), "aout", CellId(0, 2), "ain")], ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(3)}
    with pytest.raises(ConstructionError):
        build_array(spec, progs)


def test_duplicate_destination_port():
    wiring = [Wire(CellId(0, 0), "aout", CellId(0, 1), "ain"),
              Wire(CellId(0, 2), "aout", CellId(0, 1), "ain")]
    spec = linear(3, wiring, ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(3)}
    with pytest.raises(ConstructionError):
        build_array(spec, progs)


def test_missing_program():
    spec = linear(2, chain_wires(2, ("a",)), ports=chain_cell)
    with pytest.raises(ConstructionError):
        build_array(spec, {CellId(0, 0): CellProgram(passthrough)})


def test_unit_delay_single_cell():
    arr = make_chain(1)
    outs, _ = run(arr, impulse_schedule(), 3)
    assert outs[CellId(0, 0), "aout"][1] == 7


def test_delay_equals_path_length():
    arr = make_chain(3)
    outs, _ = run(arr, impulse_schedule(), 6)
    seen = outs[CellId(0, 2), "aout"]
    assert seen[3] == 7
    assert all(v == 0 for t, v in enumerate(seen) if t != 3)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_impulse_through_k_delay_cells(k):
    arr = make_chain(k)
    outs, _ = run(arr, impulse_schedule(), k + 2)
    assert outs[CellId(0, k - 1), "aout"][k] == 7


def test_short_line_reads_zero_past_its_end():
    seen = []

    def record(state, ins, tick):
        seen.append((tick, ins))
        return state, ()

    spec = linear(1, ports=lambda cell: (("ain", "bin", "cin"), ()))
    arr = build_array(spec, {CellId(0, 0): CellProgram(record)})
    run(arr, {(0, 0): {"ain": (4, 5), "bin": (), "cin": [1, 2, 3, 9]}}, 5)
    assert seen == [(0, (4, 0, 1)),
                    (1, (5, 0, 2)),
                    (2, (0, 0, 3)),
                    (3, (0, 0, 9)),
                    (4, (0, 0, 0))]
    # a run that starts late reads its lines from the array's own tick
    run(arr, {(0, 0): {"ain": list(range(10)), "bin": (), "cin": ()}}, 2)
    assert seen[5:] == [(5, (5, 0, 0)), (6, (6, 0, 0))]


def test_boundary_line_by_observation_tick():
    arr = make_chain(3)
    outs, _ = run(arr, {(0, 0): {"ain": (0, 4, 0, 6)}}, 7)
    assert outs[(0, 2), "aout"] == [0, 0, 0, 0, 4, 0, 6, 0]
    # a wired port is not a boundary output, so it has no line
    assert ((0, 1), "aout") not in outs


def test_late_run_indexes_output_lines_by_array_tick():
    arr = make_chain(3)
    run(arr, {(0, 0): {"ain": ()}}, 3)
    # an impulse on the input line's index 3 enters at tick 3 and shows
    # three ticks later, on the output line's index 6
    outs, _ = run(arr, {(0, 0): {"ain": (0, 0, 0, 7)}}, 4)
    assert outs[(0, 2), "aout"] == [0, 0, 0, 0, 0, 0, 7, 0]


def test_missing_boundary_input_raises():
    def needs_input(state, ins, tick):
        return state, (ins[0],)

    spec = linear(1, ports=chain_cell)
    arr = build_array(spec, {CellId(0, 0): CellProgram(needs_input)})
    with pytest.raises(SimulationError):
        arr.tick()


def test_tick_refuses_an_array_with_a_boundary_input():
    calls = []

    def step(state, ins, tick):
        calls.append(tick)
        return state, ins

    arr = build_array(linear(2, chain_wires(2, ("a",)), ports=chain_cell),
                      {CellId(0, k): CellProgram(step) for k in range(2)})
    with pytest.raises(SimulationError, match=r"\(0, 0\) 'ain' are fed only by run"):
        arr.tick()
    assert calls == [] and arr.tick_count == 0
    # run feeds the port; once it returns, tick refuses the array again
    run(arr, impulse_schedule(), 1)
    with pytest.raises(SimulationError):
        arr.tick()
    assert calls == [0, 0] and arr.tick_count == 1


def test_tick_refuses_an_array_whose_run_a_step_stopped():
    calls = []

    def step(state, ins, tick):
        calls.append(tick)
        if tick == 1:
            raise ZeroDivisionError("stopped in tick 1")
        return state, ins

    arr = build_array(linear(2, chain_wires(2, ("a",)), ports=chain_cell),
                      {CellId(0, k): CellProgram(step) for k in range(2)})
    with pytest.raises(ZeroDivisionError):
        run(arr, impulse_schedule(), 3)
    assert calls == [0, 0, 1] and arr.tick_count == 1
    # the stopped run left the array no input lines to clock it with
    with pytest.raises(SimulationError, match=r"\(0, 0\) 'ain' are fed only by run"):
        arr.tick()
    assert calls == [0, 0, 1] and arr.tick_count == 1


def test_inactive_cell_state_unchanged_and_untraced():
    def counter(state, ins, tick):
        return (state[0] + 1,), ()

    spec = linear(2, activation=lambda cell: (range(4),) if cell.col == 0 else ())
    progs = {CellId(0, k): CellProgram(counter, {"n": 0}) for k in range(2)}
    arr = build_array(spec, progs)
    _, tr = run(arr, None, 4, trace=True)
    assert arr.states() == [(4,), (0,)]
    assert all(rec.cell == CellId(0, 0) for rec in tr)


def windowed_counters(windows, n_ticks):
    """Cells counting their activations; the step raises outside its windows."""
    def counter(col):
        def step(state, ins, tick):
            if not any(tick in w for w in windows[col]):
                raise AssertionError(f"cell {col} clocked at tick {tick}")
            return (state[0] + 1, tick), ()
        return step

    spec = linear(len(windows), activation=lambda cell: windows[cell.col])
    progs = {CellId(0, k): CellProgram(counter(k), {"n": 0, "last": -1})
             for k in range(len(windows))}
    arr = build_array(spec, progs)
    _, tr = run(arr, None, n_ticks, trace=True)
    return arr, tr


def test_step_never_called_outside_windows():
    windows = [(range(0, 3),), (range(2, 9, 3),), (range(1, 2), range(5, 7))]
    arr, tr = windowed_counters(windows, 12)
    ticks = {k: sorted(r.tick for r in tr if r.cell.col == k) for k in range(3)}
    assert ticks == {0: [0, 1, 2], 1: [2, 5, 8], 2: [1, 5, 6]}
    assert [n for n, _ in arr.states()] == [3, 3, 3]


def test_stride_empty_and_late_windows():
    windows = [(range(1, 10, 4),),      # stride 4
               (),                      # never clocked
               (range(5, 5),),          # empty range
               (range(7, 100),)]        # starts late, outlasts the run
    arr, tr = windowed_counters(windows, 10)
    assert arr.states() == [(3, 9), (0, -1), (0, -1), (3, 9)]
    # records of one tick come out in cell order
    assert [(r.tick, r.cell.col) for r in tr] == [(1, 0), (5, 0), (7, 3), (8, 3), (9, 0), (9, 3)]


def test_overlapping_windows_clock_once():
    arr, tr = windowed_counters([(range(0, 4), range(2, 6), range(3, 4))], 8)
    assert arr.states()[0][0] == 6
    assert [r.tick for r in tr] == [0, 1, 2, 3, 4, 5]


def test_open_ended_window():
    # a window's ticks are expanded only as they run, so it may never close
    arr, tr = windowed_counters([(range(2, sys.maxsize, 3),)], 10)
    assert [r.tick for r in tr] == [2, 5, 8]
    assert arr.states() == [(3, 8)]


def test_windows_expand_alike_across_stretches():
    # windows that start, end and overlap on either side of the points where
    # the schedule is extended, descending ones included
    windows = [(range(0, 700, 7), range(3, sys.maxsize, 5)),
               (range(900, -1, -11),),
               (range(250, 262), range(255, 520, 2), range(511, 514)),
               (range(1000, 1001),),
               ()]
    n_ticks = 1100
    arr, tr = windowed_counters(windows, n_ticks)
    for k, ws in enumerate(windows):
        want = [t for t in range(n_ticks) if any(t in w for w in ws)]
        assert [r.tick for r in tr if r.cell.col == k] == want, k
        assert arr.states()[k][0] == len(want)
    # tick by tick, in cell order within a tick
    assert [(r.tick, r.cell.col) for r in tr] == sorted((r.tick, r.cell.col) for r in tr)


@pytest.mark.parametrize("window", [[0, 1], range(-2, 3), range(3, -2, -1)])
def test_bad_window_rejected(window):
    spec = linear(1, activation=lambda cell: (window,), ports=chain_cell)
    with pytest.raises(ConstructionError):
        build_array(spec, {CellId(0, 0): CellProgram(passthrough)})


def test_run_zero_ticks():
    arr = make_chain(2)
    outs, tr = run(arr, impulse_schedule(), 0)
    assert outs == {(CellId(0, 1), "aout"): [0]} and len(tr) == 0


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
    spec = linear(n, chain_wires(n, ("a",)), ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(n)}
    arr = build_array(spec, progs)
    stream = [rng.randrange(100) for _ in range(24)]
    _, tr = run(arr, {CellId(0, 0): {"ain": stream}}, len(stream) + n, trace=True)
    writes = {}
    for rec in tr:
        writes[(rec.cell.col, rec.tick)] = rec.outputs["aout"]
        if rec.cell.col > 0 and "ain" in rec.inputs:
            assert rec.inputs["ain"] == writes[(rec.cell.col - 1, rec.tick - 1)]


def test_evaluation_order_independence():
    # a tick's cells stepped in a shuffled order leave the same output
    # lines and, put back in cell order, the same records
    def shuffled(cells, t):
        random.Random((t * 2654435761) & 0xFFFF).shuffle(cells)
        return cells

    def go(order, activation=None):
        spec = linear(5, chain_wires(5, ("a",)), activation=activation, ports=chain_cell)
        arr = build_array(in_order(spec, order), {CellId(0, k): CellProgram(passthrough)
                                                  for k in range(5)})
        outs, tr = run(arr, impulse_schedule(), 12, trace=True)
        if order is not None:  # the shuffle did reorder the steps
            assert [r.cell for r in tr] != [r.cell for r in by_cell(tr)]
        return outs, by_cell(tr).to_jsonl()

    assert go(None) == go(shuffled)
    # cell k clocked on ticks k..k+5 and then on every second tick
    windows = lambda cell: (range(cell.col, cell.col + 6), range(cell.col + 6, 12, 2))
    assert go(None, windows) == go(shuffled, windows)
    assert go(None, windows) != go(None)


def test_build_array_takes_no_evaluation_order():
    spec = linear(2, chain_wires(2, ("a",)), ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(2)}
    for order in (lambda cells, t: cells[::-1], sorted, False):
        with pytest.raises(TypeError, match="eval_order takes only None"):
            build_array(spec, progs, order)
    assert run(build_array(spec, progs, None), impulse_schedule(3), 2)[0] == \
        run(build_array(spec, progs), impulse_schedule(3), 2)[0]


def test_every_schedule_lists_a_tick_s_cells_in_ascending_order(monkeypatch):
    # a tick's records come out in the order its cells are stepped, so only
    # the schedule's order keeps them in cell order; every family's plan is
    # checked after its runs, past the 256-tick stretch boundary where
    # windows reach it
    specs = {}
    for module in (polygcd, intgcd, toeplitz, eigen):
        def recording(spec, progs, real=module.build_array, name=module.__name__):
            specs.setdefault(name, []).append(spec)
            return real(spec, progs)
        monkeypatch.setattr(module, "build_array", recording)
    for variant in polygcd.VARIANTS:
        polygcd.systolic_poly_gcd(Field(7), [6, 5, 1, 2], [3, 0, 1], variant)
    intgcd.systolic_int_gcd(132, 36, 8)
    rng = random.Random(4)
    for n in range(64, 86):  # 4n ticks, from 256 to 340
        toeplitz.systolic_toeplitz_solve(cli.gen_toeplitz(rng, n), trace=False)
    m = np.random.default_rng(16).standard_normal((16, 16))
    assert eigen.run_sweeps(m + m.T, mode="delayed").report.ticks > 256
    # polynomial GCD chains have no windows: every tick steps range(cells)
    assert all(spec.plan.schedule is None for spec in specs["systolic.polygcd"])
    assert len(specs["systolic.polygcd"]) == 2
    longest = {}
    for name in ("systolic.intgcd", "systolic.toeplitz", "systolic.eigen"):
        for spec in specs[name]:
            schedule = spec.plan.schedule
            assert all(a < b for on in schedule for a, b in zip(on, on[1:]))
            longest[name] = max(longest.get(name, 0), len(schedule))
    assert longest["systolic.toeplitz"] > 256 and longest["systolic.eigen"] > 256


def test_trace_jsonl_fields_and_rendering():
    def cell(state, ins, tick):
        return (True, 3, 0.5), ins

    spec = linear(1, ports=chain_cell)
    arr = build_array(spec, {CellId(0, 0): CellProgram(cell, {"flag": False, "count": 0, "x": 0.0})})
    _, tr = run(arr, {CellId(0, 0): {"ain": [7]}}, 1, trace=True)
    rec = json.loads(tr.to_jsonl().splitlines()[0])
    assert set(rec) == {"tick", "row", "col", "state", "in", "out"}
    assert rec["state"] == {"flag": 1, "count": 3, "x": 0.5}  # bits as 0/1
    assert rec["in"] == {"ain": 7}
    assert rec["out"] == {"aout": 7}


def test_port_kind_is_stable():
    flip = {"n": 0}

    def cell(state, ins, tick):
        flip["n"] += 1
        return state, (1 if flip["n"] == 1 else 1.5,)

    spec = linear(2, chain_wires(2, ("a",)),
                  ports=lambda cell: ((), ("aout",)) if cell.col == 0 else chain_cell(cell))
    arr = build_array(spec, {CellId(0, 0): CellProgram(cell),
                             CellId(0, 1): CellProgram(passthrough)})
    arr.tick()
    with pytest.raises(SimulationError):
        arr.tick()


@pytest.mark.parametrize("wire", [Wire(CellId(0, 0), "xout", CellId(0, 1), "ain"),
                                  Wire(CellId(0, 0), "aout", CellId(0, 1), "xin")])
def test_undeclared_wired_port_raises(wire):
    spec = linear(2, [wire], ports=chain_cell)
    with pytest.raises(ConstructionError, match="is not an"):
        build_array(spec, {CellId(0, k): CellProgram(passthrough) for k in range(2)})


def test_none_output_keeps_latch_and_is_untraced():
    # cell 0 writes its wired port on even ticks and its boundary port on odd
    def sometimes(state, ins, tick):
        return state, ((tick + 10, None) if tick % 2 == 0 else (None, tick + 10))

    spec = linear(2, chain_wires(2, ("a",)),
                  ports=lambda cell: ((), ("aout", "bout")) if cell.col == 0 else chain_cell(cell))
    arr = build_array(spec, {CellId(0, 0): CellProgram(sometimes),
                             CellId(0, 1): CellProgram(passthrough)})
    outs, tr = run(arr, None, 5, trace=True)
    seen = [rec.inputs.get("ain") for rec in tr if rec.cell.col == 1]
    assert seen == [None, 10, 10, 12, 12]  # unwritten at tick 0, then held over odd ticks
    assert [rec.outputs for rec in tr if rec.cell.col == 0] == [
        {"aout": 10}, {"bout": 11}, {"aout": 12}, {"bout": 13}, {"aout": 14}]
    assert outs[(0, 0), "bout"] == [0, 0, 11, 0, 13, 0]


def test_kind_guard_on_the_tuple_path():
    # each output keeps the kind of its first write, whichever ports an
    # activation leaves out
    plan = [(1, None), (None, 2.0), (3, 4.0), (None, 5.0), (6.0, None)]

    def cell(state, ins, tick):
        return state, plan[tick]

    arr = build_array(linear(1, ports=lambda cell: ((), ("aout", "bout"))),
                      {CellId(0, 0): CellProgram(cell)})
    for _ in range(4):
        arr.tick()
    with pytest.raises(SimulationError, match="'aout'.*int -> float"):
        arr.tick()
    # an output tuple of the wrong length is refused too
    arr = build_array(linear(1, ports=lambda cell: ((), ("aout", "bout"))),
                      {CellId(0, 0): CellProgram(lambda state, ins, tick: (state, (1,)))})
    with pytest.raises(SimulationError, match="1 outputs"):
        arr.tick()


def test_declared_input_without_wire_or_feed_raises():
    calls = []

    def step(state, ins, tick):
        calls.append(tick)
        return state, ins[:1]

    spec = linear(2, [Wire(CellId(0, 0), "aout", CellId(0, 1), "ain")],
                  ports=lambda cell: (("ain", "bin"), ("aout",)))
    arr = build_array(spec, {CellId(0, k): CellProgram(step) for k in range(2)})
    feeds = [None,
             {(0, 0): {"ain": [1], "bin": [2]}, (0, 1): {"ain": [3], "bin": [4]}}]  # ain is wired
    for feed in feeds:
        with pytest.raises(SimulationError):
            run(arr, feed, 3)
    with pytest.raises(SimulationError, match="no value on input port 'bin'"):
        run(arr, {(0, 0): {"ain": [1], "bin": [2]}}, 3)  # (0, 1) bin has no line
    with pytest.raises(SimulationError, match="'bin' are fed only by run"):
        arr.tick()
    assert calls == [] and arr.tick_count == 0  # refused before any step ran
    run(arr, {(0, 0): {"ain": [1], "bin": [2]}, (0, 1): {"bin": [4]}}, 2)
    assert calls == [0, 0, 1, 1]


def test_a_plan_is_reused_for_every_build_of_its_spec():
    calls = []

    def windows(cell):
        calls.append(cell)
        return (range(cell.col, cell.col + 6),)

    spec = linear(3, chain_wires(3, ("a",)), activation=windows, ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(3)}
    first = build_array(spec, progs)
    assert len(calls) == 3
    second = build_array(spec, progs)  # the same spec: no second plan
    assert len(calls) == 3
    assert second.plan is first.plan is spec.plan
    # other programs reuse the plan, and the array runs their steps
    negated = build_array(spec, {CellId(0, k): CellProgram(lambda state, ins, tick: (state, (-ins[0],)))
                                 for k in range(3)})
    assert len(calls) == 3
    assert run(negated, impulse_schedule(5), 8)[0][CellId(0, 2), "aout"] == [0, 0, 0, -5, 0, 0, 0, 0, 0]
    # programs with other registers reuse it too, and the array holds them
    named = build_array(spec, {CellId(0, k): CellProgram(passthrough, {"n": k}) for k in range(3)})
    assert len(calls) == 3
    assert named.plan is spec.plan
    assert named.states() == [(0,), (1,), (2,)]
    assert first.states() == [(), (), ()]
    # arrays that share a plan share no state: interleaved runs give what
    # fresh builds give
    _, tr_first = run(first, impulse_schedule(5), 4, trace=True)
    _, tr_second = run(second, impulse_schedule(9), 8, trace=True)
    _, tr_rest = run(first, impulse_schedule(5), 4, trace=True)
    assert tr_first.to_jsonl() + tr_rest.to_jsonl() == \
        run(make_chain(3, windows), impulse_schedule(5), 8, trace=True)[1].to_jsonl()
    assert tr_second.to_jsonl() == \
        run(make_chain(3, windows), impulse_schedule(9), 8, trace=True)[1].to_jsonl()


def test_interleaved_arrays_on_one_windowed_plan_run_as_fresh_builds():
    # finite windows, two of which end on the last tick of the schedule's
    # first stretch, and open-ended ones; two arrays take turns of 90 ticks
    # on one plan, the second running on after the first stops, so a turn
    # reads what the other expanded of the shared schedule or expands it
    def windows(cell):
        return (range(cell.col, 257, 2), range(500 + cell.col, sys.maxsize, 3))

    spec = linear(3, chain_wires(3, ("a",)), activation=windows, ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(3)}
    feeds = [{CellId(0, 0): {"ain": list(range(1, 700))}},
             {CellId(0, 0): {"ain": list(range(-1, -900, -1))}}]
    arrays = [build_array(spec, progs), build_array(spec, progs)]
    ends, traces = [450, 810], ["", ""]
    while arrays[1].tick_count < ends[1]:
        for k, arr in enumerate(arrays):
            if arr.tick_count < ends[k]:
                traces[k] += run(arr, feeds[k], min(90, ends[k] - arr.tick_count),
                                 trace=True)[1].to_jsonl()
    for k in range(2):
        assert traces[k] == run(make_chain(3, windows), feeds[k], ends[k], trace=True)[1].to_jsonl()
        clocked = [(t, c) for t in range(ends[k]) for c in range(3)
                   if any(t in w for w in windows(CellId(0, c)))]
        assert [(r["tick"], r["col"]) for r in map(json.loads, traces[k].splitlines())] == clocked
    # expanded a stretch at a time, only as far as the longest run
    assert ends[1] <= len(spec.plan.schedule) < ends[1] + 256


def test_a_trace_begun_mid_run_shows_what_a_whole_trace_shows():
    # traced from tick 1 on: cell 1's input was written on tick 0, before
    # the trace began, and cell 2's is not written until tick 4
    windows = lambda cell: ((range(0, 9), range(4, 9), range(2, 9))[cell.col],)
    feed = {CellId(0, 0): {"ain": list(range(5, 14))}}
    arr = make_chain(3, windows)
    run(arr, feed, 1)
    _, tail = run(arr, feed, 8, trace=True)
    _, whole = run(make_chain(3, windows), feed, 9, trace=True)
    assert tail == whole[len(whole) - len(tail):] and tail[0].tick == 1
    assert [r.inputs for r in tail if r.cell.col == 2][:4] == [{}, {}, {}, {"ain": 8}]


@pytest.mark.parametrize("order", [None, lambda cells, t: cells[::-1]])
def test_a_record_shows_an_input_from_the_tick_after_its_first_write(order):
    # cell 0 first writes aout on tick 3 and writes bout only as None; cell
    # 1 reads both, and cin from the boundary, until its step stops on tick 7
    def source(state, ins, tick, since=3):
        return state, (tick if tick >= since else None, None)

    def sink(state, ins, tick):
        if tick == 7:
            raise RuntimeError("stopped")
        return state, ()

    wires = [Wire(CellId(0, 0), p + "out", CellId(0, 1), p + "in") for p in "ab"]
    decl = (((), ("aout", "bout")), (("ain", "bin", "cin"), ()))
    spec = in_order(linear(2, wires, ports=lambda cell: decl[cell.col]), order)
    arr = build_array(spec, {CellId(0, 0): CellProgram(source), CellId(0, 1): CellProgram(sink)})
    feed = {CellId(0, 1): {"cin": [9] * 8}}
    traces = [run(arr, feed, 2, trace=True)[1], run(arr, feed, 3, trace=True)[1]]
    texts = [tr.to_jsonl() for tr in traces]
    # the traces read the same after the array runs on into a stopped run,
    # and after another array of the plan writes aout sooner
    with pytest.raises(RuntimeError, match="stopped"):
        run(arr, feed, 3, trace=True)
    early = lambda state, ins, tick: source(state, ins, tick, since=0)
    run(build_array(spec, {CellId(0, 0): CellProgram(early), CellId(0, 1): CellProgram(sink)}),
        feed, 3, trace=True)
    assert [tr.to_jsonl() for tr in traces] == texts
    assert [r.inputs for tr in traces for r in tr if r.cell.col == 1] == [
        {"cin": 9}, {"cin": 9}, {"cin": 9}, {"cin": 9}, {"ain": 3, "cin": 9}]


def test_records_are_equal_when_they_show_the_same():
    # cell 0 first writes aout on tick `since`, and cell 1 reads it
    def traced(n_ticks, since):
        def source(state, ins, tick):
            return state, (tick if tick >= since else None,)

        progs = {CellId(0, 0): CellProgram(source),
                 CellId(0, 1): CellProgram(lambda state, ins, tick: (state, ()))}
        return run(build_array(spec, progs), None, n_ticks, trace=True)[1]

    decl = (((), ("aout",)), (("ain",), ()))
    spec = linear(2, chain_wires(2, ("a",)), ports=lambda cell: decl[cell.col])
    # a 2-tick run and the first records of a 5-tick run show the same,
    # though the longer run has first written aout by its end
    short, long = traced(2, 3), traced(5, 3)
    assert short.to_jsonl() == Trace(long[:len(short)]).to_jsonl()
    assert short == long[:len(short)] and not short != long[:len(short)]
    # cell 1 reads 0 on tick 1 in both runs, but shows it only where cell 0
    # wrote that 0 on tick 0: the records differ in that input alone
    early = traced(2, 0)
    assert (short[3].tick, short[3].cell) == (early[3].tick, early[3].cell) == (1, CellId(0, 1))
    assert short[3].inputs == {} and early[3].inputs == {"ain": 0}
    assert short[3] != early[3] and not short[3] == early[3]


def test_a_built_spec_refuses_programs_of_other_cells():
    spec = linear(2, chain_wires(2, ("a",)), ports=chain_cell)
    progs = {CellId(0, k): CellProgram(passthrough) for k in range(2)}
    build_array(spec, progs)
    with pytest.raises(ConstructionError, match="without a program"):
        build_array(spec, {CellId(0, 0): CellProgram(passthrough)})
    with pytest.raises(ConstructionError, match="outside the array"):
        build_array(spec, {**progs, CellId(0, 2): CellProgram(passthrough)})
    outs, _ = run(build_array(spec, progs), impulse_schedule(3), 3)
    assert outs[CellId(0, 1), "aout"] == [0, 0, 3, 0]


def test_payload_kinds_are_fixed_per_run_on_a_shared_plan():
    spec = linear(1, ports=chain_cell)
    progs = {CellId(0, 0): CellProgram(passthrough)}

    def go(line):
        outs, _ = run(build_array(spec, progs), {CellId(0, 0): {"ain": line}}, len(line))
        return outs[CellId(0, 0), "aout"]

    with pytest.raises(SimulationError, match="int -> float"):
        go([1, 1.5])  # the kind flips mid-run
    assert go([1, 2]) == [0, 1, 2]
    # a run's first write fixes the kind for that run alone
    assert go([2.5, 3.5]) == [0, 2.5, 3.5]
    with pytest.raises(SimulationError, match="float -> int"):
        go([2.5, 3])
    with pytest.raises(SimulationError, match="int -> float"):
        go([1, 1.5])


def count(state, ins, tick):
    (n,) = state
    return (n + 1,), ()


def test_interleaved_arrays_on_one_plan_start_from_their_own_init():
    spec = linear(2)
    tens = build_array(spec, {CellId(0, k): CellProgram(count, {"n": 10 * k + 10}) for k in range(2)})
    zeros = build_array(spec, {CellId(0, k): CellProgram(count, {"m": 0}) for k in range(2)})
    assert tens.plan is zeros.plan
    for _ in range(2):
        tens.tick()
        zeros.tick()
    zeros.tick()
    assert tens.states() == [(12,), (22,)]
    assert zeros.states() == [(3,), (3,)]
    # and trace records name each array's own registers
    traced = run(tens, None, 1, trace=True)[1] + run(zeros, None, 1, trace=True)[1]
    assert [r.state for r in traced if r.cell.col == 1] == [{"n": 23}, {"m": 4}]


def test_a_build_runs_its_programs_as_they_are_now():
    # a programs dict edited after a build: the next build of the spec runs
    # the edited steps from the edited registers, as a fresh build does
    def double(state, ins, tick):
        (n,) = state
        return (2 * n,), ()

    progs = {CellId(0, 0): CellProgram(count, {"n": 0})}
    spec = linear(1)
    run(build_array(spec, progs), None, 3)
    progs[CellId(0, 0)] = CellProgram(double, {"n": 5})
    arr = build_array(spec, progs)
    run(arr, None, 3)
    assert arr.states() == [(40,)]
    fresh = build_array(linear(1), progs)
    run(fresh, None, 3)
    assert fresh.states() == arr.states()
