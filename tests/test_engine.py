"""Engine kernel: construction checks, two-phase timing, determinism."""

import dataclasses
import functools
import gc
import json
import random
import sys

import numpy as np
import pytest

import figures
from test_golden_traces import A, B

from systolic import cli, eigen, engine, intgcd, polygcd, toeplitz
from systolic.engine import (
    CellId,
    CellProgram,
    ConstructionError,
    SimulationError,
    Trace,
    Wire,
    build_array,
    chain_ports,
    chain_wires,
    linear,
    grid,
    run,
    to_jsonl,
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
    always-on one, so that its ticks are schedule entries and not its
    plan's rest entry.  None keeps the plan's order."""
    if order is None:
        return spec
    if spec.activation is None:
        spec = dataclasses.replace(spec, activation=lambda cell: (range(sys.maxsize),))
    plan = spec.plan
    expand = plan.expand

    def permuted(tick):
        lo = len(plan.schedule)
        entry = expand(tick)
        for t in range(lo, len(plan.schedule)):
            on = tuple(order(list(plan.schedule[t][0]), t))
            # a tick's cells write one run of slots only in the layout's order
            plan.schedule[t] = (on, plan.run_of(on))
        return plan.schedule[tick] if tick < len(plan.schedule) else entry

    plan.expand = permuted
    return spec


def by_cell(trace):
    """The records of ``trace`` in cell order within each tick."""
    return sorted(trace, key=lambda r: (r.tick, r.cell))


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
    with pytest.raises(ValueError, match="n_ticks must be >= 0"):
        run(arr, impulse_schedule(), -1)
    assert arr.tick_count == 0


def test_rerun_identical_traces():
    def go():
        arr = make_chain(4)
        _, tr = run(arr, impulse_schedule(), 9, trace=True)
        return to_jsonl(tr)

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
        return outs, to_jsonl(by_cell(tr))

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


def test_every_schedule_lists_a_tick_s_cells_in_ascending_order():
    # a tick's records come out in the order its cells are stepped, so only
    # the schedule's order keeps them in cell order; every family's plan is
    # checked after its runs, past the 256-tick stretch boundary where
    # windows reach it
    arrays = {}
    with figures.counted_arrays() as arrays["polygcd"]:
        for variant in polygcd.VARIANTS:
            polygcd.systolic_poly_gcd(Field(7), [6, 5, 1, 2], [3, 0, 1], variant)
    with figures.counted_arrays() as arrays["intgcd"]:
        intgcd.systolic_int_gcd(132, 36, 8)
    rng = random.Random(4)
    with figures.counted_arrays() as arrays["toeplitz"]:
        for n in range(64, 86):  # 4n ticks, from 256 to 340
            toeplitz.systolic_toeplitz_solve(cli.gen_toeplitz(rng, n), trace=False)
    m = np.random.default_rng(16).standard_normal((16, 16))
    with figures.counted_arrays() as arrays["eigen"]:
        assert eigen.run_sweeps(m + m.T, mode="delayed").report.ticks > 256
    # polynomial GCD chains have no windows: every tick reads the rest
    # entry, which steps range(cells), and the schedule stays empty
    assert all(arr.plan.schedule == [] and arr.plan.rest[0] == range(len(arr.plan.cells))
               for arr in arrays["polygcd"])
    assert len(arrays["polygcd"]) == 2
    longest = {}
    for name in ("intgcd", "toeplitz", "eigen"):
        for arr in arrays[name]:
            schedule = arr.plan.schedule
            assert all(a < b for on, _ in schedule for a, b in zip(on, on[1:]))
            longest[name] = max(longest.get(name, 0), len(schedule))
    assert longest["toeplitz"] > 256 and longest["eigen"] > 256


def test_each_distinct_tick_keeps_one_schedule_entry(monkeypatch):
    # a periodic schedule meets its ticks again in every 256-tick stretch
    # (Toeplitz parities alternate, delayed Jacobi repeats every 3 ticks),
    # and equal ticks share one entry whichever stretch made them; each
    # family runs once on a fresh plan of its own
    for module, cache in ((toeplitz, "_toeplitz_inputs"), (eigen, "_delayed_inputs"),
                          (intgcd, "_gcd_pipeline")):
        monkeypatch.setattr(module, cache, getattr(module, cache).__wrapped__)
    expected = {"Toeplitz, n = 128": 130, "delayed Jacobi, n = 32": 16, "intgcd, n = 64": 338}
    for name, (ticks, entries, distinct) in figures.schedule_entries(expected).items():
        assert ticks > 256, name
        assert distinct == entries == expected[name], name


def test_trace_jsonl_fields_and_rendering():
    def cell(state, ins, tick):
        return (True, 3, 0.5), ins

    spec = linear(1, ports=chain_cell)
    arr = build_array(spec, {CellId(0, 0): CellProgram(cell, {"flag": False, "count": 0, "x": 0.0})})
    _, tr = run(arr, {CellId(0, 0): {"ain": [7]}}, 1, trace=True)
    line = to_jsonl(tr).splitlines()[0]
    rec = json.loads(line)
    assert set(rec) == {"tick", "row", "col", "state", "in", "out"}
    # registers are dumped as they are: a bool stays a JSON bool
    assert '"state":{"flag":true,"count":3,"x":0.5}' in line
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


@pytest.mark.parametrize("ports, what", [((("ain", "ain"), ("aout",)), "input"),
                                         ((("ain",), ("aout", "bout", "aout")), "output")])
def test_a_port_declared_twice_raises(ports, what):
    spec = linear(2, ports=lambda cell: ports)
    with pytest.raises(ConstructionError, match=f"cell \\(0, 0\\) declares an {what} port twice"):
        build_array(spec, {CellId(0, k): CellProgram(passthrough) for k in range(2)})


def test_none_output_keeps_latch_and_is_untraced():
    # cell 0 writes its wired port on even ticks and its boundary port on
    # odd: each port holds its last write, whether a wire or run reads it
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
    assert outs[(0, 0), "bout"] == [0, 0, 11, 11, 13, 13]
    # a later run shows the port as it finds it at its first tick, and 0
    # before that
    assert run(arr, None, 2)[0][(0, 0), "bout"] == [0] * 5 + [13, 15, 15]


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


# which of five ports a writer cell writes, by tick mod 4: two patterns of
# two runs each (one run ends at the last port), none of them, all of them
FIVE_PORTS = ((1, 0, 1, 1, 0), (0, 1, 0, 1, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1))
FIVE = tuple(f"p{k}" for k in range(5))


def five_port_array(writer):
    """Cell 0 steps ``writer`` on five outputs, all wired to cell 1, whose
    register holds the five inputs it read last."""
    ins, outs = chain_ports(FIVE)
    spec = linear(2, chain_wires(2, FIVE),
                  ports=lambda cell: ((), outs) if cell.col == 0 else (ins, ()))
    return build_array(spec, {CellId(0, 0): CellProgram(writer),
                              CellId(0, 1): CellProgram(lambda state, ins, tick: ((ins,), ()),
                                                        {"seen": ()})})


def five_port_writer(state, ins, tick):
    # port k writes 10 (t + 1) + k on tick t, a value no other write repeats
    return state, tuple(10 * (tick + 1) + k if on else None
                        for k, on in enumerate(FIVE_PORTS[tick % 4]))


def test_a_partial_output_pattern_writes_only_its_ports():
    arr = five_port_array(five_port_writer)
    tr = Trace()
    seen = []
    for _ in range(9):
        arr.tick(tr)
        seen.append(arr.states()[1][0])
    # what cell 1 read on ticks 0-8: the latches after ticks -1 to 7
    assert seen == [(0, 0, 0, 0, 0),
                    (10, 0, 12, 13, 0),
                    (10, 21, 12, 23, 24),
                    (10, 21, 12, 23, 24),
                    (40, 41, 42, 43, 44),
                    (50, 41, 52, 53, 44),
                    (50, 61, 52, 63, 64),
                    (50, 61, 52, 63, 64),
                    (80, 81, 82, 83, 84)]
    assert [r.outputs for r in tr if r.cell.col == 0] == [
        {"p0out": 10, "p2out": 12, "p3out": 13},
        {"p1out": 21, "p3out": 23, "p4out": 24},
        {},
        {"p0out": 40, "p1out": 41, "p2out": 42, "p3out": 43, "p4out": 44},
        {"p0out": 50, "p2out": 52, "p3out": 53},
        {"p1out": 61, "p3out": 63, "p4out": 64},
        {},
        {"p0out": 80, "p1out": 81, "p2out": 82, "p3out": 83, "p4out": 84},
        {"p0out": 90, "p2out": 92, "p3out": 93}]


def test_a_kind_change_inside_a_partial_pattern_raises_on_its_tick():
    # on tick 5, the second run of (None, v, None, v, v) carries a float
    def writer(state, ins, tick):
        state, outs = five_port_writer(state, ins, tick)
        return state, (outs[:3] + (outs[3] + 0.5, outs[4]) if tick == 5 else outs)

    arr = five_port_array(writer)
    for _ in range(5):
        arr.tick()
    with pytest.raises(SimulationError) as err:
        arr.tick()
    assert arr.tick_count == 5
    assert str(err.value) == ("port (CellId(row=0, col=0), 'p3out') "
                              "changed payload kind int -> float")


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
    assert to_jsonl(tr_first) + to_jsonl(tr_rest) == \
        to_jsonl(run(make_chain(3, windows), impulse_schedule(5), 8, trace=True)[1])
    assert to_jsonl(tr_second) == \
        to_jsonl(run(make_chain(3, windows), impulse_schedule(9), 8, trace=True)[1])


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
                traces[k] += to_jsonl(run(arr, feeds[k], min(90, ends[k] - arr.tick_count),
                                          trace=True)[1])
    for k in range(2):
        assert traces[k] == to_jsonl(run(make_chain(3, windows), feeds[k], ends[k], trace=True)[1])
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
    assert records(tail) == records(whole)[len(whole) - len(tail):] and records(tail)[0][0] == 1
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
    texts = [to_jsonl(tr) for tr in traces]
    # the traces read the same after the array runs on into a stopped run,
    # and after another array of the plan writes aout sooner
    with pytest.raises(RuntimeError, match="stopped"):
        run(arr, feed, 3, trace=True)
    early = lambda state, ins, tick: source(state, ins, tick, since=0)
    run(build_array(spec, {CellId(0, 0): CellProgram(early), CellId(0, 1): CellProgram(sink)}),
        feed, 3, trace=True)
    assert [to_jsonl(tr) for tr in traces] == texts
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
    short, long = list(traced(2, 3)), list(traced(5, 3))
    assert to_jsonl(short) == to_jsonl(long[:len(short)])
    assert short == long[:len(short)] and not short != long[:len(short)]
    assert records(short) == records(long)[:len(short)]
    # cell 1 reads 0 on tick 1 in both runs, but shows it only where cell 0
    # wrote that 0 on tick 0: the records differ in that input alone
    early = list(traced(2, 0))
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
    traced = [*records(run(tens, None, 1, trace=True)[1]),
              *records(run(zeros, None, 1, trace=True)[1])]
    assert [state for _, cell, state, _, _ in traced if cell.col == 1] == [{"n": 23}, {"m": 4}]


def test_a_trace_holds_one_array_s_run():
    # b shares a's plan; handed the trace a wrote, b's tick refuses it
    # before any of b's cells steps
    calls = []

    def counted(state, ins, tick):
        calls.append(tick)
        return count(state, ins, tick)

    spec = linear(2)
    a = build_array(spec, {CellId(0, k): CellProgram(count, {"n": 0}) for k in range(2)})
    b = build_array(spec, {CellId(0, k): CellProgram(counted, {"n": 0}) for k in range(2)})
    tr = Trace()
    a.tick(tr)
    a.tick(tr)
    b.tick()
    kept = records(tr)
    with pytest.raises(SimulationError, match="tick 1: the trace holds another array's run"):
        b.tick(tr)
    assert calls == [0, 0] and b.tick_count == 1 and b.states() == [(1,), (1,)]
    assert records(tr) == kept and len(kept) == 4
    # a writes on into its own trace
    a.tick(tr)
    assert [t for t, *_ in records(tr)] == [0, 0, 1, 1, 2, 2]


def test_untraced_runs_of_one_input_give_equal_results():
    # a result's trace is left out of its comparison
    assert polygcd.systolic_poly_gcd(Field(7), A, B, "appA") == \
        polygcd.systolic_poly_gcd(Field(7), A, B, "appA")
    assert intgcd.systolic_int_gcd(46563, 31276, 16) == intgcd.systolic_int_gcd(46563, 31276, 16)
    a = cli.gen_symmetric(random.Random(1), 8)
    assert eigen.run_sweeps(a, mode="delayed").report == eigen.run_sweeps(a, mode="delayed").report
    # and a delayed run's report, whose trace is None untraced, whether traced or not
    assert eigen.run_sweeps(a, mode="delayed", trace=True).report == \
        eigen.run_sweeps(a, mode="delayed").report


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


def toeplitz_trace(n=32, seed=1):
    return toeplitz.systolic_toeplitz_solve(cli.gen_toeplitz(random.Random(seed), n)).trace


# one run per family, traced or not: engine.run under the three drivers
# that use it, and delayed Jacobi's tick-by-tick Array.tick(trace)
RUNS = {
    "intgcd": lambda trace: intgcd.systolic_int_gcd(46563, 31276, 16, trace=trace),
    "polygcd": lambda trace: polygcd.systolic_poly_gcd(Field(7), A, B, "appA",
                                                       trace=trace),
    "toeplitz": lambda trace: toeplitz.systolic_toeplitz_solve(
        cli.gen_toeplitz(random.Random(1), 32), trace=trace),
    "eigen-delayed": lambda trace: eigen.run_sweeps(cli.gen_symmetric(random.Random(1), 8),
                                                    mode="delayed", trace=trace),
}


def traced(family):
    """The trace of a traced run of ``family``."""
    result = RUNS[family](True)
    return getattr(result, "report", result).trace


TRACED = {family: functools.partial(traced, family) for family in RUNS}


def tracked_objects_added(make):
    """A kept result of ``make()`` and the objects the cyclic collector
    tracks beyond those before it, after one collection; the first call
    fills the drivers' caches."""
    make()
    gc.collect()
    before = len(gc.get_objects())
    kept = make()
    gc.collect()
    return kept, len(gc.get_objects()) - before


@pytest.mark.parametrize("family", sorted(TRACED))
def test_a_kept_trace_leaves_the_collector_little_to_track(family):
    tr, added = tracked_objects_added(TRACED[family])
    assert len(tr) > 90 and added < len(tr) / 10


def records(tr):
    return [(r.tick, r.cell, r.state, r.inputs, r.outputs) for r in tr]


@pytest.mark.parametrize("family", sorted(TRACED))
def test_a_trace_reads_the_same_every_time(family):
    tr = TRACED[family]()
    assert list(tr) == list(tr) and records(tr) == records(tr)
    assert to_jsonl(tr) == to_jsonl(tr)
    # two arrays on one plan that show the same records give equal records
    again = TRACED[family]()
    assert again is not tr and list(again) == list(tr) and records(again) == records(tr)
    assert to_jsonl(again) == to_jsonl(tr)


def test_activations_list_each_cell_s_ticks():
    tr = toeplitz_trace(4)
    ticks = {}
    for r in tr:
        ticks.setdefault(r.cell, []).append(r.tick)
    assert tr.activations() == ticks and len(ticks) == 5
    # a system of the same order runs on the same windows
    assert toeplitz_trace(4, seed=2).activations() == ticks
    assert Trace().activations() == {}


def exact(v):
    """``v`` with each float as its hex form and each numpy array as its
    dtype, shape and bytes, so that two values are equal only bit for bit;
    a result's trace is left out."""
    if dataclasses.is_dataclass(v):
        return {f.name: exact(getattr(v, f.name)) for f in dataclasses.fields(v)
                if f.name != "trace"}
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, (list, tuple)):
        return [exact(x) for x in v]
    return v


@pytest.mark.parametrize("family", sorted(RUNS))
def test_tracing_is_pure_observation(family, monkeypatch):
    # a traced and an untraced run of one input give the same results, and
    # every array they build ends with the same registers, bit for bit
    built = []

    class Kept(engine.Array):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(engine, "Array", Kept)
    seen = []
    for trace in (True, False):
        built.clear()
        result = RUNS[family](trace)
        seen.append((exact(result), [exact(arr.states()) for arr in built]))
    assert seen[0] == seen[1] and seen[0][1]


def test_a_tick_that_raises_keeps_the_records_of_the_cells_stepped_before():
    # three chained counters; cell 1 writes a float in place of its int on
    # tick 2, after cell 0 has stepped
    def counter(flip):
        def step(state, ins, tick):
            (n,) = state
            return (n + 1,), (n + 1.5 if tick == flip else n + 1,)
        return step

    spec = linear(3, chain_wires(3, ("a",)),
                  ports=lambda cell: (("ain",) if cell.col else (), ("aout",)))

    def array(flip):
        return build_array(spec, {CellId(0, k): CellProgram(counter(flip if k == 1 else None),
                                                            {"n": 0}) for k in range(3)})

    steady, flips = array(None), array(2)
    whole, cut = Trace(), Trace()
    for _ in range(3):
        steady.tick(whole)
    flips.tick(cut)
    flips.tick(cut)
    latch = list(flips._latch)
    with pytest.raises(SimulationError, match="col=1.*'aout'.*int -> float"):
        flips.tick(cut)
    # every cell stepped: each keeps its registers and its record, cell 1's
    # showing the float it wrote, and no latch is written
    kept = records(cut)
    assert len(cut) == len(kept) == 9
    assert kept[:7] == records(whole)[:7] and kept[8] == records(whole)[8]
    assert kept[7][:2] == (2, CellId(0, 1)) and kept[7][4] == {"aout": 3.5}
    assert flips.states() == steady.states() and flips._latch == latch and flips.tick_count == 2
    assert [json.loads(line)["tick"] for line in to_jsonl(cut).splitlines()] == [0] * 3 + [1] * 3 + [2] * 3


def test_a_kept_traced_toeplitz_solve_holds_under_300_bytes_a_record():
    # a flat row tuple per record held 317 B a record, two flat lists per
    # trace hold 282 (tracemalloc, Python 3.11)
    records, _, per_record = figures.kept_toeplitz_trace()
    assert records == 16641 and per_record < 300


# Every tick steps all its cells, then checks and latches their outputs.
# A tick whose cells write one run of latch slots, in the plan's layout,
# with the plan's output counts, checks them as one run; any other tick
# checks each cell as its own run.  Each test below runs one scenario both
# ways, as the plan gives its ticks and with a plan that records no run,
# and must see the same.

def cell_by_cell(spec):
    """``spec``, its plan made to record no run for any tick, so that every
    tick checks and latches cell by cell."""
    plan = spec.plan
    plan.rest = (plan.rest[0], None)
    expand = plan.expand

    def expand_without_runs(tick):
        on, _ = expand(tick)
        plan.schedule[:] = [(on, None) for on, _ in plan.schedule]
        return on, None

    plan.expand = expand_without_runs
    return spec


def quirky(col, quirk):
    """A counter cell whose two outputs carry ints made from its inputs,
    its count and the tick, as ``quirk(col, tick, outs)`` changes them."""
    def step(state, ins, tick):
        (n,) = state
        x = n + tick + 10 * col + sum(int(v) for v in ins)
        return (n + 1,), quirk(col, tick, (x, x + 1))
    return step


def quirky_chain(windows=None):
    """The spec of a 4-cell chain of ``quirky`` cells."""
    return linear(4, chain_wires(4, ("a", "b")), activation=windows,
                  ports=lambda cell: chain_ports(("a", "b")) if cell.col else ((), ("aout", "bout")))


def both_ways(quirk, n_ticks=6, traced_from=0, windows=None, every_tick_a_run=True):
    """A 4-cell chain of ``quirky`` cells run as its plan gives its ticks
    (every clocked tick a run tick unless ``every_tick_a_run`` is false)
    and cell by cell: the error (type and message), tick count, kept
    records, latches, kinds and first-write ticks of each, and its
    registers if nothing failed."""
    seen = []
    for one_run in (True, False):
        spec = quirky_chain(windows)
        if not one_run:
            spec = cell_by_cell(spec)
        arr = build_array(spec, {CellId(0, k): CellProgram(quirky(k, quirk), {"n": 0})
                                 for k in range(4)})
        tr, err = Trace(), None
        try:
            for t in range(n_ticks):
                arr.tick(tr if t >= traced_from else None)
        except Exception as e:
            err = (type(e), str(e))
        plan = arr.plan
        runs = [r for on, r in [*plan.schedule, plan.rest] if on]
        assert all(r is not None for r in runs) == (one_run and every_tick_a_run)
        assert one_run or not any(runs)
        seen.append((err, arr.tick_count, to_jsonl(tr), arr._latch, arr._kinds, arr._first,
                     arr.states() if err is None else None))
    assert seen[0] == seen[1]
    return seen[0]


def test_a_run_tick_fixes_first_writes_as_cell_by_cell():
    # cell k joins on tick k, so ticks 1-3 mix first writes with rewrites
    def joining(cell):
        return (range(cell.col, 9),)

    plain = lambda col, tick, outs: outs
    for traced_from in (0, 2, 5):
        err, ticks, jsonl, _, _, first, _ = both_ways(plain, 9, traced_from, joining)
        assert err is None and ticks == 9
        assert first[:8] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert len(jsonl.splitlines()) == sum(min(4, t + 1) for t in range(traced_from, 9))
    # a record shows an input from the tick after its source's first write
    _, _, jsonl, *_ = both_ways(plain, 3, 0, joining)
    assert [json.loads(line)["in"] for line in jsonl.splitlines()] == [
        {}, {}, {"ain": 0, "bin": 1}, {}, {"ain": 2, "bin": 3}, {"ain": 12, "bin": 13}]


def test_a_kind_change_in_a_run_tick_raises_as_cell_by_cell():
    def floats(col, tick, outs):
        return (outs[0], outs[1] + 0.5) if col == 2 and tick == 3 else outs

    err, ticks, jsonl, *_ = both_ways(floats)
    assert err == (SimulationError,
                   "port (CellId(row=0, col=2), 'bout') changed payload kind int -> float")
    assert ticks == 3 and [json.loads(line)["tick"] for line in jsonl.splitlines()][-2:] == [3, 3]


@pytest.mark.parametrize("counts", [{1: 1}, {1: 3, 2: 1}])
def test_a_wrong_output_count_in_a_run_tick_raises_as_cell_by_cell(counts):
    # one cell short, or one cell long and the next short by as many
    def miscounted(col, tick, outs):
        return (outs * 2)[:counts[col]] if tick == 2 and col in counts else outs

    err, ticks, jsonl, *_ = both_ways(miscounted)
    assert err[0] is SimulationError and err[1].startswith("cell (0, 1) tick 2: ")
    assert ticks == 2 and len(jsonl.splitlines()) == 12


@pytest.mark.parametrize("hole", [0, 3])
def test_a_none_output_in_a_run_tick_is_latched_as_cell_by_cell(hole):
    # cell 2 leaves its second port unwritten on its first tick or a later one
    def holding(col, tick, outs):
        return (outs[0], None) if col == 2 and tick == hole else outs

    err, ticks, jsonl, _, kinds, first, _ = both_ways(holding)
    assert err is None and ticks == 6 and all(kind is int for kind in kinds)
    assert first[:8] == [0] * 5 + [int(hole == 0)] + [0] * 2
    assert list(json.loads(jsonl.splitlines()[4 * hole + 2])["out"]) == ["aout"]


def test_a_kind_change_in_a_tick_of_scattered_cells_raises_as_cell_by_cell():
    # cells 0 and 2 run on every tick, 1 and 3 on even ones, so the layout
    # puts 0 and 2 side by side: an odd tick writes one run, an even one
    # clocks cells whose slots are not adjacent, as delayed Jacobi's do
    def scattered(cell):
        return (range(0, 9, 1 + cell.col % 2),)

    plan = quirky_chain(scattered).plan
    plan.expand(0)
    assert plan.schedule[1][1] is not None and plan.schedule[2] == ((0, 1, 2, 3), None)

    def floats(col, tick, outs):
        return (outs[0] + 0.5, outs[1]) if col == 2 and tick == 4 else outs

    err, ticks, jsonl, _, kinds, first, _ = both_ways(floats, 9, 0, scattered, False)
    assert err == (SimulationError,
                   "port (CellId(row=0, col=2), 'aout') changed payload kind int -> float")
    assert ticks == 4 and all(kind is int for kind in kinds) and first[:8] == [0] * 8
    # ticks 0-3 clock 4, 2, 4 and 2 cells; the refused tick 4 keeps all 4
    assert [json.loads(line)["tick"] for line in jsonl.splitlines()] == (
        [0] * 4 + [1] * 2 + [2] * 4 + [3] * 2 + [4] * 4)
    # without the kind change the run ends as cell by cell, registers too
    err, ticks, *_, states = both_ways(lambda col, tick, outs: outs, 9, 0, scattered, False)
    assert err is None and ticks == 9 and [n for (n,) in states] == [9, 5, 9, 5]


def test_a_step_that_raises_after_a_kind_change_raises_its_own_error():
    def stopping(col, tick, outs):
        if tick == 2 and col == 3:
            raise ZeroDivisionError("cell 3 stopped")
        return outs

    def failing(col, tick, outs):
        outs = stopping(col, tick, outs)
        return (outs[0] + 0.5, outs[1]) if tick == 2 and col == 1 else outs

    # no output is checked once a step has raised, so the kind change of an
    # earlier cell is neither reported nor fixed; the trace keeps the
    # records of the cells that stepped
    for quirk in (failing, stopping):
        err, ticks, jsonl, _, kinds, *_ = both_ways(quirk)
        assert err == (ZeroDivisionError, "cell 3 stopped") and ticks == 2
        assert len(jsonl.splitlines()) == 11 and all(kind is int for kind in kinds)


@pytest.mark.parametrize("joins", [0, 3])
def test_a_refused_tick_fixes_no_kind_or_first_write_tick(joins):
    # cell 1 first writes on tick ``joins``, and on that tick cell 2 is
    # refused: for three outputs on its first tick, or for a kind change
    def joining(cell):
        return (range(joins if cell.col == 1 else 0, 9),)

    def refused(col, tick, outs):
        if col != 2 or tick != joins:
            return outs
        return outs + outs[:1] if joins == 0 else (outs[0] + 0.5, outs[1])

    err, ticks, _, latch, kinds, first, _ = both_ways(refused, 9, 0, joining, joins == 0)
    assert err[0] is SimulationError and ticks == joins
    # the slots unwritten before the refused tick, cell 1's 2 and 3 among
    # them, are left without a kind, a first-write tick or a value
    unset = [k for k in range(8) if joins == 0 or k in (2, 3)]
    assert [k for k, kind in enumerate(kinds) if kind is None] == unset
    assert [k for k in range(8) if first[k] == sys.maxsize] == unset
    assert [latch[k] for k in unset] == [0] * len(unset)


def test_each_family_s_ticks_write_one_slot_run_but_delayed_jacobi_s():
    # a slot layout that splits a tick's cells, or a run check that refuses
    # a clean tick, would only slow these runs, so both are pinned here:
    # none of their clocked ticks is checked cell by cell, which returns a
    # write per cell where a run returns one.  Delayed Jacobi's ramp ticks
    # clock cells whose slots are not adjacent, so those alone are checked
    # cell by cell
    with figures.counted_arrays() as built:
        for variant in polygcd.VARIANTS:
            polygcd.systolic_poly_gcd(Field(7), A, B, variant)
        intgcd.systolic_int_gcd(46563, 31276, 16)
        toeplitz.systolic_toeplitz_solve(cli.gen_toeplitz(random.Random(1), 32))
    assert len(built) == 4
    for arr in built:
        plan = arr.plan
        if not plan.schedule:
            assert plan.rest == (range(len(plan.cells)), slice(0, plan.n_out))
        else:
            assert all(r is not None for on, r in plan.schedule[:arr.tick_count] if on)
        assert arr.tick_count > 20 and arr.split == 0
    a = cli.gen_symmetric(random.Random(1), 8)
    with figures.counted_arrays() as built:
        eigen.run_sweeps(a, mode="delayed")
    arr = built[-1]
    schedule = arr.plan.schedule[:arr.tick_count]
    assert sum(bool(on) for on, _ in schedule) == 106 and schedule[0][1] is None
    assert arr.split == sum(bool(on) and r is None for on, r in schedule) == 1
