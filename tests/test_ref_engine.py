"""The engine against the reference interpreter in ``ref_engine``.

Random specs: grids of 1-4 by 1-6 cells, nearest-neighbour wires with
fan-out, unwired inputs fed by boundary lines of any length, and windows
that overlap, descend, never end or end on tick 255, 256 or 257, either
side of the first point where a plan's schedule is extended.  Each cell's
step writes None on some ports and may switch a port between int, float
and bool.  Several arrays of one plan, each with programs of its own, take
turns through ``run`` or a bare ``tick``, traced or not.  Every turn must
show the reference's records and output lines, and a payload-kind change
must stop both on the same tick.  Then every family's driver is replayed
on the reference.
"""

import random
import sys

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ref_engine import RefArray, Refused
from systolic import cli, eigen, engine, intgcd, polygcd, toeplitz
from systolic.engine import CellId, CellProgram, SimulationError, Trace, Wire, build_array, grid
from systolic.gfield import Field

KINDS = (int, lambda x: x + 0.5, lambda x: x % 3 == 0)  # int, float and bool payloads
ENDS = st.sampled_from((255, 256, 257))
ENDING = st.builds(lambda e, j, k, down: range(e, e - j * k - 1, -k) if down else range(e - j * k, e + 1, k),
                   ENDS, st.integers(0, 20), st.integers(1, 4), st.booleans())
WINDOWS = st.one_of(  # windows ending on tick 255, 256 or 257 are drawn twice as often
    ENDING,
    st.builds(lambda a, n, k: range(a, a + n, k),
              st.integers(0, 300), st.integers(0, 300), st.integers(1, 4)),
    st.builds(lambda a, n, k: range(a + n, a - 1, -k),  # descending
              st.integers(0, 300), st.integers(0, 300), st.integers(1, 4)),
    st.builds(lambda d, k: range(d, sys.maxsize, k), st.integers(0, 40), st.integers(1, 5)),
    ENDING,
)
LINE_VALUES = st.integers(-9, 9) | st.floats(-9, 9) | st.booleans()
LINES = st.lists(LINE_VALUES, max_size=6) | st.builds(
    lambda n, s: [(s + t) % 5 for t in range(n)], st.integers(0, 400), st.integers(0, 4))


def step_of(ports, switch):
    """A step that writes a value of each output port's kind, or None on
    the ticks its period picks; ``switch``, if not None, is (port, kind,
    tick): that port writes the other kind from that tick on.  The
    registers count the activations and keep the last value made from the
    inputs."""
    def step(state, ins, tick):
        n, _ = state
        x = (sum(int(v) for v in ins) + tick + n) % 97
        outs = tuple(None if every == 0 or tick % every == 1 else
                     KINDS[switch[1] if switch and switch[0] == k and tick >= switch[2] else kind](x + k)
                     for k, (kind, every) in enumerate(ports))
        return (n + 1, x), outs
    return step


@st.composite
def scenarios(draw):
    """(spec, per array (programs, feed), turns of (array, via, ticks, traced))."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cells = [CellId(r, c) for r in range(rows) for c in range(cols)]
    outs = {c: tuple(f"o{k}" for k in range(draw(st.integers(0, 3)))) for c in cells}
    ins, wires, boundary = {}, [], []
    for c in cells:
        ins[c] = tuple(f"i{k}" for k in range(draw(st.integers(0, 3))))
        near = [s for s in cells if abs(s.row - c.row) <= 1 and abs(s.col - c.col) <= 1 and outs[s]]
        for p in ins[c]:
            src = draw(st.sampled_from([None, *near]))
            if src is None:
                boundary.append((c, p))
            else:
                wires.append(Wire(src, draw(st.sampled_from(outs[src])), c, p))
    windows = None if draw(st.integers(0, 3)) == 0 else draw(st.fixed_dictionaries(
        {c: st.lists(WINDOWS, max_size=3).map(tuple) for c in cells}))
    spec = grid(rows, cols, wires, windows and windows.__getitem__, lambda c: (ins[c], outs[c]))
    port = st.tuples(st.integers(0, 2), st.integers(0, 4))
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.sampled_from((("n", "x"), ("m", "y"))))
        # at most one port of the array switches kind
        switched = draw(st.none() | st.tuples(st.sampled_from(cells), st.integers(0, 2),
                                               st.integers(0, 2), st.integers(0, 300)))
        progs = {c: CellProgram(step_of(draw(st.tuples(*[port] * len(outs[c]))),
                                        switched[1:] if switched and switched[0] == c else None),
                                dict(zip(names, (draw(st.integers(0, 5)), 0))))
                 for c in cells}
        feed = {}
        for c, p in boundary:
            feed.setdefault(c, {})[p] = draw(LINES)
        arrays.append((progs, feed))
    turns = draw(st.lists(st.tuples(st.integers(0, len(arrays) - 1),
                                    st.sampled_from(("run", "tick") if not boundary else ("run",)),
                                    st.integers(0, 40) | st.integers(257, 300), st.booleans()),
                          min_size=1, max_size=4))
    return spec, arrays, turns


def shown(records):
    """Each record's (tick, cell, state, inputs, outputs), as text, so that
    True and 1, or 1 and 1.0, differ."""
    return [repr((r.tick, r.cell, r.state, r.inputs, r.outputs)) for r in records]


def engine_turn(arr, feed, via, n_ticks, traced):
    """A turn on the engine: (output lines or None, records)."""
    if via == "run":
        outs, tr = engine.run(arr, feed, n_ticks, trace=traced)
        return outs, list(tr)
    tr = Trace() if traced else None
    for _ in range(n_ticks):
        arr.tick(tr)
    return None, list(tr or ())


def ref_turn(ref, feed, via, n_ticks, traced):
    """The same turn on the reference."""
    if via == "run":
        outs, records = ref.run(feed, n_ticks)
    else:
        outs, records = None, [r for _ in range(n_ticks) for r in ref.tick({})]
    return outs, records if traced else []


# no shrink phase: a failure is reported on the example that found it, in
# seconds, where shrinking these large examples takes minutes
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(scenarios())
def test_random_specs_run_as_the_reference_runs(scenario):
    spec, arrays, turns = scenario
    built = [build_array(spec, progs) for progs, _ in arrays]
    refs = [RefArray(spec, progs) for progs, _ in arrays]
    stopped = set()
    for k, via, n_ticks, traced in turns:
        if k in stopped:
            continue
        feed = arrays[k][1]
        try:
            want = ref_turn(refs[k], feed, via, n_ticks, traced)
        except Refused as refused:
            stopped.add(k)
            try:
                engine_turn(built[k], feed, via, n_ticks, traced)
            except SimulationError:
                assert built[k].tick_count == refused.tick
            else:
                raise AssertionError(f"no SimulationError on tick {refused.tick}")
            continue
        outs, records = engine_turn(built[k], feed, via, n_ticks, traced)
        assert shown(records) == shown(want[1])
        assert repr(outs) == repr(want[0])
        assert built[k].tick_count == refs[k].t
        assert built[k].states() == [refs[k].state[c] for c in refs[k].cells]


def test_every_family_replays_on_the_reference(monkeypatch):
    # each family's traced runs, polygcd and intgcd fed through run, and
    # Toeplitz and delayed Jacobi past the schedule's first stretch
    built = []
    for module in (polygcd, intgcd, toeplitz, eigen):
        def building(spec, programs, real=module.build_array):
            built.append((spec, programs))
            return real(spec, programs)
        monkeypatch.setattr(module, "build_array", building)
    real_run = engine.run
    replayed = []

    def replaying(array, feed, n_ticks, trace=False):
        outs, tr = real_run(array, feed, n_ticks, trace=True)
        ref_outs, records = RefArray(*built[-1]).run(feed, n_ticks)
        assert shown(tr) == shown(records) and repr(outs) == repr(ref_outs)
        replayed.append(len(records))
        return outs, tr

    monkeypatch.setattr(engine, "run", replaying)
    for variant in polygcd.VARIANTS:
        polygcd.systolic_poly_gcd(Field(7), [2, 1, 5, 1, 6, 1, 6, 2], [5, 6, 3, 0, 5, 5, 2], variant)
    intgcd.systolic_int_gcd(46563, 31276, 16)
    toeplitz.systolic_toeplitz_solve(cli.gen_toeplitz(random.Random(3), 66))
    m = np.random.default_rng(16).standard_normal((16, 16))
    report = eigen.run_sweeps(m + m.T, mode="delayed", trace=True).report
    ref = RefArray(*built[-1])
    records = [r for _ in range(report.ticks) for r in ref.tick({})]
    assert report.ticks > 256 and shown(report.trace) == shown(records)
    assert len(replayed) == 4 and all(replayed)
