"""The engine's run ticks against the reference interpreter in ``ref_engine``.

A tick whose cells write one run of latch slots checks and latches their
outputs at once.  The random specs of ``test_ref_engine`` seldom make such
ticks, so these specs give every cell windows of one form, as the families
do: ranges that open one tick later and close two ticks later per cell, as
in the integer GCD pipeline; two passes over the cells on ticks of each
cell's own parity, as in the Toeplitz array; or one tick in every k from a
phase per cell, never closing.  In most arrays every port is written on
every activation, in some a port is left unwritten now and then, and one
port may switch kind.
Each scenario is checked as ``test_ref_engine`` checks its own.
"""

import sys

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import test_ref_engine as random_specs
from systolic.engine import CellId, CellProgram, Wire, grid

# windows for the cell at index k of n, from two drawn sizes a and b
FORMS = (
    lambda k, n, a, b: (range(k, 2 * k + a + 1),),
    lambda k, n, a, b: (range(k, 2 * n + a - k, 2), range(2 * n + a + k, 4 * n + 2 * a - k + 1, 2)),
    lambda k, n, a, b: (range(k % (b + 1), sys.maxsize, b + 1),),
)
# (kind, period) of an output port: period 1 writes on every activation,
# 0 never, 2 and 3 skip the ticks t with t % period == 1; the cells of most
# arrays write every port, so most runs' types equal their slots' kinds,
# and a port left unwritten is checked within its run, by the position
# walk that keeps its latched value
WHOLE = st.tuples(st.integers(0, 2), st.just(1))
ANY = st.tuples(st.integers(0, 2), st.sampled_from((1, 1, 2, 3, 0)))


@st.composite
def run_scenarios(draw):
    """(spec, per array (programs, feed), turns of (array, via, ticks, traced))."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    cells = [CellId(r, c) for r in range(rows) for c in range(cols)]
    outs = {c: tuple(f"o{k}" for k in range(draw(st.integers(1, 3)))) for c in cells}
    ins, wires, boundary = {}, [], []
    for c in cells:
        ins[c] = tuple(f"i{k}" for k in range(draw(st.integers(0, 2))))
        near = [s for s in cells if abs(s.row - c.row) <= 1 and abs(s.col - c.col) <= 1]
        for p in ins[c]:
            src = draw(st.sampled_from([None, *near, *near]))
            if src is None:
                boundary.append((c, p))
            else:
                wires.append(Wire(src, draw(st.sampled_from(outs[src])), c, p))
    form, a, b = draw(st.sampled_from(FORMS)), draw(st.integers(0, 12)), draw(st.integers(1, 3))
    windows = {c: form(k, len(cells), a, b) for k, c in enumerate(cells)}
    spec = grid(rows, cols, wires, windows.__getitem__, lambda c: (ins[c], outs[c]))
    arrays = []
    for _ in range(draw(st.integers(1, 2))):
        port = draw(st.sampled_from((WHOLE, WHOLE, WHOLE, ANY)))
        switched = draw(st.none() | st.none() | st.tuples(
            st.sampled_from(cells), st.integers(0, 2), st.integers(0, 2), st.integers(0, 40)))
        progs = {c: CellProgram(random_specs.step_of(draw(st.tuples(*[port] * len(outs[c]))),
                                               switched[1:] if switched and switched[0] == c else None),
                                {"n": draw(st.integers(0, 5)), "x": 0})
                 for c in cells}
        feed = {}
        for c, p in boundary:
            feed.setdefault(c, {})[p] = draw(random_specs.LINES)
        arrays.append((progs, feed))
    turns = draw(st.lists(st.tuples(st.integers(0, len(arrays) - 1),
                                    st.sampled_from(("run", "tick") if not boundary else ("run",)),
                                    st.integers(0, 60), st.booleans()),
                          min_size=1, max_size=3))
    return spec, arrays, turns


# no shrink phase, as in test_ref_engine
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(run_scenarios())
def test_run_ticks_run_as_the_reference_runs(scenario):
    random_specs.test_random_specs_run_as_the_reference_runs.hypothesis.inner_test(scenario)
