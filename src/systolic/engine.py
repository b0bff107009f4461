"""Synchronous two-phase simulation kernel for 1-D and 2-D cell arrays.

Cells are pure step functions ``step(state, ins, tick) -> (state, outs)``
clocked in lockstep.  ``state`` is a tuple of registers in the key order of
the program's ``init`` dict; ``ins`` and ``outs`` are tuples in the order in
which the spec's ``ports(cell)`` declares the cell's input and output ports.
A ``None`` in ``outs`` leaves that port as it was.  Constants a cell needs,
such as its position, are bound into its step when the array is built.

Outputs written at tick T become readable by wired neighbours at tick T+1
and stay latched until overwritten (registered outputs), so the order of
the cells within one tick can never change the result: a tick steps them
in the plan's schedule order, cell order.  A wired input reads 0 until its
source first writes it.  A declared input without a wire is a boundary
input, a declared output without a wire a boundary output.

``run`` is the one way in and out at the boundary: it feeds every boundary
input from an input line, ``{cell: {port: sequence}}``, on tick t the value
``line[t]`` (0 once the line has run out), and returns every boundary
output as an output line, indexed the same way by the array's own tick.
It binds the input lines once and hands them to each tick it runs, so an
array keeps no lines between runs: ``Array.tick`` on its own is a bare
clock for an array without boundary inputs.

A spec may declare each cell's activity windows: tick ranges outside which
the cell is not clocked (its state stays as it is and it leaves no trace
record).  The windows, which may be open-ended, are read once, on the
spec's first build, and the plan expands them into a schedule a stretch of
ticks at a time, only as far as a run reaches, so a tick visits only the
cells that run on it.

A build has two parts.  Its :class:`Plan` is what the spec fixes: cells,
ports, latch slots, input gathers, output spans, boundary slots and the
schedule, which every array of the plan shares and which grows only as far
as the longest run so far.  Its :class:`Array` holds one run: steps and
registers, taken from the programs it is built with, and latches, each
written slot's first-write tick (which decides the inputs a trace record
shows) and payload kind, the output type patterns each cell has shown and
the tick count.  A spec makes its plan once, on first use, and keeps it as
``spec.plan``, whatever programs it is built with: like the fixed hardware,
one wiring serves every operand, and only what each operand loads into the
cells changes.  A spec made with ``dataclasses.replace`` is a new spec with
a plan of its own.  Specs and plans also share their equal parts: a
position's ``CellId``, a pipeline's links and a cell's gather and output
span are each made once (in bounded caches), so plans of pipelines of many
lengths cost little more than the longest.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence


class ConstructionError(ValueError):
    """Raised for malformed array specs (bad wires, missing programs)."""


class SimulationError(RuntimeError):
    """Raised when a step cannot run (e.g. missing boundary input)."""


class CellId(NamedTuple):
    row: int
    col: int


# the one CellId of each position, shared by every spec and plan that names it
_cell = functools.lru_cache(maxsize=4096)(CellId)


class Wire(NamedTuple):
    src: CellId
    src_port: str
    dst: CellId
    dst_port: str


# step: (state, ins, tick) -> (state, outs), all three tuples positional
StepFn = Callable[[tuple, tuple, int], tuple[tuple, tuple]]


@dataclass(frozen=True)
class CellProgram:
    step: StepFn
    init: Mapping[str, Any] = field(default_factory=dict)


# activation: cell -> the tick ranges in which that cell is clocked
WindowFn = Callable[[CellId], tuple[range, ...]]
# ports: cell -> (input port names, output port names), in step order
PortsFn = Callable[[CellId], tuple[Sequence[str], Sequence[str]]]


@dataclass(frozen=True)
class ArraySpec:
    """Topology plus wiring plus activity windows plus port declarations.

    topology is ("grid", rows, cols); a linear array is a one-row grid.
    Wiring must be nearest-neighbour: |drow| <= 1 and |dcol| <= 1 (diagonal
    links allowed).  Each destination port has exactly one source; one
    source port may fan out.  Every wired port must be declared.

    activation maps a cell to a tuple of ``range`` windows of non-negative
    ticks; the cell is clocked on every tick that lies in one of them, and
    on no other.  It is called once per cell when the plan is built.  A
    window may be open-ended, ``range(d, sys.maxsize, 3)`` say, since only
    the ticks that run are expanded.  None clocks every cell on every tick.

    ports maps a cell to its input and output port names, in the order its
    step takes and returns them.  None declares no ports.
    """

    topology: tuple
    wiring: tuple[Wire, ...] = ()
    activation: WindowFn | None = None
    ports: PortsFn | None = None

    @functools.cached_property
    def plan(self) -> Plan:
        """The spec's plan, made on first use and kept with the spec, so a
        spec may not change after it; a replaced spec makes its own."""
        return Plan(self)

    def cells(self) -> list[CellId]:
        _, rows, cols = self.topology
        return [_cell(r, c) for r in range(rows) for c in range(cols)]


def grid(rows: int, cols: int, wiring: Iterable[Wire] = (), activation=None,
         ports=None) -> ArraySpec:
    return ArraySpec(("grid", rows, cols), tuple(wiring), activation, ports)


def linear(length: int, wiring: Iterable[Wire] = (), activation=None, ports=None) -> ArraySpec:
    """A linear array of ``length`` cells: the one-row grid."""
    return grid(1, length, wiring, activation, ports)


def chain_wires(length: int, ports: Iterable[str]) -> list[Wire]:
    """Left-to-right wiring of a pipeline: cell k's `<p>out` feeds cell k+1's `<p>in`."""
    ports = tuple(ports)
    return [w for k in range(length - 1) for w in _link(k, ports)]


@functools.lru_cache(maxsize=4096)
def _link(k: int, ports: tuple[str, ...]) -> tuple[Wire, ...]:
    """The wires from cell k of a pipeline to cell k+1, shared by every
    pipeline of these ports that reaches that far."""
    src, dst = _cell(0, k), _cell(0, k + 1)
    return tuple(Wire(src, sys.intern(p + "out"), dst, sys.intern(p + "in")) for p in ports)


def chain_ports(ports: Iterable[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ports of a pipeline cell: `<p>in` and `<p>out` for each p, in order."""
    ports = tuple(ports)
    return tuple(p + "in" for p in ports), tuple(p + "out" for p in ports)


class TraceRecord(tuple):
    """One activation: tick, cell, and the raw register and port tuples.

    The ``state``, ``inputs`` and ``outputs`` dicts are built from the
    cell's names each time they are read.  ``inputs`` leaves out a wired
    port whose source had not written it before the record's tick, which
    the run's first-write ticks tell (a later first write comes on a later
    tick, so the answer never changes); ``outputs`` leaves out a port the
    step did not write.  Two records are equal when their tick, cell,
    ``state``, ``inputs`` and ``outputs`` are.
    """

    __slots__ = ()
    # (tick, cell, state, ins, outs,
    #  (state names, input names, output names, input slots, first-write ticks))
    tick = property(itemgetter(0))
    cell = property(itemgetter(1))
    _shown = property(attrgetter("tick", "cell", "state", "inputs", "outputs"))

    @property
    def state(self) -> dict:
        return dict(zip(self[5][0], self[2]))

    @property
    def inputs(self) -> dict:
        t, names = self[0], self[5]
        first = names[4]
        return {p: v for p, s, v in zip(names[1], names[3], self[3]) if first[s] < t}

    @property
    def outputs(self) -> dict:
        return {p: v for p, v in zip(self[5][2], self[4]) if v is not None}

    def __eq__(self, other):
        return isinstance(other, TraceRecord) and self._shown == other._shown

    def __ne__(self, other):
        return not self == other


def _render(v):
    return int(v) if isinstance(v, bool) else v


class Trace(list):
    """Every active cell's record, tick by tick, in cell order within a tick."""

    def to_jsonl(self) -> str:
        lines = []
        for r in self:
            obj = {"tick": r.tick, "row": r.cell.row, "col": r.cell.col,
                   "state": {k: _render(v) for k, v in r.state.items()},
                   "in": {k: _render(v) for k, v in r.inputs.items()},
                   "out": {k: _render(v) for k, v in r.outputs.items()}}
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


def _check_wire_geometry(spec: ArraySpec, w: Wire):
    _, rows, cols = spec.topology
    if not all(0 <= c.row < rows and 0 <= c.col < cols for c in (w.src, w.dst)):
        raise ConstructionError(f"wire {w} references cell outside {spec.topology}")
    if abs(w.src.row - w.dst.row) > 1 or abs(w.src.col - w.dst.col) > 1:
        raise ConstructionError(f"wire {w} is not nearest-neighbour")


def _windows(activation: WindowFn, cells: list[CellId]) -> list[tuple[int, range]]:
    """(cell index, window) for every non-empty window, in cell order, each
    checked from its endpoints and made ascending."""
    windows = []
    for i, cell in enumerate(cells):
        for w in activation(cell):
            if not isinstance(w, range):
                raise ConstructionError(f"cell {tuple(cell)}: window {w!r} is not a range")
            if not w:
                continue
            if min(w[0], w[-1]) < 0:
                raise ConstructionError(f"cell {tuple(cell)}: window {w!r} has negative ticks")
            windows.append((i, w if w.step > 0 else w[::-1]))
    return windows


def _gather(slots: tuple[int, ...]):
    """Reads the latches at `slots` as one tuple."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (s,) = slots
        return lambda latch: (latch[s],)
    return lambda latch: ()


@functools.lru_cache(maxsize=4096)
def _access(slots: tuple[int, ...], start: int, stop: int) -> tuple:
    """A cell's input gather, output span and input slots, shared by every
    plan in which a cell reads those slots and writes from ``start`` on."""
    return _gather(slots), slice(start, stop), slots


def _declared(cell: CellId, names, what: str) -> tuple[str, ...]:
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ConstructionError(f"cell {tuple(cell)} declares an {what} port twice: {names}")
    return names


class Plan:
    """What a spec fixes, shared by every array built from it: cells, port
    names, latch slots, input gathers, output spans, boundary slots and the
    schedule.

    Every declared output has a latch slot, a cell's output slots are
    contiguous, and every boundary input has one slot after them.  No wire
    reads a boundary output's slot, so ``run`` may clear it between ticks.
    Only the schedule changes once built, and only by growing: it is the
    same for every array, so an :class:`Array` keeps its run in its own
    state and reads the schedule as far as it has run.
    """

    def __init__(self, spec: ArraySpec):
        cells = spec.cells()
        ins_of, outs_of = {}, {}
        for c in cells:
            ins, outs = spec.ports(c) if spec.ports is not None else ((), ())
            ins_of[c] = _declared(c, ins, "input")
            outs_of[c] = _declared(c, outs, "output")
        # cell c's outputs take the latch slots base[c], base[c] + 1, ...
        base: dict[CellId, int] = {}
        n_out = 0
        for c in cells:
            base[c] = n_out
            n_out += len(outs_of[c])
        src_of: dict[tuple[CellId, str], int] = {}
        for w in spec.wiring:
            _check_wire_geometry(spec, w)
            if w.src_port not in outs_of[w.src]:
                raise ConstructionError(f"wire {w}: {w.src_port!r} is not an output of {tuple(w.src)}")
            if w.dst_port not in ins_of[w.dst]:
                raise ConstructionError(f"wire {w}: {w.dst_port!r} is not an input of {tuple(w.dst)}")
            key = (w.dst, w.dst_port)
            if key in src_of:
                raise ConstructionError(f"two sources drive input port {key}")
            src_of[key] = base[w.src] + outs_of[w.src].index(w.src_port)

        self.cells = cells
        # per tick, the cells clocked on it in cell order (None: every cell
        # on every tick), expanded from the windows that end after it as
        # runs reach its end
        self.schedule: list[tuple[int, ...]] | None = None
        self._pending: list[tuple[int, range]] = []
        if spec.activation is not None:
            self.schedule = []
            self._pending = _windows(spec.activation, cells)
        self.ins = tuple(ins_of[c] for c in cells)
        self.outs = tuple(outs_of[c] for c in cells)
        # boundary inputs take the slots after every output
        self.boundary_in: dict[tuple[CellId, str], int] = {}
        in_slots = []
        for c in cells:
            slots = []
            for p in ins_of[c]:
                slot = src_of.get((c, p))
                if slot is None:
                    slot = self.boundary_in[(c, p)] = n_out + len(self.boundary_in)
                slots.append(slot)
            in_slots.append(tuple(slots))
        self.n_out = n_out
        self.n_slots = n_out + len(self.boundary_in)
        # per cell: input gather, output slots and input slots
        self.cellv = tuple(_access(slots, base[c], base[c] + len(outs_of[c]))
                           for c, slots in zip(cells, in_slots))
        wired = set(src_of.values())
        self.boundary_out = {(c, p): base[c] + k for c in cells
                             for k, p in enumerate(outs_of[c]) if base[c] + k not in wired}

    def expand(self) -> None:
        """Extend the schedule by up to 256 ticks, at most to the end of the
        last window, and drop the windows that end within them.  Equal
        ticks share one tuple, so a periodic schedule costs a pointer a
        tick."""
        lo = len(self.schedule)
        hi = min(lo + 256, max(w[-1] for _, w in self._pending) + 1)
        by_tick: list[list[int]] = [[] for _ in range(hi - lo)]
        for i, w in self._pending:
            first = max(w.start, lo + (w.start - lo) % w.step)
            for t in range(first - lo, min(w.stop, hi) - lo, w.step):
                on = by_tick[t]
                if not on or on[-1] != i:  # overlapping windows clock a cell once
                    on.append(i)
        shared: dict[tuple, tuple] = {}
        self.schedule += [shared.setdefault(on, on) for on in map(tuple, by_tick)]
        self._pending = [(i, w) for i, w in self._pending if w[-1] >= hi]


class Array:
    """A synchronous array in a run: a :class:`Plan` plus the run's own
    state (steps, registers, latches, payload kinds, first-write ticks and
    tick count), all set when it is built; see :func:`build_array`."""

    def __init__(self, spec: ArraySpec, cell_programs: Mapping[CellId, CellProgram]):
        plan = spec.plan
        try:
            programs = list(map(cell_programs.__getitem__, plan.cells))
        except KeyError:
            missing = set(plan.cells) - cell_programs.keys()
            raise ConstructionError(f"cells without a program: {sorted(missing)}") from None
        if len(cell_programs) != len(programs):
            extra = cell_programs.keys() - set(plan.cells)
            raise ConstructionError(f"programs for cells outside the array: {sorted(extra)}")
        self.spec = spec
        self.plan = plan
        self.tick_count = 0
        self._programs = programs
        self._states = [tuple(p.init.values()) for p in programs]
        # a slot's first write in this run fixes its first-write tick (an
        # unwritten slot's is sys.maxsize) and its payload kind; boundary
        # inputs count as written before tick 0
        self._kinds: dict[int, type] = {}
        self._first = [sys.maxsize] * plan.n_out + [-1] * len(plan.boundary_in)
        # per cell: input gather, step, the output type tuples already
        # checked in this run (each with its write plan), and output slots
        self._cellv = [(gather, p.step, {}, span)
                       for (gather, span, _), p in zip(plan.cellv, programs)]
        self._latch: list[Any] = [0] * plan.n_slots

    # -- public ----------------------------------------------------------

    def states(self) -> list[tuple]:
        """Every cell's register tuple, in cell order (row-major)."""
        return list(self._states)

    def tick(self, trace: Trace | None = None, lines: Sequence = ()) -> None:
        """Advance one tick, appending its records to ``trace`` if given.

        Values written here are readable by wired neighbours from the next
        tick onward; a written port holds its value until overwritten.
        ``lines`` holds a (slot, line) for each boundary input, as ``run``
        binds them, and feeds the slot ``line[t]``, or 0 once the line has
        run out.  An array with boundary inputs is clocked only by ``run``:
        called without its lines, ``tick`` refuses it before any step runs.
        """
        t = self.tick_count
        plan = self.plan
        if len(lines) != len(plan.boundary_in):
            ports = ", ".join(f"{tuple(c)} {p!r}" for c, p in plan.boundary_in)
            raise SimulationError(f"tick {t}: boundary inputs {ports} are fed only by run")
        latch = self._latch
        for slot, line in lines:
            latch[slot] = line[t] if t < len(line) else 0
        cells = plan.cells
        schedule = plan.schedule
        if schedule is None:
            order = range(len(cells))
        else:
            if t == len(schedule) and plan._pending:
                plan.expand()
            order = schedule[t] if t < len(schedule) else ()
        states = self._states
        cellv = self._cellv
        pending: list = []
        if trace is not None:
            names = self._names
            # builds a TraceRecord without a Python-level __new__ frame
            new_tuple = tuple.__new__
            record = trace.append
        for i in order:
            gather, step, checked, span = cellv[i]
            ins = gather(latch)
            state, outs = step(states[i], ins, t)
            states[i] = state
            try:
                write = checked[tuple(map(type, outs))]
            except KeyError:
                write = self._admit(i, outs)
            if write is None:
                pending.append((span, outs))
            else:
                slots, pick = write
                pending.extend(zip(slots, pick(outs)))
            if trace is not None:
                record(new_tuple(TraceRecord, (t, cells[i], state, ins, outs, names[i])))
        for where, v in pending:
            latch[where] = v
        self.tick_count = t + 1

    # -- internals -------------------------------------------------------

    @functools.cached_property
    def _names(self) -> tuple:
        """Per cell, its (register, input port, output port) names, its
        input slots and the run's first-write ticks, which trace records
        carry; made on the first traced tick."""
        plan = self.plan
        return tuple(zip([tuple(p.init) for p in self._programs], plan.ins, plan.outs,
                         [slots for _, _, slots in plan.cellv], [self._first] * len(plan.cells)))

    def _admit(self, i: int, outs) -> tuple | None:
        """Check an output tuple whose type pattern cell i has not shown
        before, and return its write plan: None writes the whole tuple,
        else (slots, pick) writes pick(outs) to slots."""
        cell = self.plan.cells[i]
        out_names = self.plan.outs[i]
        if len(outs) != len(out_names):
            raise SimulationError(f"cell {tuple(cell)} tick {self.tick_count}: "
                                  f"{len(outs)} outputs for ports {out_names}")
        kinds, first = self._kinds, self._first
        base = self._cellv[i][3].start
        written = []
        for k, v in enumerate(outs):
            if v is None:
                continue
            written.append(k)
            slot = base + k
            if first[slot] == sys.maxsize:
                kinds[slot] = type(v)
                first[slot] = self.tick_count
            elif type(v) is not kinds[slot]:
                raise SimulationError(
                    f"port {(cell, out_names[k])} changed payload kind "
                    f"{kinds[slot].__name__} -> {type(v).__name__}")
        if len(written) == len(outs):
            write = None
        else:
            write = (tuple(base + k for k in written), _gather(tuple(written)))
        self._cellv[i][2][tuple(map(type, outs))] = write
        return write

    def _bind(self, feed: Mapping[CellId, Mapping[str, Sequence]]) -> list[tuple[int, Sequence]]:
        """(slot, line) for each port of `feed`, ``{cell: {port: line}}``,
        which must give a line to every boundary input and no other port."""
        bound = []
        for cell, ports in feed.items():
            for port, line in ports.items():
                slot = self.plan.boundary_in.get((CellId(*cell), port))
                if slot is None:
                    raise SimulationError(
                        f"cell {tuple(cell)}: {port!r} is not a boundary input port")
                bound.append((slot, line))
        fed = {slot for slot, _ in bound}
        for (cell, port), slot in self.plan.boundary_in.items():
            if slot not in fed:
                raise SimulationError(
                    f"cell {tuple(cell)} tick {self.tick_count}: no value on input port {port!r}")
        return bound


def build_array(spec: ArraySpec, cell_programs: Mapping[CellId, CellProgram],
                eval_order=None) -> Array:
    """Validate the spec and return an array in reset state (tick 0, ports empty).

    Every build of the spec reuses its plan, ``spec.plan``, made on the
    first, and the array runs the steps of the programs it is built with
    and starts from their ``init`` registers.
    The programs must cover exactly the spec's cells.  Every array gets its
    own registers, latches and payload kinds, and reads the plan's schedule,
    which grows only as far as the longest run of the plan so far.

    No result depends on the order of a tick's cells, so ``eval_order`` is
    no option: it stays only for callers that pass it through, as the
    benchmark's tracer does, and anything but None raises ``TypeError``.
    """
    if eval_order is not None:
        raise TypeError("eval_order takes only None: a tick's cells run in schedule order")
    return Array(spec, cell_programs)


def run(array: Array, feed: Mapping[CellId, Mapping[str, Sequence]] | None, n_ticks: int,
        trace: bool = False) -> tuple[dict[tuple[CellId, str], list], Trace]:
    """Run ``n_ticks`` ticks; returns the output lines and the trace.

    ``feed`` maps a cell to its input lines, one sequence per boundary input
    (``None`` feeds nothing); every boundary input needs a line.  On tick t
    a port reads ``line[t]``, or 0 once the line has run out.

    The output lines map every boundary output ``(cell, port)`` to a list
    indexed by the array's tick, as the input lines are: index t holds what
    the port showed at tick t, the value written during tick t-1, or 0 where
    nothing was written then.  An impulse fed at tick 0 to a pipeline of k
    unit-delay cells shows at index k.  The trace is empty unless ``trace``.
    Each tick is handed the bound lines, so the array keeps none once
    ``run`` returns or raises.
    """
    if n_ticks < 0:
        raise ValueError("n_ticks must be >= 0")
    tr = Trace()
    sink = tr if trace else None
    bound = array._bind(feed or {})
    latch = array._latch
    t0 = array.tick_count
    boundary_out = array.plan.boundary_out
    lines = {key: [0] * (t0 + 1) for key in boundary_out}
    collect = [(lines[key], slot) for key, slot in boundary_out.items()]
    for _, slot in collect:
        latch[slot] = 0
    for _ in range(n_ticks):
        array.tick(sink, bound)
        for line, slot in collect:
            line.append(latch[slot])
            latch[slot] = 0
    return lines, tr
