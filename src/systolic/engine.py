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
clock for an array without boundary inputs.  ``Array.tick`` is the only
code that writes a latch; ``run`` only reads them.

A spec may declare each cell's activity windows: tick ranges outside which
the cell is not clocked (its state stays as it is and it leaves no trace
record).  The windows, which may be open-ended, are read once, on the
spec's first build, and the plan expands them into a schedule a stretch of
256 ticks at a time, only as far as a run reaches.  Every tick reads one
entry, its cells and their run of output slots: its schedule entry or,
past the schedule once no window is pending, the plan's rest entry, which
clocks no cell with windows and every cell without them.

A build has two parts.  Its :class:`Plan` is what the spec fixes: cells,
ports, latch slots, input gathers, output spans, boundary slots and the
schedule, which every array of the plan shares and which grows only as far
as the longest run so far.  The output slots of cells whose windows share
phase and period lie side by side, in cell order, so the cells that one
tick clocks usually write one run of slots; each schedule entry holds a
tick's cells and that run, and equal ticks share one entry, whatever their
stretches, from a table of the plan's distinct ticks.  Its :class:`Array`
holds one run: steps and registers, taken from the programs it is built
with, and latches, each written slot's payload kind and first-write tick
(which decides the inputs a trace record shows), and the tick count.

Every tick latches like the paper's arrays, on one clock edge: it steps
all its cells in schedule order, then checks and writes their outputs, in
one check for every tick.  Cells that write one run of slots, with the
plan's output counts, are checked as one run, as every clocked tick of
the integer GCD, polynomial GCD and Toeplitz arrays and all but delayed
Jacobi's ramp ticks are; any other tick checks each cell as its own run.
A run's types are compared with its slots' kinds in one list comparison
and, where they differ, position by position: a ``None`` output takes its
slot's latched value, so the slot keeps it (delayed Jacobi's cells leave
one parity's ports so), a slot without a kind is written for the first
time, and any other difference is a kind change.  Each run is written in
one slice assignment, and the kinds and first-write ticks of first
writes are fixed once the whole tick has passed.  A step that raises
stops its tick with its own exception, before any check; a tick refused
for its outputs raises the first refused cell's error once every cell
has stepped.  Either way no latch, kind or first-write tick changes, and
every cell that stepped keeps its registers and its trace record.

A spec makes its plan once, on first use, and keeps it as ``spec.plan``,
whatever programs it is built with: like the fixed hardware, one wiring
serves every operand, and only what each operand loads into the cells
changes.  A spec made with
``dataclasses.replace`` is a new spec with a plan of its own.  Specs and
plans also share their equal parts: a position's ``CellId``, a pipeline's
links and a cell's gather and output span are each made once (in bounded
caches), so plans of pipelines of many lengths cost little more than the
longest.

A :class:`Trace` records one array's run in two flat lists: per
activation, one list gets the tick and the cell's index, the other the
cell's registers, inputs and outputs, extended from the tuples the tick
already holds, so recording makes no object.  From the array's first
traced tick the trace also keeps the run's context: its cells, their
register, port and input-slot names, and the run's first-write ticks,
whose per-cell counts divide the values list into records.  The lists
hold only what the cells read and made, so a kept trace gives the cyclic
collector two lists to track, whatever its length.  Records are made only
as the trace is iterated, and :func:`to_jsonl` renders any records, one
JSON line each.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence


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


class TraceRecord(NamedTuple):
    """One activation: its tick and cell, the cell's registers after it,
    the inputs it read and the outputs it wrote, each by name.  ``inputs``
    leaves out a wired port whose source had not written it before the
    record's tick, which the run's first-write ticks tell (a later first
    write comes on a later tick, so the answer never changes); ``outputs``
    leaves out a port the step did not write.  Two records are equal when
    they show the same."""

    tick: int
    cell: CellId
    state: dict
    inputs: dict
    outputs: dict


class Trace:
    """One array's run: every active cell's record, tick by tick, in cell
    order within a tick.

    A record is kept in two flat lists, its tick and cell index in one and
    the cell's registers, inputs and outputs in the other, and made when
    the trace is iterated.  The array's first traced tick sets the trace's
    context, whose per-cell register, input and output counts divide the
    values into records, so a step keeps as many registers as its program's
    ``init`` has; a tick of another array is refused.
    """

    __slots__ = ("_ticks", "_values", "_context")

    def __init__(self):
        # tick, cell index, per record
        self._ticks: list[int] = []
        # registers, inputs, outputs, per record
        self._values: list = []
        # (cells, register names, input names, output names, input slots,
        # first-write ticks), each but the last per cell
        self._context: tuple | None = None

    def __len__(self) -> int:
        return len(self._ticks) // 2

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._context is None:
            return
        cells, regs, ins, outs, slots, first = self._context
        values = self._values
        end = 0
        for t, i in zip(*[iter(self._ticks)] * 2):
            start = end
            a = start + len(regs[i])
            b = a + len(ins[i])
            end = b + len(outs[i])
            yield TraceRecord(t, cells[i], dict(zip(regs[i], values[start:a])),
                              {p: v for p, s, v in zip(ins[i], slots[i], values[a:b]) if first[s] < t},
                              {p: v for p, v in zip(outs[i], values[b:end]) if v is not None})

    def activations(self) -> dict[CellId, list[int]]:
        """Each traced cell's activation ticks, read from the tick list
        without making records."""
        if self._context is None:
            return {}
        cells = self._context[0]
        per_cell: list[list[int]] = [[] for _ in cells]
        for t, i in zip(*[iter(self._ticks)] * 2):
            per_cell[i].append(t)
        return {cell: t for cell, t in zip(cells, per_cell) if t}


def to_jsonl(records: Iterable[TraceRecord]) -> str:
    """One JSON line per record."""
    lines = [json.dumps({"tick": r.tick, "row": r.cell.row, "col": r.cell.col,
                         "state": r.state, "in": r.inputs, "out": r.outputs},
                        separators=(",", ":")) for r in records]
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
    names, latch slots, input gathers, output spans, boundary slots, the
    schedule, each tick's cells with their run of output slots, and the
    rest entry, which the ticks past the schedule read.

    Every declared output has a latch slot, a cell's output slots are
    contiguous, and every boundary input has one slot after them.  The
    output slots are laid out by groups of cells whose windows share phase
    and period, in cell order within a group, so a tick that clocks a
    stretch of one group's cells writes one run of slots.  Only the
    schedule changes once built, and only by growing: it is the same for
    every array, so an :class:`Array` keeps its run in its own state and
    reads the schedule as far as it has run.
    """

    def __init__(self, spec: ArraySpec):
        _, rows, cols = spec.topology
        cells = [_cell(r, c) for r in range(rows) for c in range(cols)]
        # per cell, by index as every table below: its port names
        ins, outs = [], []
        for c in cells:
            names = spec.ports(c) if spec.ports is not None else ((), ())
            ins.append(_declared(c, names[0], "input"))
            outs.append(_declared(c, names[1], "output"))
        self._pending: list[tuple[int, range]] = []
        if spec.activation is not None:
            self._pending = _windows(spec.activation, cells)
        # cells whose windows share phase and period take adjacent output
        # slots, in cell order within a group, so that the cells of a tick
        # write one run of slots; cell i's are base[i], base[i] + 1, ...
        phases: list[set] = [set() for _ in cells]
        for i, w in self._pending:
            phases[i].add((w.start % w.step, w.step))
        groups: dict[frozenset, list[int]] = {}
        for i, p in enumerate(phases):
            groups.setdefault(frozenset(p), []).append(i)
        layout = [i for group in groups.values() for i in group]
        # each cell's output base and its place in the slot layout
        base, self.place = [0] * len(cells), [0] * len(cells)
        n_out = 0
        for k, i in enumerate(layout):
            base[i], self.place[i] = n_out, k
            n_out += len(outs[i])
        # per cell, each input's slot: its wire's source, else None
        in_slots = [[None] * len(names) for names in ins]
        for w in spec.wiring:
            _check_wire_geometry(spec, w)
            s, d = w.src.row * cols + w.src.col, w.dst.row * cols + w.dst.col
            if w.src_port not in outs[s]:
                raise ConstructionError(f"wire {w}: {w.src_port!r} is not an output of {tuple(w.src)}")
            if w.dst_port not in ins[d]:
                raise ConstructionError(f"wire {w}: {w.dst_port!r} is not an input of {tuple(w.dst)}")
            k = ins[d].index(w.dst_port)
            if in_slots[d][k] is not None:
                raise ConstructionError(f"two sources drive input port {(w.dst, w.dst_port)}")
            in_slots[d][k] = base[s] + outs[s].index(w.src_port)

        self.cells = cells
        # per tick, the cells clocked on it in cell order and the output
        # slots they write if they are one run, else None, expanded from
        # the windows that end after it as runs reach its end
        self.schedule: list[tuple[tuple[int, ...], slice | None]] = []
        self.ins = tuple(ins)
        self.outs = tuple(outs)
        # boundary inputs take the slots after every output
        self.boundary_in: dict[tuple[CellId, str], int] = {}
        for c, names, slots in zip(cells, ins, in_slots):
            for k, p in enumerate(names):
                if slots[k] is None:
                    slots[k] = self.boundary_in[(c, p)] = n_out + len(self.boundary_in)
        self.n_out = n_out
        self.n_slots = n_out + len(self.boundary_in)
        # per cell: input gather, output slots and input slots
        self.cellv = tuple(_access(tuple(slots), base[i], base[i] + len(outs[i]))
                           for i, slots in enumerate(in_slots))
        wired = {slot for slots in in_slots for slot in slots}
        self.boundary_out = {(c, p): base[i] + k for i, c in enumerate(cells)
                             for k, p in enumerate(outs[i]) if base[i] + k not in wired}
        # output counts in layout order, which a run's output tuples match
        self.counts = [len(outs[i]) for i in layout]
        # the entry of every tick past the schedule once no window is pending
        self.rest: tuple[Sequence[int], slice | None] = ((), None)
        if spec.activation is None:
            self.rest = (range(len(cells)), self.run_of(range(len(cells))))

    def run_of(self, on: Sequence[int]) -> slice | None:
        """The output slots that the cells ``on`` write, in order, if they
        are adjacent in the slot layout, else None (so is an empty tick's)."""
        if not on:
            return None
        place = self.place
        p = place[on[0]]
        if any(place[i] != k for k, i in enumerate(on, p)):
            return None
        return slice(self.cellv[on[0]][1].start, self.cellv[on[-1]][1].stop)

    @functools.cached_property
    def _entries(self) -> dict[tuple, tuple]:
        """Each distinct tick's ``(cells, run)`` entry, by its cells; made on first expand."""
        return {}

    def expand(self, tick: int) -> tuple[Sequence[int], slice | None]:
        """The entry of ``tick``, the first past the schedule: ``rest`` once
        no window is pending, else extend the schedule by up to 256 ticks,
        at most to the end of the last window, and drop the windows that
        end within them.  Equal ticks share one entry, whichever stretches
        hold them: a stretch looks its ticks up in ``_entries``."""
        if not self._pending:
            return self.rest
        lo = len(self.schedule)
        hi = min(lo + 256, max(w[-1] for _, w in self._pending) + 1)
        by_tick: list[list[int]] = [[] for _ in range(hi - lo)]
        for i, w in self._pending:
            first = max(w.start, lo + (w.start - lo) % w.step)
            for t in range(first - lo, min(w.stop, hi) - lo, w.step):
                on = by_tick[t]
                if not on or on[-1] != i:  # overlapping windows clock a cell once
                    on.append(i)
        shared = self._entries
        for on in map(tuple, by_tick):
            entry = shared.get(on)
            if entry is None:
                entry = shared[on] = (on, self.run_of(on))
            self.schedule.append(entry)
        self._pending = [(i, w) for i, w in self._pending if w[-1] >= hi]
        return self.schedule[tick]


class Array:
    """A synchronous array in a run: a :class:`Plan` plus the run's own
    state (steps, registers, latches, payload kinds and first-write ticks
    and tick count), all set when it is built; see :func:`build_array`."""

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
        # unwritten slot's is sys.maxsize); boundary inputs count as
        # written before tick 0
        self._first = [sys.maxsize] * plan.n_out + [-1] * len(plan.boundary_in)
        # per output slot, the payload kind its first write fixed (None
        # while unwritten)
        self._kinds: list[type | None] = [None] * plan.n_out
        # per cell: input gather and step
        self._cellv = [(gather, p.step) for (gather, _, _), p in zip(plan.cellv, programs)]
        self._latch: list[Any] = [0] * plan.n_slots

    # -- public ----------------------------------------------------------

    def states(self) -> list[tuple]:
        """Every cell's register tuple, in cell order (row-major)."""
        return list(self._states)

    def tick(self, trace: Trace | None = None, lines: Sequence = ()) -> None:
        """Advance one tick, appending its records to ``trace`` if given;
        a trace holds one array's run, so one that another array has
        written is refused before any step runs.

        Values written here are readable by wired neighbours from the next
        tick onward; a written port holds its value until overwritten.
        ``lines`` holds a (slot, line) for each boundary input, as ``run``
        binds them, and feeds the slot ``line[t]``, or 0 once the line has
        run out.  An array with boundary inputs is clocked only by ``run``:
        called without its lines, ``tick`` refuses it before any step runs.

        Every cell of the tick steps before any output is checked, and
        one check serves every tick (see ``_check``).  A step that raises
        stops the tick with its own exception, and no check runs; a tick
        refused for its outputs raises the first refused cell's error.
        Either way the tick writes no latch, fixes no payload kind or
        first-write tick and leaves ``tick_count`` as it was, and every
        cell that stepped keeps its registers and its trace record.
        """
        t = self.tick_count
        plan = self.plan
        if len(lines) != len(plan.boundary_in):
            ports = ", ".join(f"{tuple(c)} {p!r}" for c, p in plan.boundary_in)
            raise SimulationError(f"tick {t}: boundary inputs {ports} are fed only by run")
        if trace is not None:
            if trace._context is None:
                trace._context = self._context
            elif trace._context is not self._context:
                raise SimulationError(f"tick {t}: the trace holds another array's run")
            mark = trace._ticks.append
            keep = trace._values.extend
        latch = self._latch
        for slot, line in lines:
            latch[slot] = line[t] if t < len(line) else 0
        schedule = plan.schedule
        order, run = schedule[t] if t < len(schedule) else plan.expand(t)
        states = self._states
        cellv = self._cellv
        made: list = []
        put = made.append
        for i in order:
            gather, step = cellv[i]
            ins = gather(latch)
            state, outs = step(states[i], ins, t)
            states[i] = state
            put(outs)
            if trace is not None:
                # values first: a state that is no tuple raises before
                # either list grows
                keep(state)
                keep(ins)
                keep(outs)
                mark(t)
                mark(i)
        for where, values in self._check(t, order, run, made):
            latch[where] = values
        self.tick_count = t + 1

    # -- internals -------------------------------------------------------

    @functools.cached_property
    def _context(self) -> tuple:
        """The run's context in a trace: its cells, their register, input
        port and output port names and input slots, and the run's
        first-write ticks; made on the first traced tick."""
        plan = self.plan
        return (plan.cells, tuple(tuple(p.init) for p in self._programs), plan.ins, plan.outs,
                tuple(slots for _, _, slots in plan.cellv), self._first)

    def _check(self, t: int, order: Sequence[int], run: slice | None, made: list) -> list:
        """Check the outputs ``made`` by the cells ``order`` of tick ``t``
        against their slots' kinds and return their writes, ``(latch slice,
        values)``.  Cells that write one run of slots, ``run``, with the
        plan's output counts are checked as one run, any others each as its
        own run, in schedule order; the first refused raises.  A ``None``
        output takes its slot's latched value, so the slot keeps it, and a
        slot without a kind takes its write's.  Kinds and first-write
        ticks are fixed only once every run has passed."""
        plan = self.plan
        p = plan.place[order[0]] if order else 0
        if run is not None and list(map(len, made)) == plan.counts[p:p + len(made)]:
            runs = [(run, list(chain.from_iterable(made)))]
        else:
            runs = [(plan.cellv[i][1], list(outs)) for i, outs in zip(order, made)]
        kinds = self._kinds
        fresh = []
        for k, (where, flat) in enumerate(runs):
            have = kinds[where]
            types = list(map(type, flat))
            if types == have:
                continue
            if len(flat) != len(have):
                i = order[k]
                raise SimulationError(f"cell {tuple(plan.cells[i])} tick {t}: "
                                      f"{len(flat)} outputs for ports {plan.outs[i]}")
            latch = self._latch
            start = where.start
            for j in range(len(flat)):
                if types[j] is not have[j]:
                    if flat[j] is None:
                        flat[j] = latch[start + j]
                    elif have[j] is None:
                        fresh.append((start + j, types[j]))
                    else:
                        port = {plan.cellv[i][1].start + n: (plan.cells[i], name)
                                for i in order for n, name in enumerate(plan.outs[i])}[start + j]
                        raise SimulationError(f"port {port} changed payload kind "
                                              f"{have[j].__name__} -> {types[j].__name__}")
        for s, kind in fresh:
            kinds[s] = kind
            self._first[s] = t
        return runs

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
    own registers, latches, payload kinds and first-write ticks, and reads
    the plan's schedule, which grows only as far as the longest run of the
    plan so far.

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
    the port holds at tick t, as a wired neighbour would read it, its last
    write before tick t or 0 if it has none.  Index t0, the array's tick
    count when the run starts, shows the port as the run finds it, and the
    ticks before the run read 0.  An impulse fed at tick 0 to a pipeline of
    k unit-delay cells shows at index k.  The trace is empty unless
    ``trace``.  Each tick is handed the bound lines, so the array keeps
    none once ``run`` returns or raises; ``run`` writes no latch.
    """
    if n_ticks < 0:
        raise ValueError("n_ticks must be >= 0")
    tr = Trace()
    sink = tr if trace else None
    bound = array._bind(feed or {})
    latch = array._latch
    t0 = array.tick_count
    boundary_out = array.plan.boundary_out
    lines = {key: [0] * t0 + [latch[slot]] for key, slot in boundary_out.items()}
    collect = [(lines[key], slot) for key, slot in boundary_out.items()]
    for _ in range(n_ticks):
        array.tick(sink, bound)
        for line, slot in collect:
            line.append(latch[slot])
    return lines, tr
