"""Synchronous two-phase simulation kernel for 1-D and 2-D cell arrays.

Cells are pure step functions ``(state, inputs, ctx) -> (new_state, outputs)``
clocked in lockstep.  Outputs written at tick T become readable by wired
neighbours at tick T+1 and stay latched until overwritten (registered
outputs), so permuting the evaluation order of cells within one tick can
never change the result.  Unwired input ports are boundary ports and must be
fed through ``tick``/``run``; unwired output ports are collected as boundary
outputs.

A spec may declare each cell's activity windows: tick ranges outside which
the cell is not clocked (its state stays as it is and it leaves no trace
record).  The windows are read once, when the array is built, so a tick
visits only the cells that run on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple


class ConstructionError(ValueError):
    """Raised for malformed array specs (bad wires, missing programs)."""


class SimulationError(RuntimeError):
    """Raised when a step cannot run (e.g. missing boundary input)."""


class CellId(NamedTuple):
    row: int
    col: int


class CellContext(NamedTuple):
    """Read-only per-activation context handed to step functions."""

    cell: CellId
    tick: int


class Wire(NamedTuple):
    src: CellId
    src_port: str
    dst: CellId
    dst_port: str


# step: (state, inputs, ctx) -> (new_state, outputs); inputs is a plain dict
# holding only ports that carry a value, so `ins[p]` raises on an empty port
# (surfaced as SimulationError) while `ins.get(p, 0)` models a quiescent wire
StepFn = Callable[[Mapping[str, Any], Mapping[str, Any], CellContext], tuple[dict, dict]]


@dataclass(frozen=True)
class CellProgram:
    step: StepFn
    init: Mapping[str, Any] = field(default_factory=dict)


# activation: cell -> the tick ranges in which that cell is clocked
WindowFn = Callable[[CellId], tuple[range, ...]]


@dataclass(frozen=True)
class ArraySpec:
    """Topology plus wiring plus activity windows.

    topology is ("linear", length) or ("grid", rows, cols).  Wiring must be
    nearest-neighbour: |dcol| <= 1 for linear arrays, |drow| <= 1 and
    |dcol| <= 1 for grids (diagonal links allowed).  Each destination port
    has exactly one source; one source port may fan out.

    activation maps a cell to a tuple of ``range`` windows of non-negative
    ticks; the cell is clocked on every tick that lies in one of them, and
    on no other.  It is called once per cell when the array is built, so
    building costs time and memory in proportion to the declared active
    ticks.  None clocks every cell on every tick.
    """

    topology: tuple
    wiring: tuple[Wire, ...] = ()
    activation: WindowFn | None = None

    def cells(self) -> list[CellId]:
        kind = self.topology[0]
        if kind == "linear":
            return [CellId(0, c) for c in range(self.topology[1])]
        if kind == "grid":
            _, rows, cols = self.topology
            return [CellId(r, c) for r in range(rows) for c in range(cols)]
        raise ConstructionError(f"unknown topology {self.topology!r}")

    def contains(self, cell: CellId) -> bool:
        kind = self.topology[0]
        if kind == "linear":
            return cell.row == 0 and 0 <= cell.col < self.topology[1]
        _, rows, cols = self.topology
        return 0 <= cell.row < rows and 0 <= cell.col < cols


def linear(length: int, wiring: Iterable[Wire] = (), activation=None) -> ArraySpec:
    return ArraySpec(("linear", length), tuple(wiring), activation)


def grid(rows: int, cols: int, wiring: Iterable[Wire] = (), activation=None) -> ArraySpec:
    return ArraySpec(("grid", rows, cols), tuple(wiring), activation)


def chain_wires(length: int, ports: Iterable[str]) -> list[Wire]:
    """Left-to-right wiring of a pipeline: cell k's `<p>out` feeds cell k+1's `<p>in`."""
    wires = []
    for k in range(length - 1):
        for p in ports:
            wires.append(Wire(CellId(0, k), p + "out", CellId(0, k + 1), p + "in"))
    return wires


class TraceRecord(NamedTuple):
    tick: int
    cell: CellId
    state: dict
    inputs: dict
    outputs: dict


def _render(v):
    if isinstance(v, bool):
        return 1 if v else 0
    return v


class Trace:
    """Per-tick record of every active cell's state and port values."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def extend(self, recs: Iterable[TraceRecord]):
        self.records.extend(recs)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_jsonl(self) -> str:
        lines = []
        for r in self.records:
            obj = {
                "tick": r.tick,
                "row": r.cell.row,
                "col": r.cell.col,
                "state": {k: _render(v) for k, v in r.state.items()},
                "in": {k: _render(v) for k, v in r.inputs.items()},
                "out": {k: _render(v) for k, v in r.outputs.items()},
            }
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def _check_wire_geometry(spec: ArraySpec, w: Wire):
    if not spec.contains(w.src) or not spec.contains(w.dst):
        raise ConstructionError(f"wire {w} references cell outside {spec.topology}")
    dr = abs(w.src.row - w.dst.row)
    dc = abs(w.src.col - w.dst.col)
    if spec.topology[0] == "linear":
        if dr + dc > 1:
            raise ConstructionError(f"wire {w} is not nearest-neighbour")
    else:
        if dr > 1 or dc > 1:
            raise ConstructionError(f"wire {w} is not nearest-neighbour")


_EMPTY = object()  # port value before the first write


def _window_schedule(activation: WindowFn, cells: list[CellId]) -> list[tuple[int, ...]]:
    """Per tick, the indices of the cells clocked on it, in cell order."""
    by_tick: list[list[int]] = []
    for i, cell in enumerate(cells):
        for w in activation(cell):
            if not isinstance(w, range):
                raise ConstructionError(f"cell {tuple(cell)}: window {w!r} is not a range")
            if not w:
                continue
            if min(w) < 0:
                raise ConstructionError(f"cell {tuple(cell)}: window {w!r} has negative ticks")
            top = max(w)
            if top >= len(by_tick):
                by_tick.extend([] for _ in range(top + 1 - len(by_tick)))
            for t in w:
                on = by_tick[t]
                if not on or on[-1] != i:  # overlapping windows clock a cell once
                    on.append(i)
    return [tuple(on) for on in by_tick]


class Array:
    """A built synchronous array; see :func:`build_array`."""

    def __init__(self, spec: ArraySpec, programs: Mapping[CellId, CellProgram],
                 eval_order: Callable[[list[CellId], int], list[CellId]] | None = None):
        cells = spec.cells()
        cellset = set(cells)
        missing = cellset - set(programs)
        if missing:
            raise ConstructionError(f"cells without a program: {sorted(missing)}")
        extra = set(programs) - cellset
        if extra:
            raise ConstructionError(f"programs for cells outside the array: {sorted(extra)}")

        seen_dst: set[tuple[CellId, str]] = set()
        for w in spec.wiring:
            _check_wire_geometry(spec, w)
            key = (w.dst, w.dst_port)
            if key in seen_dst:
                raise ConstructionError(f"two sources drive input port {key}")
            seen_dst.add(key)

        self.spec = spec
        self.tick_count = 0
        self._cells = cells
        self._idx = {c: i for i, c in enumerate(cells)}
        self._eval_order = eval_order
        self._schedule = (None if spec.activation is None
                          else _window_schedule(spec.activation, cells))
        self._states = [dict(programs[c].init) for c in cells]
        self._steps = [programs[c].step for c in cells]
        # slot-indexed latches for every port that feeds a wire
        slot_of: dict[tuple[CellId, str], int] = {}
        for w in spec.wiring:
            key = (w.src, w.src_port)
            if key not in slot_of:
                slot_of[key] = len(slot_of)
        self._in_specs: list[tuple[tuple[str, int], ...]] = [() for _ in cells]
        per_cell: dict[CellId, list[tuple[str, int]]] = {c: [] for c in cells}
        for w in spec.wiring:
            per_cell[w.dst].append((w.dst_port, slot_of[(w.src, w.src_port)]))
        for c, lst in per_cell.items():
            self._in_specs[self._idx[c]] = tuple(lst)
        self._out_slots: list[dict[str, int]] = [{} for _ in cells]
        for (cell, port), slot in slot_of.items():
            self._out_slots[self._idx[cell]][port] = slot
        self._latch: list[Any] = [_EMPTY] * len(slot_of)
        # a slot's payload kind is fixed by its first write
        self._kinds: list[type | None] = [None] * len(slot_of)
        self._unwritten = len(slot_of)
        self._bkinds: dict[tuple[CellId, str], type] = {}

    # -- public ----------------------------------------------------------

    def state_of(self, cell) -> dict:
        return dict(self._states[self._idx[CellId(*cell)]])

    def tick(self, boundary_inputs: Mapping[CellId, Mapping[str, Any]] | None = None,
             trace: Trace | None = None) -> dict[tuple[CellId, str], Any]:
        """Advance one tick; returns boundary outputs written during this tick.

        Values written here are readable by wired neighbours (and observable
        at the array boundary) from the next tick onward; a written port
        holds its value until overwritten.
        """
        t = self.tick_count
        cells = self._cells
        schedule = self._schedule
        if schedule is None:
            order = range(len(cells))
        else:
            order = schedule[t] if t < len(schedule) else ()
        eval_order = self._eval_order
        if eval_order is not None:
            idx = self._idx
            order = [idx[c] for c in eval_order([cells[i] for i in order], t)]
        latch = self._latch
        kinds = self._kinds
        bkinds = self._bkinds
        unwritten = self._unwritten
        filled = not unwritten  # every latch was written on an earlier tick
        states = self._states
        steps = self._steps
        in_specs = self._in_specs
        out_slots = self._out_slots
        pending: list[tuple[int, Any]] = []
        boundary_out: dict[tuple[CellId, str], Any] = {}
        tick_records: list[TraceRecord] | None = [] if trace is not None else None
        # builds a CellContext or TraceRecord without the NamedTuple's
        # Python-level __new__, which would cost a frame per activation
        new_tuple = tuple.__new__
        for i in order:
            cell = cells[i]
            vals = {}
            if filled:
                for port, slot in in_specs[i]:
                    vals[port] = latch[slot]
            else:
                for port, slot in in_specs[i]:
                    v = latch[slot]
                    if v is not _EMPTY:
                        vals[port] = v
            if boundary_inputs:
                binj = boundary_inputs.get(cell)
                if binj:
                    vals.update(binj)
            try:
                new_state, outs = steps[i](states[i], vals, new_tuple(CellContext, (cell, t)))
            except KeyError as exc:
                raise SimulationError(
                    f"cell {tuple(cell)} tick {t}: no value on input port {exc.args[0]!r}"
                ) from None
            states[i] = new_state
            ow = out_slots[i]
            for port, v in outs.items():
                slot = ow.get(port)
                if slot is None:
                    key = (cell, port)
                    k = bkinds.get(key)
                    if k is None:
                        bkinds[key] = type(v)
                    elif type(v) is not k:
                        raise SimulationError(
                            f"port {key} changed payload kind {k.__name__} -> {type(v).__name__}"
                        )
                    boundary_out[key] = v
                else:
                    k = kinds[slot]
                    if k is None:
                        kinds[slot] = type(v)
                        unwritten -= 1
                    elif type(v) is not k:
                        raise SimulationError(
                            f"a port changed payload kind {k.__name__} -> {type(v).__name__}"
                        )
                    pending.append((slot, v))
            if tick_records is not None:
                tick_records.append(
                    new_tuple(TraceRecord, (t, cell, dict(new_state), vals, dict(outs))))
        if tick_records is not None:
            if eval_order is not None:
                # canonical record order: the trace must not expose the (free)
                # evaluation order of cells within a tick
                tick_records.sort(key=lambda r: r.cell)
            trace.extend(tick_records)
        for slot, v in pending:
            latch[slot] = v
        self._unwritten = unwritten
        self.tick_count = t + 1
        return boundary_out


def build_array(spec: ArraySpec, cell_programs: Mapping, eval_order=None) -> Array:
    """Validate the spec and return an array in reset state (tick 0, ports empty).

    ``eval_order(cells, t)``, if given, returns the cells clocked on tick t
    in the order they are to be evaluated; results and traces never depend
    on it.
    """
    programs = {}
    for cell, prog in cell_programs.items():
        cid = CellId(*cell)
        if not isinstance(prog, CellProgram):
            prog = CellProgram(*prog) if isinstance(prog, tuple) else CellProgram(prog)
        programs[cid] = prog
    return Array(spec, programs, eval_order=eval_order)


def run(array: Array, input_schedule, n_ticks: int, trace: bool | Trace = False):
    """Run ``n_ticks`` ticks and collect boundary outputs and a trace.

    ``input_schedule`` maps a tick to that tick's boundary inputs (a dict or
    a callable); ``trace`` is a flag or a Trace to extend.  The output
    schedule is keyed by the tick at which a value is observable at the
    boundary: a write made during tick T shows up under T+1, so an impulse
    fed to a pipeline of k unit-delay cells at tick 0 appears in
    ``outputs[k]``.
    """
    if n_ticks < 0:
        raise ValueError("n_ticks must be >= 0")
    tr: Trace | None
    if isinstance(trace, Trace):
        tr = trace
    else:
        tr = Trace() if trace else None
    outputs: dict[int, dict] = {}
    for _ in range(n_ticks):
        t = array.tick_count
        if callable(input_schedule):
            binj = input_schedule(t)
        elif input_schedule is None:
            binj = None
        else:
            binj = input_schedule.get(t)
        outs = array.tick(binj, trace=tr)
        if outs:
            outputs[t + 1] = outs
    return outputs, (tr if tr is not None else Trace())
