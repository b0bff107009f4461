"""A reference interpreter of the engine's rules, sharing no code with it.

It reads a spec as plainly as it can: dicts keyed by (cell, port), ``t in
window`` on every tick, and each tick's writes held back until its last
cell has stepped.  It has no plan, schedule, latch slots or write plans,
and it imports from the engine only the interface that a spec is made of.
"""

from typing import NamedTuple

from systolic.engine import ArraySpec, CellId, CellProgram, Wire


class Record(NamedTuple):
    tick: int
    cell: CellId
    state: dict
    inputs: dict
    outputs: dict


class Refused(Exception):
    """A write that changes the payload kind of a port within one run."""

    def __init__(self, tick: int):
        super().__init__(f"tick {tick}: payload kind changed")
        self.tick = tick


class RefArray:
    """One run of ``spec`` on ``programs``."""

    def __init__(self, spec: ArraySpec, programs: dict[CellId, CellProgram]):
        _, rows, cols = spec.topology
        self.cells = [CellId(r, c) for r in range(rows) for c in range(cols)]
        self.ports = {c: tuple(map(tuple, spec.ports(c))) if spec.ports else ((), ())
                      for c in self.cells}
        wires: tuple[Wire, ...] = spec.wiring
        self.source = {(w.dst, w.dst_port): (w.src, w.src_port) for w in wires}
        wired = set(self.source.values())
        self.boundary_out = [(c, p) for c in self.cells for p in self.ports[c][1]
                             if (c, p) not in wired]
        self.windows = spec.activation and {c: spec.activation(c) for c in self.cells}
        self.programs = {c: programs[c] for c in self.cells}
        self.state = {c: tuple(programs[c].init.values()) for c in self.cells}
        self.latch = {}  # (cell, port) -> its last write, from the tick after it
        self.kind = {}  # (cell, port) -> the type of its first write
        self.t = 0

    def tick(self, lines: dict) -> list[Record]:
        """Step every cell whose windows hold this tick, in cell order, and
        return their records."""
        t, records, pending = self.t, [], {}
        for c in self.cells:
            if self.windows is not None and not any(t in w for w in self.windows[c]):
                continue
            in_names, out_names = self.ports[c]
            ins, shown = [], {}
            for p in in_names:
                if (c, p) in self.source:
                    src = self.source[c, p]
                    ins.append(self.latch.get(src, 0))
                    if src in self.latch:
                        shown[p] = self.latch[src]
                else:
                    line = lines[c, p]
                    ins.append(line[t] if t < len(line) else 0)
                    shown[p] = ins[-1]
            prog = self.programs[c]
            state, outs = prog.step(self.state[c], tuple(ins), t)
            outs = {p: v for p, v in zip(out_names, outs) if v is not None}
            for p, v in outs.items():
                if self.kind.setdefault((c, p), type(v)) is not type(v):
                    raise Refused(t)
            self.state[c] = state
            pending.update(((c, p), v) for p, v in outs.items())
            records.append(Record(t, c, dict(zip(prog.init, state)), shown, outs))
        self.latch.update(pending)
        self.t += 1
        return records

    def run(self, feed, n_ticks: int) -> tuple[dict, list[Record]]:
        """``n_ticks`` ticks fed from ``feed``, ``{cell: {port: line}}``:
        every boundary output's line, indexed by tick, and the records.  A
        line holds the port's latch from the run's first tick on, and 0
        before it."""
        lines = {(CellId(*c), p): line for c, ports in (feed or {}).items()
                 for p, line in ports.items()}
        outs = {key: [0] * self.t + [self.latch.get(key, 0)] for key in self.boundary_out}
        records = []
        for _ in range(n_ticks):
            records += self.tick(lines)
            for key, line in outs.items():
                line.append(self.latch.get(key, 0))
        return outs, records
