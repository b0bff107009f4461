"""Outside-in tracing of the simulator's layers, installed from the benchmark.

The tracer swaps the functions through which one layer calls the next for
timing wrappers, and swaps them back afterwards; nothing under ``src/``
changes.  Each wrapper belongs to one layer:

- ``engine``: ``build_array`` (as each family module imported it),
  ``engine.run`` and ``engine.Array.tick``;
- ``<family>.cell`` and ``<family>.activation``: the step and activation
  callables each family hands to ``build_array``;
- ``<family>.driver``: the family's public drivers, called by the benchmark;
- ``oracle`` and ``gfield``: the reference solvers and the GF(p) polynomial
  helpers that family drivers and oracles import.

Everything a pass does outside these calls is ``bench`` (checks and
bookkeeping), and the calibrated cost of the wrappers themselves is
``trace``, so the self times of all layers sum to the pass's wall time.

Coarse calls (drivers, oracles, array builds and runs) are recorded as spans
with name, start, end, parent and instance.  Ticks, cell steps, predicate
polls and GF(p) helpers run millions of times per pass; they are folded into
per-layer call counts and self times instead of being recorded one by one.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import statistics
import time
from collections import Counter

from systolic import eigen, engine, intgcd, oracle, polygcd, toeplitz
from systolic.engine import CellProgram

clock = time.perf_counter_ns

FAMILIES = {"intgcd": intgcd, "polygcd": polygcd, "toeplitz": toeplitz, "eigen": eigen}
DRIVERS = {
    "intgcd": ("systolic_int_gcd",),
    "polygcd": ("systolic_poly_gcd", "pipeline_batch"),
    "toeplitz": ("systolic_toeplitz_solve", "bareiss_solve", "count_trace_multiplications"),
}
ORACLES = ("euclid_int_gcd", "euclid_poly_gcd", "dense_lu_solve_nopivot",
           "serial_cyclic_jacobi")
EIGEN_MODES = ("broadcast", "delayed")

FOLD, SPAN = 0, 1  # wrapper kinds; a SPAN wrapper also records a span


def _layer(key: str) -> str:
    return key.split(":")[0]


class Tracer:
    """Per-layer call counts and self times of one traced pass, plus its spans."""

    def __init__(self):
        self.stack = [0.0]  # child time seen by each open wrapped call, ns
        self.open_spans = [-1]  # ids of the recorded spans now open
        self.accs: dict[str, list] = {}  # key -> [kind, calls, raw self ns]
        self.spans: list[list] = []  # [id, parent, name, inst, t0, t1, nested]
        # ns each wrapper adds inside / outside the interval it measures,
        # per kind: [fold in, fold out, span in, span out]
        self.cost = [0.0, 0.0, 0.0, 0.0]
        self.unit_cost = [0.0, 0.0, 0.0, 0.0]  # the same per unit of kernel time
        self.counts: Counter = Counter()
        self.extra_ns = 0.0  # tracer work that was timed directly
        self.inst = None  # instance the pass is working on
        self._patches = self._make_patches()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, key: str, fn, span: bool = False):
        """`fn` timed under `key`; with `span`, every call is also recorded."""
        acc = self.accs.setdefault(key, [SPAN if span else FOLD, 0, 0.0])
        stack = self.stack
        cost = self.cost
        if not span:
            def folded(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    acc[1] += 1
                    acc[2] += dur - stack.pop()
                    stack[-1] += dur + cost[1]
            return folded

        open_spans = self.open_spans

        def spanned(*args, **kwargs):
            rec = [len(self.spans), open_spans[-1], key, self.inst, 0, 0, self._nested()]
            self.spans.append(rec)
            open_spans.append(rec[0])
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                rec[4], rec[5] = t0, t1
                before = rec[6]
                after = self._nested()
                rec[6] = tuple(a - b for a, b in zip(after, before))
                acc[1] += 1
                acc[2] += dur - stack.pop()
                stack[-1] += dur + cost[3]
                open_spans.pop()
        return spanned

    def _nested(self) -> tuple:
        """(fold calls, span calls, directly timed tracer ns) so far."""
        calls = [0, 0]
        for kind, n, _ in self.accs.values():
            calls[kind] += n
        return calls[0], calls[1], self.extra_ns

    def _untimed(self, tb: int):
        """Move the tracer work since `tb` out of the enclosing layer."""
        d = clock() - tb
        self.extra_ns += d
        self.stack[-1] += d

    def _wrap_build(self, family: str, real):
        timed = self.wrap("engine:build_array", real, span=True)

        def build_array(spec, cell_programs, eval_order=None):
            tb = clock()
            if spec.activation is not None:
                spec = dataclasses.replace(
                    spec, activation=self.wrap(f"{family}.activation", spec.activation))
            steps = {}
            progs = {}
            for cell, prog in cell_programs.items():
                step = steps.get(prog.step)
                if step is None:
                    step = steps[prog.step] = self.wrap(f"{family}.cell", prog.step)
                progs[cell] = CellProgram(step, prog.init)
            self._untimed(tb)
            return timed(spec, progs, eval_order)
        return build_array

    def _wrap_run(self, real):
        timed = self.wrap("engine:run", real, span=True)

        def run(array, input_schedule, n_ticks, *args, **kwargs):
            out = timed(array, input_schedule, n_ticks, *args, **kwargs)
            tb = clock()
            topo = array.spec.topology
            cells = topo[1] if topo[0] == "linear" else topo[1] * topo[2]
            self.counts["cell_ticks"] += cells * n_ticks
            if array.spec.activation is None:  # every cell runs on every tick
                self.counts["unpredicated_polls"] += cells * n_ticks
            self.counts["trace_records"] += len(out[1])
            self._untimed(tb)
            return out
        return run

    def _wrap_forward(self, real):
        timed = self.wrap("toeplitz.driver:bareiss_forward", real)

        def bareiss_forward(*args, **kwargs):
            state = timed(*args, **kwargs)
            self.counts["mults_serial"] += state.mults
            return state
        return bareiss_forward

    def _wrap_sweeps(self, real):
        by_mode = {m: self.wrap(f"eigen.driver:run_sweeps[{m}]", real, span=True)
                   for m in EIGEN_MODES}

        def run_sweeps(a, *args, mode="broadcast", **kwargs):
            return by_mode[mode](a, *args, mode=mode, **kwargs)
        return run_sweeps

    def _make_patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every traced call."""
        p = []
        for family, mod in FAMILIES.items():
            p.append((mod, "build_array", mod.build_array,
                      self._wrap_build(family, mod.build_array)))
        p.append((engine, "run", engine.run, self._wrap_run(engine.run)))
        p.append((engine.Array, "tick", engine.Array.tick,
                  self.wrap("engine:tick", engine.Array.tick)))
        for family, names in DRIVERS.items():
            mod = FAMILIES[family]
            for name in names:
                fn = getattr(mod, name)
                p.append((mod, name, fn, self.wrap(f"{family}.driver:{name}", fn, span=True)))
        p.append((toeplitz, "bareiss_forward", toeplitz.bareiss_forward,
                  self._wrap_forward(toeplitz.bareiss_forward)))
        p.append((eigen, "run_sweeps", eigen.run_sweeps, self._wrap_sweeps(eigen.run_sweeps)))
        for name in ORACLES:
            fn = getattr(oracle, name)
            p.append((oracle, name, fn, self.wrap(f"oracle:{name}", fn, span=True)))
        # the GF(p) helpers as the modules that call them imported them
        for mod in (polygcd, oracle):
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == "systolic.gfield":
                    p.append((mod, name, fn, self.wrap(f"gfield:{name}", fn)))
        return p

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def reset(self):
        self.stack[:] = [0.0]
        self.open_spans[:] = [-1]
        for acc in self.accs.values():
            acc[1], acc[2] = 0, 0.0
        self.spans = []
        self.counts.clear()
        self.extra_ns = 0.0
        self.inst = None

    # -- calibration ---------------------------------------------------------

    def calibrate(self, kernel, calls: int = 2000, rounds: int = 25):
        """Measure each wrapper kind's cost inside and outside its interval,
        in units of the time `kernel()` reports, so that `at_speed` can turn
        it into nanoseconds at the host's speed when a pass starts.

        A wrapped no-op is timed against the bare no-op: the interval the
        wrapper measures, less the bare call, is its inner cost; the rest of
        the difference falls outside the interval, on the caller.  Rounds
        are short, so the host's speed barely moves within one.
        """
        def noop(a, b, c):
            return None

        keys = {FOLD: "calibration:fold", SPAN: "calibration:span"}
        wrapped = {FOLD: self.wrap(keys[FOLD], noop),
                   SPAN: self.wrap(keys[SPAN], noop, span=True)}
        est = {FOLD: ([], []), SPAN: ([], [])}
        r = range(calls)
        for _ in range(rounds):
            unit = statistics.median(kernel() for _ in range(3))
            t = clock()
            for _ in r:
                pass
            empty = clock() - t
            t = clock()
            for _ in r:
                noop(1, 2, 3)
            bare = clock() - t
            for kind, w in wrapped.items():
                self.reset()
                t = clock()
                for _ in r:
                    w(1, 2, 3)
                total = clock() - t
                inner = self.accs[keys[kind]][2] / calls - (bare - empty) / calls
                est[kind][0].append(inner / unit)
                est[kind][1].append(((total - bare) / calls - inner) / unit)
        self.unit_cost = [max(statistics.median(est[kind][side]), 0.0)
                          for kind in (FOLD, SPAN) for side in (0, 1)]
        for key in keys.values():
            del self.accs[key]
        self.reset()

    def at_speed(self, kernel_ns: float):
        """Set the wrapper costs for a pass during which `kernel()` takes `kernel_ns`."""
        self.cost[:] = [u * kernel_ns for u in self.unit_cost]

    def snapshot(self, t_start: int) -> "PassTrace":
        """The counts and spans of the pass that began at `t_start`."""
        return PassTrace(
            accs={k: tuple(v) for k, v in self.accs.items()}, spans=self.spans,
            counts=Counter(self.counts), extra_ns=self.extra_ns,
            child_ns=self.stack[0], cost=list(self.cost), t_start=t_start,
        )


@dataclasses.dataclass
class PassTrace:
    """What one traced pass recorded, with its calibrated wrapper cost."""

    accs: dict  # key -> (kind, calls, raw self ns)
    spans: list
    counts: Counter
    extra_ns: float
    child_ns: float  # time inside top-level wrapped calls, wrapper cost included
    cost: list
    t_start: int

    def _incl(self, rec) -> float:
        """A span's duration less the wrapper cost inside it."""
        fold, span, extra = rec[6]
        c = self.cost
        return (rec[5] - rec[4] - c[2] - fold * (c[0] + c[1])
                - span * (c[2] + c[3]) - extra)

    def self_of(self, key: str) -> float:
        kind, n, raw = self.accs.get(key, (FOLD, 0, 0.0))
        return raw - n * self.cost[2 * kind]

    def calls_of(self, key: str) -> int:
        return self.accs.get(key, (FOLD, 0, 0.0))[1]

    def span_time(self, key: str) -> float:
        return sum(self._incl(rec) for rec in self.spans if rec[2] == key)

    def layer_times(self, wall_ns: float) -> tuple[Counter, Counter]:
        """Calibrated self time (ns) and calls per layer; the times sum to `wall_ns`.

        Where the calibration overstates the wrapper cost inside a layer, its
        self time would go negative; it is held at 0 and the excess goes back
        out of the tracer's own time.
        """
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        wrapper = self.extra_ns
        for key, (kind, n, _) in self.accs.items():
            self_ns[_layer(key)] += self.self_of(key)
            calls[_layer(key)] += n
            wrapper += n * (self.cost[2 * kind] + self.cost[2 * kind + 1])
        for layer, ns in self_ns.items():
            if ns < 0:
                wrapper += ns
                self_ns[layer] = 0.0
        self_ns["trace"] = wrapper
        self_ns["bench"] = wall_ns - self.child_ns
        return self_ns, calls

    def write_jsonl(self, path, wall_ns: float):
        """The pass, its spans, then one line per traced function, as JSON lines."""
        self_ns, _ = self.layer_times(wall_ns)
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "pass", "wall_ns": wall_ns,
                                 "wrapper_cost_ns": self.cost,
                                 "layer_self_ns": dict(self_ns)}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps({
                    "type": "span", "id": rec[0], "parent": rec[1], "name": rec[2],
                    "inst": rec[3], "start_ns": rec[4] - self.t_start,
                    "end_ns": rec[5] - self.t_start, "incl_ns": self._incl(rec),
                }) + "\n")
            for key, (_, n, _) in sorted(self.accs.items()):
                fh.write(json.dumps({"type": "function", "name": key, "layer": _layer(key),
                                     "calls": n, "self_ns": self.self_of(key)}) + "\n")


def per_layer_metrics(tr: PassTrace, wall_ns: int, speed: float, facts: dict,
                      overhead: float) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit); 0 for layers not called.

    Times are scaled by `speed`, the pass's reference machine speed.
    """
    self_ns, calls = tr.layer_times(wall_ns)

    def sec(ns):
        return ns * speed / 1e9

    def per(x, n):
        return x / n if n else 0.0

    def ns_per(ns, n):
        return per(ns * speed, n)

    activations = sum(calls[f"{f}.cell"] for f in FAMILIES)
    polls = sum(calls[f"{f}.activation"] for f in FAMILIES) + tr.counts["unpredicated_polls"]
    m = {
        "engine.self_s": (sec(self_ns["engine"]), "s"),
        "engine.ns_per_activation": (ns_per(self_ns["engine"], activations), "ns"),
        "engine.polls": (polls, "count"),
        "engine.poll_hit_ratio": (per(activations, polls), "ratio"),
        "engine.build_s": (sec(tr.self_of("engine:build_array")), "s"),
        "engine.builds": (tr.calls_of("engine:build_array"), "count"),
        "engine.ticks": (tr.calls_of("engine:tick"), "count"),
        "engine.activations": (activations, "count"),
        "engine.utilisation": (per(activations, tr.counts["cell_ticks"]), "ratio"),
        "engine.trace_records": (tr.counts["trace_records"], "count"),
    }
    for f in FAMILIES:
        for part in ("cell", "activation"):
            layer = f"{f}.{part}"
            m[f"{layer}.self_s"] = (sec(self_ns[layer]), "s")
            m[f"{layer}.ns_per_call"] = (ns_per(self_ns[layer], calls[layer]), "ns")
        m[f"{f}.driver.self_s"] = (sec(self_ns[f"{f}.driver"]), "s")
    m.update({
        "polygcd.driver.single_s": (sec(tr.span_time("polygcd.driver:systolic_poly_gcd")), "s"),
        "polygcd.driver.stream_s": (sec(tr.span_time("polygcd.driver:pipeline_batch")), "s"),
        "toeplitz.serial_s": (sec(tr.span_time("toeplitz.driver:bareiss_solve")), "s"),
        "toeplitz.mults_systolic": (facts.get("mults_systolic", 0), "count"),
        "toeplitz.mults_serial": (tr.counts["mults_serial"], "count"),
        "eigen.broadcast_s": (sec(tr.span_time("eigen.driver:run_sweeps[broadcast]")), "s"),
        "eigen.delayed_s": (sec(tr.span_time("eigen.driver:run_sweeps[delayed]")), "s"),
        "eigen.useful_step_ratio": (per(facts.get("useful_steps", 0),
                                        facts.get("simulated_steps", 0)), "ratio"),
        "oracle.self_s": (sec(self_ns["oracle"]), "s"),
        "oracle.calls": (calls["oracle"], "count"),
        "oracle.share": (per(self_ns["oracle"], wall_ns), "ratio"),
        "gfield.self_s": (sec(self_ns["gfield"]), "s"),
        "gfield.calls": (calls["gfield"], "count"),
        "bench.self_s": (sec(self_ns["bench"]), "s"),
        "trace.wrapper_s": (sec(self_ns["trace"]), "s"),
        "trace.wall_s": (sec(wall_ns), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m
