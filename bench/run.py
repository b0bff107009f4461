"""Benchmark of the four systolic families, end to end and layer by layer.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Each run builds its inputs from ``--seed``, checks every instance against
the oracles, and prints a report followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
times the workload untraced and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  ``--workload all`` runs the four workloads one after
another, each in a fresh process.  The exit code is 1 when an instance
fails a check and 2 when the program cannot be found.

See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("intgcd-bitserial", "polygcd-stream", "toeplitz-solve", "eigen-jacobi")
END_TO_END_UNITS = {
    "verified_per_s": "inst/s",
    "small_ms_p50": "ms",
    "small_ms_tail": "ms",
    "large_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_ticks_per_inst": "ticks",
}

# An instance's time is its median over the timed passes, which filters out
# the host's hiccups and keeps what belongs to the instance.  The tail is the
# highest of these percentiles with 10 small instances beyond it: p90 for
# the 100 small instances of a full run.
TAIL_PCTS = (90, 75, 50)
MIN_PASSES = 3
TIMED_CAP_S = 120.0  # start no pass that would end the timed phase later than this
SETUP_PROBES = 8  # fresh interpreters timed for setup_s
# Most of the set-up is importing numpy, whose time on a shared host jumps
# by a factor of two between minutes, unlike the pure-Python kernel below.
# So each set-up probe is paired with a fresh interpreter that imports numpy
# and nothing of the program; setup_s is REF_IMPORT_S plus the median excess
# of a probe over its pair, scaled by the kernel's speed like the passes.
REF_IMPORT_S = 0.15


# -- host speed ---------------------------------------------------------------

# Host times after set-up are scaled to a reference machine speed.  The
# speed of a shared host drifts by tens of percent within seconds and
# between minutes, which would swamp the bounds.  So while the timed passes
# run, a timer signal times a fixed kernel that shares no code with the
# program every SAMPLE_S seconds.  Each timed piece of work, less the
# kernel's own time, is multiplied by REF_NS over the kernel's median time
# within WINDOW_NS of the piece.  On a machine where the kernel takes REF_NS
# the figures are plain wall times.
REF_NS = 400_000
SAMPLE_S = 0.025
WINDOW_NS = 100_000_000

clock = time.perf_counter_ns


def reference_ns() -> int:
    """Time one run of the reference kernel (pure Python, independent of the program)."""
    t = clock()
    lst = [(i * 2654435761) % 1000003 for i in range(2000)]
    lst.sort()
    sum(x & 7 for x in lst)
    return clock() - t


class SpeedSampler:
    """Samples the host's speed with the reference kernel while it is entered."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (when, kernel ns)
        self.paused_ns = 0  # time spent in the kernel so far

    def _sample(self, signum, frame):
        t = clock()
        self.samples.append((t, reference_ns()))
        self.paused_ns += clock() - t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0: int, t1: int) -> float:
        """REF_NS over the kernel's median time within WINDOW_NS of [t0, t1]
        (or at the nearest sample, should none fall there)."""
        lo = bisect.bisect_left(self.samples, (t0 - WINDOW_NS,))
        hi = bisect.bisect_right(self.samples, (t1 + WINDOW_NS,))
        near = self.samples[lo:hi] or self.samples[max(lo - 1, 0): lo + 1]
        return REF_NS / statistics.median(k for _, k in near)


def speed_now() -> float:
    """The host's speed from a burst of kernel runs, for passes run unsampled."""
    return REF_NS / statistics.median(reference_ns() for _ in range(15))


def _load_program():
    """Import the benchmark's modules against this checkout's ``src/``."""
    init = SRC / "systolic" / "__init__.py"
    if not init.is_file():
        print(f"error: no program at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import systolic
    if Path(systolic.__file__).resolve() != init.resolve():
        print(f"error: imported {systolic.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


# -- one pass -----------------------------------------------------------------


@dataclass
class Pass:
    t_start: int
    pieces: list  # (start, end, kernel time within) of each instance, then each batch
    attempted: int
    failed: int
    bound_violations: int
    ticks: int
    digest: str
    facts: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # index of each failed instance -> why
    speeds: list = field(default_factory=list)  # host speed at each piece, once scaled
    scaled: list = field(default_factory=list)  # each piece's time at reference speed

    def scale(self, speed_at):
        """Scale each piece by the host's speed `speed_at(start, end)`."""
        self.speeds = [speed_at(t0, t1) for t0, t1, _ in self.pieces]
        self.scaled = [t * s for t, s in zip(self.times, self.speeds)]

    @property
    def times(self) -> list:
        """Each piece's time, the reference kernel's left out."""
        return [t1 - t0 - paused for t0, t1, paused in self.pieces]

    @property
    def work_ns(self) -> int:
        return sum(self.times)

    @property
    def scaled_work_ns(self) -> float:
        return sum(self.scaled)

    @property
    def speed(self) -> float:
        return statistics.median(self.speeds)


def run_pass(wl, instances, sampler=None, tracer=None) -> Pass:
    """Every instance once, then the workload's batches; the unit of timing."""
    pieces = []

    def timed(work):
        paused = sampler.paused_ns if sampler else 0
        t0 = clock()
        out = work()
        t1 = clock()
        pieces.append((t0, t1, (sampler.paused_ns if sampler else 0) - paused))
        return out

    outcomes = []
    t_start = clock()
    for inst in instances:
        if tracer is not None:
            tracer.inst = inst.index
        outcomes.append(timed(functools.partial(wl.attempt, inst)))
    if tracer is not None:
        tracer.inst = "batches"
    batch_canon = [timed(job) for job in wl.batch_jobs(instances, outcomes)]
    h = hashlib.sha256()
    facts = {}
    for out in outcomes:
        h.update(len(out.canon).to_bytes(8, "little") + out.canon)
        for k, v in out.facts.items():
            facts[k] = facts.get(k, 0) + v
    h.update(b"".join(batch_canon))
    return Pass(
        t_start=t_start, pieces=pieces,
        attempted=len(outcomes), failed=sum(not o.ok for o in outcomes),
        bound_violations=sum(not o.bound_ok for o in outcomes),
        ticks=sum(o.ticks for o in outcomes), digest=h.hexdigest(), facts=facts,
        errors={i.index: o.error for i, o in zip(instances, outcomes) if not o.ok},
    )


def _nearest_rank(values, pct):
    s = sorted(values)
    return s[max(math.ceil(pct / 100 * len(s)), 1) - 1]


def _tail(values):
    """(percentile, value) for the tail; the median when there are under 20 values."""
    for pct in TAIL_PCTS:
        if len(values) - math.ceil(pct / 100 * len(values)) >= 10:
            break
    return pct, _nearest_rank(values, pct)


def _instance_times(passes, instances, size):
    """Each instance of `size`: its median time over the passes."""
    return [statistics.median(p.scaled[k] for p in passes)
            for k, inst in enumerate(instances) if inst.size == size]


# -- set-up -------------------------------------------------------------------


def _setup_probe(args, what: str) -> float:
    """Seconds a fresh interpreter takes for the `what` set-up ("program" or "reference")."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", what,
           "--workload", args.workload, "--seed", str(args.seed), "--profile", args.profile]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def reference_setup() -> float:
    """Seconds to import numpy, which the program's set-up also loads."""
    t0 = time.perf_counter()
    importlib.import_module("numpy")
    return time.perf_counter() - t0


def prepare(args):
    """Import the program and build the inputs; returns (wl, instances, seconds)."""
    t0 = time.perf_counter()
    workloads = _load_program()
    wl, instances = workloads.prepare(args.workload, args.seed, args.profile)
    return wl, instances, time.perf_counter() - t0


# -- the two kinds of run -----------------------------------------------------


def timed_run(args, wl, instances, setup_s) -> tuple[dict, dict, list]:
    setups, refs, excess = [], [], []
    for _ in range(SETUP_PROBES):
        setups.append(_setup_probe(args, "program"))
        refs.append(_setup_probe(args, "reference"))
        excess.append((setups[-1] - refs[-1]) * speed_now())
    warm = run_pass(wl, instances)
    passes = []
    t0 = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            passes.append(run_pass(wl, instances, sampler))
            elapsed = time.perf_counter() - t0
            if ((elapsed >= args.seconds and len(passes) >= MIN_PASSES)
                    or elapsed * (len(passes) + 1) / len(passes) > TIMED_CAP_S):
                break
    for p in passes:
        p.scale(sampler.speed)
    small = _instance_times(passes, instances, "small")
    large = _instance_times(passes, instances, "large")
    verified = sum(p.attempted - p.failed for p in passes)
    work_s = sum(p.scaled_work_ns for p in passes) / 1e9
    pct, tail = _tail(small)
    first = passes[0]
    metrics = {
        "verified_per_s": verified / work_s,
        "small_ms_p50": statistics.median(small) / 1e6,
        "small_ms_tail": tail / 1e6,
        "large_ms_p50": statistics.median(large) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": REF_IMPORT_S + statistics.median(excess),
        "sim_ticks_per_inst": first.ticks / first.attempted,
    }
    info = {
        "timed_passes": len(passes),
        "timed_s": elapsed,
        "machine_speed": [round(p.speed, 4) for p in passes],
        "unscaled_verified_per_s": verified * 1e9 / sum(p.work_ns for p in passes),
        "small_instances": len(small),
        "large_instances": len(large),
        "small_ms_tail_percentile": pct,
        "small_ms_tail_instances_beyond": len(small) - math.ceil(pct / 100 * len(small)),
        "setup_s_in_run": setup_s,
        "setup_s_samples": setups,
        "setup_reference_samples": refs,
        "unscaled_setup_s": statistics.median(setups),
    }
    return metrics, info, [warm] + passes


def _unsampled_pass(wl, instances, tracer=None) -> Pass:
    """A pass scaled by the host's speed just before and after it, for
    traced runs, where a sample would land inside the traced layers."""
    before = speed_now()
    if tracer is not None:
        tracer.at_speed(REF_NS / before)
    p = run_pass(wl, instances, tracer=tracer)
    speed = (before + speed_now()) / 2
    p.scale(lambda t0, t1: speed)
    return p


def traced_run(args, wl, instances) -> tuple[dict, dict, list]:
    import tracer as tracing
    tr = tracing.Tracer()
    tr.calibrate(reference_ns)
    warm = run_pass(wl, instances)
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(_unsampled_pass(wl, instances))
        tr.reset()
        tr.install()
        try:
            p = _unsampled_pass(wl, instances, tr)
        finally:
            tr.uninstall()
        traced.append((p, tr.snapshot(p.t_start)))
        elapsed = time.perf_counter() - t0
        if elapsed >= args.seconds or elapsed * (len(plain) + 1) / len(plain) > TIMED_CAP_S:
            break
    # the traced pass of median scaled time stands for the run
    p, snap = sorted(traced, key=lambda x: x[0].scaled_work_ns)[(len(traced) - 1) // 2]
    overhead = (statistics.median(q.scaled_work_ns for q, _ in traced)
                / statistics.median(q.scaled_work_ns for q in plain))
    metrics = tracing.per_layer_metrics(snap, p.work_ns, p.speed, p.facts, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    snap.write_jsonl(spans_path, p.work_ns)
    info = {"traced_passes": len(traced), "untraced_passes": len(plain),
            "wrapper_cost_ns": snap.cost, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info, [warm] + plain + [q for q, _ in traced]


# -- driver -------------------------------------------------------------------


def run_one(args) -> int:
    if args.setup_only == "reference":
        print(reference_setup())
        return 0
    wl, instances, setup_s = prepare(args)
    if args.setup_only:
        print(setup_s)
        return 0
    if args.trace:
        metrics, info, passes = traced_run(args, wl, instances)
    else:
        raw, info, passes = timed_run(args, wl, instances, setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    correct = failed == 0 and len(digests) == 1
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "profile": args.profile,
        "fail_ratio": failed / attempted,
        "results_digest": passes[0].digest if len(digests) == 1 else sorted(digests),
        "paper_bound_violations": passes[0].bound_violations,
        "failed_instances": passes[0].errors,
        "instances_per_pass": passes[0].attempted,
        **info,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
    for k, v in report.items():
        print(f"{args.workload} {k} = {v}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload} {name} = {shown} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so memory and set-up are its own."""
    status = 0
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--profile", args.profile]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status != 2:
        print(json.dumps({"correct": status == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="instance sizes; 'tiny' is for the harness self-test")
    ap.add_argument("--setup-only", choices=("program", "reference"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
