"""Command-line front end: run commands, oracle verification sweeps, trace stats.

Every command reports through one path, ``_emit``: it writes the traces of
the command's runs to ``--trace FILE``, if given, and then prints the human
or JSON report.  ``verify``'s aggregates follow one rule: each family names,
for each aggregate, the instance fields whose largest value it reports.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags or
bad input, raised as ``ValueError`` and reported by ``main``), 3 numerical
breakdown or simulation error.  All randomness is drawn from the --seed
flag, so a repeated invocation produces byte-identical reports and traces.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from . import eigen, intgcd, oracle, polygcd, toeplitz
from .engine import SimulationError, to_jsonl
from .gfield import Field, poly_to_str
from .oracle import SingularMatrixError


def _emit(args, human_lines, payload, traces=()):
    """Write ``traces`` to --trace FILE, if given, then print the report."""
    if args.trace is not None:
        with open(args.trace, "w") as fh:
            for tr in traces:
                fh.write(to_jsonl(tr))
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _refuse_trace(args, needs: str, runner: str):
    """Reject --trace for a run that builds no array, before any input is read."""
    if args.trace is not None:
        raise ValueError(f"--trace needs {needs}: {runner} runs no array")


def _numbers(tokens, kind, where: str) -> list:
    """Each token converted by kind, int or float; a token that is not a
    number is a usage error that names where it came from."""
    values = []
    for tok in tokens:
        try:
            values.append(kind(tok))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{where}: {tok.strip()!r} is not {what}") from None
    return values


def _parse_coeffs(text: str, flag: str) -> list:
    text = text.strip()
    return _numbers(text.split(","), int, flag) if text else []


# -- generators (all seeded) --------------------------------------------------


def gen_poly_pair(rng: random.Random, p: int, max_deg: int):
    """Random pair with nonzero constant and leading terms."""
    def poly():
        d = rng.randint(0, max_deg)
        coeffs = [rng.randrange(p) for _ in range(d + 1)]
        coeffs[0] = rng.randrange(1, p)
        coeffs[-1] = rng.randrange(1, p)
        return tuple(coeffs)
    return poly(), poly()


def gen_int_pair(rng: random.Random, n_bits: int):
    a = rng.randint(1, (1 << n_bits) - 1)
    b = rng.randint(1, (1 << n_bits) - 1)
    return a, b


def gen_toeplitz(rng: random.Random, n: int) -> toeplitz.ToeplitzBands:
    """Diagonally dominant bands in [-1, 1] with an inflated main diagonal."""
    diags = [rng.uniform(-1.0, 1.0) for _ in range(2 * n + 1)]
    diags[n] = sum(abs(x) for x in diags) + 1.0
    rhs = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
    return toeplitz.ToeplitzBands(n, tuple(diags), tuple(rhs))


def gen_symmetric(rng: random.Random, n: int) -> np.ndarray:
    """Q diag(spread) Q^T built from seeded plane rotations."""
    a = np.diag([rng.uniform(-5.0, 5.0) for _ in range(n)])
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        th = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(th), math.sin(th)
        ri, rj = a[i].copy(), a[j].copy()
        a[i], a[j] = c * ri - s * rj, s * ri + c * rj
        ci, cj = a[:, i].copy(), a[:, j].copy()
        a[:, i], a[:, j] = c * ci - s * cj, s * ci + c * cj
    return 0.5 * (a + a.T)


# -- run subcommands ----------------------------------------------------------


def cmd_polygcd(args) -> int:
    field = Field(args.p)
    a, b = _parse_coeffs(args.a, "--a"), _parse_coeffs(args.b, "--b")
    run = polygcd.systolic_poly_gcd(field, a, b, variant=args.variant,
                                    trace=args.trace is not None)
    _emit(args, [f"gcd: {poly_to_str(field, run.gcd)}",
                 f"latency: {run.latency} ticks",
                 f"cells: {run.cells}"],
          {"gcd": list(run.gcd), "p": args.p, "latency": run.latency,
           "cells": run.cells}, [run.trace])
    return 0


def cmd_intgcd(args) -> int:
    if args.mode != "systolic":
        _refuse_trace(args, "--mode systolic", f"{args.mode} mode")
    a, b = args.a, args.b
    if a <= 0 or b <= 0:
        raise ValueError("intgcd: inputs must be positive")
    if args.bits < 0:
        raise ValueError("intgcd: --bits must not be negative")
    bits = args.bits or max(a.bit_length(), b.bit_length())
    if args.mode == "systolic":
        run = intgcd.systolic_int_gcd(a, b, bits, trace=args.trace is not None)
        g, cells, ticks, traces = run.gcd, run.cells, run.ticks, [run.trace]
    else:
        aa, bb, e = intgcd.strip_twos(a, b)
        if args.mode == "serial":
            g, ticks = intgcd.pm_serial(aa, bb), 0
        else:
            g, ticks = intgcd.pm_precursor(aa, bb, bits)
        g, cells, traces = g << e, 0, ()
    _emit(args, [f"gcd: {g}", f"cells: {cells}", f"ticks: {ticks}"],
          {"gcd": g, "cells": cells, "ticks": ticks, "mode": args.mode}, traces)
    return 0


def _read_reals(path, flag: str) -> list:
    with open(path) as fh:
        return _numbers(fh.read().split(), float, f"{flag} file {path}")


def cmd_toeplitz(args) -> int:
    if args.mode == "serial":
        _refuse_trace(args, "--mode systolic", "serial mode")
    diags = _read_reals(args.bands, "--bands")
    rhs = _read_reals(args.rhs, "--rhs")
    n = args.n
    bands = toeplitz.ToeplitzBands(n, tuple(diags), tuple(rhs))
    if args.mode == "serial":
        x, ticks, traces = toeplitz.bareiss_solve(bands), 0, ()
    else:
        run = toeplitz.systolic_toeplitz_solve(bands, trace=args.trace is not None)
        x, ticks, traces = run.x, run.ticks, [run.trace]
    _emit(args, [f"x: {' '.join(repr(float(v)) for v in x)}", f"ticks: {ticks}"],
          {"x": [float(v) for v in x], "ticks": ticks, "mode": args.mode}, traces)
    return 0


def read_matrix_file(path) -> np.ndarray:
    """n followed by the n(n+1)/2 lower-triangle entries, row-major."""
    vals = _read_reals(path, "--matrix")
    # is_integer() is False for nan and inf, which int() would not accept
    if not (vals and vals[0] >= 1 and vals[0].is_integer()):
        raise ValueError("matrix size n must be a positive integer")
    n = int(vals[0])
    need = n * (n + 1) // 2
    tri = vals[1:]
    if len(tri) != need:
        raise ValueError(f"matrix file needs {need} entries, found {len(tri)}")
    a = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            a[i, j] = a[j, i] = tri[k]
            k += 1
    return a


def cmd_eigen(args) -> int:
    if args.mode == "broadcast":
        _refuse_trace(args, "--mode delayed", "broadcast mode")
    a = read_matrix_file(args.matrix)
    res = eigen.run_sweeps(a, max_sweeps=args.max_sweeps, mode=args.mode,
                           compute_vectors=args.vectors, trace=args.trace is not None)
    lines = [f"eigenvalues: {' '.join(repr(float(v)) for v in res.eigenvalues)}",
             f"sweeps: {res.report.sweeps_used}",
             f"converged: {res.report.converged}"]
    payload = {"eigenvalues": [float(v) for v in res.eigenvalues],
               "sweeps": res.report.sweeps_used,
               "converged": res.report.converged}
    if args.vectors:
        lines.append("eigenvectors:")
        for row in res.eigenvectors:
            lines.append("  " + " ".join(repr(float(v)) for v in row))
        payload["eigenvectors"] = [[float(v) for v in r] for r in res.eigenvectors]
    _emit(args, lines, payload, [res.report.trace])
    return 0


# -- verify -------------------------------------------------------------------


def _verify_polygcd(rng, count, trace):
    field_ps = (2, 7, 257)
    for i in range(count):
        p = field_ps[i % len(field_ps)]
        field = Field(p)
        a, b = gen_poly_pair(rng, p, 16)
        want = oracle.euclid_poly_gcd(field, a, b)
        inst = {"index": i, "p": p, "degA": len(a) - 1, "degB": len(b) - 1}
        runs = [polygcd.systolic_poly_gcd(field, a, b, variant=variant, trace=trace)
                for variant in polygcd.VARIANTS]
        for variant, run in zip(polygcd.VARIANTS, runs):
            inst[f"latency_{variant}"] = run.latency
        inst["pass"] = all(run.gcd == want and run.latency <= 2 * run.cells for run in runs)
        yield inst, [run.trace for run in runs]


def _verify_intgcd(rng, count, trace):
    for i in range(count):
        n_bits = rng.randint(4, 32)
        a, b = gen_int_pair(rng, n_bits)
        run = intgcd.systolic_int_gcd(a, b, n_bits, trace=trace)
        yield ({"index": i, "bits": n_bits, "cells": run.cells, "ticks": run.ticks,
                "pass": run.gcd == oracle.euclid_int_gcd(a, b)}, [run.trace])


def _verify_toeplitz(rng, count, trace):
    """Array x against the LU oracle; the serial x must equal it byte for byte."""
    for i in range(count):
        n = rng.choice((4, 8, 16))
        bands = gen_toeplitz(rng, n)
        run = toeplitz.systolic_toeplitz_solve(bands, trace=trace)
        dense = bands.to_dense()
        x_o, _ = oracle.dense_lu_solve_nopivot(dense, np.array(bands.rhs))
        denom = (np.max(np.abs(dense)) * max(np.max(np.abs(run.x)), 1.0)
                 + np.max(np.abs(bands.rhs)))
        res = float(np.max(np.abs(dense @ run.x - np.array(bands.rhs))) / denom)
        ok = bool(res < 1e-10 and np.max(np.abs(run.x - x_o)) < 1e-8
                  and toeplitz.bareiss_solve(bands).tobytes() == run.x.tobytes())
        yield {"index": i, "n": n, "residual": res, "pass": ok}, [run.trace]
    # seeded singular probe: a_0 = 0 must break down cleanly, not crash
    n = 4
    diags = [1.0] * (2 * n + 1)
    diags[n] = 0.0
    probe = toeplitz.ToeplitzBands(n, tuple(diags), tuple([1.0] * (n + 1)))
    try:
        toeplitz.systolic_toeplitz_solve(probe, trace=False)
        ok, note = False, "singular instance did not raise"
    except SingularMatrixError:
        ok, note = True, "expected-singular"
    yield {"index": "singular-probe", "pass": ok, "note": note}, []


def _verify_eigen(rng, count, trace):
    """Broadcast eigenvalues against the oracle; delayed ones must equal
    broadcast's byte for byte, and delayed runs give the traces."""
    for i in range(count):
        n = rng.choice((4, 8, 16))
        a = gen_symmetric(rng, n)
        res = eigen.run_sweeps(a)
        delayed = eigen.run_sweeps(a, mode="delayed", trace=trace)
        ev_o, _, _ = oracle.serial_cyclic_jacobi(a)
        err = float(np.max(np.abs(np.sort(res.eigenvalues) - np.sort(ev_o))))
        scale = float(np.linalg.norm(a))
        ok = (err <= 1e-8 * scale and res.report.converged
              and delayed.eigenvalues.tobytes() == res.eigenvalues.tobytes())
        yield ({"index": i, "n": n, "error": err, "sweeps": res.report.sweeps_used,
                "pass": ok}, [delayed.report.trace])


# family -> (generator of (instance, traces), {aggregate: the instance fields
# whose largest value it reports}); an instance without a field, such as
# Toeplitz's singular probe, is skipped
VERIFIERS = {"polygcd": (_verify_polygcd, {"max_latency": ("latency_fig4", "latency_appA")}),
             "intgcd": (_verify_intgcd, {"max_cells": ("cells",), "max_ticks": ("ticks",)}),
             "toeplitz": (_verify_toeplitz, {"max_residual": ("residual",)}),
             "eigen": (_verify_eigen, {"max_error": ("error",), "max_sweeps": ("sweeps",)})}


def cmd_verify(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    runner, fields = VERIFIERS[args.family]
    instances, traces = [], []
    for inst, run_traces in runner(random.Random(args.seed), args.count,
                                   args.trace is not None):
        instances.append(inst)
        traces.extend(run_traces)
    aggregates = {name: max(inst[f] for inst in instances for f in names if f in inst)
                  for name, names in fields.items()}
    n_pass = sum(1 for inst in instances if inst["pass"])
    lines = []
    for inst in instances:
        tag = "ok" if inst["pass"] else "FAIL"
        detail = " ".join(f"{k}={inst[k]}" for k in inst if k not in ("pass", "index"))
        lines.append(f"{args.family}[{inst['index']}] {detail} {tag}")
    agg_text = " ".join(f"{k}={v}" for k, v in aggregates.items())
    lines.append(f"verify {args.family}: {n_pass}/{len(instances)} pass"
                 + (f" ({agg_text})" if agg_text else ""))
    payload = {"family": args.family, "seed": args.seed, "count": args.count,
               "instances": instances, "aggregates": aggregates,
               "pass": n_pass == len(instances)}
    _emit(args, lines, payload, traces)
    return 0 if n_pass == len(instances) else 1


# -- trace stats --------------------------------------------------------------


def trace_stats(path) -> dict:
    """Per-cell active-tick fractions from a JSONL trace file.

    The file may hold several runs, as ``verify --trace`` writes them: a
    record that is not strictly after the one before it in (tick, row, col)
    order starts a new run.  ``ticks`` sums the runs' lengths, each its last
    tick plus one, and a cell's fraction is its records over ``ticks``.
    """
    counts: dict = {}
    ticks = 0  # the lengths of the runs before the current one
    last = None  # (tick, row, col) of the record before
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not (isinstance(rec, dict) and all(type(rec.get(k)) is int and rec[k] >= 0
                                                  for k in ("tick", "row", "col"))):
                raise ValueError(f"{path}: line {lineno} is not a trace record")
            key = (rec["row"], rec["col"])
            counts[key] = counts.get(key, 0) + 1
            at = (rec["tick"], *key)
            if last is not None and at <= last:
                ticks += last[0] + 1
            last = at
    if last is None:
        return {"ticks": 0, "cells": {}, "mean_utilisation": 0.0}
    ticks += last[0] + 1
    cells = {f"{r},{c}": counts[(r, c)] / ticks for (r, c) in sorted(counts)}
    mean = sum(cells.values()) / len(cells)
    return {"ticks": ticks, "cells": cells, "mean_utilisation": mean}


def cmd_trace_stats(args) -> int:
    _refuse_trace(args, "a command that runs an array", "trace-stats")
    stats = trace_stats(args.file)
    lines = [f"ticks: {stats['ticks']}"]
    for key, frac in stats["cells"].items():
        lines.append(f"cell {key}: {frac:.4f}")
    lines.append(f"mean utilisation: {stats['mean_utilisation']:.4f}")
    _emit(args, lines, stats)
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for generated instances (default 0)")
    common.add_argument("--format", choices=("human", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--trace", metavar="FILE", default=argparse.SUPPRESS,
                        help="write a JSONL trace")
    ap = argparse.ArgumentParser(prog="systolic", parents=[common],
                                 description="cycle-accurate systolic algorithm simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygcd", parents=[common],
                       help="systolic polynomial GCD over GF(p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", required=True, help="comma-separated coefficients, constant first")
    p.add_argument("--b", required=True)
    p.add_argument("--variant", choices=polygcd.VARIANTS, default="fig4")
    p.set_defaults(func=cmd_polygcd)

    p = sub.add_parser("intgcd", parents=[common],
                       help="integer GCD (plus-minus algorithm)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--bits", type=int, default=0, help="word-size bound n (default: fit)")
    p.add_argument("--mode", choices=("serial", "precursor", "systolic"), default="systolic")
    p.set_defaults(func=cmd_intgcd)

    p = sub.add_parser("toeplitz", parents=[common], help="Toeplitz system solver")
    p.add_argument("--n", type=int, required=True,
                   help="index bound n; the matrix is (n+1) x (n+1)")
    p.add_argument("--bands", required=True, help="file with 2n+1 reals a_-n .. a_n")
    p.add_argument("--rhs", required=True, help="file with n+1 reals")
    p.add_argument("--mode", choices=("serial", "systolic"), default="systolic")
    p.set_defaults(func=cmd_toeplitz)

    p = sub.add_parser("eigen", parents=[common],
                       help="symmetric eigensolver (parallel Jacobi)")
    p.add_argument("--matrix", required=True,
                   help="file with n then n(n+1)/2 lower-triangle reals")
    p.add_argument("--mode", choices=("broadcast", "delayed"), default="broadcast")
    p.add_argument("--max-sweeps", type=int, default=10)
    p.add_argument("--vectors", action="store_true")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", parents=[common],
                       help="random instances vs serial oracles")
    p.add_argument("family", choices=VERIFIERS)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace-stats", parents=[common],
                       help="utilisation report from a trace file")
    p.add_argument("file")
    p.set_defaults(func=cmd_trace_stats)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.seed = getattr(args, "seed", 0)
    args.format = getattr(args, "format", "human")
    args.trace = getattr(args, "trace", None)
    try:
        return args.func(args)
    except SingularMatrixError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
