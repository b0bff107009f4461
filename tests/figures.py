"""CI's job summary figures, one function each, which the tier-1 tests pinning them call too.
``PYTHONPATH=src python tests/figures.py`` prints each from a fresh interpreter, as an
earlier figure's runs fill the caches that would shrink a later one's bytes."""

import ast
import contextlib
import gc
import io
import random
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from test_golden_traces import A, B
from test_intgcd import BRANCHES, branch, small_word_runs

from systolic import cli, eigen, engine, intgcd, polygcd, toeplitz
from systolic.gfield import Field

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SYMMETRIC = np.random.default_rng(1).normal(size=(32, 32))
SYMMETRIC = SYMMETRIC + SYMMETRIC.T  # the delayed Jacobi figures' matrix


def code_lines() -> list[str]:
    """Each source file's lines that hold a token of code (no docstring, comment,
    newline or indent, so deleted comments do not move them), and their total."""
    counts = {}
    for path in (p for d in ("src/systolic", "tests", "bench") for p in sorted(ROOT.glob(d + "/*.py"))):
        src = path.read_text()
        docs = {n for node in ast.walk(ast.parse(src))
                if isinstance(node, DEFS) and ast.get_docstring(node) is not None
                for n in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
        code = {n for tok in tokenize.generate_tokens(io.StringIO(src).readline)
                if tok.type != tokenize.COMMENT and tok.string.strip()
                for n in range(tok.start[0], tok.end[0] + 1)}
        counts[path.relative_to(ROOT)] = len(code - docs)
    return ["```", *(f"{k:7d} {path}" for path, k in counts.items()),
            f"{sum(counts.values()):7d} total code lines", "```"]


def polygcd_chain_bytes() -> list[str]:
    """Polynomial GCD chains' spec plus plan per cell over their cache's 128 shapes,
    66-129 cells in both variants, once a collection empties the free lists."""
    gc.collect()
    tracemalloc.start()
    try:
        for spec in (polygcd._chain_spec(n, v) for v in polygcd.VARIANTS for n in range(66, 130)):
            spec.plan
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return [f"polygcd chain spec plus plan: {size / (2 * sum(range(66, 130))):.0f} B a cell, "
            f"{size / 1e6:.2f} MB for 128 shapes of 66-129 cells (tracemalloc)"]


def kept_toeplitz_trace() -> tuple[int, int, float]:
    """A kept traced Toeplitz n = 128 solve, the drivers' caches full: its records,
    the objects the collector tracks for it after one collection, bytes a record."""
    bands = cli.gen_toeplitz(random.Random(1), 128)
    toeplitz.systolic_toeplitz_solve(bands)
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        run = toeplitz.systolic_toeplitz_solve(bands)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return len(run.trace), len(gc.get_objects()) - before, held / len(run.trace)


def delayed_jacobi_activations(a=SYMMETRIC) -> tuple[int, int, int, float]:
    """A delayed Jacobi run of ``a``: the activations in its plan's schedule
    over its ticks, those ticks, the plan's cells and the utilisation."""
    ticks = eigen.run_sweeps(a, mode="delayed").report.ticks
    plan = eigen._delayed_inputs(len(a))[0].plan
    activations = sum(len(on) for on, _ in plan.schedule[:ticks])
    return activations, ticks, len(plan.cells), activations / (len(plan.cells) * ticks)


@contextlib.contextmanager
def counted_arrays():
    """Yields the arrays built in the block, each counting its ``clocked`` ticks,
    its ``split`` ones (checked cell by cell: more than one write) and the output
    positions ``walked`` one by one (in a run whose types differ from its slots'
    kinds), on ``walked_ticks`` ticks.  The walk count mirrors the ``types ==
    have`` test in ``engine.Array._check`` and must change with it."""
    built = []

    class Counted(engine.Array):
        clocked = split = walked = walked_ticks = 0

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        def _check(self, t, order, run, made):
            kinds, types = list(self._kinds), iter([type(v) for outs in made for v in outs])
            writes = super()._check(t, order, run, made)
            self.clocked += bool(order)
            self.split += len(writes) > 1
            walked = sum(len(flat) for where, flat in writes
                         if [next(types) for _ in flat] != kinds[where])
            self.walked += walked
            self.walked_ticks += walked > 0
            return writes

    with mock.patch.object(engine, "Array", Counted):
        yield built


def family_arrays(names=None) -> dict:
    """name -> the arrays (see ``counted_arrays``) that one run of each family of
    ``names`` (all by default) builds, in order, on operands from random.Random(1)."""
    rng = random.Random(1)
    runs = {"intgcd, n = 64": lambda: intgcd.systolic_int_gcd(
                rng.randrange(1, 2**64), rng.randrange(1, 2**64), 64),
            "polygcd, fig4 and appA": lambda: [polygcd.systolic_poly_gcd(Field(7), A, B, v)
                                               for v in polygcd.VARIANTS],
            "Toeplitz, n = 128": lambda: toeplitz.systolic_toeplitz_solve(
                cli.gen_toeplitz(rng, 128), trace=False),
            "delayed Jacobi, n = 32": lambda: eigen.run_sweeps(SYMMETRIC, mode="delayed")}
    arrays = {}
    for name in names or runs:
        with counted_arrays() as arrays[name]:
            runs[name]()
    return arrays


def schedule_entries(names=("Toeplitz, n = 128", "delayed Jacobi, n = 32")) -> dict:
    """name -> schedule ticks, entry objects and distinct ticks of its last plan in family_arrays."""
    return {name: (len(s), len(set(map(id, s))), len({on for on, _ in s})) for name, s in
            ((name, built[-1].plan.schedule) for name, built in family_arrays(names).items())}


def family_counts() -> list[str]:
    """Per family run, its clocked ticks whose cells write one run of slots, then in
    one line the output positions ``Array._check`` walks one by one and their ticks."""
    counts = {name: np.sum([[a.clocked, a.split, a.walked, a.walked_ticks] for a in built], axis=0)
              for name, built in family_arrays().items()}
    return [*(f"{name}: {c - s} of {c} clocked ticks write one run of latch slots"
              for name, (c, s, _, _) in counts.items()),
            "positions Array._check walks one by one, on clocked ticks: " + "; ".join(
                f"{name}: {w} on {ticks} of {c}" for name, (c, _, w, ticks) in counts.items())]


# each figure's lines, in the summary's order
FIGURES = {"code_lines": code_lines, "polygcd_chain_bytes": polygcd_chain_bytes,
           "kept_toeplitz_trace": lambda: [
               "kept traced Toeplitz solve, n = 128: {} records, {} objects tracked after "
               "gc.collect(), {:.0f} B a record (tracemalloc)".format(*kept_toeplitz_trace())],
           "delayed_jacobi_activations": lambda: ["delayed Jacobi, n = 32: {} activations in {} "
               "ticks on {} cells, utilisation {:.4f}".format(*delayed_jacobi_activations())],
           "schedule_entries": lambda: [f"{name}: {t} schedule ticks, {e} entry objects, {d} "
               "distinct ticks" for name, (t, e, d) in schedule_entries().items()],
           "intgcd_branches": lambda: [  # per n <= 5, the cell's met pairs and their branches
               f"integer GCD cell, n = {n}: {len(met)} met pairs, branches reached: "
               + ", ".join(b for b in BRANCHES if any(branch(*pair) == b for pair in met))
               for n, met in small_word_runs()[1].items()],
           "family_counts": family_counts}

if __name__ == "__main__":
    if sys.argv[1:]:
        print(*FIGURES[sys.argv[1]](), sep="\n")
    else:
        for name in FIGURES:
            subprocess.run([sys.executable, __file__, name], check=True)
