"""Mutations of the engine and of each family's cell that the tests must
catch, and their runner.

Each mutant replaces one exact text of a source file with another, and
names the test files that must fail on it and where it was first reported:
the commit whose tests were first shown to catch it, or the ROADMAP item
that first described it.  Run from the repository root:

    python tests/mutants.py

The runner copies ``src/`` and ``tests/`` to a temporary directory and runs
every test file of the table there once, unmutated, which must pass.  Then
it applies one mutant at a time to the copy and runs its test files with
``pytest -x`` under a timeout; the mutant is killed if they fail or time
out.  An old text that does not occur exactly once in its file is an error,
so a change to the code a mutant targets updates the mutant in the same
diff.  A mutant shown equivalent is kept with its reason and not run.  The
last line gives killed/total and the time taken; the exit status is 1 if a
mutant survives or its text does not match.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    origin: str
    # why the mutant cannot change what the program does, if it cannot
    equivalent: str = ""


ENGINE = "src/systolic/engine.py"
INTGCD = "src/systolic/intgcd.py"
POLYGCD = "src/systolic/polygcd.py"
TOEPLITZ = "src/systolic/toeplitz.py"
EIGEN = "src/systolic/eigen.py"
# the engine's own tests, its reference interpreter and the golden traces
CORE = ("tests/test_engine.py", "tests/test_ref_engine.py", "tests/test_ref_engine_runs.py",
        "tests/test_golden_traces.py")
# the integer GCD cell's pinned truth table
TABLE = "tests/test_intgcd.py::test_the_cell_s_whole_truth_table_is_pinned"

MUTANTS = (
    Mutant("a record shows an input first written on its own tick", ENGINE,
           "if first[s] < t}", "if first[s] <= t}", CORE, "ROADMAP item 10"),
    Mutant("expand drops a window that ends on a stretch's last tick", ENGINE,
           "if w[-1] >= hi]", "if w[-1] > hi]", CORE, "ROADMAP item 10"),
    Mutant("a first write leaves its slot's first-write tick unset", ENGINE,
           "            self._first[s] = t\n", "", CORE, "ROADMAP item 10, dfbb5ac"),
    Mutant("a cell's outputs are latched as soon as it steps", ENGINE,
           "            put(outs)\n",
           "            put(outs)\n            latch[plan.cellv[i][1]] = outs\n", CORE,
           "ROADMAP item 10, 4220f2e"),
    Mutant("a tick latches before it compares kinds", ENGINE,
           "            have = kinds[where]\n",
           "            self._latch[where] = flat\n            have = kinds[where]\n", CORE,
           "dfbb5ac"),
    Mutant("expand reverses each tick's cells past tick 256", ENGINE,
           "        for on in map(tuple, by_tick):\n",
           "        for on in (tuple(on[::-1] if lo >= 256 else on) for on in by_tick):\n",
           CORE, "9b5b011"),
    Mutant("an unwritten port takes the latched value of the slot after it", ENGINE,
           "flat[j] = latch[start + j]", "flat[j] = latch[start + j + 1]", CORE,
           "one output check for every tick"),
    Mutant("an unwritten port is latched as None", ENGINE,
           "                        flat[j] = latch[start + j]\n", "                        pass\n",
           CORE, "one output check for every tick"),
    Mutant("first writes are fixed before the whole tick has passed", ENGINE,
           "                        fresh.append((start + j, types[j]))\n",
           "                        fresh.append((start + j, types[j]))\n"
           "                        kinds[start + j], self._first[start + j] = types[j], t\n",
           CORE, "one output check for every tick"),
    Mutant("a kind-change error names the port before the changed one", ENGINE,
           "port = {plan.cellv[i][1].start + n:", "port = {plan.cellv[i][1].start + n + 1:", CORE,
           "one output check for every tick"),
    Mutant("a run tick compares one output count too few, so it is checked cell by cell",
           ENGINE, "plan.counts[p:p + len(made)]", "plan.counts[p:p + len(made) - 1]", CORE,
           "a failed tick keeps what ran"),
    Mutant("run zeroes a boundary output after reading it", ENGINE,
           "            line.append(latch[slot])\n",
           "            line.append(latch[slot])\n            latch[slot] = 0\n", CORE,
           "a run only reads the array"),
    Mutant("expand stores every schedule entry with run None", ENGINE,
           "entry = shared[on] = (on, self.run_of(on))", "entry = shared[on] = (on, None)", CORE,
           "a run only reads the array"),
    Mutant("expand shares an entry only among the ticks of one stretch", ENGINE,
           "        shared = self._entries\n", "        shared = {}\n", CORE,
           "ROADMAP item 8, one entry per distinct tick"),
    Mutant("a plan without windows rests with no cell", ENGINE,
           "self.rest = (range(len(cells)), self.run_of(range(len(cells))))",
           "self.rest = ((), None)", ("tests/test_polygcd.py",), "every tick reads one schedule entry"),
    Mutant("a windowless plan's rest entry records no run", ENGINE,
           "self.rest = (range(len(cells)), self.run_of(range(len(cells))))",
           "self.rest = (range(len(cells)), None)", CORE, "every tick reads one schedule entry"),
    # one per family cell
    Mutant("the integer GCD cell's carry skips the minus bit", INTGCD,
           "carry = _majority(b, carry, a ^ minus)", "carry = _majority(b, carry, a)",
           ("tests/test_intgcd.py",), "ROADMAP item 14"),
    Mutant("the integer GCD cell's sign update ands where it ors", INTGCD,
           "neg = neg | (1 - eps2)", "neg = neg & (1 - eps2)",
           ("tests/test_intgcd.py", "tests/test_golden_traces.py"), "ROADMAP item 14"),
    # no run tells these two from the cell; the whole truth table does
    Mutant("the integer GCD cell's first odd bit shifts on b alone", INTGCD,
           "shift = 1 - (a & b)", "shift = 1 - b", (TABLE,), "ROADMAP item 17"),
    Mutant("the integer GCD cell's swap set-up keeps aout", INTGCD,
           "aout = aout | swap", "aout = aout", (TABLE,), "ROADMAP item 17"),
    Mutant("the fig4 cell's quotient uses the wrong inverse power", POLYGCD,
           "pow(bin_, p - 2, p)", "pow(bin_, p - 3, p)", ("tests/test_polygcd.py",),
           "ROADMAP item 14"),
    Mutant("the appA cell's quotient uses the wrong inverse power", POLYGCD,
           "pow(b, p - 2, p)", "pow(b, p - 3, p)", ("tests/test_polygcd.py",),
           "ROADMAP item 14"),
    Mutant("Toeplitz elimination adds the multiple it should subtract", TOEPLITZ,
           "eta = eta - lam * xi", "eta = eta + lam * xi", ("tests/test_toeplitz.py",),
           "ROADMAP item 14"),
    Mutant("rotate_block's row transform flips a sign", EIGEN,
           "t10 = si * b00 + ci * b10", "t10 = si * b00 - ci * b10", ("tests/test_eigen.py",),
           "ROADMAP item 14"),
)

# reported mutations that have no code left to mutate, with the reason
DROPPED = {
    "trace capture moved before the kind check (e97b5be)":
        "every tick now captures each record as its cell steps, before any check, and a "
        "refused tick keeps every record it captured",
    "a refused tick keeps the records of the refused cell and those after it (699feb4)":
        "that is now the contract: a refused tick keeps the record of every cell that "
        "stepped, as it keeps their registers, so there is no trace cut-back to mutate",
    "a lazy unread set that ignores payload kinds (6da2978)":
        "the set is gone: a record reads the run's first-write ticks",
    "a settled tick leaves a fresh slot's first-write tick unset (699feb4)":
        "one check fixes the first writes of every tick, on one line, whose mutant "
        "\"a first write leaves its slot's first-write tick unset\" is kept",
    "a write run ends one port early, or late (7d0458d)":
        "writes are no longer split at unwritten ports: an unwritten port writes its "
        "slot's own latched value, so a run is written in one slice",
    "a write run's latch slice, or its outputs slice, is one slot off (7d0458d)":
        "there is no per-port write plan to slice; the latch copy that replaced it has a "
        "mutant of its own, one slot off",
    "an unwritten port leaves the array taking runs (699feb4)":
        "the array no longer stops taking runs: a tick with an unwritten port is checked "
        "as one run, so there is no flag to mutate",
}

TIMEOUT = 120


def pytest(root: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether ``tests`` pass in the copy at ``root``, and how long they took;
    a run that times out fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(repo / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(repo / "pyproject.toml", root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        where = subprocess.run([sys.executable, "-c", "import systolic; print(systolic.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).is_relative_to(root):
            print(f"the copy's tests would import systolic from {where.strip()}")
            return 1
        every = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        passed, took = pytest(root, every)
        print(f"unmutated: {'pass' if passed else 'FAIL'} in {took:.1f} s")
        if not passed:
            return 1
        killed = counted = bad = 0
        for m in MUTANTS:
            if m.equivalent:
                print(f"equivalent  {m.name} [{m.origin}]: {m.equivalent}")
                continue
            path = root / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"NO MATCH    {m.name} [{m.origin}]: its old text occurs "
                      f"{text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                survived, took = pytest(root, m.tests)
            finally:
                path.write_text(text)
            counted += 1
            killed += not survived
            print(f"{'SURVIVED' if survived else 'killed':11} {m.name} [{m.origin}] in {took:.1f} s")
        for name, reason in DROPPED.items():
            print(f"dropped     {name}: {reason}")
    print(f"{killed}/{counted} mutants killed in {time.perf_counter() - start:.0f} s")
    return int(killed < counted or bad > 0)


if __name__ == "__main__":
    sys.exit(main())
