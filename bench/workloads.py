"""Seeded inputs, instance runners and checks for the four benchmark workloads.

Every workload drives one family through its public driver functions and
checks each instance against ``systolic.oracle`` and, where the family has
two paths, against the other path.  An instance passes only if every check
passes, the paper's cost bounds included.  Each run returns the exact
simulated tick count and a canonical byte form of the program's results
(floats by their bytes), which feed ``sim_ticks_per_inst`` and
``results_digest``.

Inputs come from this module's own generators, never from ``systolic.cli``.
Sizes are stratified: every seed gives the same mix of small and large
instances, and polynomial degree pairs are drawn one per cell of an m x m
grid over [0, D]^2, while the values themselves are random.  Each pair is
still uniform over all degree pairs, as in acceptance criterion 1, but the
amount of work per run no longer depends on the seed.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from dataclasses import dataclass, field

import numpy as np

from systolic import eigen, intgcd, oracle, polygcd, toeplitz
from systolic.gfield import Field

@dataclass(frozen=True)
class Sizes:
    small: int  # bits, degree bound or matrix order of a small instance
    large: int
    n_small: int  # instances of each size in one pass (polygcd: a square)
    n_large: int
    batch: int = 0  # polygcd only: consecutive pairs streamed per pipeline_batch


# Per pass the large instances take most of the time; 100 small instances
# give the tail percentile 10 instances beyond it.  Small polynomial pairs
# fill a 17 x 17 grid, so every seed runs each degree pair up to 16 once.
PROFILES = {
    "full": {
        "intgcd-bitserial": Sizes(16, 64, 100, 16),
        "polygcd-stream": Sizes(16, 64, 289, 36, batch=4),
        "toeplitz-solve": Sizes(32, 128, 100, 16),
        "eigen-jacobi": Sizes(8, 32, 100, 2),
    },
    # the harness self-test: every path runs, in well under a second
    "tiny": {
        "intgcd-bitserial": Sizes(4, 8, 3, 2),
        "polygcd-stream": Sizes(3, 6, 4, 4, batch=2),
        "toeplitz-solve": Sizes(2, 4, 3, 2),
        "eigen-jacobi": Sizes(2, 4, 3, 2),
    },
}


@dataclass
class Instance:
    index: int
    size: str  # "small" or "large"
    data: tuple


@dataclass
class Outcome:
    ok: bool  # every oracle, cross-path and paper-bound check passed
    bound_ok: bool  # the paper's cost bounds held
    ticks: int  # simulated ticks the family drivers report for this instance
    canon: bytes  # the program's results in canonical form
    facts: dict = field(default_factory=dict)  # exact counts, summed over the pass
    error: str = ""  # why the instance failed, if it did
    result: object = None  # what the pass's batches must reproduce (polygcd: the GCD)


def _floats(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _degree_pairs(rng: random.Random, count: int, top: int) -> list[tuple[int, int]]:
    """`count` = m*m degree pairs, one uniform draw in each cell of an m x m
    grid over [0, top]^2, in random order; each pair is uniform over all pairs.

    Cells mirrored through the centre of the grid take mirrored offsets
    (antithetic draws), which evens out the work from one seed to the next.
    """
    m = math.isqrt(count)
    if m * m != count:
        raise ValueError(f"{count} polynomial pairs do not fill a square grid")
    width = (top + 1) / m
    offsets: dict[tuple, tuple] = {}
    pairs = []
    for i in range(m):
        for j in range(m):
            mirror = offsets.get((m - 1 - i, m - 1 - j))
            u = (1 - mirror[0], 1 - mirror[1]) if mirror else (rng.random(), rng.random())
            offsets[(i, j)] = u
            pairs.append((min(int((i + u[0]) * width), top),
                          min(int((j + u[1]) * width), top)))
    rng.shuffle(pairs)
    return pairs


class Workload:
    """Instances of one family: `generate` them, `run` each, then the `batch_jobs`."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def attempt(self, inst: Instance) -> Outcome:
        """`run`, with an exception from the program counted as a failed check."""
        try:
            return self.run(inst)
        except Exception as exc:
            return Outcome(False, True, 0, repr(exc).encode(), error=repr(exc))

    def batch_jobs(self, instances: list[Instance], outcomes: list[Outcome]) -> list:
        """Work done once per pass over all instances, as calls that each
        return their canonical results and mark the instances they fail."""
        return []


# -- intgcd-bitserial -----------------------------------------------------------


class IntGcd(Workload):
    """Bit-serial integer GCD on uniform pairs in [1, 2^n)."""

    def generate(self, rng: random.Random) -> list[Instance]:
        sizes = self.sizes
        out = []
        for size, n, count in (("small", sizes.small, sizes.n_small),
                               ("large", sizes.large, sizes.n_large)):
            for _ in range(count):
                a = rng.randint(1, (1 << n) - 1)
                b = rng.randint(1, (1 << n) - 1)
                out.append(Instance(len(out), size, (a, b, n)))
        return out

    def run(self, inst: Instance) -> Outcome:
        a, b, n = inst.data
        r = intgcd.systolic_int_gcd(a, b, n)
        # ceil(3.1106 n) + 1 cells, in exact integer arithmetic
        bound_ok = r.cells == -(-31106 * n // 10000) + 1
        ok = bound_ok and r.gcd == oracle.euclid_int_gcd(a, b)
        canon = f"{r.gcd},{r.raw_output},{r.cells},{r.ticks}".encode()
        return Outcome(ok, bound_ok, r.ticks, canon,
                       error="" if ok else f"gcd {r.gcd}, {r.cells} cells")


# -- polygcd-stream -------------------------------------------------------------


def _poly(rng: random.Random, p: int, degree: int) -> tuple:
    """Random polynomial of exact degree with a nonzero constant term."""
    c = [rng.randrange(p) for _ in range(degree + 1)]
    c[0] = rng.randrange(1, p)
    c[-1] = rng.randrange(1, p)
    return tuple(c)


class PolyGcd(Workload):
    """Both cell variants per pair, plus the same pairs streamed in batches."""

    FIELDS = (7, 257)
    # `pipeline_batch` in fig4 misreads a one-slot frame (two constant
    # polynomials) that is followed by another frame: it returns a wrong GCD
    # or raises SimulationError.  A workload must not fail, and its inputs
    # stay as they are, so only appA streams until fig4 is fixed.
    STREAM_VARIANTS = ("appA",)

    def __init__(self, sizes: Sizes):
        super().__init__(sizes)
        self.fields = {p: Field(p) for p in self.FIELDS}

    def generate(self, rng: random.Random) -> list[Instance]:
        sizes = self.sizes
        out = []
        for size, top, count in (("small", sizes.small, sizes.n_small),
                                 ("large", sizes.large, sizes.n_large)):
            for k, (da, db) in enumerate(_degree_pairs(rng, count, top)):
                p = self.FIELDS[k % len(self.FIELDS)]
                out.append(Instance(len(out), size, (p, _poly(rng, p, da), _poly(rng, p, db))))
        return out

    def run(self, inst: Instance) -> Outcome:
        p, a, b = inst.data
        f = self.fields[p]
        want = oracle.euclid_poly_gcd(f, a, b)
        cells = len(a) + len(b) - 1  # m + n + 1
        ok = bound_ok = True
        ticks = 0
        canon = []
        for variant in polygcd.VARIANTS:
            r = polygcd.systolic_poly_gcd(f, a, b, variant)
            bound_ok = bound_ok and r.cells == cells and r.latency <= 2 * cells
            ok = ok and r.gcd == want
            ticks += r.ticks
            canon.append(f"{variant}:{r.gcd}:{r.latency}:{r.cells}:{r.ticks}")
        return Outcome(ok and bound_ok, bound_ok, ticks, ";".join(canon).encode(),
                       error="" if ok and bound_ok else ";".join(canon), result=want)

    def batch_jobs(self, instances, outcomes) -> list:
        """Stream consecutive pairs of one size and field back to back.

        A pair fails unless its streamed result equals the oracle's GCD,
        which both variants' single runs had to match as well.
        """
        def job(p, chunk, variant):
            pairs = [instances[i].data[1:] for i in chunk]
            try:
                got = polygcd.pipeline_batch(self.fields[p], pairs, variant)
            except Exception as exc:  # a failed check, like a wrong result
                got = [f"{type(exc).__name__}: {exc}"] * len(chunk)
            if len(got) != len(chunk):
                got = [f"{len(got)} results for {len(chunk)} pairs"] * len(chunk)
            for i, g in zip(chunk, got):
                if g != outcomes[i].result:
                    outcomes[i].ok = False
                    outcomes[i].error = outcomes[i].error or (
                        f"pipeline_batch {variant} of pairs {chunk}: got {g}")
            return f"{chunk[0]}:{variant}:{got};".encode()

        groups: dict[tuple, list[int]] = {}
        for inst in instances:
            groups.setdefault((inst.size, inst.data[0]), []).append(inst.index)
        return [functools.partial(job, p, idxs[lo: lo + self.sizes.batch], variant)
                for (_, p), idxs in groups.items()
                for lo in range(0, len(idxs), self.sizes.batch)
                for variant in self.STREAM_VARIANTS]


# -- toeplitz-solve -------------------------------------------------------------


class Toeplitz(Workload):
    """Systolic, serial band and dense LU solves of diagonally dominant bands."""

    def generate(self, rng: random.Random) -> list[Instance]:
        sizes = self.sizes
        out = []
        for size, n, count in (("small", sizes.small, sizes.n_small),
                               ("large", sizes.large, sizes.n_large)):
            for _ in range(count):
                diags = [rng.uniform(-1.0, 1.0) for _ in range(2 * n + 1)]
                diags[n] = sum(abs(x) for x in diags) + 1.0
                rhs = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
                bands = toeplitz.ToeplitzBands(n, tuple(diags), tuple(rhs))
                # dense (i, j) = a_(j-i), built here so the oracle's input
                # does not come from the code under test
                idx = np.arange(n + 1)
                dense = np.array(diags)[idx[None, :] - idx[:, None] + n]
                out.append(Instance(len(out), size, (bands, dense, np.array(rhs))))
        return out

    @staticmethod
    def _accurate(dense, rhs, x, x_oracle) -> bool:
        # the tolerances of `systolic verify toeplitz`
        denom = np.max(np.abs(dense)) * max(np.max(np.abs(x)), 1.0) + np.max(np.abs(rhs))
        residual = np.max(np.abs(dense @ x - rhs)) / denom
        return bool(residual < 1e-10 and np.max(np.abs(x - x_oracle)) < 1e-8)

    def run(self, inst: Instance) -> Outcome:
        bands, dense, rhs = inst.data
        n = bands.n
        r = toeplitz.systolic_toeplitz_solve(bands)
        x_serial = toeplitz.bareiss_solve(bands)
        x_oracle, _ = oracle.dense_lu_solve_nopivot(dense, rhs)
        mults = toeplitz.count_trace_multiplications(r.trace, n)
        bound_ok = r.cells == n + 1 and r.ticks == 4 * n + 1
        ok = (bound_ok and self._accurate(dense, rhs, r.x, x_oracle)
              and self._accurate(dense, rhs, x_serial, x_oracle))
        canon = (_floats(r.x) + _floats(x_serial)
                 + struct.pack("<3q", r.cells, r.ticks, mults))
        return Outcome(ok, bound_ok, r.ticks, canon, {"mults_systolic": mults},
                       "" if ok else f"{r.cells} cells, {r.ticks} ticks, or inaccurate x")


# -- eigen-jacobi ---------------------------------------------------------------


class Eigen(Workload):
    """Broadcast and delayed Jacobi sweeps against the serial cyclic oracle."""

    def generate(self, rng: random.Random) -> list[Instance]:
        sizes = self.sizes
        nrng = np.random.default_rng(rng.getrandbits(64))
        out = []
        for size, n, count in (("small", sizes.small, sizes.n_small),
                               ("large", sizes.large, sizes.n_large)):
            for _ in range(count):
                q, _ = np.linalg.qr(nrng.normal(size=(n, n)))
                a = q @ np.diag(nrng.uniform(-5.0, 5.0, n)) @ q.T
                out.append(Instance(len(out), size, (0.5 * (a + a.T),)))
        return out

    def run(self, inst: Instance) -> Outcome:
        (a,) = inst.data
        rb = eigen.run_sweeps(a, mode="broadcast")
        rd = eigen.run_sweeps(a, mode="delayed")
        vals_o, _, _ = oracle.serial_cyclic_jacobi(a)
        err = np.max(np.abs(np.sort(rb.eigenvalues) - np.sort(vals_o)))
        ok = (_floats(rb.eigenvalues) == _floats(rd.eigenvalues)
              and err <= 1e-8 * np.linalg.norm(a)
              and rb.report.converged and rd.report.converged)
        size = a.shape[0] + a.shape[0] % 2
        h = size // 2
        # cell (i, j) runs step s at tick 3s + |i - j|, so the tick count
        # gives the number of steps simulated
        simulated = (rd.report.ticks - h) // 3 + 1
        useful = rd.report.sweeps_used * (size - 1)
        ticks = rb.report.ticks + rd.report.ticks
        canon = b"".join((
            _floats(rb.eigenvalues), _floats(rd.eigenvalues),
            _floats(rb.report.off_norms), _floats(rd.report.off_norms),
            struct.pack("<5q", rb.report.sweeps_used, rd.report.sweeps_used,
                        rb.report.rotations_performed, rb.report.ticks, rd.report.ticks),
        ))
        return Outcome(bool(ok), True, ticks, canon,
                       {"useful_steps": useful, "simulated_steps": simulated},
                       "" if ok else f"modes differ or error {err:.3g} too large")


FAMILIES = {
    "intgcd-bitserial": IntGcd,
    "polygcd-stream": PolyGcd,
    "toeplitz-solve": Toeplitz,
    "eigen-jacobi": Eigen,
}


def _interleave(instances: list[Instance]) -> list[Instance]:
    """Spread the large instances evenly among the small ones, and renumber,
    so that a drift of the host's speed within a pass hits both sizes alike."""
    by_size = {"small": [], "large": []}
    for inst in instances:
        by_size[inst.size].append(inst)
    keyed = [((k + 0.5) / len(group), inst)
             for group in by_size.values() for k, inst in enumerate(group)]
    keyed.sort(key=lambda x: x[0])
    return [Instance(k, inst.size, inst.data) for k, (_, inst) in enumerate(keyed)]


def prepare(name: str, seed: int, profile: str = "full"):
    """The workload object and its instances for `seed`; same seed, same inputs."""
    wl = FAMILIES[name](PROFILES[profile][name])
    return wl, _interleave(wl.generate(random.Random(f"{name}:{seed}")))
