"""Toeplitz linear systems: one set of cell updates, serially and on the array.

The forward pass eliminates subdiagonal k and superdiagonal k of the shifted
matrices at step k while every live part stays Toeplitz, so a cell holds
eight registers: band generators beta/delta (upper) and gamma/alpha (lower),
the multipliers lam/mu and two transformed right-hand-side entries xi/eta.
Back-substitution regenerates one column of the upper factor per step.

One update per phase for cell 0 and one for the interior cells, and one
breakdown predicate, serve both paths; each works the same on Python floats
and on numpy arrays.  On the array, cell k runs them on its registers on
ticks of parity k inside two activity windows, and x ends in the xi
registers after tick 4n.  One array serves every system of its order: its
spec and interior cells' steps are made once per n, and a solve makes only
cell 0's step, which holds the system's pivot tolerance, and programs whose
registers ``toeplitz_registers`` builds.  The serial path runs the updates
on numpy slices over a step's active cells: the array's operations in its
order, so x is the same to the byte.  Cell 0's updates raise every
breakdown, a pivot that fails the predicate, a multiplier that grows past
2^26 or an x that is not finite, in words that name the step, so both
paths fail alike and say so alike.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import CellId, CellProgram, Wire, build_array
from .oracle import SingularMatrixError


class SingularMinorError(SingularMatrixError):
    """A leading principal minor is (numerically) singular, for which no
    pivoting exists, a multiplier grows past the bound, or the solution
    overflows."""


@dataclass(frozen=True)
class ToeplitzBands:
    """(n+1) x (n+1) Toeplitz system: entry (i, j) = diag[j - i + n], rhs b."""

    n: int
    diagonals: tuple  # a_{-n} .. a_n, exactly 2n+1 values
    rhs: tuple  # b_0 .. b_n

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be at least 0, got {self.n}")
        if len(self.diagonals) != 2 * self.n + 1:
            raise ValueError(f"need {2 * self.n + 1} diagonals, got {len(self.diagonals)}")
        if len(self.rhs) != self.n + 1:
            raise ValueError(f"need {self.n + 1} rhs values, got {len(self.rhs)}")
        if not all(math.isfinite(x) for x in (*self.diagonals, *self.rhs)):
            raise ValueError("diagonals and rhs must be finite")

    def to_dense(self) -> np.ndarray:
        idx = np.arange(self.n + 1)
        return np.array(self.diagonals, dtype=float)[idx[None, :] - idx[:, None] + self.n]


def _pivot_tol(bands: ToeplitzBands) -> float:
    """Pivots at or below 1e-12 * max|a_k| are a breakdown.  The rule has no
    floor, so scaling the bands by 2^k decides every pivot the same way."""
    return 1e-12 * max(abs(x) for x in bands.diagonals)


def _singular(p, tol: float) -> bool:
    """Both paths' one breakdown rule: |p| <= tol, or p is NaN."""
    return not abs(p) > tol


# Bareiss without pivoting loses about u * max|m| of relative accuracy to
# multiplier growth, so a multiplier above u^(-1/2) = 2^26 leaves fewer than
# half of a double's digits and is a breakdown.  The bound is scale-free.
_MAX_MULTIPLIER = 2.0 ** 26


def _eliminate_head(alpha, beta, gamma, delta, xi, eta, tol, k):
    """Elimination step k (1..n) of cell 0: the multipliers lam and mu, and
    the two registers they eliminate against.  Returns (lam, mu, beta, eta)."""
    if _singular(gamma, tol):
        raise SingularMinorError("a_0 is (numerically) zero")
    lam = alpha / gamma
    beta = beta - lam * delta
    if _singular(beta, tol):
        raise SingularMinorError(f"leading principal minor {k} is singular")
    mu = delta / beta
    if not (abs(lam) <= _MAX_MULTIPLIER and abs(mu) <= _MAX_MULTIPLIER):
        raise SingularMinorError(f"a multiplier of elimination step {k} exceeds 2^26")
    return lam, mu, beta, eta - lam * xi


def _eliminate(lam, mu, alpha, beta, gamma, delta, xi, eta):
    """Elimination step of an interior cell with cell 0's multipliers."""
    alpha = alpha - lam * gamma
    beta = beta - lam * delta
    eta = eta - lam * xi
    return alpha, beta, gamma - mu * alpha, delta - mu * beta, xi - mu * eta, eta


def _substitute_head(delta, lam, beta, eta, tol, j):
    """Back-substitution step of cell 0 that yields x_j, with delta =
    mu * beta: x_j, and beta regenerated one stage back (as in every cell).
    An x_j that overflows is a breakdown too."""
    if _singular(beta, tol):
        raise SingularMinorError(f"regenerated diagonal {j} is singular")
    xi = eta / beta
    if not math.isfinite(xi):
        raise SingularMinorError(f"x_{j} is not finite")
    return xi, beta + lam * delta


def _substitute(xi, delta, lam, beta, eta):
    """Back-substitution step of an interior cell, with delta the running sum
    of mu * beta from cell 0 through this cell."""
    return eta - beta * xi, beta + lam * delta


@dataclass
class BareissBandState:
    """Forward-pass result: the registers back-substitution reads, by cell."""

    m_neg: np.ndarray  # lam of step k at index k, 1..n
    m_pos: np.ndarray  # mu of step k at index k, 1..n
    beta: np.ndarray   # cell j's beta: U[n-j, n], the upper factor's last column
    eta: np.ndarray    # cell j's eta: the transformed rhs
    tol: float         # pivot tolerance of the forward pass
    mults: int = 0     # multiplication count of the forward pass


def bareiss_forward(bands: ToeplitzBands) -> BareissBandState:
    """The array's elimination phase, step by step over the active cells.
    alpha, delta and xi move one cell left per step, so they are kept by
    band index: at step k cell j reads index j + k."""
    n = bands.n
    tol = _pivot_tol(bands)
    a = np.array(bands.diagonals, dtype=float)
    beta, delta = a[n:].copy(), a[n:].copy()  # a_j
    gamma, alpha = a[n::-1].copy(), a[n::-1].copy()  # a_{-j}
    eta = np.array(bands.rhs[::-1], dtype=float)  # b_{n-j}
    xi = eta.copy()
    m_neg, m_pos = np.zeros(n + 1), np.zeros(n + 1)
    for k in range(1, n + 1):
        m = n + 1 - k  # cells 0..n-k are active
        lam, mu, beta[0], eta[0] = _eliminate_head(alpha[k], beta[0], gamma[0], delta[k],
                                                   xi[k], eta[0], tol, k)
        m_neg[k], m_pos[k] = lam, mu
        s = slice(k + 1, n + 1)  # cells 1..n-k by band index
        alpha[s], beta[1:m], gamma[1:m], delta[s], xi[s], eta[1:m] = _eliminate(
            lam, mu, alpha[s], beta[1:m], gamma[1:m], delta[s], xi[s], eta[1:m])
    # per step, two multiplications in cell 0 and six in each of n-k others
    return BareissBandState(m_neg=m_neg, m_pos=m_pos, beta=beta, eta=eta,
                            tol=tol, mults=3 * n * n - n)


def bareiss_back_substitute(state: BareissBandState) -> np.ndarray:
    """The array's back-substitution phase: step r yields x_{n-r}.  lam, mu
    and eta move left, kept by band index (cell j reads index j + r); delta,
    the running sum passed right, is np.add.accumulate's, which adds from
    the left as the cells do."""
    n = len(state.beta) - 1
    lam = state.m_neg[::-1]  # cell j ends the elimination holding step n-j's
    mu = state.m_pos[::-1]
    beta = state.beta.copy()
    eta = state.eta.copy()
    x = np.empty(n + 1)
    for r in range(n + 1):
        m = n + 1 - r  # cells 0..n-r are active
        delta = np.add.accumulate(mu[r:] * beta[:m])
        x[n - r], beta[0] = _substitute_head(delta[0], lam[r], beta[0], eta[r],
                                             state.tol, n - r)
        eta[r + 1:], beta[1:m] = _substitute(x[n - r], delta[1:], lam[r + 1:],
                                             beta[1:m], eta[r + 1:])
    return x


def bareiss_solve(bands: ToeplitzBands) -> np.ndarray:
    # numpy scalars warn where the cell's Python floats overflow silently;
    # an x that overflows breaks down in both paths alike
    with np.errstate(over="ignore", invalid="ignore"):
        return bareiss_back_substitute(bareiss_forward(bands))


# -- systolic array ----------------------------------------------------------


_XI = 6  # where xi sits in a cell's registers


def toeplitz_registers(bands: ToeplitzBands) -> list[dict]:
    """Every cell's registers by name, its program's ``init``, for cells
    P_0 .. P_n: cell P_k holds alpha = a_{-(k+1)}, beta = a_k, gamma =
    a_{-k}, delta = a_{k+1}, xi = b_{n-k-1} and eta = b_{n-k}, where
    out-of-range diagonals and b_{-1} read as zero."""
    n = bands.n
    a = (0.0, *map(float, bands.diagonals), 0.0)  # a_d at index d + n + 1
    b = (0.0, *map(float, bands.rhs))  # b_j at index j + 1
    return [{"alpha": a[n - k], "beta": a[n + 1 + k], "gamma": a[n + 1 - k], "delta": a[n + 2 + k],
             "lam": 0.0, "mu": 0.0, "xi": b[n - k], "eta": b[n + 1 - k]} for k in range(n + 1)]


# (output, input, d): cell P_k's output feeds cell P_{k+d}'s input, listed
# in the order a step reads its inputs
_LINKS = (("outR1", "inL1", 1), ("outR2", "inL2", 1),
          ("outL1", "inR1", -1), ("outL2", "inR2", -1), ("outL3", "inR3", -1))
# a step's outputs, in the order every trace record shows them
_OUT_PORTS = ("outL1", "outL2", "outL3", "outR1", "outR2")


def make_toeplitz_step(n: int, tol: float | None, k: int):
    """Appendix-C program of cell P_k in an order-(n+1) system.  Only cell 0
    reads the pivot tolerance ``tol``; the interior cells' steps take None."""
    r = 2 if k > 0 else 0  # where inR1 sits in the input tuple

    def step(state, ins, t):
        alpha, beta, gamma, delta, lam, mu, xi, eta = state
        if t < 2 * n:  # elimination phase
            if t > k:
                alpha, delta, xi = ins[r: r + 3]
            if k == 0:
                # cell 0 runs elimination step k on tick 2k - 2
                lam, mu, beta, eta = _eliminate_head(alpha, beta, gamma, delta, xi, eta,
                                                     tol, t // 2 + 1)
            else:
                lam, mu = ins[0], ins[1]
                alpha, beta, gamma, delta, xi, eta = _eliminate(lam, mu, alpha, beta, gamma,
                                                                delta, xi, eta)
            outs = (alpha, delta, xi, lam, mu)
        else:  # back-substitution phase
            if t > 2 * n + k:
                lam, mu, eta = ins[r: r + 3]
            if k == 0:
                delta = mu * beta
                # and yields x_j on tick 4n - 2j
                xi, beta = _substitute_head(delta, lam, beta, eta, tol, 2 * n - t // 2)
            else:
                xi, delta = ins[0], ins[1] + mu * beta
                eta, beta = _substitute(xi, delta, lam, beta, eta)
            outs = (lam, mu, eta, xi, delta)
        return (alpha, beta, gamma, delta, lam, mu, xi, eta), outs

    return step


@functools.lru_cache(maxsize=16)
def _toeplitz_inputs(n: int):
    """The spec of the order-(n+1) array and the steps of its interior cells
    P_1 .. P_n.

    Like the fixed hardware, one array serves every system of its order:
    the same spec comes back for each n, so ``build_array`` reuses its
    plan.  A solve adds only cell 0's step, which holds the system's pivot
    tolerance, and its own registers.
    """
    wiring, ports = [], []
    for k in range(n + 1):
        # an edge cell declares only the inputs a neighbour feeds
        links = [(out, inp, d) for out, inp, d in _LINKS if 0 <= k - d <= n]
        wiring += [Wire(CellId(0, k - d), out, CellId(0, k), inp) for out, inp, d in links]
        ports.append((tuple(inp for _, inp, _ in links), _OUT_PORTS))
    spec = engine.linear(n + 1, wiring, activation=lambda cell: (
        # cell k runs on ticks of its own parity: elimination, then back-substitution
        range(cell.col, 2 * n - cell.col, 2),
        range(2 * n + cell.col, 4 * n - cell.col + 1, 2),
    ), ports=lambda cell: ports[cell.col])
    return spec, {CellId(0, k): make_toeplitz_step(n, None, k) for k in range(1, n + 1)}


@dataclass(frozen=True)
class ToeplitzRun:
    x: np.ndarray
    ticks: int
    cells: int
    trace: engine.Trace = field(compare=False)


def systolic_toeplitz_solve(bands: ToeplitzBands, trace: bool = True) -> ToeplitzRun:
    """Run the 4n+1-tick schedule on the order-(n+1) array with ``bands`` in
    its registers, and read x_k from register xi of cell P_k."""
    n = bands.n
    spec, interior = _toeplitz_inputs(n)
    steps = {CellId(0, 0): make_toeplitz_step(n, _pivot_tol(bands), 0), **interior}
    arr = build_array(spec, {cell: CellProgram(step, regs) for (cell, step), regs
                             in zip(steps.items(), toeplitz_registers(bands))})
    n_ticks = 4 * n + 1
    _, tr = engine.run(arr, None, n_ticks, trace=trace)
    x = np.array([regs[_XI] for regs in arr.states()])
    return ToeplitzRun(x=x, ticks=n_ticks, cells=n + 1, trace=tr)


def count_trace_multiplications(tr: engine.Trace, n: int) -> int:
    """Multiplications implied by the activation pattern.

    Interior cells do six multiply-adds per elimination activation and three
    during back-substitution; cell 0 does two multiplications per activation
    in either phase (its other ops are the divisions).
    """
    total = 0
    for cell, ticks in tr.activations().items():
        elimination = bisect.bisect_left(ticks, 2 * n)  # its ticks before 2n
        if cell.col == 0:
            total += 2 * len(ticks)
        else:
            total += 6 * elimination + 3 * (len(ticks) - elimination)
    return total
