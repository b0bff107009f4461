"""Toeplitz linear systems: serial band-form recursions and the systolic array.

The forward pass eliminates subdiagonal k and superdiagonal k of the shifted
matrices at step k while every live part stays Toeplitz, so the whole state
is four generator vectors (beta/delta for the upper bands, gamma/alpha for
the lower ones) plus the two transformed right-hand sides: O(n) words in
total.  Back-substitution runs the same updates in reverse to regenerate row
k of the upper-triangular factor exactly when x_k is computed.

The systolic path is a linear array of n+1 cells with eight registers each;
cell k is clocked on ticks of parity k inside the two activity windows
(elimination, then back-substitution) and the solution ends in the xi
registers after tick 4n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import CellId, CellProgram, Wire, build_array
from .oracle import SingularMatrixError


class SingularMinorError(SingularMatrixError):
    """A leading principal minor is (numerically) singular; no pivoting exists."""


@dataclass(frozen=True)
class ToeplitzBands:
    """(n+1) x (n+1) Toeplitz system: entry (i, j) = diag[j - i + n], rhs b."""

    n: int
    diagonals: tuple  # a_{-n} .. a_n, exactly 2n+1 values
    rhs: tuple  # b_0 .. b_n

    def __post_init__(self):
        if len(self.diagonals) != 2 * self.n + 1:
            raise ValueError(f"need {2 * self.n + 1} diagonals, got {len(self.diagonals)}")
        if len(self.rhs) != self.n + 1:
            raise ValueError(f"need {self.n + 1} rhs values, got {len(self.rhs)}")
        if not all(math.isfinite(x) for x in (*self.diagonals, *self.rhs)):
            raise ValueError("diagonals and rhs must be finite")

    def diag(self, d: int) -> float:
        """Value on diagonal d (entry (i, i+d)); zero outside [-n, n]."""
        if -self.n <= d <= self.n:
            return self.diagonals[d + self.n]
        return 0.0

    def to_dense(self) -> np.ndarray:
        n = self.n
        a = np.empty((n + 1, n + 1))
        for d in range(-n, n + 1):
            idx = np.arange(max(0, -d), min(n + 1, n + 1 - d))
            a[idx, idx + d] = self.diag(d)
        return a


def _pivot_tol(bands: ToeplitzBands) -> float:
    """Pivots at or below 1e-12 * max|a_k| are a breakdown.  The rule has no
    floor, so scaling the bands by 2^k decides every pivot the same way."""
    return 1e-12 * max(abs(x) for x in bands.diagonals)


@dataclass
class BareissBandState:
    """Forward-pass result: multipliers plus the stage-n generator vectors."""

    n: int
    m_neg: np.ndarray  # m_{-k} at index k, 1..n
    m_pos: np.ndarray  # m_{+k} at index k, 1..n
    beta: np.ndarray   # diagonal e >= 0 of the negative-shift matrix
    delta: np.ndarray  # diagonal e >= 1 of the positive-shift matrix
    gamma: np.ndarray  # diagonal -d (d >= 0) of the positive-shift matrix
    alpha: np.ndarray  # diagonal -d (d >= 1) of the negative-shift matrix
    b_neg: np.ndarray  # fully transformed rhs (upper-triangular system)
    tol: float         # pivot tolerance of the forward pass
    mults: int = 0     # multiplication count of the forward pass


def bareiss_forward(bands: ToeplitzBands) -> BareissBandState:
    """Eliminate sub/superdiagonals 1..n, keeping only the band generators."""
    n = bands.n
    tol = _pivot_tol(bands)
    beta = np.array([bands.diag(e) for e in range(n + 1)], dtype=float)
    delta = np.array([bands.diag(e) for e in range(n + 1)], dtype=float)  # index 0 unused
    gamma = np.array([bands.diag(-d) for d in range(n + 1)], dtype=float)
    alpha = np.array([bands.diag(-d) for d in range(n + 1)], dtype=float)  # index 0 unused
    b_neg = np.array(bands.rhs, dtype=float)
    b_pos = np.array(bands.rhs, dtype=float)
    m_neg = np.zeros(n + 1)
    m_pos = np.zeros(n + 1)
    mults = 0
    if abs(gamma[0]) <= tol:
        raise SingularMinorError("a_0 is (numerically) zero")
    for k in range(1, n + 1):
        mn = alpha[k] / gamma[0]
        m_neg[k] = mn
        beta[: n + 1 - k] -= mn * delta[k:]
        alpha[k:] -= mn * gamma[: n + 1 - k]
        b_neg[k:] -= mn * b_pos[: n + 1 - k]
        mults += (n + 1 - k) + (n + 1 - k) + (n + 1 - k)
        if abs(beta[0]) <= tol:
            raise SingularMinorError(f"leading principal minor {k} is singular")
        mp = delta[k] / beta[0]
        m_pos[k] = mp
        delta[k:] -= mp * beta[: n + 1 - k]
        gamma -= mp * np.concatenate((alpha[k:], np.zeros(k)))
        b_pos[: n + 1 - k] -= mp * b_neg[k:]
        mults += (n + 1 - k) + (n + 1 - k) + (n + 1 - k)
    return BareissBandState(n=n, m_neg=m_neg, m_pos=m_pos, beta=beta, delta=delta,
                            gamma=gamma, alpha=alpha, b_neg=b_neg, tol=tol, mults=mults)


def _backward_steps(state: BareissBandState):
    """Yield (k, beta_k) for k = n..0, beta_k the stage-k upper generators.

    Undoes the forward updates one step at a time; row k of the triangular
    factor is [0..0, beta_k[0], beta_k[1], ...] starting at column k.
    """
    n = state.n
    beta = state.beta.copy()
    delta = state.delta.copy()
    gamma = state.gamma.copy()
    alpha = state.alpha.copy()
    yield n, beta
    for k in range(n, 0, -1):
        mp = state.m_pos[k]
        mn = state.m_neg[k]
        delta[k:] += mp * beta[: n + 1 - k]
        gamma += mp * np.concatenate((alpha[k:], np.zeros(k)))
        beta[: n + 1 - k] += mn * delta[k:]
        alpha[k:] += mn * gamma[: n + 1 - k]
        yield k - 1, beta


def bareiss_back_substitute(state: BareissBandState) -> np.ndarray:
    """Solve the triangular system, regenerating factor rows on the fly; a
    regenerated pivot within the forward pass's tolerance is a breakdown."""
    n = state.n
    x = np.zeros(n + 1)
    for k, beta in _backward_steps(state):
        if abs(beta[0]) <= state.tol:
            raise SingularMinorError(f"regenerated diagonal {k} is singular")
        x[k] = (state.b_neg[k] - beta[1: n + 1 - k] @ x[k + 1:]) / beta[0]
    return x


def bareiss_solve(bands: ToeplitzBands) -> np.ndarray:
    return bareiss_back_substitute(bareiss_forward(bands))


# -- systolic array ----------------------------------------------------------


def toeplitz_cell_state(bands: ToeplitzBands, k: int) -> dict:
    """Cell P_k registers; out-of-range diagonals and b_{-1} read as zero."""
    n = bands.n
    return {
        "alpha": float(bands.diag(-(k + 1))),
        "beta": float(bands.diag(k)),
        "gamma": float(bands.diag(-k)),
        "delta": float(bands.diag(k + 1)),
        "lam": 0.0,
        "mu": 0.0,
        "xi": float(bands.rhs[n - k - 1]) if k < n else 0.0,
        "eta": float(bands.rhs[n - k]),
    }


_OUT_PORTS = ("outL1", "outL2", "outL3", "outR1", "outR2")


def _cell_ports(n: int, k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Cell P_k reads inL1, inL2 from P_{k-1} and inR1..inR3 from P_{k+1};
    an edge cell declares only the ports that have a neighbour."""
    ins = (("inL1", "inL2") if k > 0 else ()) + (("inR1", "inR2", "inR3") if k < n else ())
    return ins, _OUT_PORTS


def make_toeplitz_step(n: int, tol: float, k: int):
    """Appendix-C program of cell P_k in an order-(n+1) system."""
    r = 2 if k > 0 else 0  # where inR1 sits in the input tuple

    def step(state, ins, t):
        alpha, beta, gamma, delta, lam, mu, xi, eta = state
        if t < 2 * n:  # elimination phase
            if t > k:
                alpha, delta, xi = ins[r: r + 3]
            if k == 0:
                if abs(gamma) <= tol:
                    raise SingularMinorError("zero pivot in cell 0 (gamma)")
                lam = alpha / gamma
            else:
                lam, mu = ins[0], ins[1]
                alpha = alpha - lam * gamma
            beta = beta - lam * delta
            eta = eta - lam * xi
            if k == 0:
                if abs(beta) <= tol:
                    raise SingularMinorError("zero pivot in cell 0 (beta)")
                mu = delta / beta
            else:
                gamma = gamma - mu * alpha
                delta = delta - mu * beta
                xi = xi - mu * eta
            outs = (alpha, delta, xi, lam, mu)
        else:  # back-substitution phase
            if t > 2 * n + k:
                lam, mu, eta = ins[r: r + 3]
            if k == 0:
                if abs(beta) <= tol:
                    raise SingularMinorError("zero pivot in cell 0 (beta)")
                xi = eta / beta
                delta = mu * beta
            else:
                xi, delta = ins[0], ins[1]
                eta = eta - beta * xi
                delta = delta + mu * beta
            beta = beta + lam * delta
            outs = (lam, mu, eta, xi, delta)
        return (alpha, beta, gamma, delta, lam, mu, xi, eta), outs

    return step


def build_toeplitz_array(bands: ToeplitzBands):
    n = bands.n
    wiring = []
    for k in range(n + 1):
        if k + 1 <= n:
            wiring.append(Wire(CellId(0, k), "outR1", CellId(0, k + 1), "inL1"))
            wiring.append(Wire(CellId(0, k), "outR2", CellId(0, k + 1), "inL2"))
            wiring.append(Wire(CellId(0, k + 1), "outL1", CellId(0, k), "inR1"))
            wiring.append(Wire(CellId(0, k + 1), "outL2", CellId(0, k), "inR2"))
            wiring.append(Wire(CellId(0, k + 1), "outL3", CellId(0, k), "inR3"))
    spec = engine.linear(n + 1, wiring, activation=lambda cell: (
        # cell k runs on ticks of its own parity: elimination, then back-substitution
        range(cell.col, 2 * n - cell.col, 2),
        range(2 * n + cell.col, 4 * n - cell.col + 1, 2),
    ), ports=lambda cell: _cell_ports(n, cell.col))
    tol = _pivot_tol(bands)
    progs = {CellId(0, k): CellProgram(make_toeplitz_step(n, tol, k), toeplitz_cell_state(bands, k))
             for k in range(n + 1)}
    return build_array(spec, progs)


@dataclass(frozen=True)
class ToeplitzRun:
    x: np.ndarray
    ticks: int
    cells: int
    trace: engine.Trace


def systolic_toeplitz_solve(bands: ToeplitzBands, trace: bool = True) -> ToeplitzRun:
    """Run the 4n+1-tick schedule and read x_k from register xi of cell P_k."""
    n = bands.n
    arr = build_toeplitz_array(bands)
    n_ticks = 4 * n + 1
    _, tr = engine.run(arr, None, n_ticks, trace=trace)
    x = np.array([arr.state_of((0, k))["xi"] for k in range(n + 1)])
    return ToeplitzRun(x=x, ticks=n_ticks, cells=n + 1, trace=tr)


def count_trace_multiplications(tr: engine.Trace, n: int) -> int:
    """Multiplications implied by the activation pattern.

    Interior cells do six multiply-adds per elimination activation and three
    during back-substitution; cell 0 does two multiplications per activation
    in either phase (its other ops are the divisions).
    """
    total = 0
    for rec in tr:
        k = rec.cell.col
        if rec.tick < 2 * n:
            total += 2 if k == 0 else 6
        else:
            total += 2 if k == 0 else 3
    return total
