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


def _pivot_tol(bands: ToeplitzBands, tol: float | None) -> float:
    if tol is not None:
        return tol
    return 1e-12 * max(max(abs(x) for x in bands.diagonals), 1.0)


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
    mults: int = 0     # multiplication count of the forward pass

    def storage_words(self) -> int:
        return (len(self.m_neg) + len(self.m_pos) + len(self.beta) + len(self.delta)
                + len(self.gamma) + len(self.alpha) + len(self.b_neg))


def bareiss_forward(bands: ToeplitzBands, tol: float | None = None) -> BareissBandState:
    """Eliminate sub/superdiagonals 1..n, keeping only the band generators."""
    n = bands.n
    tol = _pivot_tol(bands, tol)
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
                            gamma=gamma, alpha=alpha, b_neg=b_neg, mults=mults)


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


def bareiss_back_substitute(state: BareissBandState,
                            tol: float | None = None) -> np.ndarray:
    """Solve the triangular system, regenerating factor rows on the fly."""
    n = state.n
    x = np.zeros(n + 1)
    for k, beta in _backward_steps(state):
        if tol is not None and abs(beta[0]) <= tol:
            raise SingularMinorError(f"regenerated diagonal {k} is singular")
        x[k] = (state.b_neg[k] - beta[1: n + 1 - k] @ x[k + 1:]) / beta[0]
    return x


def regenerate_u(state: BareissBandState) -> np.ndarray:
    """Dense upper-triangular factor rebuilt backwards (test/verification aid)."""
    n = state.n
    u = np.zeros((n + 1, n + 1))
    for k, beta in _backward_steps(state):
        u[k, k:] = beta[: n + 1 - k]
    return u


def bareiss_solve(bands: ToeplitzBands, tol: float | None = None) -> np.ndarray:
    return bareiss_back_substitute(bareiss_forward(bands, tol=tol))


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


def make_toeplitz_step(n: int, tol: float):
    """Appendix-C cell program for an order-(n+1) system."""

    def step(state, ins, ctx):
        k = ctx.cell.col
        t = ctx.tick
        s = dict(state)
        outs = {}
        if t < 2 * n:  # elimination phase
            if t > k:
                s["alpha"] = ins["inR1"]
                s["delta"] = ins["inR2"]
                s["xi"] = ins["inR3"]
            if k == 0:
                if abs(s["gamma"]) <= tol:
                    raise SingularMinorError("zero pivot in cell 0 (gamma)")
                s["lam"] = s["alpha"] / s["gamma"]
            else:
                s["lam"] = ins["inL1"]
                s["mu"] = ins["inL2"]
                s["alpha"] = s["alpha"] - s["lam"] * s["gamma"]
            s["beta"] = s["beta"] - s["lam"] * s["delta"]
            s["eta"] = s["eta"] - s["lam"] * s["xi"]
            if k == 0:
                if abs(s["beta"]) <= tol:
                    raise SingularMinorError("zero pivot in cell 0 (beta)")
                s["mu"] = s["delta"] / s["beta"]
            else:
                s["gamma"] = s["gamma"] - s["mu"] * s["alpha"]
                s["delta"] = s["delta"] - s["mu"] * s["beta"]
                s["xi"] = s["xi"] - s["mu"] * s["eta"]
            outs["outL1"] = s["alpha"]
            outs["outL2"] = s["delta"]
            outs["outL3"] = s["xi"]
            outs["outR1"] = s["lam"]
            outs["outR2"] = s["mu"]
        else:  # back-substitution phase
            if t > 2 * n + k:
                s["lam"] = ins["inR1"]
                s["mu"] = ins["inR2"]
                s["eta"] = ins["inR3"]
            if k == 0:
                if abs(s["beta"]) <= tol:
                    raise SingularMinorError("zero pivot in cell 0 (beta)")
                s["xi"] = s["eta"] / s["beta"]
                s["delta"] = s["mu"] * s["beta"]
            else:
                s["xi"] = ins["inL1"]
                s["delta"] = ins["inL2"]
                s["eta"] = s["eta"] - s["beta"] * s["xi"]
                s["delta"] = s["delta"] + s["mu"] * s["beta"]
            s["beta"] = s["beta"] + s["lam"] * s["delta"]
            outs["outL1"] = s["lam"]
            outs["outL2"] = s["mu"]
            outs["outL3"] = s["eta"]
            outs["outR1"] = s["xi"]
            outs["outR2"] = s["delta"]
        return s, outs

    return step


def build_toeplitz_array(bands: ToeplitzBands, tol: float | None = None):
    n = bands.n
    tol = _pivot_tol(bands, tol)
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
    ))
    step = make_toeplitz_step(n, tol)
    progs = {CellId(0, k): CellProgram(step, toeplitz_cell_state(bands, k))
             for k in range(n + 1)}
    return build_array(spec, progs)


@dataclass(frozen=True)
class ToeplitzRun:
    x: np.ndarray
    ticks: int
    cells: int
    trace: engine.Trace


def systolic_toeplitz_solve(bands: ToeplitzBands, tol: float | None = None,
                            trace: bool = True) -> ToeplitzRun:
    """Run the 4n+1-tick schedule and read x_k from register xi of cell P_k."""
    n = bands.n
    arr = build_toeplitz_array(bands, tol=tol)
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
