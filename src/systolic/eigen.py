"""Symmetric eigensolver on a grid of 2x2 blocks with plane rotations.

Each diagonal cell annihilates its off-diagonal pair; off-diagonal cells
apply the row rotation from their row's diagonal cell and the column
rotation from their column's.  Between steps, rows and columns are permuted
by a fixed nearest-neighbour cycle so every index pair meets on the diagonal
exactly once per N-1 steps.

Two schedules produce identical grids step for step: broadcast mode applies
``rotate_block`` to every block of the matrix at once, while delayed mode
runs on the simulation engine, where each cell applies ``rotate_block`` to
its own block, with cell (i, j) clocked at ticks 3s + |i - j| and rotation
parameters hopping one cell per tick outward from the diagonal.  One scalar
update serves both, so the agreement is exact, down to the sign of a zero.
The working matrix is a plain array, physically permuted after each step;
every sweep ends where the permutation's orbit closes, so eigenvalues are
read from the diagonal in the original index order.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import engine
from .engine import CellId, CellProgram, Wire, build_array


class RotationPair(NamedTuple):
    c: float
    s: float


IDENTITY_ROTATION = RotationPair(1.0, 0.0)


def jacobi_rotation(alpha: float, beta: float, delta: float) -> RotationPair:
    """Inner rotation (|angle| <= pi/4) annihilating the off-diagonal of
    [[alpha, beta], [beta, delta]] under R^T B R with R = [[c, s], [-s, c]]."""
    if beta == 0.0:
        return IDENTITY_ROTATION
    tau = (delta - alpha) / (2.0 * beta)
    sign = 1.0 if tau >= 0.0 else -1.0
    t = sign / (abs(tau) + math.hypot(1.0, tau))  # hypot: no overflow for huge tau
    c = 1.0 / math.sqrt(1.0 + t * t)
    return RotationPair(c, t * c)


def rotate_block(b00, b01, b10, b11, ci, si, cj, sj):
    """R_i^T [[b00,b01],[b10,b11]] R_j, row transform first, fixed op order."""
    t00 = ci * b00 - si * b10
    t01 = ci * b01 - si * b11
    t10 = si * b00 + ci * b10
    t11 = si * b01 + ci * b11
    return (cj * t00 - sj * t01, sj * t00 + cj * t01,
            cj * t10 - sj * t11, sj * t10 + cj * t11)


# -- permutation -------------------------------------------------------------


def position_permutation(size: int) -> tuple:
    """sigma over 0-based positions: the content at p moves to sigma[p].

    One application pairs a fresh set of indices on the diagonal blocks;
    size - 1 applications visit every unordered pair exactly once and
    return to the identity arrangement.
    """
    if size % 2:
        raise ValueError("position permutation is defined for even sizes")
    sig = list(range(size))
    if size >= 4:
        for p in range(3, size - 2, 2):
            sig[p - 1] = p + 1  # odd 1-based positions step up by two
        sig[size - 2] = size - 1  # 2n-1 -> 2n
        for p in range(4, size + 1, 2):
            sig[p - 1] = p - 3  # even 1-based positions step down by two
        sig[1] = 2  # 2 -> 3
    return tuple(sig)


@functools.lru_cache(maxsize=None)
def _inverse_permutation(size: int) -> np.ndarray:
    """inv[q] = the position whose content sigma moves to q; built once per size."""
    inv = np.argsort(position_permutation(size))
    inv.flags.writeable = False
    return inv


def pack_grid(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Pad odd sizes with one decoupled zero index; returns (matrix, original n)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("matrix must not be empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * np.max(np.abs(a))):
        raise ValueError("matrix must be symmetric")
    # halving before adding cannot overflow; a symmetric pair is kept as it
    # is, because halving a subnormal entry rounds
    a = np.where(a == a.T, a, 0.5 * a + 0.5 * a.T)
    if n % 2:
        padded = np.zeros((n + 1, n + 1))
        padded[:n, :n] = a
        a = padded
    return a, n


def permute(mat: np.ndarray) -> np.ndarray:
    """Apply the inter-step permutation to rows and columns."""
    inv = _inverse_permutation(mat.shape[0])
    return mat.take(inv, 0).take(inv, 1)


def step_rotations(mat: np.ndarray) -> list:
    """The rotation of each diagonal block, computed on Python floats as a
    delayed cell computes it: numpy scalars would warn where the cell's
    division overflows silently, to the same identity rotation."""
    d, e = mat.diagonal().tolist(), mat.diagonal(1).tolist()
    return [jacobi_rotation(*abd) for abd in zip(d[0::2], e[0::2], d[1::2])]


def apply_rotations(mat: np.ndarray, rots: Sequence[RotationPair]) -> np.ndarray:
    """R^T M R with R block-diagonal: ``rotate_block`` on every block at once,
    block (i, j) taking row rotation i and column rotation j."""
    h = mat.shape[0] // 2
    c, s = np.array(rots, dtype=float).T
    b = mat.reshape(h, 2, h, 2)  # b[i, r, j, k] = mat[2i + r, 2j + k]
    out = np.empty_like(b)
    out[:, 0, :, 0], out[:, 0, :, 1], out[:, 1, :, 0], out[:, 1, :, 1] = rotate_block(
        b[:, 0, :, 0], b[:, 0, :, 1], b[:, 1, :, 0], b[:, 1, :, 1],
        c[:, None], s[:, None], c, s)
    return out.reshape(mat.shape)


def off_norm(mat: np.ndarray) -> float:
    # summing the off-diagonal entries directly avoids the cancellation a
    # "total minus diagonal" form hits once off(A) is tiny
    m = mat.copy()
    np.fill_diagonal(m, 0.0)
    return float(np.sqrt(np.sum(m * m)))


def _norm_exponent(mat: np.ndarray) -> int:
    """0 when mat's largest entry lies within 2**-250 .. 2**250, where its
    square neither overflows nor underflows, else that entry's exponent."""
    e = math.frexp(float(np.max(np.abs(mat), initial=0.0)))[1]
    return e if abs(e) > 250 else 0


@dataclass
class SweepReport:
    sweeps_used: int
    converged: bool
    off_norms: list = field(default_factory=list)  # after each step
    rotations_performed: int = 0
    ticks: int = 0  # delayed mode only
    trace: engine.Trace | None = None  # delayed mode with trace=True only


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray  # ordered by original index
    eigenvectors: np.ndarray | None
    report: SweepReport


def run_sweeps(a, max_sweeps: int = 10,
               mode: str = "broadcast", compute_vectors: bool = False,
               tol: float = 1e-10, trace: bool = False) -> EigenResult:
    """Diagonalise symmetric a; sweeps of size-1 steps until off(A) < tol*|A|_F
    (a zero matrix needs no sweep).

    Both modes take each step's rotations from the host grid.  Broadcast
    mode rotates the grid on the host; delayed mode reads the rotated grid
    from the array, which is built on the first step with no step budget:
    it runs until the sweep loop stops asking, after the last step of the
    converged sweep.  ``trace`` keeps the delayed array's trace in
    ``report.trace``.
    """
    if mode not in ("broadcast", "delayed"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    a = np.asarray(a, dtype=float)
    # entries too large or too small to square are brought into range by one
    # exact power-of-two scaling; eigenvalues and off-norms are scaled back
    e = _norm_exponent(a)
    mat, n = pack_grid(np.ldexp(a, -e) if e else a)
    size = mat.shape[0]
    fro = float(np.linalg.norm(mat))
    stop_at = tol * fro
    tr = engine.Trace() if trace and mode == "delayed" else None
    report = SweepReport(sweeps_used=0, trace=tr,
                         converged=fro == 0.0 or off_norm(mat) < stop_at)
    arr = delayed = None  # delayed mode: the array and its rotated grids, per step
    vec = np.eye(size) if compute_vectors else None
    inv = _inverse_permutation(size)  # column inv[q] of V R becomes column q of V,
    cols = inv // 2 + (inv % 2) * (size // 2)  # found at cols[q] in [even | odd columns]
    for sweep in range(max_sweeps):
        if report.converged:
            break
        for _ in range(size - 1):  # size is even and at least 2
            rots = step_rotations(mat)
            report.rotations_performed += sum(1 for r in rots if r != IDENTITY_ROTATION)
            if mode == "broadcast":
                rotated = apply_rotations(mat, rots)
            else:
                if arr is None:
                    arr = build_delayed_array(mat)
                    delayed = _delayed_grids(arr, size, tr)
                rotated = next(delayed)
            if vec is not None:
                # V R in rotate_block's column arithmetic: c > 0 and V holds no -0.0,
                # so an identity pair's columns come back exact; then the permutation
                c, s = np.array(rots, dtype=float).T
                v0, v1 = vec[:, 0::2], vec[:, 1::2]
                vec = np.hstack((c * v0 - s * v1, s * v0 + c * v1))[:, cols]
            mat = permute(rotated)
            report.off_norms.append(off_norm(mat))
        report.sweeps_used = sweep + 1
        report.converged = report.off_norms[-1] < stop_at
    if arr is not None:
        report.ticks = arr.tick_count
    # every sweep ends where the pairing orbit closes, with each index back
    # in its own position; the padding index comes last
    eigenvalues = mat.diagonal()[:n].copy()
    vectors = None if vec is None else vec[:n, :n]
    if e:
        with np.errstate(over="ignore"):
            eigenvalues = np.ldexp(eigenvalues, e)
            # an off-norm may exceed the float range, and read inf, while
            # every eigenvalue fits: |A|_F can be sqrt(n) times max |lambda|
            report.off_norms = np.ldexp(report.off_norms, e).tolist()
        if not np.all(np.isfinite(eigenvalues)):
            raise ValueError("eigenvalues exceed the float range")
    return EigenResult(eigenvalues=eigenvalues, eigenvectors=vectors, report=report)


# -- delayed (engine-backed) mode --------------------------------------------


def _assembly_sources(size: int):
    """For each block (i, j) and entry (r, c): the (drow, dcol, entry) feeding it."""
    inv = _inverse_permutation(size).tolist()
    h = size // 2
    plan = {}
    for i in range(h):
        for j in range(h):
            entries = []
            for r in range(2):
                for c in range(2):
                    sp, sq = inv[2 * i + r], inv[2 * j + c]
                    entries.append((sp // 2 - i, sq // 2 - j, (sp % 2, sq % 2)))
            plan[(i, j)] = entries
    return plan


_ENTRY_NAMES = {(0, 0): "b00", (0, 1): "b01", (1, 0): "b10", (1, 1): "b11"}
# block outputs: b00..b11 of parity 0, then of parity 1
_BLOCK_OUTS = tuple(f"{name}_{par}" for par in (0, 1) for name in ("b00", "b01", "b10", "b11"))
_NO_BLOCK = (None,) * 4


def _block_sources(entries, ins) -> tuple:
    """Per previous-step parity, where a cell reads b00..b11: for each entry
    (True, register index) for its own register, or (False, input index)."""
    return tuple(
        tuple((True, 2 * er + ec) if dr == 0 and dc == 0 else
              (False, ins.index(f"in{dr + 1}{dc + 1}_{_ENTRY_NAMES[(er, ec)]}_{prev_par}"))
              for (dr, dc, (er, ec)) in entries)
        for prev_par in (0, 1))


def _delayed_ports(cell) -> tuple:
    """Rotation outputs, then the block outputs of both parities.  An
    off-diagonal cell passes rotations on away from the diagonal; a
    diagonal cell sends them in all four directions."""
    i, j = cell
    if j > i:
        rot = ("rowc_R", "rows_R", "colc_U", "cols_U")
    elif j < i:
        rot = ("rowc_L", "rows_L", "colc_D", "cols_D")
    else:
        rot = ("rowc_R", "rows_R", "rowc_L", "rows_L", "colc_D", "cols_D", "colc_U", "cols_U")
    return rot + _BLOCK_OUTS


def _make_delayed_step(i: int, j: int, entries, in_ports):
    """Program of cell (i, j), clocked at ticks 3s + |i - j| for step s.

    ``in_ports`` are its input ports; an off-diagonal cell's first four are
    the row and column rotations.  The block goes out on the ports of the
    step's parity, and the other parity's ports keep their values.
    """
    d = abs(i - j)
    sources = _block_sources(entries, in_ports)

    def step(state, ins, tick):
        s = (tick - d) // 3
        if s == 0:
            b00, b01, b10, b11 = state
        else:
            (o0, k0), (o1, k1), (o2, k2), (o3, k3) = sources[(s - 1) & 1]
            b00 = state[k0] if o0 else ins[k0]
            b01 = state[k1] if o1 else ins[k1]
            b10 = state[k2] if o2 else ins[k2]
            b11 = state[k3] if o3 else ins[k3]
        if d == 0:
            ci, si = cj, sj = jacobi_rotation(b00, b01, b11)
            rot = (ci, si, ci, si, cj, sj, cj, sj)
        else:
            ci, si, cj, sj = rot = ins[:4]
        block = rotate_block(b00, b01, b10, b11, ci, si, cj, sj)
        return block, rot + (_NO_BLOCK + block if s & 1 else block + _NO_BLOCK)

    return step


def build_delayed_array(mat: np.ndarray):
    h = mat.shape[0] // 2
    plan = _assembly_sources(mat.shape[0])
    wiring = []
    for i in range(h):
        for j in range(h):
            # rotation-parameter chains, outward from the diagonal
            if j > i:
                wiring.append(Wire(CellId(i, j - 1), "rowc_R", CellId(i, j), "rowc_in"))
                wiring.append(Wire(CellId(i, j - 1), "rows_R", CellId(i, j), "rows_in"))
                wiring.append(Wire(CellId(i + 1, j), "colc_U", CellId(i, j), "colc_in"))
                wiring.append(Wire(CellId(i + 1, j), "cols_U", CellId(i, j), "cols_in"))
            elif j < i:
                wiring.append(Wire(CellId(i, j + 1), "rowc_L", CellId(i, j), "rowc_in"))
                wiring.append(Wire(CellId(i, j + 1), "rows_L", CellId(i, j), "rows_in"))
                wiring.append(Wire(CellId(i - 1, j), "colc_D", CellId(i, j), "colc_in"))
                wiring.append(Wire(CellId(i - 1, j), "cols_D", CellId(i, j), "cols_in"))
            # double-buffered block exchange with every contributing neighbour
            for (dr, dc, (er, ec)) in set(plan[(i, j)]):
                if dr == 0 and dc == 0:
                    continue
                name = _ENTRY_NAMES[(er, ec)]
                for par in (0, 1):
                    wiring.append(Wire(CellId(i + dr, j + dc), f"{name}_{par}",
                                       CellId(i, j), f"in{dr + 1}{dc + 1}_{name}_{par}"))
    # each cell takes its inputs in wiring order
    ins_of = {CellId(i, j): [] for i in range(h) for j in range(h)}
    for w in wiring:
        ins_of[w.dst].append(w.dst_port)

    # cell (i, j) runs step s on tick 3s + |i - j|, for every s the caller asks for
    spec = engine.grid(h, h, wiring,
                       activation=lambda cell: (range(abs(cell.row - cell.col), sys.maxsize, 3),),
                       ports=lambda cell: (ins_of[cell], _delayed_ports(cell)))
    progs = {}
    for i in range(h):
        for j in range(h):
            blk = mat[2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
            step = _make_delayed_step(i, j, plan[(i, j)], ins_of[CellId(i, j)])
            progs[CellId(i, j)] = CellProgram(step, {
                "b00": float(blk[0, 0]), "b01": float(blk[0, 1]),
                "b10": float(blk[1, 0]), "b11": float(blk[1, 1]),
            })
    return build_array(spec, progs)


def _delayed_grids(arr, size: int, tr: engine.Trace | None):
    """Yield the rotated (pre-permutation) grid of steps 0, 1, ... in turn,
    for as long as the caller asks.

    The array advances one tick at a time, and only as far as the step asked
    for.  Cell (i, j) runs step s on tick 3s + |i - j| and not again for
    three ticks, so its step-s block is in the registers read right after
    that tick.
    """
    h = size // 2
    dist = [abs(i - j) for i in range(h) for j in range(h)]
    after: dict[int, list] = {}  # tick -> every cell's registers right after it
    for s in itertools.count():
        while arr.tick_count < 3 * s + h:  # the last cell runs step s on 3s + h - 1
            arr.tick(tr)
            after[arr.tick_count - 1] = arr.states()
        regs = [after[3 * s + d][k] for k, d in enumerate(dist)]
        for t in range(3 * s, 3 * s + 3):  # no later step reads these ticks
            after.pop(t, None)
        yield np.array(regs).reshape(h, h, 2, 2).swapaxes(1, 2).reshape(size, size)
