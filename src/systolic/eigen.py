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

The delayed array's spec and steps are made once per size, in one pass
over its cells, which gives each cell its wires, its input and output
ports and, per parity, one ``itemgetter`` that reads its next block: out
of ``ins`` alone, or out of ``state + ins`` for the corner cells, the only
ones that keep an entry of their own.  A cell's inputs are its row and
column rotations (off the diagonal), then the two parity ports of each
neighbour's entry it takes, in the iteration order of the set of its four
source entries; every trace record shows that order.  Each run builds its
array from them, reusing the spec's plan, with programs whose registers
are its own matrix's 2x2 blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from . import engine
from .engine import CellId, CellProgram, Wire, build_array


class RotationPair(NamedTuple):
    c: float
    s: float


IDENTITY_ROTATION = RotationPair(1.0, 0.0)

# the fixed working accuracy: sweeps run until off(A) < TOL * |A|_F
TOL = 1e-10


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
    # delayed mode with trace=True only
    trace: engine.Trace | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray  # ordered by original index
    eigenvectors: np.ndarray | None
    report: SweepReport


def run_sweeps(a, max_sweeps: int = 10, mode: str = "broadcast",
               compute_vectors: bool = False, trace: bool = False) -> EigenResult:
    """Diagonalise symmetric a; sweeps of size-1 steps until off(A) < TOL*|A|_F
    or ``max_sweeps`` have run (a zero matrix needs no sweep).

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
    stop_at = TOL * fro
    tr = engine.Trace() if trace and mode == "delayed" else None
    report = SweepReport(sweeps_used=0, trace=tr,
                         converged=fro == 0.0 or off_norm(mat) < stop_at)
    # delayed mode: the rotated grid of each step, and the ticks run so far
    grids = _delayed_grids(mat, tr) if mode == "delayed" else None
    vec = np.eye(size) if compute_vectors else None
    inv = _inverse_permutation(size)  # column inv[q] of V R becomes column q of V,
    cols = inv // 2 + (inv % 2) * (size // 2)  # found at cols[q] in [even | odd columns]
    for sweep in range(max_sweeps):
        if report.converged:
            break
        for _ in range(size - 1):  # size is even and at least 2
            rots = step_rotations(mat)
            report.rotations_performed += sum(1 for r in rots if r != IDENTITY_ROTATION)
            if grids is None:
                rotated = apply_rotations(mat, rots)
            else:
                rotated, report.ticks = next(grids)
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


# rotation outputs by side of the diagonal (+1 above, -1 below, 0 on it): the
# parameters move away from the diagonal, so a neighbour further out reads
# the ports of its own side, and a diagonal cell sends in all four directions
_ROT_OUTS = {1: ("rowc_R", "rows_R", "colc_U", "cols_U"),
             -1: ("rowc_L", "rows_L", "colc_D", "cols_D"),
             0: ("rowc_R", "rows_R", "rowc_L", "rows_L", "colc_D", "cols_D", "colc_U", "cols_U")}
_ROT_INS = ("rowc_in", "rows_in", "colc_in", "cols_in")
# a cell's registers, which hold its block, and its block outputs: the
# registers' names with parity 0, then with parity 1
_BLOCK = ("b00", "b01", "b10", "b11")
_BLOCK_OUTS = tuple(f"{b}_{par}" for par in (0, 1) for b in _BLOCK)
_NO_BLOCK = (None,) * 4


def _make_delayed_step(d: int, reads, own: bool):
    """Program of a cell at distance d from the diagonal, clocked at ticks
    3s + d for step s.  ``reads[p]`` picks the cell's next block, after a
    step of parity p, out of ``state + ins`` for a cell that keeps one of
    its own entries (``own``), else out of ``ins`` alone; an off-diagonal
    cell's first four inputs are the row and column rotations.  The block
    goes out on the ports of the step's parity, and the other parity's
    ports keep their values.
    """
    def step(state, ins, tick):
        s = (tick - d) // 3
        b00, b01, b10, b11 = reads[(s - 1) & 1](state + ins if own else ins) if s else state
        if d == 0:
            ci, si = cj, sj = jacobi_rotation(b00, b01, b11)
            rot = (ci, si, ci, si, cj, sj, cj, sj)
        else:
            ci, si, cj, sj = rot = ins[:4]
        block = rotate_block(b00, b01, b10, b11, ci, si, cj, sj)
        return block, rot + (_NO_BLOCK + block if s & 1 else block + _NO_BLOCK)

    return step


@functools.lru_cache(maxsize=4)
def _delayed_inputs(size: int):
    """The spec and steps of the delayed array on a size x size matrix,
    built in one pass over its cells, the steps by cell in row-major order.

    Block (i, j)'s entry (r, c) comes, after the inter-step permutation,
    from entry (er, ec) of block (i + dr, j + dc); a neighbour's entry
    arrives on a wire per parity, the cell's own from its registers.  The
    same spec comes back for each size, so ``build_array`` reuses its plan;
    each run's programs hold its own matrix's blocks.
    """
    h = size // 2
    inv = _inverse_permutation(size).tolist()
    wiring, ports, steps = [], {}, {}
    for i in range(h):
        for j in range(h):
            cell = CellId(i, j)
            side = (j > i) - (j < i)
            ins = []
            if side:  # rotation chains, outward from the diagonal
                row_src, col_src = CellId(i, j - side), CellId(i + side, j)
                for src, out, port in zip((row_src, row_src, col_src, col_src),
                                          _ROT_OUTS[side], _ROT_INS):
                    wiring.append(Wire(src, out, cell, port))
                    ins.append(port)
            entries = [(sp // 2 - i, sq // 2 - j, (sp % 2, sq % 2))
                       for sp in inv[2 * i: 2 * i + 2] for sq in inv[2 * j: 2 * j + 2]]
            # only a cell that keeps an entry of its own reads state + ins
            own = any(dr == dc == 0 for dr, dc, _ in entries)
            at = ({}, {})  # per parity: source entry -> its index in what it reads
            # the cell's input order, which every trace record shows, is the
            # iteration order of this set of these four tuples
            for src in set(entries):
                dr, dc, (er, ec) = src
                if dr == 0 and dc == 0:
                    at[0][src] = at[1][src] = 2 * er + ec
                    continue
                for par in (0, 1):
                    port = f"in{dr + 1}{dc + 1}_b{er}{ec}_{par}"
                    wiring.append(Wire(CellId(i + dr, j + dc), f"b{er}{ec}_{par}", cell, port))
                    at[par][src] = 4 * own + len(ins)
                    ins.append(port)
            ports[cell] = (ins, _ROT_OUTS[side] + _BLOCK_OUTS)
            reads = tuple(itemgetter(*(a[src] for src in entries)) for a in at)
            steps[cell] = _make_delayed_step(abs(i - j), reads, own)
    # cell (i, j) runs step s on tick 3s + |i - j|, for every s the caller asks for
    spec = engine.grid(h, h, wiring,
                       activation=lambda cell: (range(abs(cell.row - cell.col), sys.maxsize, 3),),
                       ports=ports.__getitem__)
    return spec, steps


def _delayed_grids(mat: np.ndarray, tr: engine.Trace | None):
    """Yield the rotated (pre-permutation) grid of steps 0, 1, ... in turn,
    each with the ticks run so far, for as long as the caller asks.

    The array, with ``mat``'s 2x2 blocks in its registers, is built on the
    first request, and advances one tick at a time, only as far as the
    step asked for.  Cell (i, j) runs step s on tick 3s + |i - j| and not
    again for three ticks, so its step-s block is in the registers read
    right after that tick.
    """
    size = mat.shape[0]
    h = size // 2
    spec, steps = _delayed_inputs(size)
    blocks = mat.reshape(h, 2, h, 2).swapaxes(1, 2).reshape(h * h, 4).tolist()
    arr = build_array(spec, {cell: CellProgram(step, dict(zip(_BLOCK, block)))
                             for (cell, step), block in zip(steps.items(), blocks)})
    dist = [abs(i - j) for i in range(h) for j in range(h)]
    after: dict[int, list] = {}  # tick -> every cell's registers right after it
    for s in itertools.count():
        while arr.tick_count < 3 * s + h:  # the last cell runs step s on 3s + h - 1
            arr.tick(tr)
            after[arr.tick_count - 1] = arr.states()
        regs = [after[3 * s + d][k] for k, d in enumerate(dist)]
        for t in range(3 * s, 3 * s + 3):  # no later step reads these ticks
            after.pop(t, None)
        grid = np.fromiter(itertools.chain.from_iterable(regs), float, size * size)
        yield grid.reshape(h, h, 2, 2).swapaxes(1, 2).reshape(size, size), arr.tick_count
