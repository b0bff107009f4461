"""Symmetric eigensolver on a grid of 2x2 blocks with plane rotations.

Each diagonal cell annihilates its off-diagonal pair; off-diagonal cells
apply the row rotation from their row's diagonal cell and the column
rotation from their column's.  Between steps, rows and columns are permuted
by a fixed nearest-neighbour cycle so every index pair meets on the diagonal
exactly once per N-1 steps.

Two schedules produce identical grids step for step: broadcast mode updates
the whole matrix at once, while delayed mode runs on the simulation engine
with cell (i, j) clocked at ticks 3s + |i - j| and rotation parameters
hopping one cell per tick outward from the diagonal.  Both share the same
scalar update order, so the agreement is exact, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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


@dataclass(frozen=True)
class BlockGrid:
    """Current working matrix (physically permuted) plus the index tracker."""

    mat: np.ndarray
    tracker: tuple  # tracker[pos] = original 0-based index at this position

    @property
    def size(self) -> int:
        return self.mat.shape[0]

    @property
    def half(self) -> int:
        return self.size // 2

    def block(self, i: int, j: int) -> np.ndarray:
        return self.mat[2 * i: 2 * i + 2, 2 * j: 2 * j + 2]

    def diagonal_pairs(self) -> list[tuple]:
        """Original indices meeting in each diagonal cell, at this step."""
        return [(self.tracker[2 * i], self.tracker[2 * i + 1])
                for i in range(self.half)]

    def check_symmetry(self, tol: float = 1e-9):
        m = self.mat
        if not np.allclose(m, m.T, atol=tol * max(1.0, np.max(np.abs(m)))):
            raise ValueError("grid lost symmetry")


def pack_grid(a: np.ndarray) -> tuple[BlockGrid, int]:
    """Pad odd sizes with one decoupled zero index; returns (grid, original n)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("matrix must not be empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = max(np.max(np.abs(a)), 1.0)
    if not np.allclose(a, a.T, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    if n % 2:
        padded = np.zeros((n + 1, n + 1))
        padded[:n, :n] = a
        a = padded
    return BlockGrid(mat=a, tracker=tuple(range(a.shape[0]))), n


def permute(grid: BlockGrid) -> BlockGrid:
    """Apply the inter-step permutation to columns and rows (and the tracker)."""
    sig = np.array(position_permutation(grid.size))
    new = np.empty_like(grid.mat)
    new[np.ix_(sig, sig)] = grid.mat
    tracker = [0] * grid.size
    for p, orig in enumerate(grid.tracker):
        tracker[sig[p]] = orig
    return BlockGrid(mat=new, tracker=tuple(tracker))


def step_rotations(mat: np.ndarray, threshold: float) -> tuple[list, int]:
    """Rotations for each diagonal block; identity when below threshold.

    Returns (rotations, skipped) where skipped counts nonzero off-diagonal
    entries left alone because of the threshold.
    """
    h = mat.shape[0] // 2
    rots = []
    skipped = 0
    for i in range(h):
        beta = mat[2 * i, 2 * i + 1]
        if beta != 0.0 and abs(beta) < threshold:
            rots.append(IDENTITY_ROTATION)
            skipped += 1
        else:
            rots.append(jacobi_rotation(mat[2 * i, 2 * i], beta, mat[2 * i + 1, 2 * i + 1]))
    return rots, skipped


def _rotate_columns(m: np.ndarray, rots: Sequence[RotationPair]):
    """M R in place, column pair by column pair (identity pairs untouched)."""
    for j, (c, s) in enumerate(rots):
        if s != 0.0 or c != 1.0:
            c0 = m[:, 2 * j].copy()
            c1 = m[:, 2 * j + 1].copy()
            m[:, 2 * j] = c * c0 - s * c1
            m[:, 2 * j + 1] = s * c0 + c * c1


def apply_rotations(mat: np.ndarray, rots: Sequence[RotationPair]) -> np.ndarray:
    """R^T M R with R block-diagonal; same op order as the per-cell update."""
    out = mat.copy()
    for i, (c, s) in enumerate(rots):
        if s != 0.0 or c != 1.0:
            r0 = out[2 * i].copy()
            r1 = out[2 * i + 1].copy()
            out[2 * i] = c * r0 - s * r1
            out[2 * i + 1] = s * r0 + c * r1
    _rotate_columns(out, rots)
    return out


def grid_step(grid: BlockGrid, threshold: float) -> tuple[BlockGrid, list]:
    """One parallel step: rotate every block, then permute rows and columns."""
    rots, _ = step_rotations(grid.mat, threshold)
    rotated = apply_rotations(grid.mat, rots)
    return permute(BlockGrid(mat=rotated, tracker=grid.tracker)), rots


def off_norm(mat: np.ndarray) -> float:
    # summing the off-diagonal entries directly avoids the cancellation a
    # "total minus diagonal" form hits once off(A) is tiny
    m = mat.copy()
    np.fill_diagonal(m, 0.0)
    return float(np.sqrt(np.sum(m * m)))


def default_threshold_schedule(a: np.ndarray) -> Callable[[int], float]:
    """Per-sweep threshold: off(A0)_F / (n^2 4^r), dropping to 0 after sweep 6."""
    base = off_norm(np.asarray(a, dtype=float))
    n = a.shape[0]

    def schedule(sweep: int) -> float:
        if sweep > 6:
            return 0.0
        return base / (n * n * 4.0 ** sweep)

    return schedule


@dataclass
class SweepReport:
    sweeps_used: int
    converged: bool
    off_norms: list = field(default_factory=list)  # after each step
    skipped_per_sweep: list = field(default_factory=list)
    rotations_performed: int = 0
    ticks: int = 0  # delayed mode only
    trace: engine.Trace | None = None  # delayed mode with trace=True only


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray  # ordered by original index
    eigenvectors: np.ndarray | None
    report: SweepReport


def run_sweeps(a, threshold_schedule=None, max_sweeps: int = 10,
               mode: str = "broadcast", compute_vectors: bool = False,
               tol: float = 1e-10, trace: bool = False) -> EigenResult:
    """Diagonalise symmetric a; sweeps of size-1 steps until off(A) < tol*|A|_F.

    Both modes take each step's rotations from the host grid.  Broadcast
    mode rotates the grid on the host; delayed mode reads the rotated grid
    from the array, which is built on the first step and stops after the
    last step of the converged sweep.  ``trace`` keeps the delayed array's
    trace in ``report.trace``.
    """
    if mode not in ("broadcast", "delayed"):
        raise ValueError(f"unknown mode {mode!r}")
    grid, n = pack_grid(a)
    size = grid.size
    steps_per_sweep = max(size - 1, 1)
    if threshold_schedule is None:
        threshold_schedule = default_threshold_schedule(grid.mat)
    elif not callable(threshold_schedule):
        seq = list(threshold_schedule)
        threshold_schedule = lambda r, _s=seq: _s[min(r, len(_s) - 1)]
    fro = float(np.linalg.norm(grid.mat))
    stop_at = tol * max(fro, 1.0)
    tr = engine.Trace() if trace and mode == "delayed" else None
    report = SweepReport(sweeps_used=0, converged=off_norm(grid.mat) < stop_at, trace=tr)
    arr = delayed = None  # delayed mode: the array and its rotated grids, per step
    vec = np.eye(size) if compute_vectors else None
    inv_sig = np.argsort(position_permutation(size))
    for sweep in range(max_sweeps):
        if report.converged:
            break
        thr = threshold_schedule(sweep)
        skipped = 0
        for _ in range(steps_per_sweep):
            rots, sk = step_rotations(grid.mat, thr)
            skipped += sk
            report.rotations_performed += sum(1 for r in rots if r != IDENTITY_ROTATION)
            if mode == "broadcast":
                rotated = apply_rotations(grid.mat, rots)
            else:
                if arr is None:
                    thresholds = [threshold_schedule(r) for r in range(max_sweeps)]
                    total_steps = max_sweeps * steps_per_sweep
                    arr = build_delayed_array(grid, thresholds, steps_per_sweep, total_steps)
                    delayed = _delayed_grids(arr, size, total_steps, tr)
                rotated = next(delayed)
            if vec is not None:
                _rotate_columns(vec, rots)
                vec = vec[:, inv_sig]
            grid = permute(BlockGrid(mat=rotated, tracker=grid.tracker))
            report.off_norms.append(off_norm(grid.mat))
        report.skipped_per_sweep.append(skipped)
        report.sweeps_used = sweep + 1
        report.converged = report.off_norms[-1] < stop_at
    if arr is not None:
        report.ticks = arr.tick_count
    # diagonal entries and eigenvector columns mapped back through the
    # tracker, padding dropped
    eigenvalues = np.empty(n)
    vectors = None if vec is None else np.empty((n, n))
    for pos, orig in enumerate(grid.tracker):
        if orig < n:
            eigenvalues[orig] = grid.mat[pos, pos]
            if vectors is not None:
                vectors[:, orig] = vec[:n, pos]
    return EigenResult(eigenvalues=eigenvalues, eigenvectors=vectors, report=report)


# -- delayed (engine-backed) mode --------------------------------------------


def _assembly_sources(size: int):
    """For each block (i, j) and entry (r, c): the (drow, dcol, entry) feeding it."""
    sig = position_permutation(size)
    inv = [0] * size
    for p, q in enumerate(sig):
        inv[q] = p
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
_BLOCK_OUTS = tuple(tuple(f"{name}_{par}" for name in ("b00", "b01", "b10", "b11"))
                    for par in (0, 1))


def _block_sources(entries) -> tuple:
    """Per previous-step parity, where a cell reads b00..b11: for each entry
    (True, register name) for its own register, or (False, input port)."""
    by_par = []
    for prev_par in (0, 1):
        srcs = []
        for (dr, dc, (er, ec)) in entries:
            name = _ENTRY_NAMES[(er, ec)]
            if dr == 0 and dc == 0:
                srcs.append((True, name))
            else:
                srcs.append((False, f"in{dr + 1}{dc + 1}_{name}_{prev_par}"))
        by_par.append(tuple(srcs))
    return tuple(by_par)


def _make_delayed_step(i: int, j: int, entries, thresholds: Sequence[float],
                       steps_per_sweep: int):
    """Program of cell (i, j), clocked at ticks 3s + |i - j| for step s.

    Every port name it reads or writes is fixed here, at build time.
    """
    d = abs(i - j)
    sources = _block_sources(entries)
    last_thr = len(thresholds) - 1
    # an off-diagonal cell passes rotations on away from the diagonal; a
    # diagonal cell sends them in all four directions (below)
    if j > i:
        rot_row, rot_col = ("rowc_R", "rows_R"), ("colc_U", "cols_U")
    else:
        rot_row, rot_col = ("rowc_L", "rows_L"), ("colc_D", "cols_D")

    def step(state, ins, ctx):
        s = (ctx.tick - d) // 3
        par = s & 1
        if s == 0:
            b00, b01, b10, b11 = state["b00"], state["b01"], state["b10"], state["b11"]
        else:
            (o0, n0), (o1, n1), (o2, n2), (o3, n3) = sources[(s - 1) & 1]
            b00 = state[n0] if o0 else ins[n0]
            b01 = state[n1] if o1 else ins[n1]
            b10 = state[n2] if o2 else ins[n2]
            b11 = state[n3] if o3 else ins[n3]
        if d == 0:
            thr = thresholds[min(s // steps_per_sweep, last_thr)]
            if b01 != 0.0 and abs(b01) < thr:
                ci, si = IDENTITY_ROTATION
            else:
                ci, si = jacobi_rotation(b00, b01, b11)
            cj, sj = ci, si
        else:
            ci, si = ins["rowc_in"], ins["rows_in"]
            cj, sj = ins["colc_in"], ins["cols_in"]
        n00, n01, n10, n11 = rotate_block(b00, b01, b10, b11, ci, si, cj, sj)
        o00, o01, o10, o11 = _BLOCK_OUTS[par]
        if d == 0:
            outs = {"rowc_R": ci, "rows_R": si, "rowc_L": ci, "rows_L": si,
                    "colc_D": cj, "cols_D": sj, "colc_U": cj, "cols_U": sj,
                    o00: n00, o01: n01, o10: n10, o11: n11}
        else:
            outs = {rot_row[0]: ci, rot_row[1]: si, rot_col[0]: cj, rot_col[1]: sj,
                    o00: n00, o01: n01, o10: n10, o11: n11}
        return {"b00": n00, "b01": n01, "b10": n10, "b11": n11}, outs

    return step


def build_delayed_array(grid: BlockGrid, thresholds: Sequence[float],
                        steps_per_sweep: int, total_steps: int):
    size = grid.size
    h = size // 2
    plan = _assembly_sources(size)
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

    def windows(cell):
        d = abs(cell.row - cell.col)
        return (range(d, d + 3 * total_steps, 3),)

    spec = engine.grid(h, h, wiring, activation=windows)
    progs = {}
    for i in range(h):
        for j in range(h):
            blk = grid.block(i, j)
            step = _make_delayed_step(i, j, plan[(i, j)], thresholds, steps_per_sweep)
            progs[CellId(i, j)] = CellProgram(step, {
                "b00": float(blk[0, 0]), "b01": float(blk[0, 1]),
                "b10": float(blk[1, 0]), "b11": float(blk[1, 1]),
            })
    return build_array(spec, progs)


def _put_block(g: np.ndarray, cell: CellId, state) -> None:
    """Copy cell (i, j)'s registers b00..b11 into block (i, j) of g."""
    i, j = cell
    g[2 * i, 2 * j] = state["b00"]
    g[2 * i, 2 * j + 1] = state["b01"]
    g[2 * i + 1, 2 * j] = state["b10"]
    g[2 * i + 1, 2 * j + 1] = state["b11"]


def delayed_grids_from_trace(tr: engine.Trace, size: int, total_steps: int):
    """Rotated (pre-permutation) grids per step, rebuilt from traced cell states."""
    grids = [np.zeros((size, size)) for _ in range(total_steps)]
    for rec in tr:
        s = (rec.tick - abs(rec.cell.row - rec.cell.col)) // 3
        _put_block(grids[s], rec.cell, rec.state)
    return grids


def _delayed_grids(arr, size: int, total_steps: int, tr: engine.Trace | None):
    """Yield the rotated (pre-permutation) grid of steps 0, 1, ... in turn.

    The array advances one tick at a time, and only as far as the step asked
    for: cell (i, j) runs step s on tick 3s + |i - j|, and its block is
    copied out right after that tick, before the cell runs again.
    """
    h = size // 2
    # cell (i, j) is clocked only on ticks t >= |i - j| with t = |i - j| (mod 3)
    by_phase = [[CellId(i, j) for i in range(h) for j in range(h) if abs(i - j) % 3 == r]
                for r in range(3)]
    pending: dict[int, np.ndarray] = {}
    for s in range(total_steps):
        while arr.tick_count < 3 * s + h:  # the last cell runs step s on 3s + h - 1
            t = arr.tick_count
            engine.run(arr, None, 1, trace=tr)
            for cell in by_phase[t % 3]:
                step = (t - abs(cell.row - cell.col)) // 3
                if 0 <= step < total_steps:
                    if step not in pending:
                        pending[step] = np.empty((size, size))
                    _put_block(pending[step], cell, arr.state_of(cell))
        yield pending.pop(s)
