"""Systolic polynomial GCD over GF(p).

Two cell designs are provided: the degree-difference cell ("fig4"), which
carries the running degree gap d on a dedicated stream, and the
interchange cell ("appA"), which avoids d by swapping the roles of the two
polynomials.  Neither design sends the GCD out on a fixed line.  appA sends
most results out on the a-line, but some on the b-line: GF(2) A = 1 + x^2,
B = 1 + x + x^2 is one, and almost all such pairs have a constant GCD.
fig4 uses both lines as well, so the decoder reads each frame's window on
both lines.

Stream layout (one frame per input pair, frames may be packed back to back):
coefficients travel highest degree first with the nonzero leading terms of
A and B in the same slot.  For fig4 the start bit is on the wire one slot
ahead of the leading terms and the initial value of d = deg A - deg B rides
in the leading slot.  For appA the start/stop bits mark the first/last slot
of the A polynomial and the sig stream carries B's nonzero-coefficient
markers end-aligned, which puts the first sig bit exactly d slots behind
the start bit: the unary encoding of d.  Each trans cell forwards sig at
full speed (shortening that distance by one), so sig reaching the start
slot flags the last division step of a round and triggers the swap; the
shift state re-aligns the next divisor when a remainder drops in degree by
more than one.

Like the fixed hardware, one chain of m+n+1 cells serves pair after pair:
the spec of each (cells, variant) shape is kept, so its plan is built once,
and a run makes only its field's step and its registers.  The spec does not
depend on p, so one plan serves every field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import engine
from .engine import CellId, CellProgram, build_array, chain_ports, chain_wires
from .gfield import Field, Poly, poly_monic, poly_normalize, poly_valuation

# the streams each cell passes on, and its ports: `<stream>in`, `<stream>out`
STREAMS = {"fig4": ("a", "b", "start", "d"), "appA": ("a", "b", "start", "stop", "sig")}
CELL_PORTS = {variant: chain_ports(streams) for variant, streams in STREAMS.items()}

S_INITIAL, S_REDUCE_A, S_REDUCE_B = 0, 1, 2
A_INITIAL, A_SHIFT, A_SWAP, A_TRANS = 0, 1, 2, 3


def fig4_initial_state() -> dict:
    return {"state": S_INITIAL, "a": 0, "b": 0, "q": 0, "d": 0, "start": 0}


def appA_initial_state() -> dict:
    return {"state": A_INITIAL, "a": 0, "b": 0, "q": 0,
            "start": 0, "stop": 0, "sig": 0}


def make_fig4_step(field: Field):
    """Degree-difference cell: three states, d carried on its own stream."""
    p = field.p

    def step(state, ins, tick):
        ain, bin_, startin, din = ins
        st, a, b, q, d, start = state
        dout, startout = d, start
        if st == S_INITIAL:
            aout, bout = a, b
            if start:
                if ain == 0 or (bin_ != 0 and din >= 0):
                    st = S_REDUCE_A
                    q = 0 if bin_ == 0 else (ain * pow(bin_, p - 2, p)) % p
                    a = 0
                    b = bin_
                    d = din - 1
                else:
                    st = S_REDUCE_B
                    q = (bin_ * pow(ain, p - 2, p)) % p
                    b = 0
                    a = ain
                    d = din + 1
        elif st == S_REDUCE_A:
            aout = (ain - q * bin_) % p
            bout = b
            b = bin_
            d = din
        else:  # S_REDUCE_B
            aout = a
            a = ain
            bout = (bin_ - q * ain) % p
            d = din
        if startin:
            # the next frame's start bit rides in this frame's last slot; a
            # one-slot frame ends on the very tick it began
            st = S_INITIAL
        return (st, a, b, q, d, startin), (aout, bout, startout, dout)

    return step


def make_appA_step(field: Field):
    """Interchange cell: swaps polynomial roles instead of carrying d."""
    p = field.p

    def step(state, ins, tick):
        # standard transfers
        a, b, start, stop, sig = ins
        st, aout, bout, q, startout, stopout, sigout = state
        if st == A_INITIAL:
            if start and not stop:
                if b == 0:
                    st = A_SHIFT
                else:
                    q = (a * pow(b, p - 2, p)) % p
                    if sig:
                        st = A_SWAP
                        a = b
                        sig = 0
                    else:
                        st = A_TRANS
        elif st == A_SHIFT:
            bout = b
            b = 0
            if stop:
                st = A_INITIAL
        elif st == A_SWAP:
            bout = (a - q * b) % p
            a = b
            b = 0
            sig = 1 if bout != 0 else 0
            if stop:
                st = A_INITIAL
        else:  # A_TRANS
            aout = (a - q * b) % p
            a = 0
            if stop:
                st = A_INITIAL
            stopout = stop
            stop = 0
            sigout = sig
            sig = 0
        return (st, a, b, q, start, stop, sig), (aout, bout, startout, stopout, sigout)

    return step


# each cell design's step maker, initial registers and decode lag: how many
# slots after the start bit a frame's output window opens
DESIGNS = {"fig4": (make_fig4_step, fig4_initial_state(), 1),
           "appA": (make_appA_step, appA_initial_state(), 0)}
VARIANTS = tuple(DESIGNS)


# -- stream layout ----------------------------------------------------------


def _build_schedule(pairs, variant: str) -> tuple[dict[str, list], list[int]]:
    """Input lines of the leftmost cell, and the length of each pair's frame.

    ``pairs`` are normalised, not both zero, with the common power of x
    stripped.  Frame f occupies ticks [T_f, T_f + L_f) with T_0 = 1 and L_f
    the longer operand's length, laid out as the module docstring says.
    fig4's start bit for frame f sits at T_f - 1 (slot 0, or the previous
    frame's final slot); appA first swaps the operands if deg B > deg A.
    """
    lengths = [max(len(a), len(b)) for a, b in pairs]
    size = 1 + sum(lengths)
    a_line, b_line, start, d, stop, sig = ([0] * size for _ in range(6))
    t = 1
    for (a, b), n in zip(pairs, lengths):
        end = t + n
        if variant == "fig4":
            start[t - 1] = 1
            d[t] = len(a) - len(b)
        else:
            if len(b) > len(a):
                a, b = b, a
            start[t] = 1
            stop[end - 1] = 1
            sig[end - len(b): end] = [1 if c else 0 for c in b[::-1]]
        a_line[t: t + len(a)] = a[::-1]
        b_line[t: t + len(b)] = b[::-1]
        t = end
    if variant == "fig4":
        return {"ain": a_line, "bin": b_line, "startin": start, "din": d}, lengths
    return {"ain": a_line, "bin": b_line, "startin": start, "stopin": stop,
            "sigin": sig}, lengths


# at most 128 shapes, (cells, variant).  Sharing their wires, cells and
# gathers, they take 143 B a cell (tracemalloc), 1.79 MB, when all 128 are
# of 66 to 129 cells: the figure `python tests/figures.py polygcd_chain_bytes`
# prints
@functools.lru_cache(maxsize=128)
def _chain_spec(n_cells: int, variant: str):
    """The spec of a chain of ``n_cells`` cells of ``variant``.

    The same spec comes back for each shape, over any field, so
    ``build_array`` reuses its plan.
    """
    decl = CELL_PORTS[variant]
    return engine.linear(n_cells, chain_wires(n_cells, STREAMS[variant]), ports=lambda cell: decl)


@dataclass(frozen=True)
class GcdRun:
    """Decoded result of one systolic GCD run."""

    gcd: Poly
    latency: int  # ticks from leading-term entry to first GCD coefficient out
    cells: int
    ticks: int
    trace: engine.Trace = field(compare=False)


def _decode_window(a_out, b_out, lo, hi):
    """GCD coefficients (highest first) in observation ticks [lo, hi], read
    from the a-line, or from the b-line when the a-line is zero there."""
    for line in (a_out, b_out):
        nz = [t for t in range(lo, min(hi + 1, len(line))) if line[t] != 0]
        if nz:
            return line[nz[0]: nz[-1] + 1], nz[0]
    return [], None


def _run_stream(field: Field, pairs, variant: str, trace: bool = False) -> list[GcdRun]:
    """Stream pairs back to back through one array; one decoded run per pair.

    Each pair loses the common power of x of its operands before encoding,
    so its GCD has a nonzero constant term; the array is sized for the
    largest stripped pair.  All runs share the cell count, tick count and
    trace of the one array run.
    """
    if variant not in DESIGNS:
        raise ValueError(f"unknown variant {variant!r}")
    stripped = []
    shifts = []
    n_cells = 1
    for a, b in pairs:
        a = poly_normalize(field, a)
        b = poly_normalize(field, b)
        if not a and not b:
            raise ValueError("gcd(0, 0) is undefined")
        e = min(poly_valuation(x) for x in (a, b) if x)
        a, b = a[e:], b[e:]
        stripped.append((a, b))
        shifts.append(e)
        n_cells = max(n_cells, len(a) + len(b) - 1)  # deg A + deg B + 1
    if not stripped:
        return []
    lines, lengths = _build_schedule(stripped, variant)
    n_ticks = 2 * n_cells + sum(lengths) + 6
    make_step, init, lag = DESIGNS[variant]
    spec = _chain_spec(n_cells, variant)
    arr = build_array(spec, dict.fromkeys(spec.plan.cells, CellProgram(make_step(field), init)))
    outputs, tr = engine.run(arr, {CellId(0, 0): lines}, n_ticks, trace=trace)
    a_out, b_out, s_out = (outputs[CellId(0, n_cells - 1), port]
                           for port in ("aout", "bout", "startout"))
    starts = [t for t in range(len(s_out)) if s_out[t] == 1]
    if len(starts) != len(lengths):
        raise engine.SimulationError(
            f"expected {len(lengths)} output frames, saw {len(starts)} start bits")
    runs = []
    entry = 1  # the tick at which a frame's leading terms enter the leftmost cell
    for f, (n, e) in enumerate(zip(lengths, shifts)):
        lo = starts[f] + lag
        coeffs, first_t = _decode_window(a_out, b_out, lo, lo + n - 1)
        if not coeffs:
            raise engine.SimulationError(f"no GCD emerged for pair {f}")
        g = poly_normalize(field, tuple(reversed(coeffs)))
        runs.append(GcdRun(gcd=poly_monic(field, (0,) * e + g),
                           latency=first_t - entry, cells=n_cells, ticks=n_ticks, trace=tr))
        entry += n
    return runs


def systolic_poly_gcd(field: Field, a: Poly, b: Poly, variant: str = "fig4",
                      trace: bool = False) -> GcdRun:
    """Run one pair through the array and return the monic GCD and latency."""
    return _run_stream(field, [(a, b)], variant, trace)[0]


def pipeline_batch(field: Field, pairs, variant: str = "fig4") -> list[Poly]:
    """GCDs for several pairs streamed through one array back to back."""
    return [run.gcd for run in _run_stream(field, pairs, variant)]
