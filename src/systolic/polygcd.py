"""Systolic polynomial GCD over GF(p).

Two cell designs are provided: the degree-difference cell ("fig4"), which
carries the running degree gap d on a dedicated stream, and the
interchange cell ("appA"), which avoids d by swapping the roles of the two
polynomials so the GCD always leaves the array on the a-line.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .engine import CellId, CellProgram, build_array, chain_wires
from .gfield import (
    Field,
    Poly,
    poly_degree,
    poly_is_zero,
    poly_monic,
    poly_normalize,
    poly_shift,
    poly_valuation,
)

VARIANTS = ("fig4", "appA")

S_INITIAL, S_REDUCE_A, S_REDUCE_B = 0, 1, 2
A_INITIAL, A_SHIFT, A_SWAP, A_TRANS = 0, 1, 2, 3

FIG4_STATE_NAMES = {S_INITIAL: "initial", S_REDUCE_A: "reduceA", S_REDUCE_B: "reduceB"}
APPA_STATE_NAMES = {A_INITIAL: "initial", A_SHIFT: "shift", A_SWAP: "swap", A_TRANS: "trans"}


def fig4_initial_state() -> dict:
    return {"state": S_INITIAL, "a": 0, "b": 0, "q": 0, "d": 0, "start": 0}


def appA_initial_state() -> dict:
    return {"state": A_INITIAL, "a": 0, "b": 0, "q": 0,
            "start": 0, "stop": 0, "sig": 0}


def make_fig4_step(field: Field):
    """Degree-difference cell: three states, d carried on its own stream."""
    p = field.p

    def step(state, ins, ctx):
        ain, bin_ = ins.get("ain", 0), ins.get("bin", 0)
        startin, din = ins.get("startin", 0), ins.get("din", 0)
        st = state["state"]
        a, b, q, d, start = state["a"], state["b"], state["q"], state["d"], state["start"]
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
        start = startin
        new_state = {"state": st, "a": a, "b": b, "q": q, "d": d, "start": start}
        outs = {"aout": aout, "bout": bout, "startout": startout, "dout": dout}
        return new_state, outs

    return step


def make_appA_step(field: Field):
    """Interchange cell: swaps polynomial roles so the GCD exits on the a-line."""
    p = field.p

    def step(state, ins, ctx):
        ain, bin_ = ins.get("ain", 0), ins.get("bin", 0)
        startin, stopin = ins.get("startin", 0), ins.get("stopin", 0)
        sigin = ins.get("sigin", 0)
        st = state["state"]
        q = state["q"]
        # standard transfers
        aout, a = state["a"], ain
        bout, b = state["b"], bin_
        startout, start = state["start"], startin
        stopout, stop = state["stop"], stopin
        sigout, sig = state["sig"], sigin
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
        new_state = {"state": st, "a": a, "b": b, "q": q,
                     "start": start, "stop": stop, "sig": sig}
        outs = {"aout": aout, "bout": bout, "startout": startout,
                "stopout": stopout, "sigout": sigout}
        return new_state, outs

    return step


# -- stream frames ----------------------------------------------------------


@dataclass(frozen=True)
class PolyStreamFrame:
    """One input pair laid out as parallel per-slot streams, leading terms first."""

    variant: str
    a_slots: tuple
    b_slots: tuple
    lead_d: int  # fig4 only; rides in the leading slot
    swapped: bool  # appA only; encoder exchanged A and B to get deg B <= deg A
    sig_slots: tuple = ()  # appA only; end-aligned nonzero markers for B

    def __len__(self):
        return len(self.a_slots)


def _coeffs_high_first(a: Poly, length: int) -> tuple:
    rev = tuple(reversed(a))
    return rev + (0,) * (length - len(rev))


def encode_frame(field: Field, a: Poly, b: Poly, variant: str) -> PolyStreamFrame:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a = poly_normalize(field, a)
    b = poly_normalize(field, b)
    if poly_is_zero(a) and poly_is_zero(b):
        raise ValueError("cannot encode gcd(0, 0)")
    swapped = False
    if variant == "appA" and poly_degree(b) > poly_degree(a):
        a, b = b, a
        swapped = True
    length = max(poly_degree(a), poly_degree(b)) + 1
    sig_slots = ()
    if variant == "appA":
        # sig marks B's nonzero coefficients end-aligned (degree e in slot
        # deg A - e), so the first 1 trails the start bit by d = degA - degB:
        # the unary form of d consumed by the shift/trans cells
        sig_slots = tuple(
            1 if 0 <= len(a) - 1 - t < len(b) and b[len(a) - 1 - t] != 0 else 0
            for t in range(length)
        )
    return PolyStreamFrame(
        variant=variant,
        a_slots=_coeffs_high_first(a, length),
        b_slots=_coeffs_high_first(b, length),
        lead_d=poly_degree(a) - poly_degree(b),
        swapped=swapped,
        sig_slots=sig_slots,
    )


def _build_schedule(frames: list[PolyStreamFrame], variant: str, n_ticks: int):
    """Per-tick boundary inputs for the leftmost cell; frames packed back to back.

    fig4: slot 0 carries only the first start bit; frame f occupies ticks
    [T_f, T_f + L_f) with T_0 = 1, and the start bit announcing frame f sits
    at T_f - 1 (the previous frame's final slot).  appA: start/stop ride in
    the first/last slot of each frame directly.
    """
    a_line = [0] * n_ticks
    b_line = [0] * n_ticks
    start = [0] * n_ticks
    extra1 = [0] * n_ticks  # fig4: d;  appA: stop
    extra2 = [0] * n_ticks  # appA: sig
    if variant == "fig4":
        t = 1
        for fr in frames:
            start[t - 1] = 1
            extra1[t] = fr.lead_d
            for i in range(len(fr)):
                a_line[t + i] = fr.a_slots[i]
                b_line[t + i] = fr.b_slots[i]
            t += len(fr)
    else:
        t = 1
        for fr in frames:
            start[t] = 1
            extra1[t + len(fr) - 1] = 1
            for i in range(len(fr)):
                a_line[t + i] = fr.a_slots[i]
                b_line[t + i] = fr.b_slots[i]
                extra2[t + i] = fr.sig_slots[i]
            t += len(fr)
    cell0 = CellId(0, 0)

    if variant == "fig4":
        def schedule(t):
            if t >= n_ticks:
                return {cell0: {"ain": 0, "bin": 0, "startin": 0, "din": 0}}
            return {cell0: {"ain": a_line[t], "bin": b_line[t],
                            "startin": start[t], "din": extra1[t]}}
    else:
        def schedule(t):
            if t >= n_ticks:
                return {cell0: {"ain": 0, "bin": 0, "startin": 0,
                                "stopin": 0, "sigin": 0}}
            return {cell0: {"ain": a_line[t], "bin": b_line[t], "startin": start[t],
                            "stopin": extra1[t], "sigin": extra2[t]}}

    return schedule


def _poly_array(field: Field, n_cells: int, variant: str):
    ports = ("a", "b", "start", "d") if variant == "fig4" else ("a", "b", "start", "stop", "sig")
    spec = engine.linear(n_cells, chain_wires(n_cells, ports))
    step = make_fig4_step(field) if variant == "fig4" else make_appA_step(field)
    init = fig4_initial_state() if variant == "fig4" else appA_initial_state()
    progs = {CellId(0, k): CellProgram(step, dict(init)) for k in range(n_cells)}
    return build_array(spec, progs)


@dataclass(frozen=True)
class GcdRun:
    """Decoded result of one systolic GCD run."""

    gcd: Poly
    latency: int  # ticks from leading-term entry to first GCD coefficient out
    cells: int
    ticks: int
    trace: engine.Trace


def _right_edge_streams(outputs: dict, last_cell: CellId, n_ticks: int):
    """(a, b, start) observation sequences at the right boundary, index = tick."""
    a_out = [0] * (n_ticks + 1)
    b_out = [0] * (n_ticks + 1)
    s_out = [0] * (n_ticks + 1)
    for t, outs in outputs.items():
        for (cell, port), v in outs.items():
            if cell != last_cell:
                continue
            if port == "aout":
                a_out[t] = v
            elif port == "bout":
                b_out[t] = v
            elif port == "startout":
                s_out[t] = v
    return a_out, b_out, s_out


def _decode_window(a_out, b_out, lo, hi):
    """GCD coefficients (highest first) in observation ticks [lo, hi]."""
    for line in (a_out, b_out):
        nz = [t for t in range(lo, min(hi + 1, len(line))) if line[t] != 0]
        if nz:
            return line[nz[0]: nz[-1] + 1], nz[0]
    return [], None


def systolic_poly_gcd(field: Field, a: Poly, b: Poly, variant: str = "fig4",
                      trace: bool = False) -> GcdRun:
    """Run one pair through the array and return the monic GCD and latency."""
    a = poly_normalize(field, a)
    b = poly_normalize(field, b)
    if poly_is_zero(a) and poly_is_zero(b):
        raise ValueError("gcd(0, 0) is undefined")
    # strip the common power of x so the GCD has a nonzero constant term
    e = min(poly_valuation(a) if not poly_is_zero(a) else 1 << 30,
            poly_valuation(b) if not poly_is_zero(b) else 1 << 30)
    a_s = a[e:] if not poly_is_zero(a) else a
    b_s = b[e:] if not poly_is_zero(b) else b
    frame = encode_frame(field, a_s, b_s, variant)
    n_cells = max(poly_degree(a_s) + poly_degree(b_s) + 1, 1)
    n_ticks = 2 * n_cells + len(frame) + 6
    arr = _poly_array(field, n_cells, variant)
    schedule = _build_schedule([frame], variant, n_ticks)
    outputs, tr = engine.run(arr, schedule, n_ticks, trace=trace)
    last = CellId(0, n_cells - 1)
    a_out, b_out, s_out = _right_edge_streams(outputs, last, n_ticks)
    starts = [t for t in range(len(s_out)) if s_out[t] == 1]
    if variant == "fig4":
        # window starts one observation slot after the start bit
        lo = starts[0] + 1 if starts else 1
    else:
        lo = starts[0] if starts else 1
    coeffs, first_t = _decode_window(a_out, b_out, lo, lo + len(frame) - 1)
    if not coeffs:
        raise engine.SimulationError("no GCD emerged from the array")
    g = poly_normalize(field, tuple(reversed(coeffs)))
    g = poly_monic(field, poly_shift(field, g, e))
    latency = first_t - 1  # leading terms enter the leftmost cell at tick 1
    return GcdRun(gcd=g, latency=latency, cells=n_cells, ticks=n_ticks, trace=tr)


def pipeline_batch(field: Field, pairs, variant: str = "fig4") -> list[Poly]:
    """GCDs for several pairs streamed through one array back to back."""
    pairs = [(poly_normalize(field, a), poly_normalize(field, b)) for a, b in pairs]
    if not pairs:
        return []
    frames = []
    strips = []
    n_cells = 1
    for a, b in pairs:
        if poly_is_zero(a) and poly_is_zero(b):
            raise ValueError("gcd(0, 0) is undefined")
        e = min(poly_valuation(a) if not poly_is_zero(a) else 1 << 30,
                poly_valuation(b) if not poly_is_zero(b) else 1 << 30)
        a_s = a[e:] if not poly_is_zero(a) else a
        b_s = b[e:] if not poly_is_zero(b) else b
        strips.append(e)
        frames.append(encode_frame(field, a_s, b_s, variant))
        n_cells = max(n_cells, poly_degree(a_s) + poly_degree(b_s) + 1)
    total_len = sum(len(fr) for fr in frames)
    n_ticks = 2 * n_cells + total_len + 6
    arr = _poly_array(field, n_cells, variant)
    schedule = _build_schedule(frames, variant, n_ticks)
    outputs, _ = engine.run(arr, schedule, n_ticks)
    last = CellId(0, n_cells - 1)
    a_out, b_out, s_out = _right_edge_streams(outputs, last, n_ticks)
    starts = [t for t in range(len(s_out)) if s_out[t] == 1]
    if len(starts) != len(frames):
        raise engine.SimulationError(
            f"expected {len(frames)} output frames, saw {len(starts)} start bits")
    results = []
    for f, fr in enumerate(frames):
        lo = starts[f] + 1 if variant == "fig4" else starts[f]
        coeffs, _ = _decode_window(a_out, b_out, lo, lo + len(fr) - 1)
        if not coeffs:
            raise engine.SimulationError(f"no GCD emerged for pair {f}")
        g = poly_normalize(field, tuple(reversed(coeffs)))
        results.append(poly_monic(field, poly_shift(field, g, strips[f])))
    return results
