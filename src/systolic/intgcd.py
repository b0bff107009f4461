"""Integer GCD: the plus-minus iteration and its bit-serial systolic pipeline.

The serial forms keep (a, b) as machine integers; the systolic form streams
both operands least-significant-bit first in 2's complement through a
pipeline of 1-bit cells, each holding twelve state bits.  The swap condition
of the plus-minus iteration is implemented as "swap when delta >= 0", which
is what the alpha/beta bound invariant of the precursor requires (the
published delta <= 0 form loops forever on inputs like a=5, b=3).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .engine import CellId, CellProgram, build_array, chain_wires

CELL_RATIO = 3.1106  # cells per input bit known to suffice for the pipeline
STATE_BITS = ("a", "b", "start", "startodd", "eps", "neg",
              "wait", "shift", "carry", "swap", "eps2", "minus")


def _check_serial_args(a: int, b: int):
    if a % 2 == 0:
        raise ValueError("a must be odd")
    if b == 0:
        raise ValueError("b must be nonzero")


def pm_precursor(a: int, b: int, n: int) -> tuple[int, int]:
    """Bounded plus-minus iteration; returns (gcd, iterations), iterations <= 2n+1."""
    _check_serial_args(a, b)
    if abs(a) > (1 << n) or abs(b) > (1 << n):
        raise ValueError(f"|a|, |b| must be <= 2**{n}")
    alpha = beta = n
    iterations = 0
    while True:
        iterations += 1
        while b % 2 == 0:
            b //= 2
            beta -= 1
        if alpha >= beta:
            a, b = b, a
            alpha, beta = beta, alpha
        if (a + b) % 4 == 0:
            b = (a + b) // 2
        else:
            b = (a - b) // 2
        if b == 0:
            return abs(a), iterations


def pm_steps(a: int, b: int):
    """Yield (a, b, delta) after each loop iteration, for invariant checks."""
    _check_serial_args(a, b)
    delta = 0
    while True:
        while b % 2 == 0:
            b //= 2
            delta += 1
        if delta >= 0:
            a, b = b, a
            delta = -delta
        if (a + b) % 4 == 0:
            b = (a + b) // 2
        else:
            b = (a - b) // 2
        yield a, b, delta
        if b == 0:
            return


def pm_serial(a: int, b: int) -> int:
    """Plus-minus GCD keeping only delta = alpha - beta."""
    for a, _, _ in pm_steps(a, b):
        pass
    return abs(a)


def strip_twos(a: int, b: int) -> tuple[int, int, int]:
    """Strip the common power of two and make the first operand odd.

    Returns (a', b', e) with {a', b'} = {a / 2^e, b / 2^e} and a' odd, so
    gcd(a, b) = gcd(a', b') << e; every plus-minus form needs an odd a'.
    """
    e = 0
    while a % 2 == 0 and b % 2 == 0:
        a //= 2
        b //= 2
        e += 1
    if a % 2 == 0:
        a, b = b, a
    return a, b, e


# -- bit-serial cell ---------------------------------------------------------


def gcd_cell_initial_state() -> dict:
    return {k: 0 for k in STATE_BITS}


def _majority(x: int, y: int, z: int) -> int:
    return 1 if x + y + z >= 2 else 0


def gcd_cell_step(state, ins, ctx):
    """One bit-serial pipeline cell; a total function on bits.

    Statement order matters: stream registers latch the current input bits
    first, then the control logic runs on the freshly latched values, so
    assignments below mirror that sequence exactly.
    """
    ain, bin_ = ins.get("ain", 0), ins.get("bin", 0)
    startin, startoddin = ins.get("startin", 0), ins.get("startoddin", 0)
    epsin, negin = ins.get("epsin", 0), ins.get("negin", 0)

    # standard transfers (eps takes an extra delay stage through eps2)
    aout, a = state["a"], ain
    bout, b = state["b"], bin_
    startout, start = state["start"], startin
    startoddout, startodd = state["startodd"], startoddin
    epsout, eps2, eps = state["eps2"], state["eps"], epsin
    negout, neg = state["neg"], state["neg"]
    wait = state["wait"]
    shift, carry, swap = state["shift"], state["carry"], state["swap"]
    minus = state["minus"]

    wait = (wait | start) & (1 - startodd)  # wait for a nonzero bit

    if startodd or (wait and (a | b)):
        eps = eps | wait
        eps2 = 0
        neg = negin & (1 - wait)
        startodd = 1
        wait = 0
        swap = 1 - a
        shift = 1 - (a & b)
    elif wait:
        epsout = eps2
    elif shift:  # shift b faster than a, may also swap
        aout = (bout & swap) | (aout & (1 - swap))
        bout = (a & swap) | (b & (1 - swap))
        epsout = (eps & neg) | (epsout & (1 - neg))
        neg = neg & (1 - (eps & startoddout))  # delta may become zero
        negout = neg
    elif startoddout:
        epsout = eps2
        swap = 1 - neg
        neg = neg | (1 - eps2)  # delta := -|delta|
        negout = neg
        aout = aout | swap  # swap implies b
        bout = 0  # and the new b is even
        carry = a ^ b  # may be borrow or carry
        minus = 1 - carry  # 1 iff we form (b - a) div 2
    else:
        epsout = eps2
        aout = (bout & swap) | (aout & (1 - swap))
        bout = a ^ b ^ carry
        carry = _majority(b, carry, a ^ minus)

    new_state = {"a": a, "b": b, "start": start, "startodd": startodd,
                 "eps": eps, "neg": neg, "wait": wait, "shift": shift,
                 "carry": carry, "swap": swap, "eps2": eps2, "minus": minus}
    outs = {"aout": aout, "bout": bout, "startout": startout,
            "startoddout": startoddout, "epsout": epsout, "negout": negout}
    return new_state, outs


@dataclass(frozen=True)
class BitFrame:
    """Fixed-width LSB-first 2's-complement frame plus the four control lanes."""

    length: int
    a_bits: tuple
    b_bits: tuple

    @property
    def start_bits(self):
        return (1,) + (0,) * (self.length - 1)


def _to_bits(x: int, length: int) -> tuple:
    return tuple((x >> i) & 1 for i in range(length))


def _from_twos_complement(bits) -> int:
    length = len(bits)
    v = sum(b << i for i, b in enumerate(bits))
    if bits[-1]:
        v -= 1 << length
    return v


def encode_bitframe(a: int, b: int, n: int) -> BitFrame:
    """Word length n+2: one sign bit plus one bit of growth before halving."""
    if not (0 < a < (1 << n) and 0 < b < (1 << n)):
        raise ValueError(f"inputs must lie in (0, 2**{n})")
    length = n + 2
    return BitFrame(length=length, a_bits=_to_bits(a, length), b_bits=_to_bits(b, length))


def cell_count(n: int) -> int:
    """Pipeline length: ceil(3.1106 n) + 1."""
    exact = CELL_RATIO * n
    c = int(exact)
    if c < exact:
        c += 1
    return c + 1


@dataclass(frozen=True)
class IntGcdRun:
    gcd: int
    cells: int
    ticks: int
    raw_output: int  # signed word as decoded from the pipeline
    trace: engine.Trace


PORTS = ("a", "b", "start", "startodd", "eps", "neg")


def _gcd_pipeline(n_cells: int, frame_len: int):
    """Pipeline of Appendix-B cells for one frame of ``frame_len`` bits.

    Cell k is only clocked during [k, 2k+L+8]: the single frame cannot reach
    cell k before tick k (signals travel at most one cell per tick) and
    everything the result word depends on has passed by the upper bound, so
    gating leaves the decoded output unchanged (cells outside their window
    would only chew zeros or emit post-result garbage).
    """
    def activation(cell):
        return (range(cell.col, 2 * cell.col + frame_len + 9),)
    spec = engine.linear(n_cells, chain_wires(n_cells, PORTS), activation=activation)
    progs = {CellId(0, k): CellProgram(gcd_cell_step, gcd_cell_initial_state())
             for k in range(n_cells)}
    return build_array(spec, progs)


def systolic_int_gcd(a: int, b: int, n: int, trace: bool = False) -> IntGcdRun:
    """Pipeline GCD of positive a, b < 2**n.

    The host strips the common power of two and swaps to make the first
    operand odd before streaming; the decoded output word may be negative,
    so its absolute value (times the stripped power) is returned.
    """
    if a <= 0 or b <= 0:
        raise ValueError("inputs must be positive")
    if a >= (1 << n) or b >= (1 << n):
        raise ValueError(f"inputs must be < 2**{n}")
    a, b, e = strip_twos(a, b)
    frame = encode_bitframe(a, b, n)
    n_cells = cell_count(n)
    n_ticks = 2 * n_cells + frame.length + 4
    arr = _gcd_pipeline(n_cells, frame.length)
    cell0 = CellId(0, 0)
    zeros = {"ain": 0, "bin": 0, "startin": 0, "startoddin": 0, "epsin": 0, "negin": 0}

    def schedule(t):
        if t >= frame.length:
            return {cell0: dict(zeros)}
        return {cell0: {"ain": frame.a_bits[t], "bin": frame.b_bits[t],
                        "startin": frame.start_bits[t], "startoddin": 0,
                        "epsin": 0, "negin": 0}}

    outputs, tr = engine.run(arr, schedule, n_ticks, trace=trace)
    last = CellId(0, n_cells - 1)
    a_out = [0] * (n_ticks + 1)
    s_out = [0] * (n_ticks + 1)
    for t, outs in outputs.items():
        for (cell, port), v in outs.items():
            if cell == last and port == "aout":
                a_out[t] = v
            elif cell == last and port == "startout":
                s_out[t] = v
    try:
        t0 = s_out.index(1)
    except ValueError:
        raise engine.SimulationError("start bit never reached the right edge")
    word = a_out[t0: t0 + frame.length]
    raw = _from_twos_complement(word)
    return IntGcdRun(gcd=abs(raw) << e, cells=n_cells, ticks=n_ticks,
                     raw_output=raw, trace=tr)
