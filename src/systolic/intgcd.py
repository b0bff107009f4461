"""Integer GCD: the plus-minus iteration and its bit-serial systolic pipeline.

The serial forms keep (a, b) as machine integers; the systolic form streams
both operands least-significant-bit first in 2's complement through a
pipeline of 1-bit cells, each holding twelve state bits.  The swap condition
of the plus-minus iteration is implemented as "swap when delta >= 0", which
is what the alpha/beta bound invariant of the precursor requires (the
published delta <= 0 form loops forever on inputs like a=5, b=3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import engine
from .engine import CellId, CellProgram, build_array, chain_ports, chain_wires

STATE_BITS = ("a", "b", "start", "startodd", "eps", "neg",
              "wait", "shift", "carry", "swap", "eps2", "minus")
# the widest word the pipeline and its precursor take, cell_count(1024) =
# 3187 cells; range checks compare bit lengths, so no n builds 2**n
MAX_BITS = 1024


def _check_serial_args(a: int, b: int):
    if a % 2 == 0:
        raise ValueError("a must be odd")
    if b == 0:
        raise ValueError("b must be nonzero")


def pm_precursor(a: int, b: int, n: int) -> tuple[int, int]:
    """Bounded plus-minus iteration for a word size n <= MAX_BITS; returns
    (gcd, iterations), iterations <= 2n+1.

    The precursor keeps bounds |a| <= 2**alpha and |b| <= 2**beta, both n at
    the start, and swaps when alpha >= beta.  Only delta = alpha - beta
    matters to the swap, so it runs as ``pm_steps``, whose iterations it counts.
    """
    _check_serial_args(a, b)
    if not 0 <= n <= MAX_BITS:
        raise ValueError(f"word size n must not be negative or exceed {MAX_BITS}, got {n}")
    # |x| <= 2**n, compared by bit lengths (a is odd and b nonzero)
    if (abs(a) - 1).bit_length() > n or (abs(b) - 1).bit_length() > n:
        raise ValueError(f"|a|, |b| must be <= 2**{n}")
    iterations = 0
    for a, _, _ in pm_steps(a, b):
        iterations += 1
    return abs(a), iterations


def pm_steps(a: int, b: int):
    """Yield (a, b, delta) after each plus-minus iteration, delta = alpha - beta."""
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
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
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


def gcd_cell_step(state, ins, tick):
    """One bit-serial pipeline cell; a total function on bits.

    Statement order matters: stream registers latch the current input bits
    first, then the control logic runs on the freshly latched values, so
    assignments below mirror that sequence exactly.
    """
    # standard transfers (eps takes an extra delay stage through eps2)
    a, b, start, startodd, eps, negin = ins
    (aout, bout, startout, startoddout, eps2, neg,
     wait, shift, carry, swap, epsout, minus) = state
    negout = neg

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

    return ((a, b, start, startodd, eps, neg, wait, shift, carry, swap, eps2, minus),
            (aout, bout, startout, startoddout, epsout, negout))


def _to_bits(x: int, length: int) -> tuple:
    return tuple((x >> i) & 1 for i in range(length))


def _from_twos_complement(bits) -> int:
    length = len(bits)
    v = sum(b << i for i, b in enumerate(bits))
    if bits[-1]:
        v -= 1 << length
    return v


def encode_bitframe(a: int, b: int, n: int) -> dict[str, tuple]:
    """Cell 0's input lines for one frame of word length n+2.

    The word holds one sign bit plus one bit of growth before halving; a and
    b go LSB first in 2's complement, the start bit marks the first slot and
    the three other control lanes stay 0.
    """
    if not (a > 0 and b > 0 and a.bit_length() <= n and b.bit_length() <= n):
        raise ValueError(f"inputs must lie in (0, 2**{n})")
    length = n + 2
    return {"ain": _to_bits(a, length), "bin": _to_bits(b, length), "startin": (1,),
            "startoddin": (), "epsin": (), "negin": ()}


def cell_count(n: int) -> int:
    """Pipeline length: ceil(3.1106 n) + 1, in integers, since the float
    product rounds below the ceiling for some large n."""
    return -(-31106 * n // 10000) + 1


@dataclass(frozen=True)
class IntGcdRun:
    gcd: int
    cells: int
    ticks: int
    raw_output: int  # signed word as decoded from the pipeline
    trace: engine.Trace = field(compare=False)


PORTS = ("a", "b", "start", "startodd", "eps", "neg")
CELL_PORTS = chain_ports(PORTS)


# 32 shapes, as `verify intgcd` draws the 29 word sizes 4 to 32
@functools.lru_cache(maxsize=32)
def _gcd_pipeline(n_cells: int, frame_len: int):
    """The spec and programs of a pipeline of Appendix-B cells for one frame
    of ``frame_len`` bits.

    Cell k is only clocked during [k, 2k+L+8]: the single frame cannot reach
    cell k before tick k (signals travel at most one cell per tick) and
    everything the result word depends on has passed by the upper bound, so
    gating leaves the decoded output unchanged (cells outside their window
    would only chew zeros or emit post-result garbage).

    Like the fixed hardware, one pipeline serves every pair of its width:
    the same spec comes back for each shape, so ``build_array`` reuses its
    plan, and a run pays only for its own registers and schedule.
    """
    def activation(cell):
        return (range(cell.col, 2 * cell.col + frame_len + 9),)
    spec = engine.linear(n_cells, chain_wires(n_cells, PORTS), activation=activation,
                         ports=lambda cell: CELL_PORTS)
    return spec, dict.fromkeys(spec.plan.cells, CellProgram(gcd_cell_step, gcd_cell_initial_state()))


def systolic_int_gcd(a: int, b: int, n: int, trace: bool = False) -> IntGcdRun:
    """Pipeline GCD of positive a, b < 2**n, for a word size n <= MAX_BITS.

    The host strips the common power of two and swaps to make the first
    operand odd before streaming; the decoded output word may be negative,
    so its absolute value (times the stripped power) is returned.
    """
    if a <= 0 or b <= 0:
        raise ValueError("inputs must be positive")
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"word size n must be at least 1 and at most {MAX_BITS}, got {n}")
    if a.bit_length() > n or b.bit_length() > n:
        raise ValueError(f"inputs must be < 2**{n}")
    a, b, e = strip_twos(a, b)
    lines = encode_bitframe(a, b, n)
    frame_len = len(lines["ain"])
    n_cells = cell_count(n)
    n_ticks = 2 * n_cells + frame_len + 4
    arr = build_array(*_gcd_pipeline(n_cells, frame_len))
    outputs, tr = engine.run(arr, {CellId(0, 0): lines}, n_ticks, trace=trace)
    last = CellId(0, n_cells - 1)
    try:
        t0 = outputs[last, "startout"].index(1)
    except ValueError:
        raise engine.SimulationError("start bit never reached the right edge")
    word = outputs[last, "aout"][t0: t0 + frame_len]
    raw = _from_twos_complement(word)
    return IntGcdRun(gcd=abs(raw) << e, cells=n_cells, ticks=n_ticks,
                     raw_output=raw, trace=tr)
