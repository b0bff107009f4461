"""Arithmetic in the prime field GF(p) and polynomials over it.

Polynomials are tuples of int residues, constant term first, with no
trailing zeros; the empty tuple is the zero polynomial (degree -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

MAX_PRIME = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Field:
    """GF(p) for prime p, 2 <= p < 2**31.  Elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < MAX_PRIME):
            raise ValueError(f"modulus {self.p} out of range [2, 2**31)")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)


# -- polynomials -----------------------------------------------------------

Poly = tuple  # int coefficients, constant term first, no trailing zeros


def poly_normalize(field: Field, raw) -> Poly:
    """Reduce coefficients mod p and strip trailing zeros (zero poly -> ())."""
    c = [x % field.p for x in raw]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_monic(field: Field, a: Poly) -> Poly:
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in a)


def poly_divmod(field: Field, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b (b nonzero), deg(rem) < deg(b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = field.inv(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        coef = field.mul(r[shift + len(b) - 1], inv_lead)
        if coef:
            q[shift] = coef
            for j, y in enumerate(b):
                r[shift + j] = (r[shift + j] - coef * y) % field.p
    return poly_normalize(field, q), poly_normalize(field, r)


def poly_valuation(a: Poly) -> int:
    """Multiplicity of the factor x (index of first nonzero coeff); 0 for the zero poly."""
    for i, x in enumerate(a):
        if x:
            return i
    return 0


def poly_to_str(field: Field, a: Poly) -> str:
    """Text form: comma-separated coefficients, constant term first, `mod p` suffix."""
    coeffs = ",".join(str(x) for x in a) if a else "0"
    return f"{coeffs} mod {field.p}"

