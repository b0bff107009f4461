"""GF(p) tooling for the tests alone: a product that builds pairs with a
known GCD, a difference that checks division round trips, and field
division for desk replications of the cells' reductions.  The library
keeps only what its arrays and oracles call."""

from itertools import zip_longest

from systolic.gfield import Field, Poly, poly_normalize


def div(field: Field, a: int, b: int) -> int:
    return field.mul(a, field.inv(b))


def poly_sub(field: Field, a: Poly, b: Poly) -> Poly:
    return poly_normalize(field, [x - y for x, y in zip_longest(a, b, fillvalue=0)])


def poly_mul(field: Field, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_normalize(field, out)
