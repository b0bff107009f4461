"""GF(p) arithmetic and polynomial plumbing."""

import dataclasses
import random

import pytest
from gf_tools import div, poly_mul, poly_sub

from systolic.gfield import Field, poly_divmod, poly_monic, poly_normalize, poly_to_str

RNG = random.Random(2024)


def test_modulus_must_be_prime_and_small():
    for bad in (0, 1, 4, 9, 21, 1 << 31):
        with pytest.raises(ValueError):
            Field(bad)
    Field(2), Field(2147483647)  # Mersenne prime just under the bound


def test_fields_of_one_modulus_are_one_value():
    a, b = Field(7), Field(7)
    assert a == b and hash(a) == hash(b) and a != Field(5)
    assert {a: "GF(7)"}[b] == "GF(7)" and len({a, b}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.p = 5
    assert a.p == 7


def test_normalize_examples():
    f2, f7 = Field(2), Field(7)
    zero = poly_normalize(f2, [0, 0, 0])
    assert zero == ()
    assert poly_normalize(f2, [1, 1, 0]) == (1, 1)
    assert poly_normalize(f7, [6, 5 + 2, 1]) == (6, 0, 1)


@pytest.mark.parametrize("p", [2, 7, 257])
def test_field_axioms_random_triples(p):
    f = Field(p)
    for _ in range(200):
        a, b, c = (RNG.randrange(p) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, (b + c) % p) == (f.mul(a, b) + f.mul(a, c)) % p
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_inverse_exhaustive_small_primes():
    # the field's one division: the cells and the oracle divide by inverting
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = Field(p)
        for b in range(1, p):
            assert f.mul(f.inv(b), b) == 1


def test_inverse_of_zero():
    for a in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            Field(7).inv(a)


def test_poly_divmod_roundtrip():
    f = Field(7)
    for _ in range(150):
        a = poly_normalize(f, [RNG.randrange(7) for _ in range(RNG.randint(1, 9))])
        b = poly_normalize(f, [RNG.randrange(7) for _ in range(RNG.randint(1, 6))])
        if not b:
            continue
        q, r = poly_divmod(f, a, b)
        assert poly_sub(f, a, poly_mul(f, q, b)) == r
        assert len(r) < len(b)
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        poly_divmod(f, (1, 2), ())


def test_monic():
    f = Field(7)
    assert poly_monic(f, (6, 4)) == (div(f, 6, 4), 1)
    assert poly_monic(f, ()) == ()


def test_text_form_roundtrip():
    f = Field(7)
    s = poly_to_str(f, (6, 0, 1))
    assert s == "6,0,1 mod 7"
    assert poly_to_str(f, ()) == "0 mod 7"
