"""GF(p) arithmetic and polynomial plumbing."""

import random

import pytest

from systolic.gfield import (
    Field,
    poly_degree,
    poly_divmod,
    poly_monic,
    poly_mul,
    poly_normalize,
    poly_sub,
    poly_to_str,
)

RNG = random.Random(2024)


def test_div_identity_mod2():
    assert Field(2).div(1, 1) == 1


def test_div_mod7_against_exhaustive_search():
    f = Field(7)
    got = f.div(3, 5)
    brute = [q for q in range(7) if (q * 5) % 7 == 3]
    assert brute == [got] == [2]


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        Field(7).div(4, 0)


def test_modulus_must_be_prime_and_small():
    for bad in (0, 1, 4, 9, 21, 1 << 31):
        with pytest.raises(ValueError):
            Field(bad)
    Field(2), Field(2147483647)  # Mersenne prime just under the bound


def test_normalize_examples():
    f2, f7 = Field(2), Field(7)
    zero = poly_normalize(f2, [0, 0, 0])
    assert zero == () and poly_degree(zero) == -1
    assert poly_normalize(f2, [1, 1, 0]) == (1, 1)
    assert poly_normalize(f7, [6, 5 + 2, 1]) == (6, 0, 1)


@pytest.mark.parametrize("p", [2, 7, 257])
def test_field_axioms_random_triples(p):
    f = Field(p)
    for _ in range(200):
        a, b, c = (RNG.randrange(p) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_division_exhaustive_small_primes():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = Field(p)
        for a in range(p):
            for b in range(1, p):
                assert f.mul(f.div(a, b), b) == a


def test_poly_divmod_roundtrip():
    f = Field(7)
    for _ in range(150):
        a = poly_normalize(f, [RNG.randrange(7) for _ in range(RNG.randint(1, 9))])
        b = poly_normalize(f, [RNG.randrange(7) for _ in range(RNG.randint(1, 6))])
        if not b:
            continue
        q, r = poly_divmod(f, a, b)
        assert poly_sub(f, a, poly_mul(f, q, b)) == r
        assert poly_degree(r) < poly_degree(b)


def test_monic():
    f = Field(7)
    assert poly_monic(f, (6, 4)) == (f.div(6, 4), 1)
    assert poly_monic(f, ()) == ()


def test_text_form_roundtrip():
    f = Field(7)
    s = poly_to_str(f, (6, 0, 1))
    assert s == "6,0,1 mod 7"
    assert poly_to_str(f, ()) == "0 mod 7"
