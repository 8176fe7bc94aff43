"""Polynomial layer: divmod, extended gcd, root extraction."""

import random

import pytest

from roquette.ff import make_field, power
from roquette.poly import Poly, roots_of_split, roots_with_multiplicity


def rand_poly(field, deg, rng):
    return Poly(field, [field.random_element(rng) for _ in range(deg + 1)])


def test_divmod_recombines():
    field = make_field(5, 2)
    rng = random.Random(11)
    for _ in range(100):
        a = rand_poly(field, rng.randrange(6), rng)
        b = rand_poly(field, rng.randrange(3), rng)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_xgcd_bezout():
    field = make_field(5, 2)
    rng = random.Random(12)
    for _ in range(100):
        a = rand_poly(field, rng.randrange(5), rng)
        b = rand_poly(field, rng.randrange(5), rng)
        if a.is_zero() and b.is_zero():
            continue
        d, s, t = a.xgcd(b)
        assert s * a + t * b == d
        if not d.is_zero():
            assert (a % d).is_zero() and (b % d).is_zero()


def test_exact_div_raises_on_remainder():
    field = make_field(5, 1)
    x = Poly(field, (field.zero(), field.one()))
    with pytest.raises(ValueError):
        (x * x + Poly.one(field)).exact_div(x)


def test_roots_with_multiplicity():
    field = make_field(5, 2)
    rng = random.Random(13)
    elems = [e for e in field.elements()]
    for _ in range(40):
        chosen = rng.sample(elems, rng.randrange(1, 4))
        mults = [rng.randrange(1, 3) for _ in chosen]
        f = Poly.one(field)
        for r, m in zip(chosen, mults):
            lin = Poly(field, (-r, field.one()))
            for _ in range(m):
                f = f * lin
        found = roots_with_multiplicity(f)
        assert sorted((r.coeffs, m) for r, m in found) == \
            sorted((r.coeffs, m) for r, m in zip(chosen, mults))
    # multiplicities that the characteristic divides: (x - a)^p and
    # (x - a)^(2p) * (x - b), whose derivatives vanish at a
    for p, k in [(5, 1), (7, 1), (5, 2)]:
        field = make_field(p, k)
        a, b = field.element(2), field.element(3)
        lin_a, lin_b = Poly(field, (-a, field.one())), Poly(field, (-b, field.one()))
        f = power(lin_a, p, Poly.__mul__, Poly.one(field))
        assert roots_with_multiplicity(f) == [(a, p)]
        assert roots_with_multiplicity(f * f * lin_b) == [(a, 2 * p), (b, 1)]


def test_roots_skips_irreducible_factor():
    # (x - 1) * (irreducible quadratic) has exactly one root downstairs
    field = make_field(5, 1)
    irr = Poly.from_ints(field, list(make_field(5, 2).modulus))
    lin = Poly.from_ints(field, [-1, 1])
    found = roots_with_multiplicity(irr * lin)
    assert len(found) == 1
    assert found[0][0] == field.one() and found[0][1] == 1


def test_roots_of_split_raises_without_a_split():
    # x^2 + 2 has no root over F_5: -2 = 3 is a non-square
    field = make_field(5, 1)
    with pytest.raises(ValueError, match="does not split"):
        roots_of_split(Poly.from_ints(field, [2, 0, 1]), random.Random(0))


def test_pow_mod_matches_repeated_multiplication():
    # ff.power with a product mod m, as the root finder takes x^q mod f
    field = make_field(5, 2)
    rng = random.Random(14)
    m = rand_poly(field, 3, rng)
    while m.degree() < 3:
        m = rand_poly(field, 3, rng)
    b = rand_poly(field, 2, rng)
    acc = Poly.one(field)
    for e in range(12):
        assert power(b % m, e, lambda u, v: (u * v) % m, Poly.one(field)) == acc % m
        acc = acc * b
