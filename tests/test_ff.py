"""Field arithmetic: axioms, square roots, moduli.

Derived expectations are computed by independent oracles inside the
tests (naive polynomial division, exhaustive enumeration, Fermat's
a^(q - 2)) and compared against the module under test.
"""

import itertools
import math
import operator
import random

import pytest

from roquette import ff
from roquette.ff import make_field
from roquette.poly import Poly


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------

def sqrt_exhaustive(a, limit=10 ** 6):
    """Brute-force canonical square root; the independent oracle for sqrt.

    Refuses to run above `limit` elements.
    """
    field = a.field
    if field.order > limit:
        raise ValueError(f"field of order {field.order} exceeds exhaustive limit {limit}")
    for r in field.elements():
        if r * r == a:
            return min(r, -r, key=lambda e: e.coeffs)
    return None


def poly_divmod_naive(a, m, p):
    """Schoolbook polynomial division over F_p; the oracle for reductions."""
    a = list(a)
    dm = len(m) - 1
    while len(a) >= len(m) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(m):
            break
        shift = len(a) - len(m)
        factor = a[-1] * pow(m[-1], p - 2, p) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def schoolbook_mul(field, a, b):
    """Schoolbook product of two coefficient vectors, reduced by naive
    division; the oracle for the packed kernel FieldDescriptor._mul_coeffs."""
    p, k = field.p, field.k
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    rem = poly_divmod_naive(prod, list(field.modulus), p)
    return tuple(rem + [0] * (k - len(rem)))


def irreducible_by_gcd(f, p):
    """Irreducibility of monic f of degree k over F_p, on Poly: x^(p^k) = x
    mod f and gcd(x^(p^d) - x, f) = 1 for every proper divisor d of k."""
    fp = Poly.from_ints(make_field(p, 1), f)
    k = fp.degree()
    x = Poly(fp.field, (fp.field.zero(), fp.field.one()))
    frob = [x]  # frob[d] = x^(p^d) mod f
    for _ in range(k):
        frob.append(ff.power(frob[-1], p, lambda a, b: (a * b) % fp, Poly.one(fp.field)))
    return frob[k] == x and all((frob[d] - x).xgcd(fp)[0].degree() == 0
                                for d in range(1, k) if k % d == 0)


def quadratics_without_roots(p):
    """Lex enumeration of monic quadratics having no prime-field root."""
    out = []
    for c0 in range(p):
        for c1 in range(p):
            if all((a * a + c1 * a + c0) % p for a in range(p)):
                out.append((c0, c1, 1))
    return out


def test_first_irreducible_quadratic_matches_root_oracle():
    # degree 2: irreducible iff no roots, so the oracle is exact
    for p in (5, 7, 11, 13):
        assert make_field(p, 2).modulus == quadratics_without_roots(p)[0]


def test_prime_field_modulus_is_x():
    assert make_field(5, 1).modulus == (0, 1)


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(15, 2)
    with pytest.raises(ValueError):
        make_field(3, 1)  # below the genus-2 floor


def test_prime_test_and_factors_match_a_sieve():
    # the sieve of Eratosthenes is the oracle; the prime powers 4, 8, 9,
    # 25, ... have one prime factor each and are not prime
    n = 200
    composite = {m for d in range(2, n) for m in range(d * d, n, d)}
    primes = [m for m in range(2, n) if m not in composite]
    assert [m for m in range(-3, n) if ff.is_prime(m)] == primes
    for m in range(2, n):
        assert ff.prime_factors(m) == [q for q in primes if m % q == 0], m


def test_modulus_is_irreducible_by_gcd_oracle():
    for p, k in [(5, 2), (5, 4), (7, 2), (5, 6)]:
        assert irreducible_by_gcd(make_field(p, k).modulus, p)
    # and no earlier candidate (c0 >= 1, constant term first) is irreducible
    for p, k in [(5, 2), (5, 4), (5, 6), (7, 4), (29, 4), (5, 12)]:
        modulus = make_field(p, k).modulus
        assert irreducible_by_gcd(modulus, p)
        candidates = ((c0,) + upper for c0 in range(1, p)
                      for upper in itertools.product(range(p), repeat=k - 1))
        earlier = list(itertools.takewhile(lambda c: c != modulus[:-1], candidates))
        assert not any(irreducible_by_gcd(c + (1,), p) for c in earlier)
        if (p, k) == (5, 12):
            assert len(earlier) == 29
    # squarefree, with factors of degree 2, 4 and 6: x^(5^12) = x holds, and
    # only the unit test on x^(5^6) - x and x^(5^4) - x rejects it
    F5 = make_field(5, 1)
    f = Poly.one(F5)
    for d in (2, 4, 6):
        f = f * Poly.from_ints(F5, make_field(5, d).modulus)
    f = [c.coeffs[0] for c in f.coeffs]
    x = ff.FieldDescriptor(5, 12, tuple(f)).gen()
    assert x ** (5 ** 12) == x
    assert not irreducible_by_gcd(f, 5)
    assert not ff._is_irreducible(f, 5)


# reducible moduli over F_p, as products of first irreducibles of the given
# degrees: a square 2*2, then 2+4, 2+4+6, 1+3 (the degree-1 factor is x) and
# the square 4*4
REDUCIBLE_RINGS = [(5, (2, 2)), (5, (2, 4)), (5, (2, 4, 6)), (7, (1, 3)),
                   (13, (4, 4))]


def test_inverse_of_a_zero_divisor_raises():
    # x^2 + 1 = (x - 2)(x - 3) over F_5, so x - 2 is no unit modulo it
    F = ff.FieldDescriptor(5, 2, (1, 0, 1))
    x = F.gen()
    assert (x - 2) * (x - 3) == F.zero()
    with pytest.raises(ZeroDivisionError):
        (x - 2).inverse()
    # in each ring an element raises exactly when Poly.xgcd finds a factor it
    # shares with the modulus; every other element has an inverse
    for p, degrees in REDUCIBLE_RINGS:
        Fp = make_field(p, 1)
        factors = [Poly.from_ints(Fp, ff.first_irreducible(p, d)) for d in degrees]
        modulus = math.prod(factors, start=Poly.one(Fp))
        k = modulus.degree()
        ring = ff.FieldDescriptor(p, k, tuple(c.coeffs[0] for c in modulus.coeffs))
        rng = random.Random(p * 100 + k)
        if ring.order <= 7 ** 4:
            elements = [a for a in ring.elements() if not a.is_zero()]
        else:
            # random elements are almost all units, so add random multiples
            # of each factor, which never are
            elements = [ring.random_element(rng) for _ in range(60)]
            for f in factors:
                for _ in range(15):
                    h = Poly.from_ints(Fp, [rng.randrange(p) for _ in range(k)])
                    elements.append(ring.element(
                        [c.coeffs[0] for c in ((f * h) % modulus).coeffs]))
            elements = [a for a in elements if not a.is_zero()]
        units = 0
        for a in elements:
            shared = Poly.from_ints(Fp, a.coeffs).xgcd(modulus)[0].degree() > 0
            if shared:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
            else:
                assert a * a.inverse() == ring.one(), (p, degrees, a)
                units += 1
        assert 0 < units < len(elements), (p, degrees)


@pytest.mark.parametrize("p,k", [(5, 1), (29, 1), (5, 2), (29, 2), (5, 4), (7, 4),
                                 (13, 4), (5, 12), (7, 12), (11, 12), (13, 8),
                                 (31, 12), (65537, 2), (7, 2)])
def test_inverse_matches_fermat_oracle(p, k):
    # a^(q - 2) is the inverse by Lagrange's theorem; it shares no code with
    # the extended Euclid of FieldElement.inverse
    field = make_field(p, k)
    q = field.order
    rng = random.Random(p * 100 + k)
    if q <= 5 ** 4:
        elements = [a for a in field.elements() if not a.is_zero()]
    else:
        elements = [a for a in (field.random_element(rng) for _ in range(40))
                    if not a.is_zero()]
    if k > 1:
        elements.append(field.gen())
    for a in elements:
        inv = a.inverse()
        assert inv == a ** (q - 2), a
        assert a * inv == field.one(), a
    # every nonzero constant c, with c^(q - 2) taken in the prime field
    for c in range(1, p):
        a = field.element(c)
        inv = a.inverse()
        assert inv == field.element(pow(c, q - 2, p)), c
        assert a * inv == field.one(), c


def test_power_makes_the_same_products():
    # residues mod 1009 under a recording product: from one, the product
    # with x^(2^i) for each set bit i, then the square, the last one too
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b % 1009
    assert ff.power(3, 5, mul, 1) == 243
    assert products == [(1, 3), (3, 3), (9, 9), (3, 81), (81, 81)]
    for n in range(70):
        products.clear()
        assert ff.power(3, n, mul, 1) == pow(3, n, 1009)
        assert len(products) == bin(n).count("1") + n.bit_length()


def test_power_takes_only_non_negative_int_exponents():
    # power is the one exponent check of every layer; a product that gives
    # up after 64 calls makes a missing guard fail at once, not hang
    calls = []

    def mul(a, b):
        calls.append((a, b))
        assert len(calls) <= 64, "power looped on a bad exponent"
        return a * b % 1009
    with pytest.raises(ValueError):
        ff.power(3, -1, mul, 1)
    for n in (0.0, 1.5):
        with pytest.raises(TypeError):
            ff.power(3, n, mul, 1)
    with pytest.raises(TypeError):
        _ = make_field(5, 2).gen() ** 0.0


@pytest.mark.parametrize("m", [31, 241])
def test_multiplicative_order_matches_walking_oracle(m):
    # every unit mod a prime m; 241 - 1 = 2^4 * 3 * 5 has a repeated prime
    for x in range(1, m):
        walked = next(n for n in range(1, m) if pow(x, n, m) == 1)
        assert ff.multiplicative_order(m - 1, lambda e: pow(x, e, m) == 1) == walked


def test_basic_prime_field_arithmetic():
    F5 = make_field(5, 1)
    assert F5.element(3) + F5.element(4) == F5.element(2)
    assert F5.element(2) ** 4 == F5.one()  # Fermat
    assert F5.element(2) * 3 == F5.element(1)
    assert (F5.element(3) / F5.element(4)) * F5.element(4) == F5.element(3)


def test_generator_square_matches_division_oracle():
    F25 = make_field(5, 2)
    z = F25.gen()
    oracle = poly_divmod_naive([0, 0, 1], list(F25.modulus), 5)
    oracle += [0] * (2 - len(oracle))
    assert (z * z).coeffs == tuple(oracle)


def test_cross_field_operations_rejected():
    a = make_field(5, 1).element(2)
    b = make_field(5, 2).element(2)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a * b
    # a field is the object make_field returns: a twin descriptor on the
    # same modulus is another field, whose elements never mix with these
    F25 = make_field(5, 2)
    twin = ff.FieldDescriptor(5, 2, F25.modulus)
    assert twin != F25 and twin.gen() != F25.gen()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(twin.gen(), F25.gen())
    with pytest.raises(ValueError):
        F25.element(twin.gen())
    # an operand that is neither an element nor an int is refused too
    for op, other in ((operator.add, "x"), (operator.mul, 1.5),
                      (operator.sub, None), (operator.truediv, 2.0)):
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)


# (101, 3), (257, 2) and (65537, 2) pack into the H, I and Q digits
@pytest.mark.parametrize("p,k", [(5, 2), (5, 4), (5, 12), (7, 12), (11, 12),
                                 (13, 8), (29, 4), (31, 12), (5, 24), (101, 3),
                                 (257, 2), (65537, 2)])
def test_packed_product_matches_schoolbook_oracle(p, k):
    # the kernel multiplies modulo any monic modulus; a random one keeps the
    # test independent of the modulus search, which itself multiplies
    rng = random.Random(p * 100 + k)
    modulus = tuple(rng.randrange(p) for _ in range(k)) + (1,)
    field = ff.FieldDescriptor(p, k, modulus)
    zero, top = (0,) * k, (p - 1,) * k  # top: the largest digits and folds
    vectors = [zero, top] + [tuple(rng.randrange(p) for _ in range(k))
                             for _ in range(60)]
    pairs = [(top, top), (zero, top), (top, zero)] + list(zip(vectors, vectors[1:]))
    for a, b in pairs:
        assert field._mul_coeffs(a, b) == schoolbook_mul(field, a, b), (a, b)


def test_division_by_zero():
    F25 = make_field(5, 2)
    with pytest.raises(ZeroDivisionError):
        F25.one() / F25.zero()
    with pytest.raises(ZeroDivisionError):
        F25.zero().inverse()


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (5, 3), (7, 2), (13, 2), (5, 4)])
def test_field_axioms_on_random_triples(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(150):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == field.one()


@pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (7, 2)])
def test_frobenius_orbit_closes(p, k):
    field = make_field(p, k)
    rng = random.Random(17)
    for _ in range(40):
        a = field.random_element(rng)
        assert a.frobenius(k) == a
        assert a ** (p ** k) == a
    # prime subfield is fixed
    for c in range(p):
        assert field.element(c).frobenius(1) == field.element(c)


def test_sqrt_canonical_and_roundtrip():
    F5 = make_field(5, 1)
    assert ff.sqrt(F5.element(4)) == F5.element(2)  # canonical of {2, 3}
    assert ff.sqrt(F5.element(2)) is None
    assert ff.sqrt(F5.zero()) == F5.zero()
    F25 = make_field(5, 2)
    r = ff.sqrt(F25.element(2))  # 2 becomes a square upstairs
    assert r is not None and r * r == F25.element(2)


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (5, 3), (7, 3), (17, 2)])
def test_sqrt_matches_exhaustive_oracle(p, k):
    # 7^3 - 1 = 2 * 171 needs no Tonelli-Shanks step, 17^2 - 1 = 2^5 * 9
    # needs up to four
    field = make_field(p, k)
    count = 0
    for a in field.elements():
        got = ff.sqrt(a)
        oracle = sqrt_exhaustive(a)
        assert got == oracle
        if got is not None:
            assert got * got == a
            count += 1
    assert count == (p ** k + 1) // 2  # squares incl. zero


def _is_nonresidue(a):
    return a ** ((a.field.order - 1) // 2) == -a.field.one()


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (5, 2), (7, 2), (5, 3), (5, 4),
                                 (17, 2), (1009, 2), (5, 12)])
def test_nonresidue_comes_from_the_first_candidates(p, k):
    # z + c for c in F_p (c alone over F_p) is tried before the field walk
    field = make_field(p, k)
    z = ff._nonresidue(field)
    assert _is_nonresidue(z)
    assert z - field.gen() in {field.element(c) for c in range(p)}


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (17, 1), (5, 2), (7, 2), (5, 3), (17, 2)])
def test_sqrt_does_not_depend_on_the_nonresidue(p, k, monkeypatch):
    # Tonelli-Shanks under the field's non-residue and under the last one in
    # lexicographic order give the same canonical root of every element
    field = make_field(p, k)
    first = ff._nonresidue(field)
    last = next(a for a in reversed(list(field.elements())) if _is_nonresidue(a))
    assert first != last
    roots = []
    for z in (first, last):
        monkeypatch.setattr(field, "_nonresidue", z)
        roots.append([ff.sqrt(a) for a in field.elements()])
    assert roots[0] == roots[1]
    assert all(r is None or r * r == a for r, a in zip(roots[0], field.elements()))


def test_sqrt_tonelli_shanks_large_field():
    field = make_field(5, 8)
    rng = random.Random(3)
    hits = 0
    for _ in range(25):
        a = field.random_element(rng)
        sq = a * a
        r = ff.sqrt(sq)
        assert r is not None and r * r == sq
        assert r == min(r, -r, key=lambda e: e.coeffs)
        hits += 1
    assert hits == 25


def test_sqrt_exhaustive_refuses_large_fields():
    with pytest.raises(ValueError):
        sqrt_exhaustive(make_field(5, 12).one(), limit=10 ** 6)


def test_elements_enumeration_is_lexicographic():
    F25 = make_field(5, 2)
    seen = [e.coeffs for e in F25.elements()]
    assert seen == sorted(seen)
    assert len(seen) == 25
