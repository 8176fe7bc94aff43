"""Group structure: enumeration, normal form, conjugacy, distinguished
subgroups, and the projective quotient."""

import itertools
import random

import pytest

from roquette import ff
from roquette.group import RoquetteGroup, get_group


def matrix_power_naive(mat, n, p):
    """Plain 2x2 matrix power mod p; the oracle for element orders."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(n):
        a, b, c, d = ((a * mat[0] + b * mat[2]) % p, (a * mat[1] + b * mat[3]) % p,
                      (c * mat[0] + d * mat[2]) % p, (c * mat[1] + d * mat[3]) % p)
    return a, b, c, d


def gl2_order(p):
    return (p * p - 1) * (p * p - p)


def proj_to_pgl(g):
    """Image in PGL_2(F_p): the canonically scaled matrix part."""
    return g[:4]


def element_order_by_walking(G, g):
    """The least n with g^n = 1, by multiplying g in until the identity;
    the oracle for element_order."""
    acc, n = g, 1
    while acc != G.identity:
        acc, n = G.mul(acc, g), n + 1
    return n


def sqrt_group_by_squaring(G):
    """All lam in F_{p^2} with lam^2 in F_p^x, by squaring every element of
    F_{p^2}; the oracle for sqrt_group_elements."""
    out = []
    for e in G.fp2.elements():
        sq = e * e
        if sq.coeffs[1] == 0 and sq.coeffs[0] != 0:
            out.append(e)
    return out


def centralizer_order_by_gl2(G, g):
    """2 * #{B in GL_2(F_p) : BAB^(-1) = A, or = -A when p = 3 mod 4} / (p - 1),
    counted over all p^4 matrices B; the oracle for _centralizer_order."""
    p = G.p
    a, b, c, d = g[:4]
    count = 0
    for e, f, h, k in itertools.product(range(p), repeat=4):
        if (e * k - f * h) % p == 0:
            continue
        ba = ((e * a + f * c) % p, (e * b + f * d) % p, (h * a + k * c) % p, (h * b + k * d) % p)
        ab = ((a * e + b * h) % p, (a * f + b * k) % p, (c * e + d * h) % p, (c * f + d * k) % p)
        if ba == ab or (p % 4 == 3 and ba == tuple(-x % p for x in ab)):
            count += 1
    return 2 * count // (p - 1)


def _classes_by_full_conjugation(G):
    """Oracle for the class partition: conjugate each new representative
    by every element of G.  Returns the (rep, size) list and the element ->
    class index map."""
    els = G.elements
    pairs = [(g, G.inv(g)) for g in els]
    index = {}
    classes = []
    for h in els:
        if h in index:
            continue
        members = {G.mul(G.mul(g, h), gi) for g, gi in pairs}
        for m in members:
            index[m] = len(classes)
        classes.append((h, len(members)))
    return classes, index


@pytest.mark.parametrize("p,expected", [(5, 240), (7, 672), (11, 2640), (13, 4368)])
def test_group_order_by_enumeration(p, expected):
    G = get_group(p)
    els = G.elements
    assert len(els) == expected
    assert len(set(els)) == expected


def test_cover_is_p_minus_1_to_1():
    # |pairs (A, lam)| = 2 |GL_2|, and the quotient map collapses p-1 pairs
    p = 5
    G = get_group(p)
    assert 2 * gl2_order(p) == 960
    assert 2 * gl2_order(p) // (p - 1) == len(G.elements)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        RoquetteGroup(4)
    with pytest.raises(ValueError):
        RoquetteGroup(3)


@pytest.mark.parametrize("p", [5, 7])
def test_group_axioms_random(p):
    G = get_group(p)
    els = G.elements
    rng = random.Random(p)
    for _ in range(300):
        g, h, k = (rng.choice(els) for _ in range(3))
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
        assert G.mul(g, G.identity) == g
        assert G.mul(G.identity, g) == g
        assert G.mul(g, G.inv(g)) == G.identity
        assert G.mul(G.inv(g), g) == G.identity


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_leg_table_is_the_legendre_symbol(p):
    # _leg[a] is the Legendre symbol of a, with -1 stored as p - 1
    squares = {x * x % p for x in range(1, p)}
    assert get_group(p)._leg == [0] + [1 if a in squares else p - 1 for a in range(1, p)]


def test_canonical_form_idempotent_and_respected():
    G = get_group(5)
    rng = random.Random(2)
    els = G.elements
    for _ in range(200):
        g = rng.choice(els)
        assert G.canonicalize(*g) == g
        # scaling by any kernel representative lands on the same class
        mu = rng.randrange(1, 5)
        scaled = (g[0] * mu % 5, g[1] * mu % 5, g[2] * mu % 5, g[3] * mu % 5,
                  g[4] * G._leg[mu] * mu % 5, g[5] * G._leg[mu] * mu % 5)
        assert G.canonicalize(*scaled) == g
    for g in els:
        lead = next(x for x in g[:4] if x)
        assert lead == 1


def test_lambda_squares_to_det_and_is_frobenius_fixed():
    for p in (5, 7):
        G = get_group(p)
        for g in G.elements:
            lam = G.fp2.element((g[4], g[5]))
            sq = lam * lam
            assert sq == G.fp2.element(g[0] * g[3] - g[1] * g[2])
            assert sq.frobenius() == sq


def test_element_orders():
    G = get_group(5)
    assert G.element_order(G.involution) == 2
    assert G.element_order(G.unipotent()) == 5
    # oracle: [[1,1],[0,1]] has matrix order 5 and no smaller
    for n in range(1, 5):
        assert matrix_power_naive((1, 1, 0, 1), n, 5) != (1, 0, 0, 1)
    assert matrix_power_naive((1, 1, 0, 1), 5, 5) == (1, 0, 0, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_element_order_matches_walking_oracle(p):
    G = get_group(p)
    for g in G.elements:
        assert G.element_order(g) == element_order_by_walking(G, g)


def test_element_order_rejects_an_element_outside_the_group():
    # [[1, 1], [1, 1]] is singular: no power of it is the identity
    with pytest.raises(RuntimeError, match="broken element"):
        get_group(5).element_order((1, 1, 1, 1, 1, 0))


@pytest.mark.parametrize("p", [5, 7])
def test_orders_divide_group_order(p):
    G = get_group(p)
    els = G.elements
    rng = random.Random(41)
    for _ in range(150):
        g = rng.choice(els)
        assert len(els) % G.element_order(g) == 0


@pytest.mark.parametrize("p", [5, 7])
def test_sqrt_group(p):
    G = get_group(p)
    roots = G.sqrt_group_elements()
    assert len(roots) == 2 * (p - 1)
    # closed under multiplication and cyclic: some element has full order
    key = {r.coeffs for r in roots}
    for r in roots:
        for s in roots:
            assert (r * s).coeffs in key
    orders = []
    for r in roots:
        n, cur = 1, r
        while cur != G.fp2.one():
            cur = cur * r
            n += 1
        orders.append(n)
    assert max(orders) == 2 * (p - 1)


@pytest.mark.parametrize("p", [5, 29])
def test_det_roots_start_with_the_canonical_root(p):
    # _slot's lambda bit takes _det_roots[v][0] to be ff.sqrt's root
    G = RoquetteGroup(p)
    for v in range(1, p):
        root = ff.sqrt(G.fp2.element(v))
        assert G._det_roots[v] == (root.coeffs, (-root).coeffs)


@pytest.mark.parametrize("p", [p for p in range(5, 62) if ff.is_prime(p)])
def test_sqrt_group_matches_squaring_oracle(p):
    G = RoquetteGroup(p)
    roots = [r.coeffs for r in G.sqrt_group_elements()]
    assert len(roots) == len(set(roots))
    assert set(roots) == {r.coeffs for r in sqrt_group_by_squaring(G)}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_conjugacy_partition(p):
    G = get_group(p)
    classes = G.conjugacy_classes
    assert sum(size for _, size in classes) == G.order
    # identity class is a singleton and sizes divide the group order
    assert classes[G.class_of(G.identity)] == (G.identity, 1)
    for _, size in classes:
        assert G.order % size == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_classes_match_full_conjugation_oracle(p):
    G = get_group(p)
    reps_sizes, index = _classes_by_full_conjugation(G)
    assert list(G.conjugacy_classes) == reps_sizes
    assert all(G.class_of(g) == ci for g, ci in index.items())
    assert len(index) == G.order


def test_classes_reject_a_non_generating_conjugator_set(monkeypatch):
    # the upper unipotent alone generates a group of order 2p with the
    # involution; its orbits would be far finer than the classes
    monkeypatch.setattr(RoquetteGroup, "_conjugators",
                        lambda self: (self.unipotent(),))
    G = RoquetteGroup(5)
    with pytest.raises(RuntimeError, match="has 5 elements, but its class has 30"):
        G.conjugacy_classes
    with pytest.raises(RuntimeError, match="has 7 elements, but its class has 56"):
        RoquetteGroup(7).class_of((1, 0, 0, 1, 1, 0))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_centralizer_order_matches_gl2_count(p):
    G = get_group(p)
    for rep, _ in G.conjugacy_classes:
        assert G._centralizer_order(rep) == centralizer_order_by_gl2(G, rep), rep


@pytest.mark.parametrize("p", [5, 7, 11])
def test_centralizer_order_matches_group_centralizer(p):
    # counted in G itself, so the lift to (B, mu) and the centre are checked too
    G = get_group(p)
    els = G.elements
    for g, _ in G.conjugacy_classes:
        assert G._centralizer_order(g) == sum(
            G.mul(h, g) == G.mul(g, h) for h in els), g


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_class_equation(p):
    G = get_group(p)
    assert sum(G.order // G._centralizer_order(rep) for rep, _ in G.conjugacy_classes) == G.order


def test_classes_cost_six_mults_per_element(mul_calls):
    # three conjugations of two mults each per element, and no other pass over G
    G = RoquetteGroup(13)
    G.conjugacy_classes
    assert mul_calls[0] == 6 * G.order


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_slots_are_dense_and_follow_the_enumeration(p):
    G = get_group(p)
    slots = [G._slot(g) for g in G.iter_elements()]
    assert len(slots) == G.order
    # strictly increasing, so injective
    assert all(s < t for s, t in zip(slots, slots[1:]))
    assert 0 <= slots[0] and slots[-1] < 2 * (p ** 3 + p ** 2)


def test_class_of_rejects_a_tuple_outside_the_normal_form():
    G = get_group(5)
    # 2 * identity: leading entry 2; its slot would be that of (1, 0, 0, 2, ...)
    with pytest.raises(ValueError, match="not a canonical group element"):
        G.class_of((2, 0, 0, 2, 2, 0))
    # lam = 2 is not a square root of det = 1; its slot is the identity's
    assert G._slot((1, 0, 0, 1, 2, 0)) == G._slot(G.identity)
    with pytest.raises(ValueError, match="not a canonical group element"):
        G.class_of((1, 0, 0, 1, 2, 0))
    # entries outside [0, p) are not reduced for the caller
    with pytest.raises(ValueError, match="not a canonical group element"):
        G.class_of((1, 5, 0, 1, 1, 0))


def test_group_holds_no_per_element_structure():
    G = RoquetteGroup(13)
    G.conjugacy_classes
    assert not hasattr(G, "_elements") and not hasattr(G, "_class_index")
    assert isinstance(G.elements, tuple) and G.elements is not G.elements


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_order_p_elements_single_class(p):
    G = get_group(p)
    # one order per class, as the report derives its statistics
    orders = [G.element_order(rep) for rep, _ in G.conjugacy_classes]
    wild_sizes = [size for (_, size), n in zip(G.conjugacy_classes, orders) if n == p]
    assert wild_sizes == [p * p - 1]


def test_class_members_consistent():
    G = get_group(5)
    members = {}
    for g in G.elements:
        members.setdefault(G.class_of(g), []).append(g)
    assert sorted(members) == list(range(len(G.conjugacy_classes)))
    for ci, (rep, size) in enumerate(G.conjugacy_classes):
        assert len(members[ci]) == size
        assert rep in members[ci]


def sylow_subgroup(G):
    """N = {u^i : 0 <= i < p}, u the unipotent: a Sylow p-subgroup, since
    p^2 does not divide |G| = 2p(p^2 - 1)."""
    return {G.power(G.unipotent(), i) for i in range(G.p)}


@pytest.mark.parametrize("p", [5, 7])
def test_sylow_subgroup(p):
    G = get_group(p)
    N = sylow_subgroup(G)
    # u has order p: its powers are p distinct elements and u^p = 1
    assert len(N) == p
    assert G.power(G.unipotent(), p) == G.identity
    assert all(G.unipotent(i) in N for i in range(1, p))
    # every order-p element is conjugate into N
    ci = next(i for i, (rep, _) in enumerate(G.conjugacy_classes)
              if G.element_order(rep) == p)
    assert any(G.class_of(n) == ci for n in N)


def test_sylow_intersection_trivial_or_all():
    # conjugates of N meet N in the identity or everything (prime order)
    G = get_group(5)
    N = sylow_subgroup(G)
    for w in G.elements:
        wi = G.inv(w)
        conj = {G.mul(G.mul(w, n), wi) for n in N}
        inter = conj & N
        assert inter == {G.identity} or inter == N


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pgl_projection(p):
    G = get_group(p)
    els = G.elements
    # the census against its own walks over G: distinct matrix parts, and
    # the elements with matrix part I
    n, image_size, kernel = G.census
    assert n == len(els) == G.order
    assert image_size == len({proj_to_pgl(g) for g in els}) == p * (p * p - 1)
    assert kernel == tuple(g for g in els if proj_to_pgl(g) == (1, 0, 0, 1))
    assert kernel == (G.identity, G.involution)
    assert proj_to_pgl(G.involution) == (1, 0, 0, 1)
    # homomorphism property on the canonical scaling
    rng = random.Random(6)
    for _ in range(200):
        g, h = rng.choice(els), rng.choice(els)
        assert proj_to_pgl(G.mul(g, h)) == G.mul(g, h)[:4]


def test_involution_is_central():
    for p in (5, 7):
        G = get_group(p)
        iota = G.involution
        for g in G.elements:
            assert G.mul(g, iota) == G.mul(iota, g)


def test_wild_normal_form_all_wild_elements():
    # wild_sign names the normal form ([[1, 1], [0, 1]], s) of g's class
    for p in (5, 7, 11):
        G = get_group(p)
        for g in G.elements:
            if not G.is_wild(g):
                continue
            s = G.wild_sign(g)
            rep = (1, 1, 0, 1, 1 if s == 1 else p - 1, 0)
            assert G.class_of(rep) == G.class_of(g)
            assert G.element_order(g) == (p if s == 1 else 2 * p)


def test_wild_rejects_tame():
    G = get_group(5)
    split = next(g for g in G.elements if g[1] == g[2] == 0 and g[3] != 1)
    for g in (G.identity, G.involution, split):
        with pytest.raises(ValueError):
            G.wild_sign(g)
