"""Curve points, the point action (closure, composition law,
faithfulness) and the Lefschetz numbers it checks."""

import random

import pytest

from roquette import curve as C
from roquette import ff
from roquette.ff import make_field
from roquette.group import get_group
from roquette.report import run_pipeline

from point_action import INFINITY, Point, act, curve_points, on_curve


def brute_force_count(p, k):
    """Independent counting oracle: tally y^2 = f(x) solutions directly."""
    field = make_field(p, k)
    squares = {}
    for y in field.elements():
        squares[(y * y).coeffs] = squares.get((y * y).coeffs, 0) + 1
    total = 0
    for x in field.elements():
        total += squares.get(C.curve_value(x).coeffs, 0)
    return total + 1  # one point at infinity


def sharp_count(p, k):
    """p + 1 over F_p; over F_{p^2}, p^2 + 1 - eps p(p - 1) with eps = +1
    exactly when p = 1 mod 4."""
    if k == 1:
        return p + 1
    return p * p + 1 - (1 if p % 4 == 1 else -1) * p * (p - 1)


@pytest.mark.parametrize("p,k,expected", [
    (p, k, sharp_count(p, k)) for p in range(5, 62) if ff.is_prime(p) for k in (1, 2)
] + [(5, 4, 526)])
def test_point_counts(p, k, expected):
    assert C.point_count(p, k) == expected
    assert brute_force_count(p, k) == expected
    if k == 2:
        assert expected == C.expected_quadratic_count(p)


@pytest.mark.parametrize("p", [101, 1009])
def test_point_count_tests_each_nonzero_image_value_once(count_calls, p):
    # the image of x^p - x is {0} in F_p and the line F_p L(z) in F_{p^2}
    sqrt_calls = count_calls(ff, "sqrt")
    assert C.point_count(p, 1) == p + 1
    assert sqrt_calls[0] == 0
    assert C.point_count(p, 2) == C.expected_quadratic_count(p)
    assert sqrt_calls[0] == p - 1


def test_points_are_on_curve_and_distinct():
    pts = curve_points(5, 4)
    assert len(pts) == C.point_count(5, 4)
    assert len(pts) == len({(p.x.coeffs, p.y.coeffs) if p is not INFINITY else ()
                            for p in pts})
    for P in pts:
        assert on_curve(P)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_hasse_weil_sharpness(p):
    # |#C(F_{p^2}) - (1 + p^2)| = p(p-1), with the gap's sign the Frobenius sign
    gap = C.point_count(p, 2) - (1 + p * p)
    assert abs(gap) == p * (p - 1)
    assert C.frobenius_sign(p) == (1 if p % 4 == 1 else -1)
    assert gap == -C.frobenius_sign(p) * p * (p - 1)


def test_act_identity_and_named_elements(group5):
    G = group5
    f4 = make_field(5, 4)
    pts = curve_points(5, 4)
    for P in pts:
        assert act(G, G.identity, P, field=f4) == P
        Q = act(G, G.involution, P, field=f4)
        if P is INFINITY:
            assert Q is INFINITY
        else:
            assert Q.x == P.x and Q.y == -P.y
        R = act(G, G.unipotent(), P, field=f4)
        if P is not INFINITY:
            assert R.x == P.x + 1 and R.y == P.y


def test_act_rejects_off_curve_points(group5):
    f4 = make_field(5, 4)
    bogus = Point(f4.element(2), f4.element(1))
    assert not on_curve(bogus)
    with pytest.raises(ValueError):
        act(group5, group5.involution, bogus)


def test_act_closure_full_product(group5):
    # every group element maps every rational point to a curve point
    G = group5
    f2 = make_field(5, 2)
    pts = curve_points(5, 2)
    assert len(pts) == 6
    for g in G.elements:
        for P in pts:
            assert on_curve(act(G, g, P, field=f2, check=False))


def test_action_law_exhaustive_pairs(group5):
    """act(g*h, P) == act(g, act(h, P)) for all group pairs.

    Checked on witness points covering the three position types (generic,
    ramification, infinity); the composition is fixed as a left action.
    """
    G = group5
    f4 = make_field(5, 4)
    pts = curve_points(5, 4)
    generic = next(P for P in pts
                   if P is not INFINITY and not P.y.is_zero())
    witnesses = [generic, Point(f4.element(2), f4.zero()), INFINITY]

    def key(P):
        return P if P is INFINITY else (P.x.coeffs, P.y.coeffs)

    els = G.elements
    table = {}
    for h in els:
        for P in witnesses:
            table[(h, key(P))] = act(G, h, P, field=f4, check=False)
    for g in els:
        for h in els:
            gh = G.mul(g, h)
            for P in witnesses:
                mid = table[(h, key(P))]
                lhs = table[(gh, key(P))]
                rhs = act(G, g, mid, field=f4, check=False)
                assert key(lhs) == key(rhs), (g, h)


def test_action_law_full_point_set_sampled_pairs(group5):
    G = group5
    f4 = make_field(5, 4)
    pts = curve_points(5, 4)
    rng = random.Random(99)
    els = G.elements
    for _ in range(60):
        g, h = rng.choice(els), rng.choice(els)
        gh = G.mul(g, h)
        for P in pts:
            lhs = act(G, gh, P, field=f4, check=False)
            rhs = act(G, g, act(G, h, P, field=f4, check=False),
                        field=f4, check=False)
            assert lhs == rhs


def test_right_action_convention_fails(group5):
    # regression pin: the opposite composition order is wrong for some pair
    G = group5
    f4 = make_field(5, 4)
    pts = curve_points(5, 4)
    generic = next(P for P in pts if P is not INFINITY and not P.y.is_zero())
    rng = random.Random(3)
    els = G.elements
    violated = False
    for _ in range(200):
        g, h = rng.choice(els), rng.choice(els)
        gh = G.mul(g, h)
        lhs = act(G, gh, generic, field=f4, check=False)
        wrong = act(G, h, act(G, g, generic, field=f4, check=False),
                      field=f4, check=False)
        if lhs != wrong:
            violated = True
            break
    assert violated


def test_point_action_is_faithful(group5):
    G = group5
    f4 = make_field(5, 4)
    pts = curve_points(5, 4)
    for g in G.elements:
        if g == G.identity:
            assert all(act(G, g, P, field=f4, check=False) == P for P in pts)
        else:
            assert any(act(G, g, P, field=f4, check=False) != P for P in pts)


def test_fixed_points_involution(group5):
    # the involution fixes exactly the p + 1 branch points
    for p in (5, 7, 11, 13):
        G = get_group(p)
        assert C.fixed_scheme_degree(G, G.involution) == p + 1
    f4 = make_field(5, 4)
    fixed = [P for P in curve_points(5, 4)
             if act(group5, group5.involution, P, field=f4, check=False) == P]
    assert fixed == [Point(f4.element(r), f4.zero()) for r in range(5)] + [INFINITY]


def test_fixed_points_wild():
    # one fixed point, of multiplicity 3 for order p and 1 for order 2p
    for p in (5, 7):
        G = get_group(p)
        for g in G.elements:
            if G.is_wild(g):
                assert C.fixed_scheme_degree(G, g) == (3 if G.wild_sign(g) == 1 else 1)


def test_fixed_points_rejects_identity(group5):
    with pytest.raises(ValueError):
        C.fixed_scheme_degree(group5, group5.identity)


def test_fixed_points_really_are_fixed():
    """L(g) from (A, lam) equals #{P in C(F_{p^4}) : g P = P}, counted with
    the point action, for every tame class representative.  Tame fixed
    points have multiplicity 1 and lie over F_{p^4}, since their x-values
    lie in F_{p^2}."""
    for p in (5, 7):
        G, f4 = get_group(p), make_field(p, 4)
        pts = curve_points(p, 4)
        reps = [rep for rep, _ in G.conjugacy_classes
                if rep != G.identity and not G.is_wild(rep)]
        degrees = [C.fixed_scheme_degree(G, g) for g in reps]
        assert degrees == [sum(act(G, g, P, field=f4, check=False) == P for P in pts)
                           for g in reps]
        # the classes exercise every kind of tame fixed locus
        assert set(degrees) == {0, 2, 4, p + 1}


def test_lefschetz_numbers_stay_in_the_quadratic_field(monkeypatch):
    """The pipeline takes no square root above F_{p^2}: fixed x-values and
    lam live there, and p = 11 skips the witness."""
    degrees = []
    sqrt = ff.sqrt

    def recorded(x):
        degrees.append(x.field.k)
        return sqrt(x)
    monkeypatch.setattr(ff, "sqrt", recorded)
    report = run_pipeline(11)
    assert report.verdict["lifts"] == "obstructed"
    assert degrees and max(degrees) <= 2


@pytest.mark.parametrize("p", [5, 7])
def test_fixed_degree_is_class_function(p):
    G = get_group(p)
    degrees = {}
    for g in G.elements:
        if g != G.identity:
            degrees.setdefault(G.class_of(g), set()).add(C.fixed_scheme_degree(G, g))
    assert len(degrees) == len(G.conjugacy_classes) - 1
    assert all(len(d) == 1 for d in degrees.values())


def test_fixed_degree_named_values(group5):
    G = group5
    assert C.fixed_scheme_degree(G, G.involution) == 6
    assert C.fixed_scheme_degree(G, G.unipotent()) == 3
    assert C.fixed_scheme_degree(G, G.mul(G.unipotent(), G.involution)) == 1


@pytest.mark.parametrize("p,k", [(5, 2), (5, 4), (5, 10), (5, 12), (7, 4), (7, 10)])
def test_lambda_squares_to_det_in_every_working_field(p, k):
    G, F = get_group(p), make_field(p, k)
    for g in G.elements:
        lam = C.lambda_in(g, F)
        assert lam * lam == F.element(g[0] * g[3] - g[1] * g[2])


def test_lambda_needs_an_even_degree_field(group5):
    with pytest.raises(ValueError):
        C.lambda_in(group5.involution, make_field(5, 3))
