"""Jacobian arithmetic, torsion bases, representation matrices, and the
trace congruences that realize independence-of-ell at finite level."""

import itertools
import random
import time

import pytest

from roquette import character as CH
from roquette import curve as C
from roquette import ff
from roquette import jacobian as J
from roquette.ff import make_field
from roquette.group import get_group
from roquette.poly import Poly, roots_with_multiplicity
from roquette.report import PipelineOptions, run_pipeline

from point_action import INFINITY, Point, act, divisor_of
from test_ff import irreducible_by_gcd


def mat_det(A, ell):
    """Determinant mod ell by Gaussian elimination."""
    n = len(A)
    M = [list(row) for row in A]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] % ell), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det = (det * M[col][col]) % ell
        inv = pow(M[col][col], ell - 2, ell)
        for r in range(col + 1, n):
            f = (M[r][col] * inv) % ell
            if f:
                M[r] = [(x - f * y) % ell for x, y in zip(M[r], M[col])]
    return det % ell


def mat_mul(A, B, ell):
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) % ell
                       for j in range(n)) for i in range(n))


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@pytest.fixture(scope="module")
def jac25():
    return J.CurveJacobian(make_field(5, 2), 5)


@pytest.fixture(scope="module")
def jac54():
    return J.CurveJacobian(make_field(5, 4), 5)


def test_epsilon_and_order_formula():
    assert C.frobenius_sign(5) == 1 and C.frobenius_sign(13) == 1
    assert C.frobenius_sign(7) == -1 and C.frobenius_sign(11) == -1
    assert J.jacobian_order(5, 1) == 256          # (1 - 5)^4
    assert J.jacobian_order(5, 2) == 331776       # (1 - 25)^4
    assert J.jacobian_order(7, 1) == (1 + 7) ** 6


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_order_formula_consistent_with_curve_count(p):
    # #C(F_{p^2}) = p^2 + 1 - (p-1) * eps * p reproduces the enumeration
    assert C.point_count(p, 2) == p * p + 1 - (p - 1) * C.frobenius_sign(p) * p


def test_cantor_group_laws(jac25, jac54):
    for jac, seed in ((jac25, 1), (jac54, 2)):
        rng = random.Random(seed)
        for _ in range(25):
            D1 = jac.random_divisor(rng)
            D2 = jac.random_divisor(rng)
            D3 = jac.random_divisor(rng)
            assert jac.add(D1, D2) == jac.add(D2, D1)
            assert jac.add(jac.add(D1, D2), D3) == jac.add(D1, jac.add(D2, D3))
            assert jac.add(D1, jac.neg(D1)) == jac.zero()
            assert jac.add(D1, jac.zero()) == D1
            assert jac.is_valid(jac.add(D1, D2))


def test_point_plus_involute_cancels(jac25):
    field = jac25.field
    rng = random.Random(3)
    for _ in range(20):
        x = field.random_element(rng)
        val = jac25.f.evaluate(x)
        y = ff.sqrt(val)
        if y is None:
            continue
        P = jac25.from_point(x, y)
        Q = jac25.from_point(x, -y)
        assert jac25.add(P, Q) == jac25.zero()


def test_exhaustive_jacobian_order(jac25, classes_f25):
    divisors = classes_f25
    assert len(divisors) == 256
    assert len(set(divisors)) == 256
    for D in divisors[:50]:
        assert jac25.is_valid(D)


def test_lagrange_over_f25(jac25):
    rng = random.Random(4)
    for _ in range(20):
        D = jac25.random_divisor(rng)
        assert jac25.scalar_mul(256, D) == jac25.zero()


def test_scalar_mul_seeded_random_f54(jac54):
    # 100 seeded classes over the degree-4 field all die at the group order
    rng = random.Random(2024)
    n = J.jacobian_order(5, 2)
    for _ in range(100):
        D = jac54.random_divisor(rng)
        assert jac54.scalar_mul(n, D) == jac54.zero()


def test_scalar_mul_rejects_a_negative_multiple(jac25):
    # ff.power owns the exponent check: a negative multiple is an error,
    # and a caller negates with jac.neg
    D = jac25.random_divisor(random.Random(3))
    with pytest.raises(ValueError):
        jac25.scalar_mul(-1, D)


def test_act_on_class_identity_and_involution(group5, jac54):
    rng = random.Random(5)
    for _ in range(8):
        D = jac54.random_divisor(rng)
        assert J.act_on_class(group5, group5.identity, D) == D
        assert J.act_on_class(group5, group5.involution, D) == jac54.neg(D)
    # the zero class (1, 0) takes the general path, and every g fixes it
    assert all(J.act_on_class(group5, g, jac54.zero()) == jac54.zero()
               for g in group5.elements)


def test_act_on_class_additive(group5, jac54):
    rng = random.Random(6)
    els = group5.elements
    for _ in range(8):
        D1 = jac54.random_divisor(rng)
        D2 = jac54.random_divisor(rng)
        g = rng.choice(els)
        lhs = J.act_on_class(group5, g, jac54.add(D1, D2))
        rhs = jac54.add(J.act_on_class(group5, g, D1),
                        J.act_on_class(group5, g, D2))
        assert lhs == rhs


def _random_point(jac, rng):
    while True:
        x = jac.field.random_element(rng)
        y = ff.sqrt(jac.f.evaluate(x))
        if y is not None:
            return Point(x, y)


def _pointwise_image(G, g, jac, points):
    """The oracle: g(sum (P_i - inf)) = sum g(P_i) - deg * (g(inf) - inf),
    moving each support point with the curve action."""
    acc = jac.zero()
    for P in points:
        acc = jac.add(acc, divisor_of(jac, act(G, g, P)))
    base = divisor_of(jac, act(G, g, INFINITY, field=jac.field))
    return jac.add(acc, jac.neg(jac.scalar_mul(len(points), base)))


@pytest.mark.parametrize("p,k", [(5, 4), (7, 4), (5, 10), (5, 12)])
def test_act_on_class_split_support_oracle(p, k):
    G = get_group(p)
    jac = J.CurveJacobian(make_field(p, k), p)
    field = jac.field
    rng = random.Random(100 * p + k)
    moving = [g for g in G.elements if g[2] % p]       # c != 0: g(inf) != inf
    fixing = [g for g in G.elements if g[2] % p == 0]
    for trial in range(8):
        g = rng.choice(moving if trial % 4 else fixing)
        points = [_random_point(jac, rng) for _ in range(1 + trial // 2 % jac.genus)]
        if g[2] % p and trial % 2:
            # the support point x = -d/c, which g sends to infinity
            x = -field.element(g[3]) / field.element(g[2])
            points[0] = Point(x, field.zero())
        D = jac.zero()
        for P in points:
            D = jac.add(D, divisor_of(jac, P))
        assert D[0].degree() == len(points)
        assert J.act_on_class(G, g, D) == _pointwise_image(G, g, jac, points)


def test_act_on_class_non_split_support_commutes_with_embedding(group5, jac54):
    # classes over F_{5^4} whose u is irreducible: act there, then embed into
    # F_{5^8} where u splits, and compare with embedding first and acting there
    G = group5
    f4, f8 = jac54.field, make_field(5, 8)
    jac8 = J.CurveJacobian(f8, 5)

    def embed(a, gen):
        return sum((c * gen ** i for i, c in enumerate(a.coeffs)), f8.zero())
    # F_{5^4} -> F_{5^8} sends the generator to a root of the F_{5^4} modulus;
    # of the four, take one that carries the root of the F_{5^2} modulus
    # used for lambda in F_{5^4} to the one used in F_{5^8}
    gen = next(r for r, _ in roots_with_multiplicity(Poly.from_ints(f8, f4.modulus))
               if embed(C._fp2_root(f4), r) == C._fp2_root(f8))

    def up(D):
        return tuple(Poly(f8, [embed(c, gen) for c in P.coeffs]) for P in D)

    els = G.elements
    rng = random.Random(9)
    seen = 0
    while seen < 8:
        D = jac54.add(jac54.random_divisor(rng), jac54.random_divisor(rng))
        if D[0].degree() != 2 or ff.sqrt(D[0][1] * D[0][1] - 4 * D[0][0]) is not None:
            continue
        seen += 1
        g = rng.choice(els)
        image, D8 = up(J.act_on_class(G, g, D)), up(D)
        assert image == J.act_on_class(G, g, D8)
        points = [Point(r, D8[1].evaluate(r)) for r, _ in roots_with_multiplicity(D8[0])]
        assert len(points) == 2
        assert image == _pointwise_image(G, g, jac8, points)


def test_torsion_basis_ell3(group5, torsion3):
    tb = torsion3
    assert tb.ell == 3 and tb.m == 2
    assert tb.jacobian.field == make_field(5, 4)
    assert tb.jacobian_order == 331776
    assert len(tb.basis) == 4
    assert tb.span_size == 81 and len(tb.table) == 27
    jac = tb.jacobian
    for D in tb.basis:
        assert D != jac.zero()
        assert jac.scalar_mul(3, D) == jac.zero()


def test_torsion_basis_ell7(group5, torsion7):
    tb = torsion7
    assert tb.ell == 7 and tb.m == 6
    assert tb.jacobian.field == make_field(5, 12)
    assert len(tb.basis) == 4
    assert tb.span_size == 2401 and len(tb.table) == 343
    jac = tb.jacobian
    for D in tb.basis:
        assert jac.scalar_mul(7, D) == jac.zero() and D != jac.zero()


@pytest.fixture(scope="module")
def torsion3_p7(group7):
    return J.torsion_basis(group7, 3, seed=0)


def _full_span(tb):
    """The oracle: every class of the span with its coordinates, by
    enumerating all ell^len(basis) combinations of the basis."""
    jac = tb.jacobian
    n = len(tb.basis)
    entries = [(jac.zero(), (0,) * n)]
    for idx, E in enumerate(tb.basis):
        layer = entries
        for c in range(1, tb.ell):
            layer = [(jac.add(D, E), vec[:idx] + (c,) + vec[idx + 1:])
                     for D, vec in layer]
            entries = entries + layer
    return dict(entries)


@pytest.mark.parametrize("name,size", [("torsion3", 81), ("torsion3_p7", 729)])
def test_coordinates_match_full_span_oracle(request, name, size):
    tb = request.getfixturevalue(name)
    span = _full_span(tb)
    assert len(span) == size == tb.span_size
    for D, vec in span.items():
        assert tb.coordinates(D) == vec


def test_coordinates_of_random_combinations_ell7(torsion7):
    tb = torsion7
    jac = tb.jacobian
    multiples = []
    for B in tb.basis:
        row = [jac.zero(), B]
        while len(row) < 7:
            row.append(jac.add(row[-1], B))
        multiples.append(row)
    rng = random.Random(77)
    for _ in range(20):
        coords = tuple(rng.randrange(7) for _ in tb.basis)
        E = jac.zero()
        for c, row in zip(coords, multiples):
            E = jac.add(E, row[c])
        assert tb.coordinates(E) == coords


def test_class_missing_from_the_table_left_the_span(group5, torsion3):
    # the involution sends basis[0] to -basis[0], a class of the table
    tb = torsion3
    minus_b0 = tb.jacobian.neg(tb.basis[0])
    table = dict(tb.table)
    del table[minus_b0]
    broken = tb._replace(table=table)
    with pytest.raises(RuntimeError, match="left the span"):
        J.rep_matrix(group5, group5.involution, broken)


@pytest.mark.parametrize("p,m", [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)])
def test_rational_points_are_the_N_torsion(p, m):
    # Frobenius is the scalar (eps*p)^m over F_{p^(2m)}, so J(F_q) = J[N]
    N = abs((C.frobenius_sign(p) * p) ** m - 1)
    assert J.jacobian_order(p, m) == N ** (p - 1)
    jac = J.CurveJacobian(make_field(p, 2 * m), p)
    rng = random.Random(p * 100 + m)
    for _ in range(3):
        assert jac.scalar_mul(N, jac.random_divisor(rng)) == jac.zero()


def test_torsion_basis_rejects_a_sample_ell_does_not_kill(group7, monkeypatch):
    # with the sign flipped, m = 1 and N/ell = 6/3 = 2 over F_49, but the
    # rational classes there are J[8]: twice a sample is not 3-torsion
    real = C.frobenius_sign
    monkeypatch.setattr(C, "frobenius_sign", lambda p: -real(p))
    with pytest.raises(RuntimeError, match=r"\(N/ell\) \* D is not killed by ell = 3"):
        J.torsion_basis(group7, 3, seed=1)


def test_witness_cantor_additions_at_p5(fresh_groups, count_calls, mul_calls):
    # machine-independent work counts of the witness-p5 benchmark workload:
    # one scalar N/ell per sample, at most one order check per kept sample
    # (879 additions with the full prime-to-ell cofactor and the strip to
    # order ell); one action per class and basis vector, 12 * (4 + 4); and
    # the group mults of a group built afresh.  Equalities, not bounds: until
    # the benchmark's pace floor is fixed (ROADMAP item 1(b)), less work can
    # drop a workload's verdicts under it, so work changes only on purpose
    adds = count_calls(J.CurveJacobian, "add")
    actions = count_calls(J, "act_on_class")
    report = run_pipeline(5, PipelineOptions(ell=(3, 7), seed=1))
    assert report.exit_code == 0
    assert adds[0] == 683
    assert actions[0] == 96
    assert mul_calls[0] == 1_850


def test_torsion_rejects_bad_ell(group5):
    with pytest.raises(ValueError):
        J.torsion_basis(group5, 5)       # ell = p
    with pytest.raises(ValueError):
        J.torsion_basis(group5, 9)       # not prime
    with pytest.raises(ValueError):
        J.torsion_basis(group5, 11)      # 11^4 over the default bound


def test_torsion_basis_rejects_a_huge_ell_at_once(group5, monkeypatch):
    # 10^24 + 7 fails ell^(2g) <= 10^4 at once; trial division of it would
    # not finish, so the rule must reject it before any prime test
    real = ff.is_prime

    def small_only(n):
        if n > 10 ** 6:
            raise AssertionError(f"is_prime called on {n}")
        return real(n)
    monkeypatch.setattr(ff, "is_prime", small_only)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the bound"):
        J.torsion_basis(group5, 10 ** 24 + 7)
    assert time.perf_counter() - t0 < 1.0


def test_random_divisor_gives_up_after_point_tries(monkeypatch):
    # over F_25 only x in F_5 lie under a point; the stub returns one x
    # outside F_5 one time more than the bound allows, then raises
    jac = jacobian_over(2)
    x = next(x for x in jac.field.elements() if ff.sqrt(jac.f.evaluate(x)) is None)

    class Sentinel(Exception):
        pass
    draws = []

    def stub(field, rng):
        if len(draws) > J.POINT_TRIES:
            raise Sentinel
        draws.append(x)
        return x
    monkeypatch.setattr(ff.FieldDescriptor, "random_element", stub)
    with pytest.raises(RuntimeError, match=f"no curve point over {J.POINT_TRIES} random"):
        jac.random_divisor(random.Random(0))
    assert len(draws) == J.POINT_TRIES


def test_rep_matrix_involution(group5, torsion3, torsion7):
    for tb in (torsion3, torsion7):
        M = J.rep_matrix(group5, group5.involution, tb)
        n = len(M)
        assert M == tuple(tuple((tb.ell - 1) if i == j else 0 for j in range(n))
                          for i in range(n))
        assert J.mat_trace(M, tb.ell) == (-4) % tb.ell


def test_rep_matrices_invertible_with_dividing_order(group5, torsion3):
    G = group5
    rng = random.Random(7)
    ell = torsion3.ell
    ident = identity_matrix(4)
    els = G.elements
    for _ in range(12):
        g = rng.choice(els)
        M = J.rep_matrix(G, g, torsion3)
        assert mat_det(M, ell) != 0
        n = G.element_order(g)
        acc = ident
        for _ in range(n):
            acc = mat_mul(acc, M, ell)
        assert acc == ident


def test_rep_is_homomorphism_full_p5_ell3(group5, torsion3):
    """g -> M(g) respects every product: all matrices, all pairs, mod 3."""
    G = group5
    ell = torsion3.ell
    els = G.elements
    mats = {g: J.rep_matrix(G, g, torsion3) for g in els}
    for g in els:
        Mg = mats[g]
        for h in els:
            assert mats[G.mul(g, h)] == mat_mul(Mg, mats[h], ell)


def test_traces_congruent_to_character(group5, traces3, traces7):
    chi = CH.lefschetz_character(group5)
    for traces in (traces3, traces7):
        ell = 3 if traces is traces3 else 7
        for cv, tv in zip(chi, traces):
            assert (cv - tv) % ell == 0


def test_traces_of_inverse_agree(group5, torsion3):
    # real-valued character: trace(M(g)) = trace(M(g^-1)) mod ell
    G = group5
    rng = random.Random(8)
    els = G.elements
    for _ in range(10):
        g = rng.choice(els)
        t1 = J.mat_trace(J.rep_matrix(G, g, torsion3), 3)
        t2 = J.mat_trace(J.rep_matrix(G, G.inv(g), torsion3), 3)
        assert t1 == t2


@pytest.mark.parametrize("p", [5, 7])
def test_traces_and_character_independent_of_the_fp2_root(p, request, monkeypatch):
    # the two roots of the F_{p^2} modulus realize lambda up to Frobenius,
    # which leaves traces and fixed-point counts unchanged; under either
    # root the traces agree with the character mod 3
    G = get_group(p)
    tb = request.getfixturevalue("torsion3" if p == 5 else "torsion3_p7")
    before = (J.rho_ell_traces(G, tb), CH.lefschetz_character(G))
    root, m1 = C._fp2_root, G.fp2.modulus[1]
    assert -(root(tb.jacobian.field) + m1) != root(tb.jacobian.field)
    monkeypatch.setattr(C, "_fp2_root", lambda target: -(root(target) + m1))
    assert (J.rho_ell_traces(G, tb), CH.lefschetz_character(G)) == before
    traces, chi = before
    assert all((cv - tv) % 3 == 0 for cv, tv in zip(chi, traces))


def test_traces_do_not_depend_on_the_modulus(group5, traces3, monkeypatch):
    # metamorphic: F_{5^4} on another irreducible quartic is the same field
    # in other coordinates, and traces are basis-free, so the ell = 3 traces
    # over it equal those over the field of make_field; the quartic is the
    # next one after ff.first_irreducible in its enumeration order
    quartics = ((c0,) + upper + (1,) for c0 in range(1, 5)
                for upper in itertools.product(range(5), repeat=3))
    first = ff.first_irreducible(5, 4)
    other = ff.FieldDescriptor(
        5, 4, next(f for f in quartics if f > first and irreducible_by_gcd(f, 5)))
    real = J.make_field
    monkeypatch.setattr(J, "make_field", lambda p, k: other if (p, k) == (5, 4) else real(p, k))
    try:
        tb = J.torsion_basis(group5, 3, seed=0)
        assert tb.jacobian.field is other
        assert J.rho_ell_traces(group5, tb) == traces3
    finally:
        C._fp2_root.cache_clear()


def test_crt_reconstruction_equals_character(group5, traces3, traces7):
    chi = CH.lefschetz_character(group5)
    rec = J.crt_reconstruct(5, {3: traces3, 7: traces7})
    assert rec == chi


def test_crt_arithmetic_literal():
    # -4 = 2 mod 3 and = 3 mod 7 recombine to -4
    assert J.crt_reconstruct(5, {3: (2,), 7: (3,)}) == (-4,)


def test_crt_bound_checks(group5, traces3):
    with pytest.raises(ValueError):
        J.crt_reconstruct(5, {3: traces3})  # 3 < 2(p-1) = 8
    with pytest.raises(ValueError):
        # 1 mod 3 and 6 mod 7 recombine to 13 > p - 1: inconsistent
        J.crt_reconstruct(5, {3: (1,), 7: (6,)})


def jacobian_over(k):
    return J.CurveJacobian(make_field(5, k), 5)


@pytest.mark.parametrize("call,message", [
    (lambda: J.CurveJacobian(make_field(7, 2), 5), "characteristic does not match"),
    # y^2 = 1 but x^5 - x = 0 at x = 0
    (lambda: jacobian_over(2).from_point(make_field(5, 2).zero(), make_field(5, 2).one()),
     "not on the curve"),
    (lambda: jacobian_over(2).from_point(make_field(5, 4).zero(), make_field(5, 4).zero()),
     "different field"),
    (lambda: jacobian_over(2).add(jacobian_over(2).zero(), jacobian_over(4).zero()),
     "different field"),
    (lambda: J.jacobian_order(5, 0), "m must be >= 1"),
    (lambda: J.crt_reconstruct(5, {}), "no trace data"),
    (lambda: J.crt_reconstruct(5, {3: (1, 2), 7: (1,)}), "mismatched class lists"),
], ids=["field-of-another-characteristic", "point-off-the-curve", "point-over-another-field",
        "add-over-different-fields", "order-at-m-0", "crt-without-traces",
        "crt-mismatched-lengths"])
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_torsion_witness_p7_ell3(group7, torsion3_p7):
    # genus 3: degree-3 Mumford polynomials and cubic splitting fields
    G, tb = group7, torsion3_p7
    assert tb.m == 2 and tb.jacobian.field == make_field(7, 4)
    assert len(tb.basis) == 6
    assert tb.span_size == 729 and len(tb.table) == 243
    chi = CH.lefschetz_character(G)
    traces = J.rho_ell_traces(G, tb)
    for cv, tv in zip(chi, traces):
        assert (cv - tv) % 3 == 0


def test_mumford_validation(jac25):
    field = jac25.field
    # (1, v) with nonzero v is not a reduced divisor
    bogus = (Poly.one(field), Poly.from_ints(field, [3]))
    assert not jac25.is_valid(bogus)
    # v^2 = f mod u must hold
    u = Poly.from_ints(field, [0, 1])  # x
    v = Poly.from_ints(field, [1])
    assert not jac25.is_valid((u, v))
