"""Divisor-class arithmetic on the Jacobian of y^2 = x^p - x and the
finite-level realization of the group action on ell-torsion.

A divisor class is the plain pair (u, v) of `Poly`s of its reduced
Mumford form: u monic of degree at most the genus, v of smaller degree,
with v^2 = x^p - x mod u.  Reduced forms are unique, so pairs compare and
hash as classes, and the torsion table is keyed by them.  The group law is
Cantor composition and reduction; the identity is (1, 0), the one class
with deg u = 0.

Over F_q = F_{p^(2m)} Frobenius acts on the Jacobian as the scalar
(eps*p)^m, eps = curve.frobenius_sign(p): so J(F_q) = J[N] for
N = |(eps*p)^m - 1| (Mumford, Abelian Varieties, section 19), #J = N^(2g),
and J[ell] is rational for m the multiplicative order of eps*p mod ell.
The report's hasse_weil_sharp check certifies eps from the count of
C(F_{p^2}), so nothing here counts points again.

The action of a curve automorphism on a class is computed in the class's
own field by substituting the inverse Mobius map into the Mumford pair:
u and v are pulled back and cleared of denominators, v is scaled by the
y-multiplier, and the base point term -deg(u) * (g(inf) - inf) costs at
most one Cantor addition, because g(inf) is a Weierstrass point.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from . import curve, ff
from .ff import FieldDescriptor, make_field
from .group import RoquetteGroup
from .poly import Poly


# random x-coordinates random_divisor draws for one point before it gives
# up; the sparsest field, F_{p^2} at p = 1 mod 4, has points over x in F_p
# only, so at p <= 31 a correct search gives up with chance below e^-30
POINT_TRIES = 1_000


def jacobian_order(p: int, m: int) -> int:
    """#J(F_{p^(2m)}) = (1 - (eps*p)^m)^(2g)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    g2 = p - 1  # 2g
    return (1 - (curve.frobenius_sign(p) * p) ** m) ** g2


class CurveJacobian:
    """Cantor arithmetic on the Jacobian over one coefficient field."""

    def __init__(self, field: FieldDescriptor, p: int):
        if field.p != p:
            raise ValueError("field characteristic does not match p")
        self.field = field
        self.p = p
        self.genus = (p - 1) // 2
        coeffs = [0] * (p + 1)
        coeffs[1] = -1
        coeffs[p] = 1
        self.f = Poly.from_ints(field, coeffs)  # x^p - x

    def zero(self) -> tuple:
        return Poly.one(self.field), Poly.zero(self.field)

    def from_point(self, x, y) -> tuple:
        """The class of (x, y) - inf."""
        if x.field is not self.field:
            raise ValueError("point lies over a different field")
        if y * y != self.f.evaluate(x):
            raise ValueError("point is not on the curve")
        return Poly(self.field, (-x, self.field.one())), Poly(self.field, (y,))

    def is_valid(self, D: tuple) -> bool:
        u, v = D
        du = u.degree()
        if du < 0 or du > self.genus:
            return False
        if u.leading() != self.field.one():
            return False
        if du == 0:
            return v.is_zero()
        if v.degree() >= du:
            return False
        return ((v * v - self.f) % u).is_zero()

    def neg(self, D: tuple) -> tuple:
        u, v = D
        return u, (-v) % u

    def add(self, D1: tuple, D2: tuple) -> tuple:
        (u1, v1), (u2, v2) = D1, D2
        if u1.field is not self.field or u2.field is not self.field:
            raise ValueError("divisors live over a different field")
        # composition
        d1, e1, e2 = u1.xgcd(u2)
        d, c1, c2 = d1.xgcd(v1 + v2)
        s1, s2, s3 = c1 * e1, c1 * e2, c2
        u = (u1 * u2).exact_div(d * d)
        num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + self.f)
        v = num.exact_div(d) % u
        # reduction
        while u.degree() > self.genus:
            u = (self.f - v * v).exact_div(u)
            u = u.monic()
            v = (-v) % u
        return u, v % u

    def scalar_mul(self, n: int, D: tuple) -> tuple:
        return ff.power(D, n, self.add, self.zero())

    def random_divisor(self, rng: random.Random) -> tuple:
        """Sum of genus random points, assembled from random x-coordinates."""
        acc = self.zero()
        for _ in range(self.genus):
            for _ in range(POINT_TRIES):
                x = self.field.random_element(rng)
                val = self.f.evaluate(x)
                y = ff.sqrt(val)
                if y is not None:
                    break
            else:
                raise RuntimeError(f"no curve point over {POINT_TRIES} random x-coordinates")
            if not y.is_zero() and rng.randrange(2):
                y = -y
            acc = self.add(acc, self.from_point(x, y))
        return acc


# ---------------------------------------------------------------------------
# Acting on divisor classes
# ---------------------------------------------------------------------------

def _substitute(f: Poly, num: Poly, den: Poly, e: int) -> Poly:
    """den^e * f(num/den), a polynomial because deg f <= e."""
    acc = Poly.zero(f.field)
    num_pow = Poly.one(f.field)
    for coef in f.coeffs:
        acc = acc * den + num_pow.scale(coef)
        num_pow = num_pow * num
    for _ in range(e - max(f.degree(), 0)):
        acc = acc * den
    return acc


def act_on_class(group: RoquetteGroup, g, D: tuple) -> tuple:
    """Image of the divisor class D under the automorphism g, in D's field.

    With g = (a, b, c, d, lam) the inverse Mobius map is X -> num/den for
    num = dX - b, den = a - cX, and (cx + d) = det/den at x = num/den.  So
    the moved support is cut out by den^deg(u) * u(num/den) and the moved
    ordinates by lam * det^(-(p+1)/2) * den^((p+1)/2) * v(num/den).  A
    support point with cx + d = 0 goes to infinity, where the leading
    coefficient drops.  What remains is -deg(u) * (g(inf) - inf): for
    c != 0, g(inf) is the Weierstrass point (a/c, 0) of order 2, added
    once when deg(u) is odd.
    """
    p = group.p
    u, v = D
    field = u.field
    lam = curve.lambda_in(g, field)
    deg = u.degree()
    jac = CurveJacobian(field, p)
    a, b, c, d = (field.element(x) for x in g[:4])
    num = Poly(field, (-b, d))
    den = Poly(field, (a, -c))
    half = (p + 1) // 2
    u = _substitute(u, num, den, deg).monic()
    scale = lam * ((a * d - b * c) ** half).inverse()
    out = u, _substitute(v, num, den, half).scale(scale) % u
    if not c.is_zero() and deg % 2:
        out = jac.add(out, jac.from_point(a / c, field.zero()))
    if not jac.is_valid(out):
        raise RuntimeError("image is not a valid reduced divisor; "
                           "this indicates an internal inconsistency")
    return out


# ---------------------------------------------------------------------------
# ell-torsion bases and representation matrices
# ---------------------------------------------------------------------------

def _ell_fault(p: int, ell: int, bound: int) -> str | None:
    """Why ell breaks the witness rule at p, or None.  The size test comes
    first: trial division would not finish on a huge ell."""
    if ell >= 3 and ell != p and ell ** (p - 1) > bound:
        return f"ell = {ell}: ell^(2g) exceeds the bound {bound}; raise --ell-bound to force it"
    if ell < 3 or ell == p or not ff.is_prime(ell):
        return f"ell = {ell} must be an odd prime different from p"
    return None


def witness_ells(p: int, ells, bound: int) -> tuple:
    """The ells the witness at p runs.  Each is an odd prime other than p
    with ell^(2g) <= bound: the two smallest when ells is None (fewer when
    the bound ends the walk), else ells itself, a non-empty list of
    distinct such ells; ValueError names the fault otherwise."""
    if bound < 0:
        raise ValueError(f"ell bound must be non-negative, got {bound}")
    if ells is None:
        # ell^(2g) grows with ell, so the walk ends at the first ell too big
        fits = itertools.takewhile(lambda e: e ** (p - 1) <= bound, itertools.count(3, 2))
        return tuple(itertools.islice(
            (e for e in fits if _ell_fault(p, e, bound) is None), 2))
    ells = tuple(ells)
    if not ells:
        raise ValueError("the ell list is empty; leave it unset for automatic selection")
    if len(set(ells)) != len(ells):
        raise ValueError(f"ell = {list(ells)} names a prime more than once")
    fault = next(filter(None, (_ell_fault(p, ell, bound) for ell in ells)), None)
    if fault:
        raise ValueError(fault)
    return ells


class TorsionBasis(namedtuple(
        "TorsionBasis", "ell m jacobian jacobian_order basis table giant_steps")):
    """A basis of the full ell-torsion with its discrete-log table.

    `jacobian` is the CurveJacobian over the field F_{p^(2m)} of the
    classes.  `table` maps each of the ell^(2g-1) classes (u, v) in the
    span of basis[:-1] to its coordinates there, mod ell, and
    giant_steps[c] = -c * basis[-1] for c = 0 .. ell-1.  As basis[-1] has
    order ell and lies outside that span, a class E of the full span meets
    the table at E + giant_steps[c] for exactly one c, which is its last
    coordinate.
    """
    __slots__ = ()

    @property
    def span_size(self) -> int:
        """ell^len(basis): each basis vector has order ell and lies outside
        the span of the vectors before it."""
        return self.ell ** len(self.basis)

    def coordinates(self, E: tuple) -> tuple:
        """Coordinates of E in the basis, at most ell - 1 Cantor additions."""
        for c, step in enumerate(self.giant_steps):
            vec = self.table.get(self.jacobian.add(E, step) if c else E)
            if vec is not None:
                return vec + (c,)
        raise RuntimeError("image of a torsion class left the span; "
                           "the torsion module is not stable as computed")


def torsion_basis(group: RoquetteGroup, ell: int, seed: int = 0,
                  bound: int = 10_000) -> TorsionBasis:
    """A basis of the full ell-torsion, found by seeded random sampling.

    As J(F_q) = J[N], N/ell sends each random class over F_q into J[ell]
    (checked); images outside the span of the vectors kept so far are kept.
    If ell^2 does not divide N, as in every default run, the prime-to-ell
    part (N/ell)^(2g) of #J keeps the same samples; if ell^2 | N, the kept
    set may differ.  The span is enumerated as the coordinate table, up to
    but not including the last vector: ell^(2g-1) classes.  The last vector
    enters only through its ell multiples -c * basis[-1], the giant steps
    of the lookup in `TorsionBasis.coordinates`.
    """
    p = group.p
    witness_ells(p, (ell,), bound)
    g2 = p - 1  # 2g
    frob = curve.frobenius_sign(p) * p
    # the order of eps*p mod ell, a divisor of ell - 1 as ell != p
    m = ff.multiplicative_order(ell - 1, lambda e: pow(frob, e, ell) == 1)
    cofactor = abs(frob ** m - 1) // ell  # N/ell; ell | N by the choice of m
    jac = CurveJacobian(make_field(p, 2 * m), p)
    rng = random.Random(seed * 1_000_003 + ell)
    zero = jac.zero()
    table = {zero: (0,) * (g2 - 1)}
    basis: list = []
    attempts = 0
    while len(basis) < g2:
        attempts += 1
        if attempts > 500:
            raise RuntimeError("torsion basis search did not converge")
        D = jac.random_divisor(rng)
        E = jac.scalar_mul(cofactor, D)
        if E in table:
            continue
        if jac.scalar_mul(ell, E) != zero:
            raise RuntimeError(
                f"(N/ell) * D is not killed by ell = {ell}; "
                "J(F_q) is not J[N] as computed")
        basis.append(E)
        if len(basis) == g2:
            break
        # extend the table by E: ell - 1 translates of the table so far
        idx = len(basis) - 1
        layer = list(table.items())
        for c in range(1, ell):
            layer = [(jac.add(S, E), vec[:idx] + (c,) + vec[idx + 1:])
                     for S, vec in layer]
            table.update(layer)
    if len(table) != ell ** (g2 - 1):
        raise RuntimeError(
            f"table has {len(table)} classes, expected {ell ** (g2 - 1)}")
    back = jac.neg(basis[-1])
    giant_steps = [zero, back]
    while len(giant_steps) < ell:
        giant_steps.append(jac.add(giant_steps[-1], back))
    return TorsionBasis(ell=ell, m=m, jacobian=jac,
                        jacobian_order=jacobian_order(p, m),
                        basis=tuple(basis), table=table,
                        giant_steps=tuple(giant_steps))


def rep_matrix(group: RoquetteGroup, g, basis: TorsionBasis) -> tuple:
    """Matrix (rows) of g on the ell-torsion in the given basis."""
    ell = basis.ell
    g2 = len(basis.basis)
    cols = [basis.coordinates(act_on_class(group, g, D)) for D in basis.basis]
    return tuple(tuple(cols[j][i] % ell for j in range(g2)) for i in range(g2))


def mat_trace(A, ell: int) -> int:
    return sum(A[i][i] for i in range(len(A))) % ell


def rho_ell_traces(group: RoquetteGroup, basis: TorsionBasis) -> tuple:
    """Per-class traces mod ell of the torsion representation, in class order."""
    vals = []
    for rep, _ in group.conjugacy_classes:
        M = rep_matrix(group, rep, basis)
        vals.append(mat_trace(M, basis.ell))
    return tuple(vals)


def crt_reconstruct(p: int, traces: dict) -> tuple:
    """Recombine per-ell traces into the unique small integer class function.

    The moduli product must exceed 2(p-1) so that values bounded by the
    character degree are determined; reconstructed values outside that
    bound mean the congruences were inconsistent.
    """
    ells = sorted(traces)
    if not ells:
        raise ValueError("no trace data supplied")
    modulus = 1
    for ell in ells:
        modulus *= ell
    if modulus <= 2 * (p - 1):
        raise ValueError(
            f"moduli product {modulus} is too small for values up to {p - 1}")
    n_classes = len(traces[ells[0]])
    for ell in ells:
        if len(traces[ell]) != n_classes:
            raise ValueError("trace class functions have mismatched class lists")
    out = []
    for i in range(n_classes):
        x = 0
        for ell in ells:
            r = traces[ell][i] % ell
            step = modulus // ell
            x += r * step * pow(step, -1, ell)
        x %= modulus
        if x > modulus // 2:
            x -= modulus
        if abs(x) > p - 1:
            raise ValueError(
                f"reconstructed value {x} exceeds the degree bound {p - 1}; "
                "the congruences are inconsistent")
        out.append(x)
    return tuple(out)
