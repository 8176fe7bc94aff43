"""The curve y^2 = x^p - x: points, automorphism action, fixed points.

An automorphism (A, lam) with A = [[a, b], [c, d]] sends an affine point
(x, y) to ((a*x+b)/(c*x+d), lam * y / (c*x+d)^((p+1)/2)).  Points where
c*x + d vanishes go to the point at infinity, and infinity itself goes to
the unique point above a/c (a branch point, so the fibre is a singleton).
These maps compose as a left action:  act(g*h, P) = act(g, act(h, P)),
which is pinned down by a regression test rather than assumed.

The double cover is ramified exactly over P^1(F_p), so branch x-values
are the prime-field points plus infinity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import ff, series
from .ff import FieldDescriptor, FieldElement, make_field
from .group import RoquetteGroup


class _InfinityType:
    """The single point at infinity (the degree-p model has exactly one)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = _InfinityType()


@dataclass(frozen=True)
class Point:
    x: FieldElement
    y: FieldElement

    def __repr__(self):
        return f"({self.x!r}, {self.y!r})"


CurvePoint = Point | _InfinityType


def curve_value(x: FieldElement) -> FieldElement:
    """x^p - x, evaluated through Frobenius (cheap for any extension)."""
    return x.frobenius(1) - x


def on_curve(P: CurvePoint) -> bool:
    if P is INFINITY:
        return True
    return P.y * P.y == curve_value(P.x)


def curve_points(p: int, k: int) -> list:
    """All points over F_{p^k}, affine in lex order of x then y, Infinity last."""
    field = make_field(p, k)
    out = []
    for x in field.elements():
        v = curve_value(x)
        if v.is_zero():
            out.append(Point(x, field.zero()))
            continue
        r = ff.sqrt(v)
        if r is not None:
            out.append(Point(x, r))
            out.append(Point(x, -r))
    out.append(INFINITY)
    return out


def point_count(p: int, k: int) -> int:
    return len(curve_points(p, k))


def frobenius_sign(p: int) -> int:
    """The sign eps of the Frobenius scalar eps*p on H^1 over F_{p^2}:
    +1 iff p = 1 mod 4."""
    return 1 if p % 4 == 1 else -1


def expected_quadratic_count(p: int) -> int:
    """#C(F_{p^2}) = p^2 + 1 - eps*p(p-1): Frobenius acts on the 2g = p-1
    dimensional H^1 as eps*p, so the count meets the Weil bound."""
    return p * p + 1 - frobenius_sign(p) * p * (p - 1)


# ---------------------------------------------------------------------------
# The action
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fp2_root(target: FieldDescriptor) -> FieldElement:
    """A root z_t in the target field of the F_{p^2} modulus z^2 + m1 z + m0.

    Either root serves.  The two choices differ by Frobenius, which turns
    g = (A, lam) into g^(p) = (A, lam^p).  The p-power Frobenius pi_p of the
    Jacobian is an F_p-isogeny with pi_p g = g^(p) pi_p, invertible on the
    ell-torsion and bijective on points, so traces and fixed-point counts
    agree under both (Mumford, Abelian Varieties, section 19).
    """
    m0, m1, _ = make_field(target.p, 2).modulus
    rt = ff.sqrt(target.element(m1 * m1 - 4 * m0))
    if rt is None:
        raise ValueError(
            f"action field must contain F_p^2 (even degree), got {target!r}")
    return (rt - m1) / 2


def lambda_in(group: RoquetteGroup, g, target: FieldDescriptor) -> FieldElement:
    """The lambda component of g realized in the target field."""
    return g[4] + g[5] * _fp2_root(target)


def act(group: RoquetteGroup, g, P: CurvePoint, field: FieldDescriptor | None = None,
        check: bool = True) -> CurvePoint:
    """Image of P under the automorphism g.

    P must lie over a field containing F_{p^2} (even degree); pass
    `field` explicitly when P is Infinity.
    """
    p = group.p
    if P is INFINITY:
        if field is None:
            raise ValueError("acting on Infinity requires an explicit field")
        a, b, c, d = (field.element(v) for v in g[:4])
        if c.is_zero():
            return INFINITY
        return Point(a / c, field.zero())
    field = P.x.field
    if check and not on_curve(P):
        raise ValueError(f"point {P!r} is not on the curve")
    a, b, c, d = (field.element(v) for v in g[:4])
    t = c * P.x + d
    if t.is_zero():
        return INFINITY
    lam = lambda_in(group, g, field)
    x1 = (a * P.x + b) / t
    y1 = lam * P.y * (t ** ((p + 1) // 2)).inverse()
    return Point(x1, y1)


# ---------------------------------------------------------------------------
# Fixed points and the Lefschetz number
# ---------------------------------------------------------------------------

def ramification_points(p: int, field: FieldDescriptor) -> list:
    """The p+1 branch points: (r, 0) for r in F_p, plus Infinity."""
    return [Point(field.element(r), field.zero()) for r in range(p)] + [INFINITY]


def fixed_points(group: RoquetteGroup, g, precision: int | None = None) -> list:
    """Fixed points of g with multiplicities, as (point, mult) pairs.

    Tame elements (order prime to p) have finitely many fixed points of
    multiplicity 1, found from the fixed x-values of the Mobius map (the
    roots of c x^2 + (d-a) x - b, plus infinity when c = 0) by testing the
    fibre over F_{p^4}.  Wild elements fix a single branch point whose
    multiplicity is the series valuation at infinity.
    """
    p = group.p
    if g == group.identity:
        raise ValueError("fixed points of the identity are the whole curve")
    f4 = make_field(p, 4)
    a, b, c, d = g[:4]

    if c % p == 0 and b % p == 0 and a == d:
        # scalar matrix part: g is the hyperelliptic involution
        return [(pt, 1) for pt in ramification_points(p, f4)]

    if group.is_wild(g):
        u, sign = group.wild_normal_form(g)
        mult = series.wild_translation_multiplicity(p, u, sign, precision)
        if c % p == 0:
            return [(INFINITY, mult)]
        x0 = ((a - d) * group._inv[(2 * c) % p]) % p
        return [(Point(f4.element(x0), f4.zero()), mult)]

    # tame case: fixed x-values
    fixed_x: list = []
    infinity_fixed = False
    if c % p == 0:
        infinity_fixed = True
        if a != d:
            fixed_x.append(f4.element((b * group._inv[(d - a) % p]) % p))
        # a == d tame with c == 0 forces b == 0, the scalar case handled above
    else:
        cc, dd, aa, bb = (f4.element(v) for v in (c, d, a, b))
        disc = (dd - aa) * (dd - aa) + 4 * bb * cc
        rt = ff.sqrt(disc)
        if rt is None or rt.is_zero():
            raise RuntimeError("tame element with degenerate fixed locus")
        inv2c = (cc + cc).inverse()
        fixed_x.extend([((aa - dd) + rt) * inv2c, ((aa - dd) - rt) * inv2c])

    out = []
    if infinity_fixed:
        out.append((INFINITY, 1))
    for x0 in fixed_x:
        v = curve_value(x0)
        if v.is_zero():
            out.append((Point(x0, f4.zero()), 1))
            continue
        y0 = ff.sqrt(v)
        if y0 is None:
            raise RuntimeError("fibre square root must exist over F_{p^4}")
        P = Point(x0, y0)
        if act(group, g, P, check=False) == P:
            out.append((P, 1))
            out.append((Point(x0, -y0), 1))
    return out


def fixed_scheme_degree(group: RoquetteGroup, g, precision: int | None = None) -> int:
    """Total multiplicity of the fixed-point scheme of g (nonidentity)."""
    return sum(m for _, m in fixed_points(group, g, precision))
