"""The points of y^2 = x^p - x and the action of the automorphism group on
them: the point oracle for the point counts, the Lefschetz numbers and the
divisor action.

`curve_points` lists C(F_{p^k}) as `Point`s and the single `INFINITY`.
An automorphism (A, lam) with A = [[a, b], [c, d]] sends an affine point
(x, y) to ((a*x+b)/(c*x+d), lam * y / (c*x+d)^((p+1)/2)).  Points where
c*x + d vanishes go to the point at infinity, and infinity itself goes to
the unique point above a/c (a branch point, so the fibre is a singleton).
These maps compose as a left action:  act(g*h, P) = act(g, act(h, P)),
which tests/test_curve.py pins down rather than assumes.
"""

from dataclasses import dataclass

from roquette import ff
from roquette.curve import curve_value, lambda_in
from roquette.ff import FieldElement, make_field


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


def divisor_of(jac, P):
    """The class of P - inf on the Jacobian jac."""
    return jac.zero() if P is INFINITY else jac.from_point(P.x, P.y)


def on_curve(P) -> bool:
    if P is INFINITY:
        return True
    return P.y * P.y == curve_value(P.x)


def act(group, g, P, field=None, check=True):
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
    lam = lambda_in(g, field)
    x1 = (a * P.x + b) / t
    y1 = lam * P.y * (t ** ((p + 1) // 2)).inverse()
    return Point(x1, y1)
