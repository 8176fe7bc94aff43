"""The point action of the automorphism group on y^2 = x^p - x: a test
oracle for the Lefschetz numbers and the divisor action.

An automorphism (A, lam) with A = [[a, b], [c, d]] sends an affine point
(x, y) to ((a*x+b)/(c*x+d), lam * y / (c*x+d)^((p+1)/2)).  Points where
c*x + d vanishes go to the point at infinity, and infinity itself goes to
the unique point above a/c (a branch point, so the fibre is a singleton).
These maps compose as a left action:  act(g*h, P) = act(g, act(h, P)),
which tests/test_curve.py pins down rather than assumes.
"""

from roquette.curve import INFINITY, Point, curve_value, lambda_in


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
    lam = lambda_in(group, g, field)
    x1 = (a * P.x + b) / t
    y1 = lam * P.y * (t ** ((p + 1) // 2)).inverse()
    return Point(x1, y1)
