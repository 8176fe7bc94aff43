"""The curve y^2 = x^p - x: point counts, lambda in a working field,
and the Lefschetz numbers of its automorphisms.

No point is built here: counts come from the quadratic characters of the
image of x^p - x, and everything else is read off an automorphism
g = (A, lam).  With A = [[a, b], [c, d]], g sends an affine point (x, y) to
((a*x+b)/(c*x+d), lam * y / (c*x+d)^((p+1)/2)).  The double cover is
ramified exactly over P^1(F_p), so branch x-values are the prime-field
points plus infinity.  The Lefschetz number L(g) is computed from (A, lam)
in F_{p^2}, where the fixed x-values of A already lie.  The points and
their action are a test oracle (tests/point_action.py), and tests count
fixed points with it over F_{p^4} to check L(g).
"""

from __future__ import annotations

import functools

from . import ff, series
from .ff import FieldDescriptor, FieldElement, make_field
from .group import RoquetteGroup


def curve_value(x: FieldElement) -> FieldElement:
    """x^p - x, evaluated through Frobenius (cheap for any extension)."""
    return x.frobenius(1) - x


def point_count(p: int, k: int) -> int:
    """#C(F_{p^k}) = 1 + p^k + p * sum of (w | F_{p^k}) over w != 0 in the
    image W of L(x) = x^p - x: 1 + (L(x) | F_{p^k}) points lie above each x.
    L is F_p-linear with kernel F_p (Lidl and Niederreiter, Finite Fields,
    section 3.4), so it takes each value of W exactly p times, and W is
    spanned by L(z^i) for 1 <= i < k, z = gen()."""
    field = make_field(p, k)
    image = [field.zero()]
    for i in range(1, k):
        b = curve_value(field.gen() ** i)
        image = [w + c * b for c in range(p) for w in image]
    count = 1 + p ** k
    for w in image:
        if not w.is_zero():
            count += p if ff.sqrt(w) is not None else -p
    return count


def frobenius_sign(p: int) -> int:
    """The sign eps of the Frobenius scalar eps*p on H^1 over F_{p^2}:
    +1 iff p = 1 mod 4."""
    return 1 if p % 4 == 1 else -1


def expected_quadratic_count(p: int) -> int:
    """#C(F_{p^2}) = p^2 + 1 - eps*p(p-1): Frobenius acts on the 2g = p-1
    dimensional H^1 as eps*p, so the count meets the Weil bound."""
    return p * p + 1 - frobenius_sign(p) * p * (p - 1)


# ---------------------------------------------------------------------------
# lambda in a working field, and the Lefschetz number
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


def lambda_in(g, target: FieldDescriptor) -> FieldElement:
    """The lambda component of g realized in the target field."""
    return g[4] + g[5] * _fp2_root(target)


def fixed_scheme_degree(group: RoquetteGroup, g) -> int:
    """The Lefschetz number L(g): the degree of the fixed-point scheme of
    g = (A, lam) != 1, read off A = [[a, b], [c, d]] and lam in F_{p^2}.

    Wild g fix only the branch point above the fixed x-value of A, with
    the series multiplicity of the normal form x -> x + 1, y -> sign * y
    (every nontrivial unipotent of PGL_2(F_p) is conjugate to [[1, 1],
    [0, 1]], and conjugation keeps lam).  A tame g fixes infinity when
    c = 0, and the points above each root x0 in F_{p^2} of
    c x^2 + (d - a) x - b (x0 = b / (d - a) when c = 0).  A root in F_p is
    a branch point.  Above any other root, g sends y to m * y with
    m = lam / (c x0 + d)^((p+1)/2) = +-1: both points are fixed when
    m = 1, and swapped when m = -1.
    """
    p = group.p
    if g == group.identity:
        raise ValueError("the identity fixes the whole curve")
    if g[1] == g[2] == 0 and g[0] == g[3]:
        return p + 1  # the involution fixes the p + 1 branch points
    if group.is_wild(g):
        return series.wild_translation_multiplicity(p, 1, group.wild_sign(g))
    F = group.fp2
    a, b, c, d = (F.element(v) for v in g[:4])
    lam = F.element(g[4:])
    if c.is_zero():
        roots = [b / (d - a)]
    else:
        rt = ff.sqrt((d - a) * (d - a) + 4 * b * c)
        roots = [(a - d + rt) / (2 * c), (a - d - rt) / (2 * c)]
    degree = 1 if c.is_zero() else 0
    for x0 in roots:
        if x0.frobenius(1) == x0:
            degree += 1
            continue
        m = lam / (c * x0 + d) ** ((p + 1) // 2)
        if m == 1:
            degree += 2
        elif m != -1:
            raise RuntimeError(f"{g} multiplies y by {m!r} above a fixed x-value")
    return degree
