"""The automorphism group of y^2 = x^p - x as a fibre product.

Elements are pairs (A, lam) with A in GL_2(F_p) and lam a square root of
det(A) living in F_{p^2}; the group of interest is the quotient by the
central subgroup {(c*I, (c|p)*c) : c in F_p^x}.  A coset has exactly one
representative whose matrix part has first nonzero entry (row-major) equal
to 1, and that normal form is what we store: a plain 6-tuple

    (a, b, c, d, l0, l1)

of integers mod p -- the matrix entries and the two coordinates of lam in
the fixed polynomial basis of F_{p^2}.  All structure lives on the
RoquetteGroup context, which never stores G: elements are walked from a
generator, and per-element data sits in arrays indexed by _slot.

Conjugacy classes are orbits of three fixed conjugators, certified by size:
an orbit of |G| / |C_G(A, lam)| elements is a whole class, and
|C_G(A, lam)| = 2 (n+ + [p = 3 mod 4] n-) / (p - 1), with n+ and n- the
numbers of B in GL_2(F_p) with BA = AB and BA = -AB (_centralizer_order).
Certified classes are disjoint, so the list is complete exactly when their
sizes sum to |G|, the class equation; the report checks that sum.

A wild element (p divides its order) is conjugate to ([[1, 1], [0, 1]], s)
with s = +-1, since every nontrivial unipotent of PGL_2(F_p) is conjugate
to [[1, 1], [0, 1]] and conjugation keeps lam.  wild_sign reads s off
(A, lam) without conjugating: s = +1 for order p, -1 for order 2p.
"""

from __future__ import annotations

import functools
from array import array

from . import ff
from .ff import make_field

GroupElement = tuple  # (a, b, c, d, l0, l1), ints mod p


class RoquetteGroup:
    """Group context for one prime p >= 5; construct via get_group(p)."""

    def __init__(self, p: int):
        self.fp2 = make_field(p, 2)  # raises ValueError unless p is a prime >= 5
        self.p = p
        self.order = 2 * p * (p * p - 1)
        # z^2 = -m1*z - m0 in F_{p^2}
        m0, m1, _ = self.fp2.modulus
        self._m0 = m0
        self._m1 = m1
        self._inv = [0] + [pow(i, p - 2, p) for i in range(1, p)]
        self._leg = [0] + [1 if pow(i, (p - 1) // 2, p) == 1 else p - 1
                           for i in range(1, p)]
        self._det_roots = self._build_det_roots()

    # -- F_{p^2} scalar helpers on coefficient pairs -------------------------------

    def _lam_mul(self, x0, x1, y0, y1):
        p, m0, m1 = self.p, self._m0, self._m1
        t = x1 * y1
        return (x0 * y0 - t * m0) % p, (x0 * y1 + x1 * y0 - t * m1) % p

    def _build_det_roots(self):
        # for each nonzero det value, its two square roots in F_{p^2},
        # ordered lexicographically: ff.sqrt returns the smaller one
        p = self.p
        roots = {v: ff.sqrt(self.fp2.element(v)).coeffs for v in range(1, p)}
        return {v: (c, (-c[0] % p, -c[1] % p)) for v, c in roots.items()}

    # -- normal form and the group law -----------------------------------------------

    def canonicalize(self, a, b, c, d, l0, l1) -> GroupElement:
        p = self.p
        lead = a if a else (b if b else (c if c else d))
        mu = self._inv[lead]
        sc = (self._leg[mu] * mu) % p
        return ((a * mu) % p, (b * mu) % p, (c * mu) % p, (d * mu) % p,
                (l0 * sc) % p, (l1 * sc) % p)

    @property
    def identity(self) -> GroupElement:
        return (1, 0, 0, 1, 1, 0)

    @property
    def involution(self) -> GroupElement:
        """The central element acting as (x, y) -> (x, -y)."""
        return (1, 0, 0, 1, self.p - 1, 0)

    def unipotent(self) -> GroupElement:
        """Order-p element: matrix [[1, 1], [0, 1]] with lam = 1."""
        return (1, 1, 0, 1, 1, 0)

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        p = self.p
        a, b, c, d, l0, l1 = g
        e, f_, i, j, k0, k1 = h
        n0, n1 = self._lam_mul(l0, l1, k0, k1)
        return self.canonicalize((a * e + b * i) % p, (a * f_ + b * j) % p,
                                 (c * e + d * i) % p, (c * f_ + d * j) % p,
                                 n0, n1)

    def inv(self, g: GroupElement) -> GroupElement:
        p = self.p
        a, b, c, d, l0, l1 = g
        det = (a * d - b * c) % p
        di = self._inv[det]
        # lam^(-1) = lam / lam^2 = lam * det^(-1)
        return self.canonicalize((d * di) % p, (-b * di) % p,
                                 (-c * di) % p, (a * di) % p,
                                 (l0 * di) % p, (l1 * di) % p)

    def power(self, g: GroupElement, n: int) -> GroupElement:
        return ff.power(g, n, self.mul, self.identity)

    def element_order(self, g: GroupElement) -> int:
        """The least n with g^n = 1, by ff.multiplicative_order from |G|."""
        n = ff.multiplicative_order(
            self.order, lambda e: self.power(g, e) == self.identity)
        # a strip proves g^n = 1; with none, only Lagrange vouches for it
        if n == self.order and self.power(g, n) != self.identity:
            raise RuntimeError("g^|G| != 1; broken element")
        return n

    # -- enumeration -------------------------------------------------------------------

    def iter_elements(self):
        """All 2p(p^2-1) canonical elements, one at a time, in _slot order."""
        for a, b, c, d in self._canonical_matrices():
            for l0, l1 in self._det_roots[(a * d - b * c) % self.p]:
                yield (a, b, c, d, l0, l1)

    @property
    def elements(self) -> tuple:
        """iter_elements as a tuple, built anew on every call."""
        return tuple(self.iter_elements())

    def _slot(self, g: GroupElement) -> int:
        """2m + r for a canonical g, below 2(p^3 + p^2) and increasing along
        iter_elements: m = (b p + c) p + d when a = 1, else p^3 + c p + d;
        r = 0 when lam is _det_roots[det][0], the lexicographically smaller
        of +-lam, whose leading coordinate is below p/2 as lam != 0, p odd."""
        a, b, c, d, l0, l1 = g
        p = self.p
        return 2 * (((b if a else p) * p + c) * p + d) + (2 * (l0 or l1) > p)

    def _canonical_matrices(self):
        # matrices with first nonzero entry 1 and det != 0: one per PGL_2 class;
        # a = b = 0 would force det = 0, so only two leading shapes occur
        p = self.p
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (d - b * c) % p:
                        yield (1, b, c, d)
        for c in range(1, p):
            for d in range(p):
                yield (0, 1, c, d)

    def sqrt_group_elements(self) -> list:
        """All lam in F_{p^2} with lam^2 in F_p^x, 2(p-1) of them: the two
        roots of each v in F_p^x, read from _det_roots."""
        return [self.fp2.element(r) for v in range(1, self.p)
                for r in self._det_roots[v]]

    # -- conjugacy ----------------------------------------------------------------------

    @property
    def conjugacy_classes(self) -> tuple:
        """The conjugacy classes as (rep, size) pairs, each the orbit of rep.

        A class is filled by breadth-first search of its representative's
        orbit under x -> s x s^(-1) for s among the three conjugators of
        _conjugators (Holt, Eick, O'Brien, Handbook of Computational Group
        Theory, section 4.1).  An orbit lies inside one class, so an orbit
        of |G| / |C_G(rep)| elements is the whole class; every orbit is
        checked against that size (RuntimeError otherwise), with the
        centralizer order from _centralizer_order.  Representatives are the
        first element of each class in the order of iter_elements, and
        classes are listed in that order.  Visited elements are marked in a
        2-byte table over the slots.  The list is complete exactly when the
        sizes sum to |G|, the class equation the report's group_order checks.
        """
        return self._class_search[0]

    def _conjugators(self) -> tuple:
        """The upper and lower unipotents and diag(r, 1), r the least
        generator of F_p^x."""
        p = self.p
        r = next(x for x in range(2, p)
                 if ff.multiplicative_order(p - 1, lambda e: pow(x, e, p) == 1) == p - 1)
        return (self.unipotent(), (1, 0, 1, 1, 1, 0),
                self.canonicalize(r, 0, 0, 1, *self._det_roots[r][0]))

    def _centralizer_order(self, g: GroupElement) -> int:
        """|C_G(A, lam)| = 2 (n+ + [p = 3 mod 4] n-) / (p - 1), in O(1).

        (B, mu) centralizes (A, lam) modulo the centre when BAB^(-1) = cA
        and (c|p) c = 1, that is c = 1, or c = -1 when (-1|p) = -1; each B
        has two mu, and the centre has p - 1 elements.  n+ counts the B in
        GL_2(F_p) with BA = AB: all of GL_2 for scalar A, else the units of
        the plane span{I, A}.  n- counts the B with BA = -AB: none unless
        tr A = 0, and then the units of another plane.  A plane has p^2
        units minus the zeros of det on it, a binary quadratic form: p when
        it has rank 1, 2p - 1 when it splits, 1 when it is anisotropic.  On
        span{I, A} that is decided by disc = tr^2 - 4 det (0, a nonzero
        square, a non-square); on the anticommutant of a trace-zero A it
        splits exactly when (-det|p) = 1.
        """
        p, leg = self.p, self._leg
        a, b, c, d = g[:4]
        tr, det = (a + d) % p, (a * d - b * c) % p
        if b == c == 0 and a == d:
            n_plus = (p * p - 1) * (p * p - p)
        else:
            disc = (tr * tr - 4 * det) % p
            n_plus = p * p - (p if disc == 0 else 2 * p - 1 if leg[disc] == 1 else 1)
        n_minus = 0
        if p % 4 == 3 and tr == 0:
            n_minus = p * p - (2 * p - 1 if leg[-det % p] == 1 else 1)
        return 2 * (n_plus + n_minus) // (p - 1)

    @functools.cached_property
    def _class_search(self) -> tuple:
        """(conjugacy_classes, class table) from one walk over G."""
        mul, slot = self.mul, self._slot
        pairs = [(s, self.inv(s)) for s in self._conjugators()]
        # class index + 1 at each element's slot, 0 until its orbit is met
        table = array("H", [0]) * (2 * (self.p ** 3 + self.p ** 2))
        classes = []
        for h in self.iter_elements():
            k = slot(h)
            if table[k]:
                continue
            mark = len(classes) + 1
            table[k] = mark
            orbit = [h]
            for x in orbit:
                for s, si in pairs:
                    y = mul(mul(s, x), si)
                    k = slot(y)
                    if not table[k]:
                        table[k] = mark
                        orbit.append(y)
            size = self.order // self._centralizer_order(h)
            if len(orbit) != size:
                raise RuntimeError(
                    f"the orbit of {h} has {len(orbit)} elements, "
                    f"but its class has {size}")
            classes.append((h, size))
        return tuple(classes), table

    def class_of(self, g: GroupElement) -> int:
        """Index into conjugacy_classes of a canonical g; any other tuple
        raises ValueError instead of reading another element's slot."""
        a, b, c, d, l0, l1 = g
        if ((a or b) != 1 or not all(0 <= x < self.p for x in g)
                or (l0, l1) not in self._det_roots.get((a * d - b * c) % self.p, ())):
            raise ValueError(f"{g} is not a canonical group element")
        return self._class_search[1][self._slot(g)] - 1

    # -- wild elements ------------------------------------------------------------------------

    def is_wild(self, g: GroupElement) -> bool:
        """True when p divides the order of g (unipotent, non-identity image)."""
        a, b, c, d = g[:4]
        p = self.p
        if b % p == 0 and c % p == 0 and a == d:
            return False  # scalar image: identity or the involution
        tr, det = (a + d) % p, (a * d - b * c) % p
        return (tr * tr - 4 * det) % p == 0

    def wild_sign(self, g: GroupElement) -> int:
        """The y-multiplier s = +-1 of the normal form ([[1, u], [0, 1]], s)
        of a wild g: +1 for order p, -1 for order 2p.

        A wild A has the single eigenvalue t = tr A / 2, so det A = t^2 and
        lam = +-t.  The central element (I/t, (t|p)/t) takes g to
        (A/t, (t|p) lam/t) with A/t unipotent, and conjugating that to the
        normal form keeps lam.
        """
        if not self.is_wild(g):
            raise ValueError("element is not wild")
        p = self.p
        t = ((g[0] + g[3]) * self._inv[2]) % p
        s = (self._leg[t] * g[4] * self._inv[t]) % p
        if g[5] or s not in (1, p - 1):
            raise RuntimeError(f"wild element {g} has a non-unit y-multiplier")
        return 1 if s == 1 else -1


@functools.lru_cache(maxsize=None)
def get_group(p: int) -> RoquetteGroup:
    """Shared, cached group context."""
    return RoquetteGroup(p)
