"""Univariate polynomials with coefficients in a finite field.

Coefficients are stored low degree first and kept trimmed (the zero
polynomial has an empty coefficient tuple and degree -1).  Only what the
divisor arithmetic needs: ring operations, divmod, gcd / extended gcd,
modular powers, evaluation and root extraction.
"""

from __future__ import annotations

import random

from .ff import power, sqrt


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, tuple(field.element(c) for c in ints))

    # -- basic queries -----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def evaluate(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, c):
        return Poly(self.field, tuple(a * c for a in self.coeffs))

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == self.field.one():
            return self
        return self.scale(lead.inverse())

    def divmod(self, other) -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        d = other.degree()
        if self.degree() < d:
            return Poly.zero(field), self
        inv_lead = other.leading().inverse()
        q = [field.zero()] * (len(rem) - d)
        for shift in range(len(rem) - d - 1, -1, -1):
            top = rem[shift + d]
            if top.is_zero():
                continue
            factor = top * inv_lead
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
        return Poly(field, q), Poly(field, rem[:d])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def gcd(self, other) -> "Poly":
        return self.xgcd(other)[0]

    def xgcd(self, other) -> tuple["Poly", "Poly", "Poly"]:
        """(d, s, t) with d = s*self + t*other, d monic (or zero)."""
        field = self.field
        r0, r1 = self, other
        s0, s1 = Poly.one(field), Poly.zero(field)
        t0, t1 = Poly.zero(field), Poly.one(field)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        c = r0.leading().inverse()
        return r0.scale(c), s0.scale(c), t0.scale(c)

    def pow_mod(self, e: int, modulus: "Poly") -> "Poly":
        return power(self % modulus, e, lambda a, b: (a * b) % modulus,
                     Poly.one(self.field))

    def derivative(self) -> "Poly":
        return Poly(self.field,
                    tuple(c * i for i, c in enumerate(self.coeffs) if i > 0))

    # -- comparisons -----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{c!r}*x^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()) + ")"


def roots_with_multiplicity(f: Poly, rng: random.Random | None = None):
    """All roots of f lying in its coefficient field, with multiplicities.

    Uses gcd with x^q - x to cut down to the split part, then equal-degree
    splitting.  The rng only steers the splitting search; the returned set
    is deterministic and is sorted by coefficient vector.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    field = f.field
    rng = rng or random.Random(field.order * (f.degree() + 2) + 1)
    sqfree = f.exact_div(f.gcd(f.derivative())) if f.degree() > 1 else f
    # restrict to roots in this field
    xq = Poly.x(field).pow_mod(field.order, sqfree)
    split_part = sqfree.gcd(xq - Poly.x(field))
    roots = sorted(roots_of_split(split_part, rng), key=lambda e: e.coeffs)
    out = []
    for r in roots:
        lin = Poly(field, (-r, field.one()))
        mult = 0
        g = f
        while True:
            q, rem = g.divmod(lin)
            if not rem.is_zero():
                break
            mult += 1
            g = q
        out.append((r, mult))
    return out


def roots_of_split(f: Poly, rng: random.Random):
    """Roots of a squarefree product of linear factors."""
    deg = f.degree()
    if deg <= 0:
        return []
    field = f.field
    c = f.coeffs
    if deg == 1:
        return [-(c[0] / c[1])]
    if deg == 2:
        # quadratic formula; every split quadratic over odd q factors this way
        a, b = c[2], c[1]
        disc = b * b - 4 * c[0] * a
        rt = sqrt(disc)
        if rt is None:
            raise ValueError("quadratic does not split over its field")
        two_a = a + a
        return [(-b + rt) / two_a, (-b - rt) / two_a]
    half = (field.order - 1) // 2
    one = Poly.one(field)
    while True:
        shift = field.random_element(rng)
        probe = Poly(field, (shift, field.one())).pow_mod(half, f) - one
        d = probe.gcd(f)
        if 0 < d.degree() < f.degree():
            return roots_of_split(d, rng) + roots_of_split(f.exact_div(d), rng)
