"""Univariate polynomials with coefficients in a finite field.

Coefficients are stored low degree first and kept trimmed (the zero
polynomial has an empty coefficient tuple and degree -1).  Ring operations,
divmod, the extended gcd and evaluation for the divisor arithmetic, and the
root finder that the tests use to locate divisor supports.
"""

from __future__ import annotations

import random

from .ff import power


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

    The distinct roots are those of gcd(f, x^q - x), and x - r divides f as
    often as r's multiplicity.  The rng only steers the splitting search;
    the returned list is deterministic and sorted by coefficient vector.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    field = f.field
    rng = rng or random.Random(field.order * (f.degree() + 2) + 1)
    x = Poly(field, (field.zero(), field.one()))
    xq = power(x, field.order, lambda a, b: (a * b) % f, Poly.one(field))
    out = []
    for r in sorted(roots_of_split(f.xgcd(xq - x)[0], rng), key=lambda e: e.coeffs):
        lin = Poly(field, (-r, field.one()))
        mult = 0
        q, rem = f.divmod(lin)
        while rem.is_zero():
            mult += 1
            q, rem = q.divmod(lin)
        out.append((r, mult))
    return out


SPLIT_TRIES = 64


def roots_of_split(f: Poly, rng: random.Random):
    """Roots of a squarefree product of linear factors, by equal-degree
    splitting: for a random c, gcd(f, (x + c)^((q - 1)/2) - 1) keeps the
    roots r with r + c a nonzero square and splits f about half the time.
    Raises ValueError when SPLIT_TRIES shifts in a row fail to split f, as
    for an f with a factor that has no root in its field.
    """
    deg = f.degree()
    if deg <= 0:
        return []
    field = f.field
    if deg == 1:
        return [-(f.coeffs[0] / f.coeffs[1])]
    one = Poly.one(field)
    for _ in range(SPLIT_TRIES):
        shift = Poly(field, (field.random_element(rng), field.one()))
        probe = power(shift, (field.order - 1) // 2, lambda a, b: (a * b) % f, one)
        d = (probe - one).xgcd(f)[0]
        if 0 < d.degree() < deg:
            return roots_of_split(d, rng) + roots_of_split(f.exact_div(d), rng)
    raise ValueError(f"no split of a degree-{deg} polynomial in {SPLIT_TRIES} tries: "
                     "it does not split over its field")
