"""Truncated Laurent series over a finite field.

The engine exists for a single purpose: to expand the action of an
automorphism of order divisible by p in the local uniformizer s at the
point at infinity of y^2 = x^p - x and read off the valuation of
g(s) - s, the local intersection multiplicity of a wild fixed point.

The chart at infinity is x = s^(-2), y = s^(-p) * sqrt(1 - s^(2p-2)); the
square root is an honest unit series because p is odd.
"""

from __future__ import annotations

from .ff import FieldDescriptor, FieldElement, make_field
from .ff import sqrt as ff_sqrt


class PrecisionError(ArithmeticError):
    """The requested information is below the series' precision floor."""


class TruncatedSeries:
    """A series sum c_i s^i for v0 <= i < prec, leading coefficient nonzero.

    A series that vanishes through its whole window is stored with empty
    coefficients and v0 == prec.  Arithmetic tracks precision
    conservatively: a result never claims coefficients beyond what the
    operands support.
    """

    __slots__ = ("field", "v0", "coeffs", "prec")

    def __init__(self, field: FieldDescriptor, v0: int, coeffs, prec: int):
        coeffs = list(coeffs)
        # normalize: strip leading and trailing zeros into the offsets
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            v0 += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if v0 + len(coeffs) > prec:
            coeffs = coeffs[:max(0, prec - v0)]
            while coeffs and coeffs[-1].is_zero():
                coeffs.pop()
        if not coeffs:
            v0 = prec
        self.field = field
        self.v0 = v0
        self.coeffs = tuple(coeffs)
        self.prec = prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def gen(cls, field, prec: int) -> "TruncatedSeries":
        return cls(field, 1, (field.one(),), prec)

    @classmethod
    def const(cls, field, value, prec: int) -> "TruncatedSeries":
        return cls(field, 0, (field.element(value),), prec)

    @classmethod
    def zero(cls, field, prec: int) -> "TruncatedSeries":
        return cls(field, prec, (), prec)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (zero up to precision)."""
        return not self.coeffs

    def valuation(self) -> int:
        if self.is_zero():
            raise PrecisionError(f"series vanishes through O(s^{self.prec})")
        return self.v0

    def coefficient(self, i: int) -> FieldElement:
        if i >= self.prec:
            raise PrecisionError(f"coefficient of s^{i} beyond precision {self.prec}")
        if i < self.v0 or i >= self.v0 + len(self.coeffs):
            return self.field.zero()
        return self.coeffs[i - self.v0]

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Equality of all coefficients on the common precision window."""
        window = min(self.prec, other.prec)
        lo = min(self.v0, other.v0)
        if lo >= window:
            raise PrecisionError("empty comparison window")
        return all(self.coefficient(i) == other.coefficient(i)
                   for i in range(lo, window))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        lo = min(self.v0, other.v0, prec)
        out = [self.coefficient(i) + other.coefficient(i) for i in range(lo, prec)]
        return TruncatedSeries(self.field, lo, out, prec)

    def __neg__(self):
        return TruncatedSeries(self.field, self.v0,
                               tuple(-c for c in self.coeffs), self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return TruncatedSeries.zero(
                self.field, min(self.prec + other.v0, other.prec + self.v0))
        prec = min(self.prec + other.v0, other.prec + self.v0)
        v = self.v0 + other.v0
        n = prec - v
        zero = self.field.zero()
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < n:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.field, v, out, prec)

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, FieldElement)):
            return TruncatedSeries.const(self.field, other, self.prec)
        raise TypeError(f"cannot combine series with {type(other)}")

    def invert(self) -> "TruncatedSeries":
        """Reciprocal; the series must not vanish to precision."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a series that is zero to precision")
        v = self.v0
        n = self.prec - v  # relative precision
        u = [self.coefficient(v + i) for i in range(n)]
        inv0 = u[0].inverse()
        out = [inv0] + [self.field.zero()] * (n - 1)
        for i in range(1, n):
            acc = self.field.zero()
            for j in range(1, i + 1):
                acc = acc + u[j] * out[i - j]
            out[i] = -inv0 * acc
        return TruncatedSeries(self.field, -v, out, -v + n)

    def __pow__(self, e: int):
        if e < 0:
            return self.invert() ** (-e)
        if e == 0:
            return TruncatedSeries.const(self.field, 1, self.prec)
        base, acc = self, None
        while e:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def sqrt(self) -> "TruncatedSeries":
        """A square root with the canonical leading coefficient.

        Requires even valuation and a leading coefficient that is a square
        in the coefficient field; solved coefficient-wise (p odd).
        """
        if self.is_zero():
            raise ValueError("square root of a series vanishing to precision")
        if self.v0 % 2:
            raise ValueError("series of odd valuation has no square root")
        lead = ff_sqrt(self.coeffs[0])
        if lead is None:
            raise ValueError("leading coefficient is not a square")
        v = self.v0
        n = self.prec - v
        u = [self.coefficient(v + i) for i in range(n)]
        out = [lead] + [self.field.zero()] * (n - 1)
        two_lead_inv = (lead + lead).inverse()
        for i in range(1, n):
            acc = u[i]
            for j in range(1, i):
                acc = acc - out[j] * out[i - j]
            out[i] = acc * two_lead_inv
        return TruncatedSeries(self.field, v // 2, out, v // 2 + n)

    def compose(self, t: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute the series t (valuation >= 1) for the variable."""
        if t.is_zero() or t.valuation() < 1:
            raise ValueError("composition requires a substituted series of valuation >= 1")
        vt = t.valuation()
        if self.is_zero():
            return TruncatedSeries.zero(self.field, self.prec * vt)
        # split off negative powers: self = s^v0 * unit
        n = self.prec - self.v0
        # Horner on the nonnegative part: known up to O(t^n) = O(s^(n vt)), and t's window
        acc = TruncatedSeries.zero(self.field, min(n * vt, t.prec))
        for i in range(self.v0 + n - 1, self.v0 - 1, -1):
            acc = acc * t + self.coefficient(i)
        if self.v0:
            acc = acc * (t ** self.v0)
        return acc


# ---------------------------------------------------------------------------
# The local model at infinity and wild fixed-point multiplicities
# ---------------------------------------------------------------------------

def wild_translation_multiplicity(p: int, u: int, sign: int) -> int:
    """Valuation of g(s) - s for g acting by x -> x + u, y -> sign * y.

    u must be a nonzero residue mod p and sign in {+1, -1}; these are the
    normal forms of the elements of order p (sign +1) and 2p (sign -1).
    The sign branch of the induced map on the uniformizer is not guessed:
    both branches are expanded and matched against the y-multiplier.
    The expansion runs once: every series in it starts from the generator
    s at precision 2p + 4, and PrecisionError reaches the caller if the
    difference vanishes through that window.
    """
    if u % p == 0:
        raise ValueError("translation parameter must be nonzero mod p")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    prec = 2 * p + 4
    field = make_field(p, 1)
    s = TruncatedSeries.gen(field, prec)
    one = TruncatedSeries.const(field, 1, prec)
    uu = field.element(u)

    # x(t) = x(s) + u  forces  t = +- s * (1 + u s^2)^(-1/2)
    w = one + s * s * uu
    t_plus = s * w.sqrt().invert()

    x_s = s.invert() ** 2
    unit = (one - s ** (2 * p - 2)).sqrt()

    def y_of(t):
        return (t.invert() ** p) * unit.compose(t)

    y_s = (s.invert() ** p) * unit
    target = y_s * field.element(sign)
    matches = []
    for cand in (t_plus, -t_plus):
        # sanity: the x-coordinate really is translated by u
        if not (cand.invert() ** 2).agrees_with(x_s + uu):
            raise AssertionError("uniformizer candidate does not translate x")
        if y_of(cand).agrees_with(target):
            matches.append(cand)
    if len(matches) != 1:
        raise AssertionError(
            f"expected exactly one sign branch to match, got {len(matches)}")
    diff = matches[0] - s
    if diff.is_zero():
        raise PrecisionError("difference vanishes to precision")
    return diff.valuation()
