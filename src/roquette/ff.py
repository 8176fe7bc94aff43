"""Arithmetic in prime fields F_p and extensions F_{p^k}.

An extension field is described by a monic irreducible modulus of degree k
over F_p; elements are coefficient vectors of length k (constant term
first).  Every extension is built directly over F_p, never as a relative
tower.

All choices are deterministic so that repeated runs are bit-for-bit
reproducible:

* the modulus of F_{p^k} is the first irreducible monic polynomial of
  degree k in lexicographic order of the coefficient vector (constant
  term most significant); for k = 1 the modulus is x;
* the canonical square root of an element is the one whose coefficient
  vector is lexicographically smaller of the two; every field, whatever its
  size, takes it from one Tonelli-Shanks routine (`sqrt`).

Multiplication in F_{p^k}, k >= 2, is one big-int product (Kronecker
substitution).  Each coefficient vector is packed into an int with one
fixed-width digit per coefficient, the digit being the smallest `array`
typecode (B, H, I or Q) whose range exceeds 2k(p-1)^2, so the digits of the
product never carry.  The k-1 high digits of the product are folded back
onto the k low ones by adding precomputed packed rows c * (x^(k+i) mod f),
c = 0..p-1, built on first use per field; the k digits are then unpacked
and reduced mod p.

An inverse is one extended-Euclid loop on the coefficient lists of the
modulus and the element; on a zero divisor of a reducible modulus it raises
ZeroDivisionError, which Rabin's irreducibility test reads as "not a unit".

Two routines here serve every layer: `power` is the square-and-multiply
loop of field elements, polynomials mod a modulus, group elements and
divisor classes, and `multiplicative_order` is the one order search
(element orders in G, the generator of F_p^x, the embedding degree of the
ell-torsion, the cyclic group of square roots).  `TruncatedSeries.__pow__`
keeps a loop of its own: it skips the product by one and the squaring
after the last bit, each a full series product that `power` would add to
the wild series.  The closed-form wild multiplicities of ROADMAP item 2
remove it with the series engine.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from array import array

_BYTEORDER = sys.byteorder  # array digits are packed in native order


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def power(x, n: int, mul, one):
    """x^n for n >= 0 under the product mul, with identity one.

    Binary square-and-multiply from the low bit: acc starts at one and
    takes the product with x^(2^i) for each set bit i, and x is squared
    after every bit, the last one too.  So it makes popcount(n) + bit
    length of n products, always in that order."""
    acc = one
    while n:
        if n & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        n >>= 1
    return acc


def multiplicative_order(n: int, is_one_at) -> int:
    """The order of an element x with x^n = 1, given is_one_at(e) for
    "x^e = 1": from n, strip each prime q of n while x^(n/q) is still 1.
    Largest q first, which shortens the later exponents most.  The caller
    vouches for x^n = 1."""
    for q in reversed(prime_factors(n)):
        while n % q == 0 and is_one_at(n // q):
            n //= q
    return n


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test of monic f of degree k >= 2 over F_p, in F_p[x]/(f): f is
    irreducible iff x^(p^k) = x and x^(p^(k/q)) - x is a unit for each
    prime q | k.  FieldElement.inverse decides "unit"."""
    k = len(f) - 1
    x = FieldDescriptor(p, k, tuple(f)).gen()
    if x ** (p ** k) != x:
        return False
    for q in prime_factors(k):
        try:
            (x ** (p ** (k // q)) - x).inverse()
        except ZeroDivisionError:
            return False
    return True


@functools.lru_cache(maxsize=None)
def first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p in the deterministic
    enumeration order (coefficient vectors compared constant term first).

    The whole block with constant term 0 is divisible by x, hence reducible,
    and is skipped wholesale.
    """
    if k == 1:
        return (0, 1)
    for c0 in range(1, p):
        for upper in itertools.product(range(p), repeat=k - 1):
            f = [c0] + list(upper) + [1]
            # quick rejection: a root in F_p makes f reducible
            if any(sum(c * pow(a, i, p) for i, c in enumerate(f)) % p == 0
                   for a in range(p)):
                continue
            if _is_irreducible(f, p):
                return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Field descriptors and elements
# ---------------------------------------------------------------------------

class FieldDescriptor:
    """The field F_{p^k} with a fixed monic irreducible modulus of degree k.

    Descriptors compare by (p, k, modulus).  Use :func:`make_field` so that
    equal descriptors are the same object and per-field caches are shared.
    """

    __slots__ = ("p", "k", "modulus", "order", "_hash", "_packed", "_nonresidue")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p ** k
        self._hash = hash((p, k, modulus))
        self._packed = None
        self._nonresidue = None

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldDescriptor)
                and self.p == other.p and self.k == other.k
                and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.k})"

    # -- element constructors ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Build an element from an int (a prime-field constant) or from a
        coefficient sequence of length <= k (constant term first)."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, coeffs)
        seq = tuple(int(c) % self.p for c in value)
        if len(seq) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        return FieldElement(self, seq + (0,) * (self.k - len(seq)))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The class of x in F_p[x]/(modulus); equals 0 when k = 1."""
        if self.k == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def elements(self):
        """All elements in lexicographic order of the coefficient vector."""
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield FieldElement(self, coeffs)

    def random_element(self, rng: random.Random) -> "FieldElement":
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    # -- internal arithmetic support ------------------------------------------

    def _build_packing_plan(self):
        # the digit typecode, the digit width in bytes, the mask of the k low
        # digits, and for i = 0..k-2 the packed rows c * (x^(k+i) mod modulus)
        # for c = 0..p-1; built on the field's first product
        p, k = self.p, self.k
        # a product digit is at most k(p-1)^2 and the fold adds at most
        # (k-1)(p-1) more, so no digit ever carries into the next
        bound = 2 * k * (p - 1) ** 2
        tc = next((t for t in "BHIQ" if bound < 1 << 8 * array(t).itemsize), None)
        if tc is None:
            raise ValueError(f"{self!r}: coefficients too large to pack")
        width = array(tc).itemsize
        folds = []
        row = [-c % p for c in self.modulus[:-1]]  # x^k mod modulus
        for _ in range(k - 1):
            folds.append([
                int.from_bytes(array(tc, [c * r % p for r in row]), _BYTEORDER)
                for c in range(p)])
            lead = row[-1]
            row = [(r - lead * m) % p for r, m in zip([0] + row[:-1], self.modulus)]
        self._packed = (tc, width, (1 << 8 * width * k) - 1, folds)
        return self._packed

    def _mul_coeffs(self, a: tuple, b: tuple) -> tuple:
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        tc, width, low_mask, folds = self._packed or self._build_packing_plan()
        prod = (int.from_bytes(array(tc, a), _BYTEORDER)
                * int.from_bytes(array(tc, b), _BYTEORDER))
        digits = array(tc, prod.to_bytes((2 * k - 1) * width, _BYTEORDER))
        low = prod & low_mask
        for fold, c in zip(folds, digits[k:]):
            low += fold[c % p]
        return tuple([c % p for c in array(tc, low.to_bytes(k * width, _BYTEORDER))])


class FieldElement:
    """An element of F_{p^k}: an immutable coefficient vector tied to its field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- helpers ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(f"field mismatch: {self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field,
                            tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field,
                            tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_coeffs(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Extended Euclid on the coefficient lists of (modulus, self), with
        r0 = s0 * self and r1 = s1 * self modulo the modulus throughout, and
        deg s < k.  ZeroDivisionError for zero and for a zero divisor."""
        field = self.field
        p, k = field.p, field.k
        r1 = list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        r0 = list(field.modulus)
        s0, s1 = [0] * k, [1] + [0] * (k - 1)
        while len(r1) > 1:
            minus_inv = p - pow(r1[-1], p - 2, p)
            n = k + 2 - len(r0)  # deg s1 = k - deg r0: s1 has n live coefficients
            while len(r0) >= len(r1):
                # cancel the lead of r0 with c x^sh r1, and the same on s0
                c = r0.pop() * minus_inv % p
                sh = len(r0) + 1 - len(r1)
                for i, b in enumerate(r1[:-1], sh):
                    r0[i] = (r0[i] + c * b) % p
                for i, b in enumerate(s1[:n], sh):
                    s0[i] = (s0[i] + c * b) % p
                while r0 and not r0[-1]:
                    r0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            raise ZeroDivisionError("not a unit: it shares a factor with the modulus")
        c = pow(r1[0], p - 2, p)
        return FieldElement(field, tuple([a * c % p for a in s1]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, operator.mul, self.field.one())

    def frobenius(self, i: int) -> "FieldElement":
        """The i-fold Frobenius a -> a^(p^i)."""
        return self ** (self.field.p ** (i % self.field.k))

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return ((other.field is self.field or other.field == self.field)
                    and self.coeffs == other.coeffs)
        if isinstance(other, int):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field._hash, self.coeffs))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        return f"{list(self.coeffs)}/{self.field!r}"


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldDescriptor:
    """Descriptor of F_{p^k} with the deterministic first-irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p < 5:
        raise ValueError("p must be at least 5 (the curve needs genus >= 2)")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return FieldDescriptor(p, k, first_irreducible(p, k))


# ---------------------------------------------------------------------------
# Square roots
# ---------------------------------------------------------------------------

def _nonresidue(field: FieldDescriptor) -> FieldElement:
    """The field's first non-residue by Euler's criterion among z + c,
    c in F_p (c alone when k = 1), then the whole field in lexicographic
    order.  z + c is a square exactly when its norm +-f(-c) is one in F_p,
    f the modulus, and that varies with c; the walk alone would start with
    the p elements c * z^(k-1), all of one character when k is even."""
    if field._nonresidue is None:
        e, one, z = (field.order - 1) // 2, field.one(), field.gen()
        candidates = itertools.chain((z + c for c in range(field.p)), field.elements())
        field._nonresidue = next(a for a in candidates if not a.is_zero() and a ** e != one)
    return field._nonresidue


def sqrt(a: FieldElement):
    """Canonical square root of a in its own field, or None.

    Canonical means the root whose coefficient vector is lexicographically
    smaller of the pair {r, -r}.  One path for every field: Euler's
    criterion, then Tonelli-Shanks (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 1.5.1) with the field's first
    non-residue.
    """
    field = a.field
    if a.is_zero():
        return field.zero()
    q = field.order
    if (a ** ((q - 1) // 2)) != field.one():
        return None
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = _nonresidue(field)
    c = z ** t
    r = a ** ((t + 1) // 2)
    w = a ** t
    m = s
    one = field.one()
    while w != one:
        i, probe = 0, w
        while probe != one:
            probe = probe * probe
            i += 1
        b = c ** (1 << (m - i - 1))
        r = r * b
        c = b * b
        w = w * c
        m = i
    return min(r, -r, key=lambda e: e.coeffs)
