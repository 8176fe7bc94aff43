"""The conjugacy classes of G and the character chi on them, in closed form.

A class rep (A, lam) has a type read off its matrix part A alone: scalar,
wild (not semisimple), or semisimple with split or non-split
characteristic polynomial, with the trace-zero ones apart ("split0",
"nonsplit0").  Only the Legendre symbol of disc = tr^2 - 4 det and whether
tr = 0 decide it, both unchanged by scaling A, so the stored normal form
is enough.  These are the class types of GL_2(F_p) (Fulton-Harris,
Representation Theory, section 5.2).

`table(p)` maps each (type, chi) to (size, count): the size of each such
class and the number of classes, as functions of p for p = 1 or 3 mod 4.
`square_chi(p)` maps each type to chi(g^2), which depends on the type of
g alone.  Sizes are polynomials in p of degree at most 2 and counts of
degree at most 1, and a value of degree 1, +-(p - 1), sits only on a row
whose size times count has degree at most 2.  So for each residue both
sums below, like |G| = 2p(p^2 - 1), are polynomials of degree at most 3
in p, and agreeing with |G| at four values of p proves the identity.
"""

from fractions import Fraction


def class_type(p: int, rep) -> str:
    a, b, c, d = rep[:4]
    if b == c == 0 and a == d:
        return "scalar"
    tr, disc = (a + d) % p, ((a - d) ** 2 + 4 * b * c) % p
    if disc == 0:
        return "wild"
    kind = "split" if pow(disc, (p - 1) // 2, p) == 1 else "nonsplit"
    return kind + "0" if tr == 0 else kind


def table(p: int, r: int | None = None) -> dict:
    """{(type, chi): (size, count)} for p = r mod 4 (by default p's own
    residue).  p need not be prime: the identities below evaluate the
    table at four values of p per residue, with exact Fraction counts."""
    r = p % 4 if r is None else r
    s_plus, s_minus = p * (p + 1), p * (p - 1)
    rows = {("scalar", p - 1): (1, 1), ("scalar", 1 - p): (1, 1),
            ("wild", 1): (p * p - 1, 1), ("wild", -1): (p * p - 1, 1),
            ("split", 0): (s_plus, p - 3)}
    if r == 1:
        rows[("split0", 0)] = (s_plus, 1)
        rows[("nonsplit0", 0)] = (s_minus, 1)
        pm2, zero = Fraction(p - 1, 4), Fraction(p - 1, 2)
    else:
        rows[("split0", 0)] = (s_plus // 2, 2)
        rows[("nonsplit0", 2)] = rows[("nonsplit0", -2)] = (s_minus // 2, 1)
        pm2, zero = Fraction(p - 3, 4), Fraction(p + 1, 2)
    rows[("nonsplit", 2)] = rows[("nonsplit", -2)] = (s_minus, pm2)
    rows[("nonsplit", 0)] = (s_minus, zero)
    return rows


def square_chi(p: int) -> dict:
    """chi(g^2) by the type of g: the identity class for scalars and
    trace-zero non-split g, the involution for trace-zero split g, the
    order-p class for wild g, and 0 or -2 for the other semisimple g."""
    return {"scalar": p - 1, "nonsplit0": p - 1, "split0": 1 - p,
            "wild": -1, "split": 0, "nonsplit": -2}


def norm_sum(rows: dict) -> Fraction:
    """sum over classes of |C| chi^2; |G| exactly when <chi, chi> = 1."""
    return sum(size * count * chi * chi for (_, chi), (size, count) in rows.items())


def fs_sum(p: int, rows: dict) -> Fraction:
    """sum over classes of |C| chi(g^2); -|G| exactly when FS = -1."""
    sq = square_chi(p)
    return sum(size * count * sq[kind] for (kind, _), (size, count) in rows.items())


def swapped_counts(p: int) -> dict:
    """p's table with the class counts of the other residue mod 4 on every
    row the two residues share, sizes kept: a table that is wrong at p."""
    own, other = table(p), table(p, 4 - p % 4)
    return {key: (size, other[key][1] if key in other else count)
            for key, (size, count) in own.items()}
