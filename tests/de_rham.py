"""The H^1 character by a second exact route: chi(g) mod p from de Rham
cohomology, chi(g) mod 2 from the 2-torsion, joined by CRT mod 2p.

The test-only oracle for character.lefschetz_character.  It never reads
the fixed-point scheme (curve.fixed_scheme_degree), so the two routes
share nothing beyond the group.

Mod p.  H^0(C, Omega) has the basis w_i = x^i dx/y, i < g = (p - 1)/2.
g = (A, lam) with A = [[a, b], [c, d]] sends (x, y) to
((ax + b)/(cx + d), lam y/(cx + d)^(g+1)) (tests/point_action.py), so with
delta = det A the pull-back is

    g* w_i = (delta/lam) (ax + b)^i (cx + d)^(g-1-i) dx/y,

and tr(g* | H^0(Omega)) is delta/lam times the sum over i of the x^i
coefficient of (ax + b)^i (cx + d)^(g-1-i).  H^1_dR is an extension of
H^1(C, O) by H^0(Omega), and Serre duality makes H^1(C, O) the dual of
H^0(Omega), so tr(g | H^1_dR) = tr(g* | H^0 Omega) + tr((g^-1)* | H^0 Omega).
For a curve H^1_dR(C/F_p) = H^1_cris (x) F_p, where g has the
characteristic polynomial it has on the ell-adic H^1 (Katz and Messing,
Invent. Math. 23, 1974), so that trace is chi(g) mod p.

Mod 2.  The branch points of x are the 2g + 2 points of P^1(F_p), and J[2]
is the even subsets of them modulo the whole set (Mumford, Tata Lectures
on Theta II, ch. IIIa).  g acts on J[2] through the permutation A makes of
P^1(F_p), so its trace there, chi(g) mod 2, is the parity of the number of
points that A fixes.

CRT.  |chi(g)| <= p - 1 < p, so the residues mod p and mod 2 fix chi(g).
"""


def _product(u: list, v: list, p: int) -> list:
    """The product of two coefficient lists (constant term first) mod p."""
    out = [0] * (len(u) + len(v) - 1)
    for i, s in enumerate(u):
        for j, t in enumerate(v):
            out[i + j] = (out[i + j] + s * t) % p
    return out


def _linear_power(lead: int, const: int, n: int, p: int) -> list:
    """(lead x + const)^n mod p as a coefficient list of length n + 1."""
    out = [1]
    for _ in range(n):
        out = _product(out, [const, lead], p)
    return out


def holomorphic_trace(G, g):
    """tr(g* | H^0(Omega)) in F_{p^2}, from the pull-back of each w_i."""
    p = G.p
    genus = (p - 1) // 2
    a, b, c, d = g[:4]
    diagonal = sum(_product(_linear_power(a, b, i, p),
                            _linear_power(c, d, genus - 1 - i, p), p)[i]
                   for i in range(genus))
    F = G.fp2
    return F.element(a * d - b * c) / F.element(g[4:]) * diagonal


def trace_mod_p(G, g) -> int:
    """chi(g) mod p: the trace on H^0(Omega) plus the trace on its Serre
    dual H^1(C, O), which is the trace of g^-1 on H^0(Omega)."""
    t = holomorphic_trace(G, g) + holomorphic_trace(G, G.inv(g))
    if t.coeffs[1]:
        raise ValueError(f"the trace of {g} on H^1_dR is {t!r}, not in F_p")
    return t.coeffs[0]


def fixed_points_on_line(p: int, g) -> int:
    """The number of points of P^1(F_p) that A fixes: infinity when c = 0,
    and the x in F_p with c x^2 + (d - a) x - b = 0 (a root never has
    cx + d = 0, since A is invertible)."""
    a, b, c, d = g[:4]
    return (c == 0) + sum(1 for x in range(p) if (c * x * x + (d - a) * x - b) % p == 0)


def crt_lift(p: int, r: int, parity: int) -> int:
    """The integer in [-(p - 1), p - 1] that is r mod p and parity mod 2."""
    v = r if r % 2 == parity % 2 else r + p
    return v if v < p else v - 2 * p


def second_route_character(G) -> tuple:
    """chi on each class of G.conjugacy_classes, by CRT mod 2p."""
    return tuple(crt_lift(G.p, trace_mod_p(G, rep), fixed_points_on_line(G.p, rep))
                 for rep, _ in G.conjugacy_classes)
