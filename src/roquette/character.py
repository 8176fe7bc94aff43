"""The character of the automorphism group on the first cohomology of
the curve, with the checks that certify its arithmetic nature.

The character is assembled from fixed-point data: the value at a
nonidentity class is 2 minus the total multiplicity of the fixed-point
scheme of any representative, and the value at the identity is 2g = p-1.
A class function is a plain tuple of values, one per conjugacy class in
the order of group.conjugacy_classes.  The quotients downstream (inner
products, restriction multiplicities, the Frobenius-Schur indicator) are
exact: an int when the division comes out even, else the reduced pair
[numerator, denominator], the form the JSON report writes.

These functions compute the facts the verdict rests on: an irreducible
character with integer values and Frobenius-Schur indicator -1 belongs to
a quaternionic representation, so its Schur index over Q is 2, and a
multiplicity-one integer character of Schur index 2 cannot come from a
representation defined over Q.  Combined with the specialization theory
of fundamental groups, that obstructs lifting the associated quotient
variety to characteristic 0.  The verdict itself is decided once, in
report.final_verdict, from the values the report's checks computed here.
"""

from __future__ import annotations

import math

from . import curve
from .group import RoquetteGroup


def exact_quotient(n, d: int) -> int | list:
    """n / d for an int or Fraction n and an int d > 0: an int when d
    divides n, else the reduced pair [numerator, denominator]."""
    num, den = n.numerator, n.denominator * d
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return num if den == 1 else [num, den]


def lefschetz_character(group: RoquetteGroup) -> tuple:
    """The H^1 character: chi(1) = p-1 and chi(g) = 2 - L(g) otherwise."""
    vals = []
    for rep, _ in group.conjugacy_classes:
        if rep == group.identity:
            vals.append(group.p - 1)
        else:
            vals.append(2 - curve.fixed_scheme_degree(group, rep))
    return tuple(vals)


def inner_product(group: RoquetteGroup, f1: tuple, f2: tuple) -> int | list:
    """(1/|G|) sum over classes of size * f1 * f2 (real-valued characters)."""
    if not len(f1) == len(f2) == len(group.conjugacy_classes):
        raise ValueError("class functions live on different class lists")
    total = 0
    for (_, size), v1, v2 in zip(group.conjugacy_classes, f1, f2):
        total += size * v1 * v2
    return exact_quotient(total, group.order)


def order_p_value(group: RoquetteGroup, chi: tuple):
    """chi on the single class of order-p elements."""
    u = group.unipotent()
    return chi[group.class_of(u)]


def sylow_restriction(group: RoquetteGroup, chi: tuple) -> tuple:
    """Multiplicities (trivial, each nontrivial) of the restriction to the
    order-p subgroup.

    All nontrivial characters of the cyclic group of order p occur equally
    often because the order-p elements form a single conjugacy class, so
    the multiplicities reduce to the closed forms
        trivial    = (chi(1) + (p-1) * n) / p
        nontrivial = (chi(1) - n) / p
    with n the chi-value on the order-p class.  Both must be non-negative
    integers for a true character.
    """
    p = group.p
    chi1 = chi[group.class_of(group.identity)]
    n = order_p_value(group, chi)
    return exact_quotient(chi1 + (p - 1) * n, p), exact_quotient(chi1 - n, p)


def fs_indicator(group: RoquetteGroup, chi: tuple) -> int | list:
    """Frobenius-Schur indicator (1/|G|) sum of chi(g^2) over the group.

    Squares of conjugates are conjugate, so the sum is taken over classes:
    sum of |C| * chi(rep^2), one multiplication per class.
    """
    total = sum(size * chi[group.class_of(group.mul(rep, rep))]
                for rep, size in group.conjugacy_classes)
    return exact_quotient(total, group.order)


def kernel_of_character(group: RoquetteGroup, chi: tuple) -> list:
    """The classes where chi = chi(1), by index; their union is the kernel,
    trivial exactly when it is the identity class alone."""
    chi1 = chi[group.class_of(group.identity)]
    return [i for i, v in enumerate(chi) if v == chi1]
