"""Character assembly and the arithmetic checks that feed the verdict.

The full p=5 character was derived by hand from the fixed-point geometry
(eigenvector positions of each matrix type on the projective line and the
sign of the y-multiplier on the fibres); its value/size multiset is frozen
here as an oracle independent of the implementation.
"""

from fractions import Fraction

import pytest

from roquette import character as CH
from roquette.group import get_group
from roquette.report import final_verdict


def trivial_character(group):
    return (1,) * len(group.conjugacy_classes)


def regular_character(group):
    return tuple(group.order if rep == group.identity else 0
                 for rep, _ in group.conjugacy_classes)


# value -> total number of group elements with that character value, p = 5
HAND_DERIVED_P5 = {4: 1, -4: 1, -1: 24, 1: 24, -2: 20, 2: 20, 0: 150}


@pytest.fixture(scope="module")
def chi5(group5):
    return CH.lefschetz_character(group5)


def test_character_multiset_matches_hand_derivation(group5, chi5):
    got = {}
    for (_, size), v in zip(group5.conjugacy_classes, chi5):
        got[v] = got.get(v, 0) + size
    assert got == HAND_DERIVED_P5


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_headline_values(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    assert chi[G.class_of(G.identity)] == p - 1
    assert chi[G.class_of(G.involution)] == -(p - 1)
    assert CH.order_p_value(G, chi) == -1
    assert all(isinstance(v, int) for v in chi)
    assert all(abs(v) <= p - 1 for v in chi)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_inner_products(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    triv = trivial_character(G)
    assert CH.inner_product(G, chi, chi) == 1
    assert CH.inner_product(G, triv, triv) == 1
    assert CH.inner_product(G, chi, triv) == 0
    # column orthogonality spot check: sum size * chi^2 = |G|
    total = sum(size * v * v
                for (_, size), v in zip(G.conjugacy_classes, chi))
    assert total == len(G.elements)


def test_inner_product_rejects_mismatched_lists(group5, group7, chi5):
    chi7 = CH.lefschetz_character(group7)
    with pytest.raises(ValueError):
        CH.inner_product(group5, chi5, chi7)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sylow_restriction(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    triv_mult, nontriv_mult = CH.sylow_restriction(G, chi)
    assert (triv_mult, nontriv_mult) == (0, 1)
    # regular character: trivial multiplicity |G| / p
    reg = regular_character(G)
    assert CH.sylow_restriction(G, reg)[0] == len(G.elements) // p


def test_sylow_formula_kernel_scenario(group5):
    # if the order-p class had value chi(1) (kernel scenario, must not occur
    # for the cohomology character), the formula gives trivial mult p-1
    G = group5
    p = G.p
    fake_values = []
    u_idx = G.class_of(G.unipotent())
    id_idx = G.class_of(G.identity)
    for i, _ in enumerate(G.conjugacy_classes):
        fake_values.append(p - 1 if i in (u_idx, id_idx) else 0)
    fake = tuple(fake_values)
    assert CH.sylow_restriction(G, fake)[0] == p - 1


def test_n_chi_congruence(group5):
    # integrality of the restriction multiplicities forces n = -1 mod p,
    # and faithfulness rules out the kernel branch n = p - 1
    G = group5
    chi = CH.lefschetz_character(G)
    n = CH.order_p_value(G, chi)
    assert (n + 1) % G.p == 0
    assert n != G.p - 1
    assert n == -1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fs_indicator(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    nu = CH.fs_indicator(G, chi)
    assert nu == -1
    assert CH.fs_indicator(G, trivial_character(G)) == 1
    assert nu in (Fraction(-1), Fraction(0), Fraction(1))


def test_exact_quotient():
    assert CH.exact_quotient(-12, 4) == -3
    assert type(CH.exact_quotient(-12, 4)) is int
    assert CH.exact_quotient(6, 8) == [3, 4]       # reduced
    assert CH.exact_quotient(-3, 6) == [-1, 2]
    assert CH.exact_quotient(0, 7) == 0
    # a class function of Fractions sums to a Fraction
    assert CH.exact_quotient(Fraction(3, 2), 9) == [1, 6]
    assert CH.exact_quotient(Fraction(10, 3), 5) == [2, 3]
    assert CH.exact_quotient(Fraction(9, 3), 3) == 1


def test_fs_indicator_brute_force_oracle(group5, chi5):
    # direct sum over all 240 elements without the class bucketing
    G = group5
    total = sum(chi5[G.class_of(G.mul(g, g))] for g in G.elements)
    assert Fraction(total, len(G.elements)) == CH.fs_indicator(G, chi5)


def test_fs_indicator_makes_one_mult_per_class(mul_calls):
    G = get_group(13)
    chi = trivial_character(G)
    mul_calls[0] = 0  # the classes may have been built just now
    CH.fs_indicator(G, chi)
    assert mul_calls[0] == len(G.conjugacy_classes)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_kernel_trivial(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    assert CH.kernel_of_character(G, chi) == [G.class_of(G.identity)]
    assert CH.kernel_of_character(G, trivial_character(G)) == list(
        range(len(G.conjugacy_classes)))


def test_involution_not_in_kernel(group5, chi5):
    G = group5
    assert chi5[G.class_of(G.involution)] == -chi5[G.class_of(G.identity)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sign_rule_on_all_classes(p):
    G = get_group(p)
    chi = CH.lefschetz_character(G)
    for i, (rep, _) in enumerate(G.conjugacy_classes):
        j = G.class_of(G.mul(rep, G.involution))
        assert chi[j] == -chi[i]


def _verdict(G, chi, any_failures=False):
    # the facts the report's char_integral, char_irreducible and
    # fs_indicator checks compute, fed to the one verdict function
    return final_verdict(all(isinstance(v, int) for v in chi),
                         CH.inner_product(G, chi, chi), CH.fs_indicator(G, chi),
                         any_failures)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_verdict_roquette_character(p):
    G = get_group(p)
    v = _verdict(G, CH.lefschetz_character(G))
    assert v == {"integer_valued": True, "irreducible": True, "fs_indicator": -1,
                 "schur_index_witness": 2, "rationality_class_nontrivial": True,
                 "lifts": "obstructed"}


def test_verdict_trivial_character(group5):
    v = _verdict(group5, trivial_character(group5))
    assert v["integer_valued"] and v["irreducible"]
    assert v["fs_indicator"] == 1
    assert v["schur_index_witness"] is None
    assert not v["rationality_class_nontrivial"]
    assert v["lifts"] == "not determined"


def test_verdict_non_integer_character(group5):
    G = group5
    vals = [Fraction(1, 2)] * len(G.conjugacy_classes)
    fake = tuple(vals)
    v = _verdict(G, fake)
    assert not v["integer_valued"]
    assert v["fs_indicator"] == [1, 2]  # a non-integer rational as a JSON pair
    assert v["schur_index_witness"] is None
    assert v["lifts"] == "not determined"


def test_verdict_reducible_character(group5, chi5):
    # chi + chi is integer valued with indicator -2, norm 4: no witness
    G = group5
    double = tuple(2 * v for v in chi5)
    v = _verdict(G, double)
    assert v["integer_valued"] and not v["irreducible"]
    assert v["fs_indicator"] == -2
    assert v["schur_index_witness"] is None
    assert v["lifts"] == "not determined"


def test_character_consistent_with_series_multiplicities(group5, chi5):
    # two independent routes to the order-p value: 2 - 3 from the series
    # engine, and the forced value from integrality + faithfulness
    from roquette.series import wild_translation_multiplicity
    G = group5
    assert 2 - wild_translation_multiplicity(5, 1, 1) == CH.order_p_value(G, chi5)
    iu = G.class_of(G.mul(G.unipotent(), G.involution))
    assert chi5[iu] == 2 - wild_translation_multiplicity(5, 1, -1)
