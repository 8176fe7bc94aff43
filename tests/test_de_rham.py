"""The H^1 character by the second route of tests/de_rham.py: chi mod p
from de Rham cohomology and chi mod 2 from J[2], against the fixed-point
route of character.lefschetz_character."""

import types
from pathlib import Path

import pytest

import de_rham
from roquette import character as CH
from roquette.group import get_group


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_second_route_matches_the_lefschetz_character(p):
    G = get_group(p)
    assert de_rham.second_route_character(G) == CH.lefschetz_character(G)


# each a one-text change of tests/de_rham.py that the comparison must catch
PERTURBATIONS = {
    "lambda-dropped": ("/ F.element(g[4:])", ""),
    "minus-lambda": ("/ F.element(g[4:])", "/ -F.element(g[4:])"),
    "serre-dual-half-dropped": (
        "holomorphic_trace(G, g) + holomorphic_trace(G, G.inv(g))", "holomorphic_trace(G, g)"),
    "exponent-g-minus-i": ("genus - 1 - i", "genus - i"),
    "mod-2-leg-dropped": ("r if r % 2 == parity % 2", "r if 2 * r < p"),
}


@pytest.mark.parametrize("old,new", PERTURBATIONS.values(), ids=PERTURBATIONS)
def test_each_perturbation_disagrees_at_p5(old, new):
    path = Path(de_rham.__file__)
    source = path.read_text()
    assert source.count(old) == 1
    perturbed = types.ModuleType("de_rham_perturbed")
    exec(compile(source.replace(old, new), path, "exec"), perturbed.__dict__)
    G = get_group(5)
    chi = CH.lefschetz_character(G)
    # some class gets another value, or a trace outside F_p and no value
    try:
        assert perturbed.second_route_character(G) != chi
    except ValueError as refusal:
        assert "not in F_p" in str(refusal)
