"""Series engine: ring behaviour, sqrt, the chart at infinity, and the
wild fixed-point multiplicities."""

import random

import pytest

from roquette import series as S
from roquette.ff import make_field
from roquette.poly import Poly
from roquette.series import TruncatedSeries


def test_geometric_series():
    F5 = make_field(5, 1)
    prec = 12
    s = TruncatedSeries.gen(F5, prec)
    one = TruncatedSeries.const(F5, 1, prec)
    inv = (one - s).invert()
    for i in range(prec):
        assert inv.coefficient(i) == F5.one()


def test_inverse_square_root_example():
    # (1 + s^2)^(-1/2) over F_5 starts 1 + 2 s^2; checked by the dual route:
    # square it, invert, and compare with the original series
    F5 = make_field(5, 1)
    prec = 10
    s = TruncatedSeries.gen(F5, prec)
    one = TruncatedSeries.const(F5, 1, prec)
    w = one + s * s
    h = w.sqrt().invert()
    assert h.coefficient(0) == F5.element(1)
    assert h.coefficient(2) == F5.element(2)
    assert (h * h).invert().agrees_with(w)


def test_mul_by_zero_series():
    F5 = make_field(5, 1)
    z = TruncatedSeries.zero(F5, 8)
    s = TruncatedSeries.gen(F5, 8)
    assert (z * s).is_zero()
    assert (s * z).is_zero()


def test_sqrt_squares_back():
    F5 = make_field(5, 1)
    rng = random.Random(5)
    prec = 14
    for _ in range(30):
        coeffs = [F5.element(rng.randrange(5)) for _ in range(prec)]
        coeffs[0] = F5.element(rng.choice([1, 4]))  # square leading coefficient
        f = TruncatedSeries(F5, 0, coeffs, prec)
        r = f.sqrt()
        assert (r * r).agrees_with(f)


def test_sqrt_rejects_odd_valuation_and_nonsquare():
    F5 = make_field(5, 1)
    s = TruncatedSeries.gen(F5, 8)
    with pytest.raises(ValueError):
        s.sqrt()
    bad = TruncatedSeries.const(F5, 2, 8)  # 2 is not a square mod 5
    with pytest.raises(ValueError):
        bad.sqrt()


def test_invert_requires_nonzero():
    F5 = make_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries.zero(F5, 6).invert()


def test_laurent_inverse_roundtrip():
    F7 = make_field(7, 1)
    prec = 12
    s = TruncatedSeries.gen(F7, prec)
    one = TruncatedSeries.const(F7, 1, prec)
    y = (s.invert() ** 3) * (one + s + s * s)
    assert (y * y.invert()).agrees_with(one)
    assert y.valuation() == -3


def test_compose_associates_with_evaluation():
    # f(t(s)) coefficient check against direct expansion for small cases
    F5 = make_field(5, 1)
    prec = 10
    s = TruncatedSeries.gen(F5, prec)
    one = TruncatedSeries.const(F5, 1, prec)
    f = one + s + s * s          # 1 + t + t^2
    t = s + s * s                # t = s + s^2
    direct = one + t + t * t
    assert f.compose(t).agrees_with(direct)


def infinity_chart(p: int, prec: int):
    """Series (x, y) of the chart at infinity: x = s^(-2), y = s^(-p)*unit(s)."""
    field = make_field(p, 1)
    s = TruncatedSeries.gen(field, prec)
    x = s.invert() ** 2
    one = TruncatedSeries.const(field, 1, prec)
    unit = (one - s ** (2 * p - 2)).sqrt()
    y = (s.invert() ** p) * unit
    return x, y


def test_infinity_chart_satisfies_curve_equation():
    for p in (5, 7, 11):
        x, y = infinity_chart(p, 2 * p + 6)
        assert (y * y - x ** p + x).is_zero()


def degree_route(p, u, sign):
    """p - 2 deg((x + u)^g - sign x^g): with t = x^g / y, sigma(t) - t is
    ((x + u)^g - sign x^g) / (sign y), and v(x) = -2, v(y) = -p at inf."""
    F = make_field(p, 1)
    g = (p - 1) // 2
    shifted = Poly.one(F)
    for _ in range(g):
        shifted = shifted * Poly.from_ints(F, (u, 1))
    return p - 2 * (shifted - Poly.from_ints(F, (0,) * g + (sign,))).degree()


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_wild_multiplicities_all_parameters(p):
    # every u at p <= 13, u in {1, 2} above
    for u in range(1, p) if p <= 13 else (1, 2):
        for sign in (1, -1):
            assert S.wild_translation_multiplicity(p, u, sign) == degree_route(p, u, sign)


def test_wild_multiplicity_validates_input():
    with pytest.raises(ValueError):
        S.wild_translation_multiplicity(5, 0, 1)
    with pytest.raises(ValueError):
        S.wild_translation_multiplicity(5, 1, 2)


def test_wild_multiplicity_gives_up_at_the_default_precision(monkeypatch):
    # one try, its generator at 2p + 4 = 14, and no retry: a generator
    # starved to p + 1 = 6 leaves an empty window, and the error reaches
    # the caller
    tried, real = [], S.TruncatedSeries.gen.__func__

    def starved(cls, field, prec):
        tried.append(prec)
        return real(cls, field, 6)
    monkeypatch.setattr(S.TruncatedSeries, "gen", classmethod(starved))
    with pytest.raises(S.PrecisionError):
        S.wild_translation_multiplicity(5, 1, 1)
    assert tried == [14]
