import pytest

from roquette import ff, jacobian
from roquette.ff import make_field
from roquette.group import RoquetteGroup, get_group
from roquette.poly import Poly


def enumerate_reduced(jac) -> list:
    """Every reduced divisor class; the brute-force order oracle.

    Only practical for tiny fields and genus <= 2: the degree-2 classes
    come from a loop over all q^4 candidate pairs (u, v).
    """
    if jac.genus > 2:
        raise ValueError("exhaustive enumeration supported up to genus 2")
    field = jac.field
    out = [jac.zero()]
    # degree 1: points (a, b) with b^2 = f(a)
    for a in field.elements():
        val = jac.f.evaluate(a)
        if val.is_zero():
            out.append(jac.from_point(a, field.zero()))
        else:
            b = ff.sqrt(val)
            if b is not None:
                out.append(jac.from_point(a, b))
                out.append(jac.from_point(a, -b))
    if jac.genus < 2:
        return out
    # degree 2: u = x^2 + u1 x + u0, v = v1 x + v0 with v^2 = f mod u
    mul = field._mul_coeffs
    two = field.element(2).coeffs
    for u1e in field.elements():
        u1 = u1e.coeffs
        for u0e in field.elements():
            u0 = u0e.coeffs
            u = Poly(field, (u0e, u1e, field.one()))
            fr = jac.f % u
            fr0, fr1 = fr[0].coeffs, fr[1].coeffs
            for v1e in field.elements():
                v1 = v1e.coeffs
                v1sq = mul(v1, v1)
                # v^2 mod u = (2 v1 v0 - v1^2 u1) x + (v0^2 - v1^2 u0)
                t1 = mul(v1sq, u1)
                t0 = mul(v1sq, u0)
                for v0e in field.elements():
                    v0 = v0e.coeffs
                    c1 = tuple((a - b) % field.p
                               for a, b in zip(mul(two, mul(v1, v0)), t1))
                    if c1 != fr1:
                        continue
                    c0 = tuple((a - b) % field.p
                               for a, b in zip(mul(v0, v0), t0))
                    if c0 == fr0:
                        out.append((u, Poly(field, (v0e, v1e))))
    return out


@pytest.fixture(scope="session")
def classes_f25():
    """Every reduced class of the Jacobian of y^2 = x^5 - x over F_25."""
    return enumerate_reduced(jacobian.CurveJacobian(make_field(5, 2), 5))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps the function or method owner.name and
    returns a one-element list counting its calls from now on."""
    def install(owner, name: str) -> list:
        calls = [0]
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
        return calls
    return install


@pytest.fixture
def mul_calls(count_calls) -> list:
    """A one-element list counting RoquetteGroup.mul calls from now on."""
    return count_calls(RoquetteGroup, "mul")


@pytest.fixture
def fresh_groups():
    # a group built under a patched method, or whose construction a test
    # counts, must not outlive the test
    get_group.cache_clear()
    yield
    get_group.cache_clear()


@pytest.fixture(scope="session")
def group5():
    return get_group(5)


@pytest.fixture(scope="session")
def group7():
    return get_group(7)


@pytest.fixture(scope="session")
def torsion3(group5):
    return jacobian.torsion_basis(group5, 3, seed=0)


@pytest.fixture(scope="session")
def torsion7(group5):
    # the expensive witness over F_{5^12}: a table of 343 classes, the span
    # of the first three basis vectors; built once
    return jacobian.torsion_basis(group5, 7, seed=0)


@pytest.fixture(scope="session")
def traces3(group5, torsion3):
    return jacobian.rho_ell_traces(group5, torsion3)


@pytest.fixture(scope="session")
def traces7(group5, torsion7):
    return jacobian.rho_ell_traces(group5, torsion7)
