"""Acceptance gate: one test per criterion, each printing a status line.

Run standalone with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time

import pytest

from roquette import character as CH
from roquette import curve as C
from roquette import jacobian as J
from roquette import series as S
from roquette.ff import make_field
from roquette.group import get_group
from roquette.report import PipelineOptions, emit, final_verdict, run_pipeline

from point_action import act, curve_points, on_curve

PRIMES = (5, 7, 11, 13)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_group_orders():
    t0 = time.monotonic()
    expected = {5: 240, 7: 672, 11: 2640, 13: 4368}
    ok = True
    for p in PRIMES:
        els = get_group(p).elements
        ok = ok and len(els) == expected[p] == 2 * p * (p * p - 1)
        ok = ok and len(set(els)) == expected[p]
    dt = time.monotonic() - t0
    _report("C1 group orders by full enumeration", ok and dt < 10,
            f"{expected}, {dt:.2f}s")


def test_criterion_2_point_counts():
    t0 = time.monotonic()
    expected_k2 = {5: 6, 7: 92, 11: 232, 13: 14}
    ok = True
    for p in PRIMES:
        ok = ok and C.point_count(p, 1) == p + 1
        n2 = C.point_count(p, 2)
        ok = ok and n2 == expected_k2[p]
        ok = ok and abs(n2 - (1 + p * p)) == p * (p - 1)
        ok = ok and C.expected_quadratic_count(p) == expected_k2[p]
    dt = time.monotonic() - t0
    _report("C2 point counts and sharpness", ok and dt < 10, f"{dt:.2f}s")


def test_criterion_3_character_suite():
    t0 = time.monotonic()
    ok = True
    for p in PRIMES:
        G = get_group(p)
        chi = CH.lefschetz_character(G)
        ok = ok and chi[G.class_of(G.identity)] == p - 1
        ok = ok and chi[G.class_of(G.involution)] == -(p - 1)
        ok = ok and CH.order_p_value(G, chi) == -1
        ok = ok and all(isinstance(v, int) for v in chi)
        ok = ok and CH.inner_product(G, chi, chi) == 1
        ok = ok and CH.sylow_restriction(G, chi) == (0, 1)
        ok = ok and CH.fs_indicator(G, chi) == -1
        ok = ok and CH.kernel_of_character(G, chi) == [G.class_of(G.identity)]
    dt = time.monotonic() - t0
    _report("C3 character suite p in {5,7,11,13}", ok and dt < 60, f"{dt:.2f}s")


def test_criterion_4_wild_multiplicities():
    ok = True
    for p in (5, 7):
        for u in range(1, p):
            ok = ok and S.wild_translation_multiplicity(p, u, 1) == 3
            ok = ok and S.wild_translation_multiplicity(p, u, -1) == 1
        G = get_group(p)
        chi = CH.lefschetz_character(G)
        for i, cls in enumerate(G.conjugacy_classes):
            j = G.class_of(G.mul(cls.rep, G.involution))
            ok = ok and chi[j] == -chi[i]
    _report("C4 wild multiplicities and sign rule", ok)


def test_criterion_5_ell_independence(group5, torsion3, torsion7,
                                      traces3, traces7):
    t0 = time.monotonic()
    chi = CH.lefschetz_character(group5)
    ok = torsion3.span_size == 81 and torsion3.jacobian.field == make_field(5, 4)
    ok = ok and torsion7.span_size == 2401 and torsion7.jacobian.field == make_field(5, 12)
    for ell, traces in ((3, traces3), (7, traces7)):
        ok = ok and all((cv - tv) % ell == 0
                        for cv, tv in zip(chi, traces))
    rec = J.crt_reconstruct(5, {3: traces3, 7: traces7})
    ok = ok and rec == chi
    dt = time.monotonic() - t0
    _report("C5 ell-independence witness at p=5", ok and dt < 600, f"{dt:.2f}s")


def test_criterion_6_jacobian_oracle(classes_f25):
    count = len(classes_f25)
    ok = count == 256 == J.jacobian_order(5, 1)
    jac4 = J.CurveJacobian(make_field(5, 4), 5)
    n = J.jacobian_order(5, 2)
    rng = random.Random(2024)
    for _ in range(100):
        D = jac4.random_divisor(rng)
        ok = ok and jac4.scalar_mul(n, D) == jac4.zero()
    _report("C6 jacobian order oracle", ok, f"#J(F_25) = {count}")


def test_criterion_7_verdicts():
    ok = True
    for p in PRIMES:
        G = get_group(p)
        chi = CH.lefschetz_character(G)
        facts = (all(isinstance(v, int) for v in chi),
                 CH.inner_product(G, chi, chi), CH.fs_indicator(G, chi))
        v = final_verdict(*facts, any_failures=False)
        ok = ok and v["integer_valued"] and v["irreducible"]
        ok = ok and v["fs_indicator"] == -1 and v["schur_index_witness"] == 2
        ok = ok and v["lifts"] == "obstructed"
        # fault injection flips the final verdict
        ok = ok and final_verdict(*facts, any_failures=True)["lifts"] != "obstructed"
    _report("C7 obstruction verdicts with fault injection", ok)


def test_criterion_8_property_suites():
    # compact standalone reruns; the full suites live in the sibling modules
    ok = True
    # field axioms
    field = make_field(5, 3)
    rng = random.Random(0)
    for _ in range(60):
        a, b, c = (field.random_element(rng) for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
        if not a.is_zero():
            ok = ok and a * a.inverse() == field.one()
    # group axioms and normal-form idempotence
    G = get_group(5)
    els = G.elements
    for _ in range(60):
        g, h = rng.choice(els), rng.choice(els)
        ok = ok and G.mul(g, G.inv(g)) == G.identity
        ok = ok and G.canonicalize(*G.mul(g, h)) == G.mul(g, h)
    # curve action closure (exhaustive over F_25 points)
    f2 = make_field(5, 2)
    pts = curve_points(5, 2)
    for g in els:
        for P in pts:
            ok = ok and on_curve(act(G, g, P, field=f2, check=False))
    # cantor group laws
    jac = J.CurveJacobian(make_field(5, 2), 5)
    for _ in range(10):
        D1, D2 = jac.random_divisor(rng), jac.random_divisor(rng)
        ok = ok and jac.add(D1, D2) == jac.add(D2, D1)
        ok = ok and jac.add(D1, jac.neg(D1)) == jac.zero()
    # determinism of JSON output
    a = emit(run_pipeline(5, PipelineOptions(ell=(3,), seed=5)), "json")
    b = emit(run_pipeline(5, PipelineOptions(ell=(3,), seed=5)), "json")
    ok = ok and a == b and json.loads(a)["verdict"]["lifts"] == "obstructed"
    _report("C8 property suites standalone", ok)
