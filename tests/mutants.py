"""Mutants the test suite must kill, and the runner that checks it.

Each mutant replaces one exact text in one file of the tree and names the
tests that must then fail.  The runner first runs the union of those
selections on an unmutated copy of the tree, which must pass.  Then, for
each mutant, it copies the tree to a temporary directory, applies the
mutant there and runs `pytest -x` on its selection.  A mutant is killed
when pytest reports a failed test (exit status 1); a test that loops past
the hang limit of tests/conftest.py ends pytest with that status too.  The
runner exits 1 if any mutant survives, runs past TIMEOUT_S or breaks the
run some other way (exit status 2 and up, a collection error say), and 2 on
an unknown mutant name.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # only these

This is mutation analysis as in DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978, on a hand-written list; mutmut
and cosmic-ray generate such mutants for Python.  The runner is not part of
the tier-1 suite, which only checks that each old text still occurs exactly
once in its file (test_mutants.py).  A change that moves mutated code
carries its mutants along; one that drops a mutant says so.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# BENCHMARK.json and perfbench/ are read by tests/test_benchmark_contract.py
COPIED = ("pyproject.toml", "src", "tests", "BENCHMARK.json", "perfbench")
# one pytest run, far above a selection's time plus the per-test hang limit
# of tests/conftest.py, which turns a looping test into exit status 1
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str    # relative to the repository root
    old: str     # occurs exactly once in file
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    why: str


GROUP, REPORT = "src/roquette/group.py", "src/roquette/report.py"
CLI, CHARACTER = "src/roquette/cli.py", "src/roquette/character.py"
CURVE, FF = "src/roquette/curve.py", "src/roquette/ff.py"
JACOBIAN, SERIES = "src/roquette/jacobian.py", "src/roquette/series.py"
POLY = "src/roquette/poly.py"
CENTRALIZER = "tests/test_group.py::test_centralizer_order_matches_gl2_count"
FIXED = "tests/test_curve.py::test_fixed_points_really_are_fixed"
FERMAT = "tests/test_ff.py::test_inverse_matches_fermat_oracle"
PACKED = "tests/test_ff.py::test_packed_product_matches_schoolbook_oracle"
ACTION = "tests/test_jacobian.py::test_act_on_class_split_support_oracle"
ALL_PASS = "tests/test_report.py::test_all_checks_pass_at_p5"
SPAN = "tests/test_jacobian.py::test_coordinates_match_full_span_oracle"
ROOTS = "tests/test_poly.py::test_roots_with_multiplicity"
CROSS_FIELD = "tests/test_ff.py::test_cross_field_operations_rejected"
EXPONENT = "tests/test_ff.py::test_power_takes_only_non_negative_int_exponents"

MUTANTS = (
    # the class equation and the kernel read off the classes
    Mutant("classes-drop-the-last", GROUP,
           "return tuple(classes), table", "return tuple(classes[:-1]), table",
           (ALL_PASS, "tests/test_group.py::test_conjugacy_partition"),
           "a class left out of the list makes the class sizes sum short of |G|"),
    Mutant("pgl-kernel-on-first-row", REPORT,
           "if rep[:4] == (1, 0, 0, 1))", "if rep[:2] == (1, 0))",
           (ALL_PASS,), "the kernel needs the whole matrix part to be I"),
    Mutant("report-group-order-by-a-second-walk", REPORT,
           "counted = sum(size for _, size in classes)",
           "counted = sum(1 for _ in G.iter_elements())",
           ("tests/test_report.py::test_a_run_walks_the_group_once",),
           "a run walks G once; the class equation sums the class sizes"),
    Mutant("pgl-projection-without-kernel-comparison", REPORT,
           "ker == (G.identity, G.involution) and image_size",
           "image_size",
           ("tests/test_report.py::test_a_kernel_of_the_wrong_elements_fails_pgl_projection",),
           "two central classes of one element each need not be {1, involution}"),
    Mutant("slot-without-lambda-bit", GROUP,
           " + (2 * (l0 or l1) > p)", "",
           ("tests/test_group.py::test_slots_are_dense_and_follow_the_enumeration",),
           "the two lifts (A, +-lam) of a matrix need two slots"),
    # the centralizer order that certifies every class
    Mutant("centralizer-without-n-minus", GROUP,
           "return 2 * (n_plus + n_minus) // (p - 1)", "return 2 * n_plus // (p - 1)",
           (CENTRALIZER,), "at p = 3 mod 4, B with BA = -AB centralize (A, lam)"),
    Mutant("centralizer-split-n-plus-2p", GROUP,
           "2 * p - 1 if leg[disc] == 1", "2 * p if leg[disc] == 1",
           (CENTRALIZER,), "a split binary form has 2p - 1 zeros"),
    Mutant("centralizer-split-n-minus-2p", GROUP,
           "(2 * p - 1 if leg[-det % p] == 1", "(2 * p if leg[-det % p] == 1",
           (CENTRALIZER,), "a split binary form has 2p - 1 zeros"),
    Mutant("centralizer-det-for-minus-det", GROUP,
           "leg[-det % p]", "leg[det]",
           (CENTRALIZER,), "the anticommutant splits exactly when (-det|p) = 1"),
    # Lefschetz numbers read off (A, lam)
    Mutant("lefschetz-without-infinity", CURVE,
           "degree = 1 if c.is_zero() else 0", "degree = 0",
           (FIXED,), "A with c = 0 fixes infinity"),
    Mutant("lefschetz-wrong-exponent", CURVE,
           "(c * x0 + d) ** ((p + 1) // 2)", "(c * x0 + d) ** ((p - 1) // 2)",
           (FIXED,), "y maps to y (c x + d)^((p+1)/2) / lam above a fixed x"),
    Mutant("lefschetz-branch-point-twice", CURVE,
           "degree += 1\n            continue", "degree += 2\n            continue",
           (FIXED,), "a fixed x in F_p is one branch point"),
    Mutant("wild-sign-without-legendre", GROUP,
           "s = (self._leg[t] * g[4] * self._inv[t]) % p", "s = (g[4] * self._inv[t]) % p",
           ("tests/test_group.py::test_wild_normal_form_all_wild_elements",
            "tests/test_curve.py::test_fixed_degree_is_class_function"),
           "canonicalization puts (t|p) on lam"),
    # a field is the object make_field returns; one operand check
    Mutant("field-equal-by-modulus", FF,
           "if other.field is not self.field:", "if other.field.modulus != self.field.modulus:",
           (CROSS_FIELD,), "a twin descriptor on the same modulus is another field"),
    Mutant("foreign-operand-accepted", FF,
           'raise TypeError(f"cannot combine {self.field!r} with {type(other).__name__}")',
           "return None",
           (CROSS_FIELD,), "an operand that is neither an element nor an int is refused"),
    # field inverses by extended Euclid
    Mutant("inverse-without-final-scaling", FF,
           "tuple([a * c % p for a in s1])", "tuple(s1)",
           (FERMAT,), "the last remainder is a constant, not 1"),
    Mutant("inverse-without-s-update", FF,
           "s0[i] = (s0[i] + c * b) % p", "pass",
           (FERMAT,), "s must follow r through every step"),
    Mutant("inverse-returns-at-zero-remainder", FF,
           'raise ZeroDivisionError("not a unit: it shares a factor with the modulus")',
           "return self",
           ("tests/test_ff.py::test_inverse_of_a_zero_divisor_raises",),
           "a zero divisor has no inverse"),
    Mutant("inverse-of-zero-returns", FF,
           'raise ZeroDivisionError("inverse of zero")', "return self",
           ("tests/test_ff.py::test_division_by_zero",), "zero has no inverse"),
    # the one prime test, on the one trial-division loop
    Mutant("is-prime-accepts-prime-powers", FF,
           "prime_factors(n) == [n]", "len(prime_factors(n)) == 1",
           ("tests/test_ff.py::test_prime_test_and_factors_match_a_sieve",),
           "a prime power has one prime factor too"),
    Mutant("prime-factors-loop-never-ends", FF,
           "    while d * d <= n:\n", "    while d // d <= n:\n",
           ("tests/test_ff.py::test_prime_test_and_factors_match_a_sieve",),
           "d // d is 1, so trial division never stops; the hang limit ends it"),
    # the one square-and-multiply loop and the one order search
    Mutant("power-squares-before-multiplying", FF,
           "        if n & 1:\n            acc = mul(acc, x)\n        x = mul(x, x)\n",
           "        x = mul(x, x)\n        if n & 1:\n            acc = mul(acc, x)\n",
           ("tests/test_ff.py::test_power_makes_the_same_products",),
           "bit i contributes x^(2^i), so the square comes after the product"),
    Mutant("power-accepts-negative-exponent", FF,
           'raise ValueError(f"negative exponent {n}")', "pass",
           (EXPONENT,), "n >>= 1 never clears a negative n, so the loop never ends"),
    Mutant("power-accepts-float-exponent", FF,
           "if (n := operator.index(n)) < 0:", "if n < 0:",
           (EXPONENT,), "the loop never runs on 0.0 and returns one for it"),
    Mutant("order-strips-each-prime-once", FF,
           "while n % q == 0 and is_one_at(n // q):", "if n % q == 0 and is_one_at(n // q):",
           ("tests/test_ff.py::test_multiplicative_order_matches_walking_oracle",),
           "a prime may divide the order's cofactor more than once"),
    Mutant("element-order-without-lagrange", GROUP,
           "if n == self.order and self.power(g, n) != self.identity:", "if False:",
           ("tests/test_group.py::test_element_order_rejects_an_element_outside_the_group",),
           "with no strip, only g^|G| = 1 shows that g lies in G"),
    # the Kronecker-packed field product
    Mutant("packed-typecode-one-too-narrow", FF,
           "if bound < 1 << 8 * array(t).itemsize", "if bound < 1 << 16 * array(t).itemsize",
           (PACKED,), "a digit must hold 2k(p - 1)^2 without a carry"),
    Mutant("packed-without-high-fold", FF,
           "            low += fold[c % p]\n", "            pass\n",
           (PACKED,), "the k - 1 high digits fold back onto the low ones"),
    Mutant("packed-without-final-reduction", FF,
           "tuple([c % p for c in array(tc, low.to_bytes(", "tuple([c for c in array(tc, low.to_bytes(",
           (PACKED,), "the unpacked digits are below 2k(p - 1)^2, not below p"),
    # lambda in a working field and the point counts
    Mutant("lambda-negated", CURVE,
           "return g[4] + g[5] * _fp2_root(target)", "return -(g[4] + g[5] * _fp2_root(target))",
           ("tests/test_jacobian.py::test_traces_and_character_independent_of_the_fp2_root",),
           "-lam realizes g times the involution, which negates the traces"),
    Mutant("quadratic-count-sign-flipped", CURVE,
           "return p * p + 1 - frobenius_sign(p) * p * (p - 1)",
           "return p * p + 1 + frobenius_sign(p) * p * (p - 1)",
           ("tests/test_curve.py::test_point_counts",), "#C(F_{p^2}) meets the lower Weil bound at eps = 1"),
    Mutant("point-count-root-twice", CURVE,
           "count += p if ff.sqrt(w) is not None else -p",
           "count += 1 if ff.sqrt(w) is not None else -1",
           ("tests/test_curve.py::test_point_counts",),
           "x^p - x takes each value of its image at p values of x"),
    Mutant("point-count-without-infinity", CURVE,
           "count = 1 + p ** k", "count = p ** k",
           ("tests/test_curve.py::test_point_counts",),
           "the degree-p model has one point at infinity"),
    Mutant("point-count-span-from-kernel", CURVE,
           "for i in range(1, k):", "for i in range(k):",
           ("tests/test_curve.py::test_point_counts",),
           "L(z^0) = 0 lies in the kernel: spanning with it lists each value p times more"),
    Mutant("point-count-zero-value-counted", CURVE,
           "if not w.is_zero():", "if True:",
           ("tests/test_curve.py::test_point_counts",),
           "above a root of x^p - x lies one point, not two"),
    # the one square-root routine and the square roots of det
    Mutant("sqrt-not-canonical", FF,
           "return min(r, -r, key=lambda e: e.coeffs)", "return r",
           ("tests/test_ff.py::test_sqrt_matches_exhaustive_oracle",),
           "the canonical root is the lexicographically smaller of +-r"),
    Mutant("nonresidue-walk-only", FF,
           "candidates = itertools.chain((z + c for c in range(field.p)), field.elements())",
           "candidates = field.elements()",
           ("tests/test_ff.py::test_nonresidue_comes_from_the_first_candidates",),
           "z + c comes before the walk, whose first p elements share one character at even k"),
    Mutant("sqrt-group-one-root-per-det", GROUP,
           "for r in self._det_roots[v]]", "for r in self._det_roots[v][:1]]",
           ("tests/test_group.py::test_sqrt_group",),
           "each v in F_p^x has two square roots in F_{p^2}"),
    # the divisor action in the class's own field
    Mutant("action-without-weierstrass-add", JACOBIAN,
           "if not c.is_zero() and deg % 2:", "if False:",
           (ACTION,), "an odd-degree class picks up g(inf) - inf, a Weierstrass point"),
    Mutant("action-wrong-det-exponent", JACOBIAN,
           "((a * d - b * c) ** half)", "((a * d - b * c) ** (half - 1))",
           (ACTION,), "the ordinates scale by det^(-(p+1)/2)"),
    Mutant("action-wrong-sign-in-num", JACOBIAN,
           "num = Poly(field, (-b, d))", "num = Poly(field, (b, d))",
           (ACTION,), "the inverse Mobius map has numerator dX - b"),
    # the orbit search for conjugacy classes
    Mutant("classes-without-diagonal-conjugator", GROUP,
           "        return (self.unipotent(), (1, 0, 1, 1, 1, 0),\n"
           "                self.canonicalize(r, 0, 0, 1, *self._det_roots[r][0]))\n",
           "        return (self.unipotent(), (1, 0, 1, 1, 1, 0))\n",
           ("tests/test_group.py::test_class_equation",),
           "the unipotents alone do not generate G"),
    Mutant("classes-conjugate-by-s-x-s", GROUP,
           "y = mul(mul(s, x), si)", "y = mul(mul(s, x), s)",
           ("tests/test_group.py::test_class_equation",), "conjugation is s x s^(-1)"),
    # the one rule for the witness primes, and the bounded point search
    Mutant("witness-ells-size-after-prime-test", JACOBIAN,
           "    if ell >= 3 and ell != p and ell ** (p - 1) > bound:",
           "    if ell >= 3 and ell != p and ff.is_prime(ell) and ell ** (p - 1) > bound:",
           ("tests/test_report.py::test_huge_inputs_fail_the_bounds_before_any_prime_test",
            "tests/test_jacobian.py::test_torsion_basis_rejects_a_huge_ell_at_once"),
           "trial division would not finish on a huge ell, so the size test comes first"),
    Mutant("witness-ells-accept-p", JACOBIAN,
           "    if ell < 3 or ell == p or not ff.is_prime(ell):",
           "    if ell < 3 or not ff.is_prime(ell):",
           ("tests/test_report.py::test_select_ells", "tests/test_report.py::test_usage_errors"),
           "J[p] is not the ell-adic torsion the witness needs"),
    Mutant("witness-ells-selects-three", JACOBIAN,
           "(e for e in fits if _ell_fault(p, e, bound) is None), 2))",
           "(e for e in fits if _ell_fault(p, e, bound) is None), 3))",
           ("tests/test_report.py::test_select_ells",),
           "automatic selection keeps the two smallest ells"),
    Mutant("random-divisor-unbounded", JACOBIAN,
           "            for _ in range(POINT_TRIES):", "            for _ in iter(int, 1):",
           ("tests/test_jacobian.py::test_random_divisor_gives_up_after_point_tries",),
           "every randomized search ends with a reason"),
    # the torsion basis and its discrete logs
    Mutant("torsion-m-from-p", JACOBIAN,
           "frob = curve.frobenius_sign(p) * p", "frob = p",
           ("tests/test_jacobian.py::test_torsion_witness_p7_ell3",),
           "Frobenius acts as eps*p, and eps = -1 at p = 7"),
    Mutant("torsion-without-ell-guard", JACOBIAN,
           "if jac.scalar_mul(ell, E) != zero:", "if False:",
           ("tests/test_jacobian.py::test_torsion_basis_rejects_a_sample_ell_does_not_kill",),
           "a wrong N passes the table-size check"),
    Mutant("torsion-table-takes-last-vector", JACOBIAN,
           "        if len(basis) == g2:\n            break\n", "",
           ("tests/test_jacobian.py::test_torsion_basis_ell3",),
           "the table spans all but the last vector"),
    Mutant("torsion-table-keyed-by-u", JACOBIAN,
           "            table.update(layer)\n",
           "            table.update((S[0], vec) for S, vec in layer)\n",
           ("tests/test_jacobian.py::test_torsion_basis_ell3",),
           "a class is the pair (u, v): D and -D share u"),
    Mutant("is-valid-without-curve-equation", JACOBIAN,
           "return ((v * v - self.f) % u).is_zero()", "return True",
           ("tests/test_jacobian.py::test_mumford_validation",),
           "a reduced pair has v^2 = f mod u"),
    Mutant("giant-steps-forward", JACOBIAN,
           "back = jac.neg(basis[-1])", "back = basis[-1]",
           (SPAN,), "E - c b_last lies in the table for the last coordinate c"),
    Mutant("coordinates-without-giant-steps", JACOBIAN,
           "for c, step in enumerate(self.giant_steps):",
           "for c, step in enumerate(self.giant_steps[:1]):",
           (SPAN,), "only classes with last coordinate 0 are in the table"),
    Mutant("coordinates-last-off-by-one", JACOBIAN,
           "return vec + (c,)", "return vec + (c + 1,)",
           (SPAN,), "the giant step index is the last coordinate"),
    # the witness a failed per-class check names
    Mutant("first-mismatch-is-the-last", REPORT,
           "for i, (e, f) in enumerate(itertools.zip_longest(expected, found))",
           "for i, (e, f) in reversed(list(enumerate(itertools.zip_longest(expected, found))))",
           ("tests/test_report.py::test_ell_witness_fails_alone_and_names_its_class",
            "tests/test_report.py::test_crt_fails_alone_and_names_its_class",
            "tests/test_report.py::test_failed_character_checks_carry_their_witnesses"),
           "the witness is the first class in class order that differs"),
    Mutant("first-mismatch-class-off-by-one", REPORT,
           '{"class": i, "expected": e', '{"class": i + 1, "expected": e',
           ("tests/test_report.py::test_sign_rule_fails_alone_and_names_its_class",),
           "the witness names the class index itself"),
    # the verdict and the facts it rests on
    Mutant("verdict-ignores-failures", REPORT,
           '"obstructed" if witnessed and not any_failures else',
           '"obstructed" if witnessed else',
           ("tests/test_report.py::test_verdict_monotone_under_fault_injection",),
           "any failed check blocks the verdict"),
    Mutant("quotient-floors", CHARACTER,
           "    return num if den == 1 else [num, den]", "    return num // den",
           ("tests/test_character.py::test_exact_quotient",
            "tests/test_character.py::test_verdict_non_integer_character"),
           "a quotient that does not come out even is a [num, den] pair"),
    Mutant("quotient-unreduced", CHARACTER,
           "    g = math.gcd(num, den)", "    g = 1",
           ("tests/test_character.py::test_exact_quotient",),
           "an even quotient is an int and a pair is in lowest terms"),
    Mutant("verdict-without-indicator", REPORT,
           "and norm == 1 and fs_indicator == -1", "and norm == 1",
           ("tests/test_report.py::test_verdict_monotone_under_fault_injection",),
           "Schur index 2 needs indicator -1"),
    Mutant("verdict-recomputes-indicator", REPORT,
           "final_verdict(run.integral, run.norm, run.fs,",
           "final_verdict(run.integral, run.norm, character.fs_indicator(run.G, run.chi),",
           ("tests/test_report.py::test_verdict_facts_computed_once",),
           "the verdict takes the indicator its check computed"),
    Mutant("order-statistics-count-classes", REPORT,
           "stats[n] = stats.get(n, 0) + size", "stats[n] = stats.get(n, 0) + 1",
           (ALL_PASS,), "the order statistics count elements"),
    Mutant("sylow-order-of-the-identity-class", REPORT,
           "sylow_order = run.class_orders[G.class_of(G.unipotent())]",
           "sylow_order = run.class_orders[G.class_of(G.identity)]",
           ("tests/test_report.py::test_sylow_order_is_read_from_the_unipotent_class", ALL_PASS),
           "the Sylow order is the order of the unipotent's class"),
    Mutant("char-degree-at-the-involution", REPORT,
           'run.mark("char_degree", chi[id_idx] == p - 1,',
           'run.mark("char_degree", chi[G.class_of(G.involution)] == p - 1,',
           (ALL_PASS,), "the degree is chi at the identity's class"),
    Mutant("failed-includes-skipped", REPORT,
           'return [c for c in self.checks if c["status"] == "fail"]',
           'return [c for c in self.checks if c["status"] != "pass"]',
           (ALL_PASS, "tests/test_report.py::test_skip_reason_at_scale"),
           "a skipped check is not a failure and keeps exit status 0"),
    Mutant("check-renamed", REPORT,
           'run.mark("hasse_weil_sharp",', 'run.mark("hasse_weil_bound",',
           ("tests/test_report.py::test_check_names_and_order",),
           "readers of the report, the benchmark too, find checks by name"),
    # the names the benchmark resolves in src/
    Mutant("group-elements-renamed", GROUP,
           "    def elements(self) -> tuple:", "    def all_elements(self) -> tuple:",
           ("tests/test_benchmark_contract.py::test_every_traced_entry_point_resolves",
            "tests/test_benchmark_contract.py::test_every_micro_probe_runs",
            "tests/test_benchmark_contract.py::test_traced_benchmark_run_reports_every_layer"),
           "perfbench traces and times RoquetteGroup.elements by name"),
    Mutant("cli-ell-bound-default-literal", CLI,
           "default=defaults.ell_bound,", "default=10_000,",
           ("tests/test_report.py::test_cli_defaults_come_from_the_pipeline_options",),
           "the CLI takes its defaults from PipelineOptions"),
    Mutant("series-window-below-one-try", SERIES,
           "2 * p + 4", "p + 1",
           ("tests/test_series.py::test_wild_multiplicities_all_parameters",),
           "below p + 2 the comparison window is empty, and the one try raises"),
    # the root finder the tests use to locate divisor supports
    Mutant("roots-gcd-with-xq", POLY,
           "f.xgcd(xq - x)[0]", "f.xgcd(xq)[0]",
           (ROOTS,), "the split part is gcd(f, x^q - x); gcd(f, x^q) keeps only the root 0"),
    Mutant("roots-multiplicity-off-by-one", POLY,
           "        mult = 0\n", "        mult = 1\n",
           (ROOTS,), "a multiplicity counts the divisions by x - r that leave no remainder"),
    Mutant("split-gives-up-silently", POLY,
           '    raise ValueError(f"no split of a degree-{deg} polynomial in {SPLIT_TRIES} tries: "\n'
           '                     "it does not split over its field")\n',
           "    return []\n",
           ("tests/test_poly.py::test_roots_of_split_raises_without_a_split",),
           "a factor with no root in its field is an error, not an empty root list"),
    # a fault that loops, which the hang limit of tests/conftest.py fails
    Mutant("poly-degree-one-too-high", POLY,
           "        return len(self.coeffs) - 1\n", "        return len(self.coeffs)\n",
           ("tests/test_jacobian.py::test_torsion_basis_ell3",),
           "with deg u one too high, Cantor reduction never ends"),
)


def _copy_tree(dest: Path) -> None:
    caches = shutil.ignore_patterns("__pycache__", ".pytest_cache")

    def skip(directory, names):
        # perfbench/out/ holds the gitignored run samples; no test reads them
        if Path(directory) == ROOT / "perfbench":
            return caches(directory, names) | {"out"}
        return caches(directory, names)

    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def run(mutant: Mutant | None, tests: tuple) -> int | None:
    """pytest's exit status on a copy of the tree with mutant applied, or
    None when it runs past TIMEOUT_S."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise ValueError(f"{mutant.name}: the old text occurs "
                                 f"{text.count(mutant.old)} times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            return None


def main(names: list) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if run(None, tuple(sorted({t for m in chosen for t in m.tests}))) != 0:
        print("the unmutated tree fails the selected tests", file=sys.stderr)
        return 1
    survivors = 0
    for m in chosen:
        t0 = time.perf_counter()
        status = run(m, m.tests)
        outcome = ("killed" if status == 1 else "SURVIVED" if status == 0
                   else "TIMED OUT" if status is None else f"BROKE ({status})")
        print(f"{outcome:10} {m.name}  {time.perf_counter() - t0:.1f} s  [{m.file}]")
        survivors += status != 1
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
