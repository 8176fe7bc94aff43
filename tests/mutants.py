"""Mutants the test suite must kill, and the runner that checks it.

Each mutant replaces one exact text in one file of the tree and names the
tests that must then fail.  The runner first runs the union of those
selections on an unmutated copy of the tree, which must pass.  Then, for
each mutant, it copies the tree to a temporary directory, applies the
mutant there and runs `pytest -x` on its selection.  A mutant is killed
when pytest reports a failed test (exit status 1).  The runner exits 1 if
any mutant survives or breaks the run some other way (exit status 2 and up,
a collection error say), and 2 on an unknown mutant name.

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
COPIED = ("pyproject.toml", "src", "tests")


class Mutant(NamedTuple):
    name: str
    file: str    # relative to the repository root
    old: str     # occurs exactly once in file
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    why: str


GROUP, REPORT = "src/roquette/group.py", "src/roquette/report.py"
CLI = "src/roquette/cli.py"
CURVE, FF = "src/roquette/curve.py", "src/roquette/ff.py"
JACOBIAN, SERIES = "src/roquette/jacobian.py", "src/roquette/series.py"
TWICE = "tests/test_report.py::test_a_matrix_enumerated_twice_fails_the_count_checks"
PGL = "tests/test_group.py::test_pgl_projection"
CENTRALIZER = "tests/test_group.py::test_centralizer_order_matches_gl2_count"
FIXED = "tests/test_curve.py::test_fixed_points_really_are_fixed"
FERMAT = "tests/test_ff.py::test_inverse_matches_fermat_oracle"
PACKED = "tests/test_ff.py::test_packed_product_matches_schoolbook_oracle"
ACTION = "tests/test_jacobian.py::test_act_on_class_split_support_oracle"
SPAN = "tests/test_jacobian.py::test_coordinates_match_full_span_oracle"

MUTANTS = (
    # the census taken by the class search
    Mutant("census-counts-only-unseen", GROUP,
           "            if table[k]:\n                continue\n",
           "            if table[k]:\n                n -= 1\n                continue\n",
           (TWICE,), "a matrix enumerated twice must raise the count above |G|"),
    Mutant("census-image-by-element-slot", GROUP,
           "image[k >> 1] = 1", "image[k] = 1",
           (PGL,), "the image is counted in matrix slots, two elements to a slot"),
    Mutant("census-kernel-on-first-row", GROUP,
           "if h[:4] == (1, 0, 0, 1):", "if h[:2] == (1, 0):",
           (PGL,), "the kernel needs the whole matrix part to be I"),
    Mutant("report-second-counting-walk", REPORT,
           "n_elements, image_size, ker = G.census",
           "n_elements, image_size, ker = sum(1 for _ in G.iter_elements()), *G.census[1:]",
           ("tests/test_report.py::test_a_run_walks_the_group_once",),
           "a run walks G once"),
    Mutant("pgl-projection-without-count", REPORT,
           "image_size * 2 == n_elements == expected_order",
           "image_size * 2 == expected_order",
           (TWICE,), "|image| |kernel| = counted |G| catches a repeated matrix"),
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
    # the one square-and-multiply loop and the one order search
    Mutant("power-squares-before-multiplying", FF,
           "        if n & 1:\n            acc = mul(acc, x)\n        x = mul(x, x)\n",
           "        x = mul(x, x)\n        if n & 1:\n            acc = mul(acc, x)\n",
           ("tests/test_ff.py::test_power_makes_the_same_products",),
           "bit i contributes x^(2^i), so the square comes after the product"),
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
           "stats[n] = stats.get(n, 0) + c.size", "stats[n] = stats.get(n, 0) + 1",
           ("tests/test_report.py::test_all_checks_pass_at_p5",),
           "the order statistics count elements"),
    Mutant("check-renamed", REPORT,
           'run.mark("hasse_weil_sharp",', 'run.mark("hasse_weil_bound",',
           ("tests/test_report.py::test_check_names_and_order",),
           "readers of the report, the benchmark too, find checks by name"),
    Mutant("cli-seed-default-literal", CLI,
           "default=PipelineOptions.seed,", "default=0,",
           ("tests/test_report.py::test_cli_defaults_come_from_the_pipeline_options",),
           "the CLI takes its defaults from PipelineOptions"),
    Mutant("series-gives-up-at-user-precision", SERIES,
           "if prec >= default:", "if True:",
           ("tests/test_series.py::test_wild_multiplicity_gives_up_at_the_default_precision",),
           "a small window doubles until it reaches the default"),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def run(mutant: Mutant | None, tests: tuple) -> int:
    """pytest's exit status on a copy of the tree with mutant applied."""
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
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


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
        outcome = "killed" if status == 1 else "SURVIVED" if status == 0 else f"BROKE ({status})"
        print(f"{outcome:10} {m.name}  {time.perf_counter() - t0:.1f} s  [{m.file}]")
        survivors += status != 1
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
