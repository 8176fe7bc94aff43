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
CURVE, FF = "src/roquette/curve.py", "src/roquette/ff.py"
TWICE = "tests/test_report.py::test_a_matrix_enumerated_twice_fails_the_count_checks"
PGL = "tests/test_group.py::test_pgl_projection"
CENTRALIZER = "tests/test_group.py::test_centralizer_order_matches_gl2_count"
FIXED = "tests/test_curve.py::test_fixed_points_really_are_fixed"
FERMAT = "tests/test_ff.py::test_inverse_matches_fermat_oracle"

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
