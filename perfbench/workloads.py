"""The benchmark's workloads and the known-answer check of their reports.

Every workload is one `run_pipeline(p, PipelineOptions(...))` call with
every option spelled out, so that later changes to the defaults do not
change the mathematical work a workload asks for.

`check_report` judges a JSON report against closed forms that this file
computes on its own (group order, point counts, character degree and
sign, norm, orthogonality to the trivial character, Sylow
multiplicities, torsion span sizes, trace congruences, CRT).  It never
takes a check's `status` as evidence that the check holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    ell: tuple | None          # None = the program's own ell selection
    ell_bound: int
    max_prime: int
    expected_ells: tuple       # the ells whose witness the report must carry
    expected_skipped: frozenset
    crt_computed: bool

    def options(self, seed: int) -> dict:
        """Keyword arguments of PipelineOptions, all of them explicit."""
        return {"ell": self.ell, "ell_bound": self.ell_bound, "seed": seed,
                "series_precision": None, "max_prime": self.max_prime,
                "include_timings": False}


WORKLOADS = {w.name: w for w in (
    # Torsion span enumeration: ~3,300 Cantor adds, mostly in F_{5^12}, where
    # field multiplication has no table; CRT is computed.
    Workload(
        name="witness-p5", p=5, ell=(3, 7), ell_bound=10_000, max_prime=13,
        expected_ells=(3, 7), expected_skipped=frozenset(), crt_computed=True),
    # The action path: 108 act_on_class calls, most of them in F_{7^12}, and
    # polynomial root finding.  Its work depends on the seed (~1.6x), so it
    # is compared at one fixed seed and is not in BENCHMARK.json.
    Workload(
        name="action-p7", p=7, ell=(3,), ell_bound=10_000, max_prime=13,
        expected_ells=(3,), expected_skipped=frozenset({"crt_reconstruction"}),
        crt_computed=False),
    # Conjugacy classes (~5.9M group mults) and the wild series; the witness
    # is skipped, so ff, poly and jacobian changes should not move it.
    Workload(
        name="classes-p29", p=29, ell=None, ell_bound=10_000, max_prime=29,
        expected_ells=(), expected_skipped=frozenset({"ell_witness"}),
        crt_computed=False),
)}

_BASE_CHECKS = (
    "group_order", "square_root_group", "pgl_projection", "sylow_unipotent",
    "point_count_base", "point_count_quadratic", "hasse_weil_sharp",
    "char_degree", "char_involution", "char_order_p", "char_integral",
    "char_irreducible", "sylow_multiplicities", "fs_indicator",
    "char_faithful", "char_sign_rule", "wild_multiplicities",
)


def expected_check_names(wl: Workload) -> list:
    names = list(_BASE_CHECKS)
    if wl.expected_ells:
        names += [f"ell_witness_{ell}" for ell in wl.expected_ells]
        names.append("crt_reconstruction")
    else:
        names.append("ell_witness")
    names.append("verdict_obstructed")
    return names


def quadratic_point_count(p: int) -> int:
    """#C(F_{p^2}) for y^2 = x^p - x: the count meets the Weil bound, with
    the sign of the gap fixed by p mod 4."""
    return p + 1 if p % 4 == 1 else 2 * p * p - p + 1


def check_report(data: bytes, wl: Workload, seed: int) -> list:
    """Problems found in one report; an empty list means it is correct."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []

    def expect(what, found, want):
        if found != want:
            problems.append(f"{what}: found {found!r}, expected {want!r}")

    p = wl.p
    try:
        inp = doc["input"]
        expect("input.prime", inp["prime"], p)
        expect("input.ell", inp["ell"],
               list(wl.ell) if wl.ell is not None else None)
        expect("input.ell_bound", inp["ell_bound"], wl.ell_bound)
        expect("input.seed", inp["seed"], seed)

        order = 2 * p * (p * p - 1)
        expect("group order", doc["group"]["order"], order)
        expect("points over F_p", doc["points"]["k1"], p + 1)
        expect("points over F_p^2", doc["points"]["k2"], quadratic_point_count(p))

        ch = doc["character"]
        values, sizes, orders = ch["values"], ch["class_sizes"], ch["class_orders"]
        expect("class sizes sum", sum(sizes), order)
        if not len(values) == len(sizes) == len(orders):
            problems.append("character block: class lists of different lengths")
        by_order = {}
        for v, s, o in zip(values, sizes, orders):
            by_order.setdefault(o, []).append((v, s))
        expect("identity class", by_order.get(1), [(p - 1, 1)])
        expect("involution value", [v for v, s in by_order.get(2, []) if s == 1],
               [-(p - 1)])
        expect("order-p classes", by_order.get(p), [(-1, p * p - 1)])
        expect("integral values", all(isinstance(v, int) for v in values), True)
        norm = Fraction(sum(s * v * v for v, s in zip(values, sizes)), order)
        expect("norm recomputed", norm, 1)
        # irreducible and not trivial, hence orthogonal to the trivial character
        expect("trivial multiplicity", sum(s * v for v, s in zip(values, sizes)), 0)
        expect("reported norm", ch["inner_product"], 1)
        expect("FS indicator", ch["fs_indicator"], -1)
        for n, _ in by_order.get(p, [])[:1]:  # the value on the order-p class
            expect("Sylow multiplicities recomputed",
                   [Fraction(p - 1 + (p - 1) * n, p), Fraction(p - 1 - n, p)], [0, 1])
        expect("reported Sylow multiplicities", ch["sylow_multiplicities"], [0, 1])

        witness = doc["ell_witness"]
        expect("witness ells", [w["ell"] for w in witness], list(wl.expected_ells))
        for w in witness:
            ell = w["ell"]
            expect(f"span at ell={ell}", w["span"], ell ** (p - 1))
            expect(f"traces mod {ell} congruent to the character",
                   all((t - v) % ell == 0 for t, v in zip(w["traces"], values))
                   and len(w["traces"]) == len(values), True)
        crt = doc["crt"]
        if wl.crt_computed:
            expect("crt status", crt["status"], "computed")
            expect("crt values", crt["values"], values)
        else:
            expect("crt status", crt["status"], "skipped")

        checks = doc["checks"]
        expect("check names", [c["name"] for c in checks], expected_check_names(wl))
        expect("skipped checks",
               {c["name"] for c in checks if c["status"] == "skipped"},
               set(wl.expected_skipped))
        expect("failed checks", [c["name"] for c in checks if c["status"] == "fail"], [])
        expect("verdict", doc["verdict"]["lifts"], "obstructed")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks an expected field: {exc!r}")
    return problems
