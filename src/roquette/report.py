"""Pipeline orchestration and report emission.

run_pipeline drives every verification stage for one prime and collects
the results into a VerificationReport; emit serializes the report as
deterministic JSON (schema-versioned, fixed key order, exact integers) or
as a human-readable markdown checklist.

The report separates what the machine actually verified (counts, traces,
inner products) from the standard theory the final inference leans on
(specialization of fundamental groups, the classification of quaternion
algebras, Honda-Tate); the latter is listed, never recomputed.

The verdict is decided in one place, final_verdict, from the integrality,
norm and Frobenius-Schur indicator that the char_integral,
char_irreducible and fs_indicator checks already computed, together with
whether any check failed.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, character, curve, jacobian
from .ff import is_prime, prime_factors
from .group import get_group

SCHEMA_VERSION = "1.0.0"

CITED_INFERENCES = [
    "A smooth proper variety that lifts to characteristic 0 has an etale "
    "fundamental group approximated by a finitely presented discrete group "
    "through the specialization homomorphism, which forces the cohomology "
    "representations of finite quotients to be realizable over Q.",
    "An irreducible character with rational values and Frobenius-Schur "
    "indicator -1 has quaternionic endomorphism algebra; the classification "
    "of quaternion algebras over Q gives Schur index exactly 2.",
    "Sharpness of the point-count bound over the quadratic extension forces "
    "Frobenius to act as a rational scalar, and Honda-Tate theory then makes "
    "the Jacobian isogenous to a power of a supersingular elliptic curve.",
    "The local intersection multiplicity of a wild fixed point equals the "
    "valuation of g(s) - s in a local uniformizer; its two computed values "
    "are cross-checked against the character constraints.",
]


@dataclass(frozen=True)
class PipelineOptions:
    ell: tuple | None = None          # None = automatic selection
    ell_bound: int = 10_000
    seed: int = 0
    series_precision: int | None = None
    max_prime: int = 31
    include_timings: bool = False


@dataclass
class Check:
    name: str
    status: str          # "pass" | "fail" | "skipped"
    claim: str
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "claim": self.claim, "data": self.data}


@dataclass
class VerificationReport:
    prime: int
    options: PipelineOptions
    group_summary: dict
    point_counts: dict
    hasse_weil: dict
    character_block: dict
    ell_witness: list
    crt_block: dict
    checks: list
    verdict: dict
    timings: dict | None

    @property
    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def exit_code(self) -> int:
        if self.failed:
            return 1
        return 0 if self.verdict["lifts"] == "obstructed" else 1


class UsageError(ValueError):
    """Bad or infeasible pipeline input; maps to exit code 2."""


def _json_num(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return [v.numerator, v.denominator]
    return v


def select_ells(p: int, bound: int) -> tuple:
    """Up to two smallest odd primes != p whose full torsion fits the bound."""
    out = []
    cand = 3
    while len(out) < 2 and cand ** (p - 1) <= bound:
        if cand != p and is_prime(cand):
            out.append(cand)
        cand += 2
    return tuple(out)


def final_verdict(integer_valued: bool, norm: Fraction, fs_indicator: Fraction,
                  any_failures: bool) -> dict:
    """Decide the obstruction from the facts the checks computed.

    An integer-valued character of norm 1 with Frobenius-Schur indicator
    -1 is quaternionic, so its Schur index over Q is 2; a multiplicity-one
    character is not divisible by that index, so it is not realizable over
    Q and the lift is blocked.  The verdict is monotone: any failed check
    blocks 'obstructed'.
    """
    witnessed = integer_valued and norm == 1 and fs_indicator == -1
    return {
        "integer_valued": integer_valued,
        "irreducible": norm == 1,
        "fs_indicator": _json_num(fs_indicator),
        "schur_index_witness": 2 if witnessed else None,
        "rationality_class_nontrivial": witnessed,
        "lifts": "obstructed" if witnessed and not any_failures else "not determined",
    }


def run_pipeline(p: int, options: PipelineOptions | None = None) -> VerificationReport:
    options = options or PipelineOptions()
    t_start = time.monotonic()
    timings: dict = {}

    # the size bounds come before the trial-division prime tests, which
    # would not finish on a huge input
    if p > options.max_prime:
        raise UsageError(
            f"p = {p} exceeds the configured maximum {options.max_prime}")
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if p < 5:
        raise UsageError("p must be at least 5 (the curve needs genus >= 2)")
    if options.series_precision is not None and options.series_precision < 2:
        raise UsageError(
            f"series precision must be at least 2, got {options.series_precision}")
    if options.ell_bound < 0:
        raise UsageError(f"ell bound must be non-negative, got {options.ell_bound}")
    if options.ell is not None:
        ells = tuple(options.ell)
        if not ells:
            raise UsageError("the ell list is empty; leave it unset for automatic selection")
        if len(set(ells)) != len(ells):
            raise UsageError(f"ell = {list(ells)} names a prime more than once")
        for ell in ells:
            if ell < 3 or ell == p:
                raise UsageError(f"ell = {ell} must be an odd prime different from p")
            if ell ** (p - 1) > options.ell_bound:
                raise UsageError(
                    f"ell = {ell}: ell^(2g) = {ell ** (p - 1)} exceeds the bound "
                    f"{options.ell_bound}; raise --ell-bound to force it")
            if not is_prime(ell):
                raise UsageError(f"ell = {ell} must be an odd prime different from p")
    else:
        ells = select_ells(p, options.ell_bound)

    checks: list[Check] = []

    def mark(name, ok, claim, **data):
        checks.append(Check(name=name, status="pass" if ok else "fail",
                            claim=claim, data=data))
        return ok

    # -- group structure -------------------------------------------------------
    t0 = time.monotonic()
    G = get_group(p)
    n_elements = len(G.elements)
    expected_order = 2 * p * (p * p - 1)
    mark("group_order", n_elements == expected_order,
         f"full enumeration finds 2p(p^2-1) = {expected_order} automorphisms",
         counted=n_elements, expected=expected_order)

    sqrt_grp = G.sqrt_group_elements()
    # every el^2 lies in F_p^x, so el has full order 2(p-1) unless one of
    # its maximal proper powers el^(2(p-1)/q) is already 1
    n_sqrt = 2 * (p - 1)
    one = G.fp2.one()
    cyclic = any(all(el ** (n_sqrt // q) != one for q in prime_factors(n_sqrt))
                 for el in sqrt_grp)
    mark("square_root_group",
         len(sqrt_grp) == n_sqrt and cyclic,
         f"square roots of prime-field units form a cyclic group of order 2(p-1) = {2 * (p - 1)}",
         size=len(sqrt_grp), cyclic=cyclic)

    ker = G.kernel_of_projection()
    image_size = len(G.pgl_image())
    mark("pgl_projection",
         ker == {G.identity, G.involution} and image_size == p * (p * p - 1),
         "the projective action is onto PGL_2(F_p) with kernel {1, involution}",
         kernel_size=len(ker), image_size=image_size,
         expected_image=p * (p * p - 1))

    classes = G.conjugacy_classes
    class_orders = [G.element_order(c.rep) for c in classes]
    stats: dict = {}
    for c, n in zip(classes, class_orders):
        stats[n] = stats.get(n, 0) + c.size
    order_p_classes = [c for c, n in zip(classes, class_orders)
                       if G.is_wild(c.rep) and n == p]
    sylow = G.sylow_p_subgroup()
    mark("sylow_unipotent",
         len(sylow) == p and stats.get(p, 0) == p * p - 1
         and len(order_p_classes) == 1 and order_p_classes[0].size == p * p - 1,
         f"the unipotent subgroup has order p and all {p * p - 1} order-p elements are conjugate",
         sylow_order=len(sylow), order_p_elements=stats.get(p, 0),
         order_p_classes=len(order_p_classes))
    group_summary = {
        "order": n_elements,
        "class_count": len(classes),
        "class_sizes": [c.size for c in classes],
        "order_statistics": {str(k): v for k, v in sorted(stats.items())},
    }
    timings["group"] = time.monotonic() - t0

    # -- point counts ------------------------------------------------------------
    t0 = time.monotonic()
    n1 = curve.point_count(p, 1)
    mark("point_count_base", n1 == p + 1,
         f"the curve has p+1 = {p + 1} points over the prime field",
         counted=n1, expected=p + 1)
    n2 = curve.point_count(p, 2)
    expected2 = curve.expected_quadratic_count(p)
    mark("point_count_quadratic", n2 == expected2,
         f"over the quadratic extension the count is {expected2} "
         f"(p = {p % 4} mod 4 branch of the dichotomy)",
         counted=n2, expected=expected2)
    gap, expected_gap = abs(n2 - (1 + p * p)), p * (p - 1)
    eps = curve.frobenius_sign(p)
    sharp = mark("hasse_weil_sharp", gap == expected_gap,
         f"the quadratic point count meets the bound |N - (1+p^2)| = p(p-1) = {expected_gap} exactly",
         gap=gap, expected_gap=expected_gap, epsilon=eps)
    point_counts = {"k1": n1, "k2": n2, "k1_expected": p + 1, "k2_expected": expected2}
    hasse_weil = {"count": n2, "gap": gap, "expected_gap": expected_gap,
                  "epsilon": eps, "sharp": sharp}
    timings["points"] = time.monotonic() - t0

    # -- character suite ------------------------------------------------------------
    t0 = time.monotonic()
    chi = character.lefschetz_character(G, options.series_precision)
    id_idx = G.class_of(G.identity)
    mark("char_degree", chi.values[id_idx] == p - 1,
         f"the cohomology character has degree 2g = p-1 = {p - 1}",
         value=chi.values[id_idx])
    mark("char_involution",
         chi.values[G.class_of(G.involution)] == -(p - 1),
         "the hyperelliptic involution acts as -1, so its trace is -(p-1)",
         value=chi.values[G.class_of(G.involution)])
    n_chi = character.order_p_value(G, chi)
    mark("char_order_p", n_chi == -1,
         "order-p elements have trace -1 (fixed-point multiplicity 3 at infinity)",
         value=n_chi)
    integral = mark("char_integral",
                    all(isinstance(v, int) for v in chi.values),
                    "every character value is a rational integer",
                    values=list(chi.values))
    ip = character.inner_product(G, chi, chi)
    mark("char_irreducible", ip == 1,
         "the character has norm 1, hence is absolutely irreducible",
         inner_product=_json_num(ip))
    triv_mult, nontriv_mult = character.sylow_restriction(G, chi)
    mark("sylow_multiplicities", (triv_mult, nontriv_mult) == (0, 1),
         "restricted to the order-p subgroup: trivial character 0 times, every "
         "nontrivial once (closed form, using that the nontrivial values of a "
         "character of a cyclic group of order p sum to -1)",
         trivial=_json_num(triv_mult), nontrivial=_json_num(nontriv_mult))
    nu = character.fs_indicator(G, chi)
    mark("fs_indicator", nu == -1,
         "the Frobenius-Schur indicator is -1: the representation is quaternionic",
         value=_json_num(nu))
    ker_chi = character.kernel_of_character(G, chi)
    mark("char_faithful", ker_chi == {G.identity},
         "the character kernel is trivial: the action on cohomology is faithful",
         kernel_size=len(ker_chi))
    sign_ok = all(
        chi.values[G.class_of(G.mul(c.rep, G.involution))] == -chi.values[i]
        for i, c in enumerate(classes))
    mark("char_sign_rule", sign_ok,
         "multiplying by the central involution negates every character value")
    wild_ok = True
    wild_data = {}
    for c in classes:
        if G.is_wild(c.rep):
            u, sign = G.wild_normal_form(c.rep)
            L = curve.fixed_scheme_degree(G, c.rep, options.series_precision)
            wild_data[f"sign_{sign:+d}"] = L
            wild_ok = wild_ok and (L == 3 if sign == 1 else L == 1)
    mark("wild_multiplicities", wild_ok and len(wild_data) == 2,
         "wild fixed points carry multiplicity 3 (order p) and 1 (order 2p)",
         **wild_data)
    character_block = {
        "values": list(chi.values),
        "class_sizes": [c.size for c in classes],
        "class_orders": class_orders,
        "inner_product": _json_num(ip),
        "fs_indicator": _json_num(nu),
        "sylow_multiplicities": [_json_num(triv_mult), _json_num(nontriv_mult)],
    }
    timings["character"] = time.monotonic() - t0

    # -- ell-torsion witness -----------------------------------------------------------
    t0 = time.monotonic()
    ell_witness: list = []
    traces_by_ell: dict = {}
    if not ells:
        checks.append(Check(
            name="ell_witness", status="skipped",
            claim="torsion witness skipped (scale): no odd prime has "
                  f"ell^(2g) within the bound {options.ell_bound} at p = {p}",
            data={"bound": options.ell_bound}))
    for ell in ells:
        try:
            basis = jacobian.torsion_basis(G, ell, seed=options.seed,
                                           bound=options.ell_bound)
            traces = jacobian.rho_ell_traces(G, basis)
        except RuntimeError as exc:
            mark(f"ell_witness_{ell}", False,
                 f"the torsion representation mod {ell} could not be computed",
                 ell=ell, error=str(exc))
            continue
        traces_by_ell[ell] = traces
        congruent = all((cv - tv) % ell == 0
                        for cv, tv in zip(chi.values, traces.values))
        mark(f"ell_witness_{ell}", congruent,
             f"the torsion representation mod {ell} (basis spanning "
             f"{basis.span_size} classes over the degree-{2 * basis.m} "
             f"extension) has per-class traces congruent to the cohomology character",
             ell=ell, m=basis.m, field_degree=2 * basis.m,
             jacobian_order=basis.jacobian_order,
             span=basis.span_size, traces=list(traces.values))
        ell_witness.append({
            "ell": ell,
            "m": basis.m,
            "field_degree": 2 * basis.m,
            "jacobian_order": basis.jacobian_order,
            "basis_size": len(basis.basis),
            "span": basis.span_size,
            "traces": list(traces.values),
            "congruent": congruent,
        })

    crt_block: dict
    if traces_by_ell and math.prod(traces_by_ell) > 2 * (p - 1):
        rec = jacobian.crt_reconstruct(p, traces_by_ell)
        mark("crt_reconstruction", rec.values == chi.values,
             "the integer class function recombined from all torsion traces "
             "equals the cohomology character exactly",
             reconstructed=list(rec.values))
        crt_block = {"status": "computed", "moduli": sorted(traces_by_ell),
                     "values": list(rec.values),
                     "equals_character": rec.values == chi.values}
    elif traces_by_ell:
        checks.append(Check(
            name="crt_reconstruction", status="skipped",
            claim="reconstruction skipped (bound): the available moduli product "
                  f"{math.prod(traces_by_ell)} does not exceed 2(p-1) = {2 * (p - 1)}",
            data={"moduli": sorted(traces_by_ell)}))
        crt_block = {"status": "skipped", "moduli": sorted(traces_by_ell),
                     "reason": "moduli product too small"}
    elif ells:
        checks.append(Check(
            name="crt_reconstruction", status="skipped",
            claim="reconstruction skipped (witness failed): no ell produced torsion traces",
            data={"moduli": []}))
        crt_block = {"status": "skipped", "moduli": [], "reason": "witness failed"}
    else:
        crt_block = {"status": "skipped", "moduli": [], "reason": "scale"}
    timings["ell_witness"] = time.monotonic() - t0

    # -- verdict ------------------------------------------------------------------------
    verdict = final_verdict(integral, ip, nu,
                            any(c.status == "fail" for c in checks))
    mark("verdict_obstructed", verdict["lifts"] == "obstructed",
         "all prerequisites hold: Schur index 2 is witnessed and the "
         "quotient construction cannot lift to characteristic 0",
         **verdict)

    timings["total"] = time.monotonic() - t_start
    return VerificationReport(
        prime=p,
        options=options,
        group_summary=group_summary,
        point_counts=point_counts,
        hasse_weil=hasse_weil,
        character_block=character_block,
        ell_witness=ell_witness,
        crt_block=crt_block,
        checks=checks,
        verdict=verdict,
        timings={k: round(v, 6) for k, v in timings.items()}
        if options.include_timings else None,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(report: VerificationReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _emit_json(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise UsageError(f"unknown format {fmt!r}")


def _emit_json(report: VerificationReport) -> bytes:
    o = report.options
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {
            "name": "roquette-verify",
            "version": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "input": {
            "prime": report.prime,
            "ell": list(o.ell) if o.ell is not None else None,
            "ell_bound": o.ell_bound,
            "seed": o.seed,
            "series_precision": o.series_precision,
        },
        "group": report.group_summary,
        "points": report.point_counts,
        "hasse_weil": report.hasse_weil,
        "character": report.character_block,
        "ell_witness": report.ell_witness,
        "crt": report.crt_block,
        "checks": [c.as_dict() for c in report.checks],
        "verdict": report.verdict,
        "cited_inferences": CITED_INFERENCES,
        "timings": report.timings,
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode()


_STATUS_MARK = {"pass": "\u2713", "fail": "\u2717", "skipped": "-"}


def _emit_markdown(report: VerificationReport) -> bytes:
    lines = []
    p = report.prime
    lines.append(f"# Lifting-obstruction verification for p = {p}")
    lines.append("")
    v = report.verdict
    headline = ("**Verdict: the quotient variety does not lift to characteristic 0"
                " (obstructed).**" if v["lifts"] == "obstructed"
                else "**Verdict: not determined.**")
    lines.append(headline)
    lines.append("")
    lines.append(f"- automorphism group order: {report.group_summary['order']}"
                 f" in {report.group_summary['class_count']} conjugacy classes")
    lines.append(f"- point counts: {report.point_counts['k1']} over F_p,"
                 f" {report.point_counts['k2']} over F_p^2"
                 f" (Frobenius sign {report.hasse_weil['epsilon']:+d})")
    lines.append(f"- character values by class: {report.character_block['values']}")
    lines.append(f"- Frobenius-Schur indicator: {report.character_block['fs_indicator']};"
                 f" norm: {report.character_block['inner_product']}")
    lines.append("")
    lines.append("## Checks")
    lines.append("")
    for c in report.checks:
        lines.append(f"- {_STATUS_MARK[c.status]} `{c.name}` - {c.claim}")
    lines.append("")
    lines.append("## Standard theory cited by the verdict (not recomputed)")
    lines.append("")
    for s in CITED_INFERENCES:
        lines.append(f"- {s}")
    lines.append("")
    if report.timings is not None:
        lines.append("## Timings (seconds)")
        lines.append("")
        for k, t in report.timings.items():
            lines.append(f"- {k}: {t}")
        lines.append("")
    return ("\n".join(lines)).encode()
