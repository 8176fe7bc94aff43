"""Pipeline orchestration and report emission.

run_pipeline validates its input, runs the stages in order, times each one
and decides the verdict.  A stage is a function of one _Run that records
its checks and writes its blocks into `blocks`, keyed by their names in the
JSON report: group (group), points (points, hasse_weil), character
(character), one ell_witness_<ell> per ell (ell_witness) and crt (crt).
A stage that raises becomes one failed check named after the stage, with
the exception's text in data["error"].  A failure in group, points or
character ends the run, since every later stage needs its facts; a failed
ell leaves the other ells and crt to run.  The verdict is always decided,
in final_verdict, from the facts the character checks computed and whether
any check failed.  A fact that was not computed is null, and so is the
block of a stage that did not complete.

emit writes the report as deterministic JSON (schema-versioned, fixed key
order, exact integers) or as a markdown checklist.  It separates what the
machine verified from the standard theory the inference cites, which is
listed, never recomputed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__, character, curve, jacobian
from .ff import is_prime, multiplicative_order
from .group import get_group

SCHEMA_VERSION = "1.0.0"

# the report's blocks, in the order the JSON report lists them
BLOCKS = ("group", "points", "hasse_weil", "character", "ell_witness", "crt")

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
    blocks: dict         # name in BLOCKS -> block, for the stages that completed
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


def _first_mismatch(expected, found) -> dict:
    """The first class where two class functions differ, as a failed
    check's witness {"class", "expected", "found"}; {} when they agree."""
    return next(({"class": i, "expected": e, "found": f}
                 for i, (e, f) in enumerate(itertools.zip_longest(expected, found))
                 if e != f), {})


def select_ells(p: int, bound: int) -> tuple:
    """Up to two smallest odd primes != p whose full torsion fits the bound."""
    out = []
    cand = 3
    while len(out) < 2 and cand ** (p - 1) <= bound:
        if cand != p and is_prime(cand):
            out.append(cand)
        cand += 2
    return tuple(out)


def final_verdict(integer_valued: bool | None, norm: Fraction | None,
                  fs_indicator: Fraction | None, any_failures: bool) -> dict:
    """Decide the obstruction from the facts the checks computed.

    An integer-valued character of norm 1 with Frobenius-Schur indicator
    -1 is quaternionic, so its Schur index over Q is 2; a multiplicity-one
    character is not divisible by that index, so it is not realizable over
    Q and the lift is blocked.  The verdict is monotone: any failed check
    blocks 'obstructed'.  A fact that was not computed is None, as is all
    that rests on it."""
    known = None not in (integer_valued, norm, fs_indicator)
    witnessed = known and integer_valued and norm == 1 and fs_indicator == -1
    return {
        "integer_valued": integer_valued,
        "irreducible": None if norm is None else norm == 1,
        "fs_indicator": _json_num(fs_indicator),
        "schur_index_witness": 2 if witnessed else None,
        "rationality_class_nontrivial": witnessed if known else None,
        "lifts": "obstructed" if witnessed and not any_failures else "not determined",
    }


class _Run:
    """What the stages of one run share.  G, class_orders, chi and the
    verdict's facts (integral, norm, fs) stay None until a stage sets them."""

    def __init__(self, p: int, options: PipelineOptions, ells: tuple):
        self.p, self.options, self.ells = p, options, ells
        self.checks, self.blocks, self.traces = [], {}, {}  # traces: ell -> traces
        self.G = self.class_orders = self.chi = None
        self.integral = self.norm = self.fs = None

    def mark(self, name, ok, claim, **data):
        """Record a check: passed, failed, or skipped when ok is None."""
        status = "skipped" if ok is None else "pass" if ok else "fail"
        self.checks.append(Check(name, status, claim, data))
        return ok


class _Stage(NamedTuple):
    name: str
    run: Callable[[_Run], None]
    failure: str        # the claim of the failed check when run raises
    data: dict = {}     # the rest of that check's data
    fatal: bool = True  # a failure ends the run


def _group_stage(run: _Run) -> None:
    p = run.p
    G = run.G = get_group(p)
    # classes and census first, so a failed class certificate records no check
    classes = G.conjugacy_classes
    n_elements, image_size, ker = G.census
    expected_order = 2 * p * (p * p - 1)
    run.mark("group_order", n_elements == expected_order,
             f"full enumeration finds 2p(p^2-1) = {expected_order} automorphisms",
             counted=n_elements, expected=expected_order)
    sqrt_grp = G.sqrt_group_elements()
    # every el^2 lies in F_p^x, so el^(2(p-1)) = 1
    n_sqrt = 2 * (p - 1)
    one = G.fp2.one()
    cyclic = any(multiplicative_order(n_sqrt, lambda e: el ** e == one) == n_sqrt
                 for el in sqrt_grp)
    run.mark("square_root_group", len(sqrt_grp) == n_sqrt and cyclic,
             f"square roots of prime-field units form a cyclic group of order 2(p-1) = {2 * (p - 1)}",
             size=len(sqrt_grp), cyclic=cyclic)
    # |image| |kernel| = |G| also catches a matrix enumerated twice
    run.mark("pgl_projection",
             ker == (G.identity, G.involution) and image_size * 2 == n_elements == expected_order,
             "the projective action is onto PGL_2(F_p) with kernel {1, involution}",
             kernel_size=len(ker), image_size=image_size,
             expected_image=p * (p * p - 1))
    run.class_orders = [G.element_order(c.rep) for c in classes]
    stats: dict = {}
    for c, n in zip(classes, run.class_orders):
        stats[n] = stats.get(n, 0) + c.size
    order_p_classes = [c for c, n in zip(classes, run.class_orders)
                       if G.is_wild(c.rep) and n == p]
    sylow = G.sylow_p_subgroup()
    run.mark("sylow_unipotent",
             len(sylow) == p and stats.get(p, 0) == p * p - 1
             and len(order_p_classes) == 1 and order_p_classes[0].size == p * p - 1,
             f"the unipotent subgroup has order p and all {p * p - 1} order-p elements are conjugate",
             sylow_order=len(sylow), order_p_elements=stats.get(p, 0),
             order_p_classes=len(order_p_classes))
    run.blocks["group"] = {
        "order": n_elements, "class_count": len(classes),
        "class_sizes": [c.size for c in classes],
        "order_statistics": {str(k): v for k, v in sorted(stats.items())}}


def _points_stage(run: _Run) -> None:
    p = run.p
    n1 = curve.point_count(p, 1)
    run.mark("point_count_base", n1 == p + 1,
             f"the curve has p+1 = {p + 1} points over the prime field",
             counted=n1, expected=p + 1)
    n2 = curve.point_count(p, 2)
    expected2 = curve.expected_quadratic_count(p)
    run.mark("point_count_quadratic", n2 == expected2,
             f"over the quadratic extension the count is {expected2} "
             f"(p = {p % 4} mod 4 branch of the dichotomy)",
             counted=n2, expected=expected2)
    gap, expected_gap = abs(n2 - (1 + p * p)), p * (p - 1)
    eps = curve.frobenius_sign(p)
    sharp = run.mark("hasse_weil_sharp", gap == expected_gap,
                     f"the quadratic point count meets the bound |N - (1+p^2)| = p(p-1) = {expected_gap} exactly",
                     gap=gap, expected_gap=expected_gap, epsilon=eps)
    run.blocks["points"] = {"k1": n1, "k2": n2, "k1_expected": p + 1,
                            "k2_expected": expected2}
    run.blocks["hasse_weil"] = {"count": n2, "gap": gap, "expected_gap": expected_gap,
                                "epsilon": eps, "sharp": sharp}


def _character_stage(run: _Run) -> None:
    p, G = run.p, run.G
    classes = G.conjugacy_classes
    chi = run.chi = character.lefschetz_character(G, run.options.series_precision)
    id_idx = G.class_of(G.identity)
    run.mark("char_degree", chi[id_idx] == p - 1,
             f"the cohomology character has degree 2g = p-1 = {p - 1}",
             value=chi[id_idx])
    run.mark("char_involution",
             chi[G.class_of(G.involution)] == -(p - 1),
             "the hyperelliptic involution acts as -1, so its trace is -(p-1)",
             value=chi[G.class_of(G.involution)])
    n_chi = character.order_p_value(G, chi)
    run.mark("char_order_p", n_chi == -1,
             "order-p elements have trace -1 (fixed-point multiplicity 3 at infinity)",
             value=n_chi)
    run.integral = run.mark("char_integral",
                            all(isinstance(v, int) for v in chi),
                            "every character value is a rational integer",
                            values=list(chi))
    ip = run.norm = character.inner_product(G, chi, chi)
    run.mark("char_irreducible", ip == 1,
             "the character has norm 1, hence is absolutely irreducible",
             inner_product=_json_num(ip))
    triv_mult, nontriv_mult = character.sylow_restriction(G, chi)
    run.mark("sylow_multiplicities", (triv_mult, nontriv_mult) == (0, 1),
             "restricted to the order-p subgroup: trivial character 0 times, every "
             "nontrivial once (closed form, using that the nontrivial values of a "
             "character of a cyclic group of order p sum to -1)",
             trivial=_json_num(triv_mult), nontrivial=_json_num(nontriv_mult))
    nu = run.fs = character.fs_indicator(G, chi)
    run.mark("fs_indicator", nu == -1,
             "the Frobenius-Schur indicator is -1: the representation is quaternionic",
             value=_json_num(nu))
    kernel = character.kernel_of_character(G, chi)
    unfaithful = {} if kernel == [id_idx] else {"kernel_classes": kernel}
    run.mark("char_faithful", not unfaithful,
             "the character kernel is trivial: the action on cohomology is faithful",
             kernel_size=sum(classes[i].size for i in kernel), **unfaithful)
    sign_witness = _first_mismatch(
        [-v for v in chi], [chi[G.class_of(G.mul(c.rep, G.involution))] for c in classes])
    run.mark("char_sign_rule", not sign_witness,
             "multiplying by the central involution negates every character value",
             **sign_witness)
    wild_ok, wild_data = True, {}
    for c in classes:
        if G.is_wild(c.rep):
            sign = G.wild_sign(c.rep)
            L = curve.fixed_scheme_degree(G, c.rep, run.options.series_precision)
            wild_data[f"sign_{sign:+d}"] = L
            wild_ok = wild_ok and (L == 3 if sign == 1 else L == 1)
    run.mark("wild_multiplicities", wild_ok and len(wild_data) == 2,
             "wild fixed points carry multiplicity 3 (order p) and 1 (order 2p)",
             **wild_data)
    run.blocks["character"] = {
        "values": list(chi), "class_sizes": [c.size for c in classes],
        "class_orders": run.class_orders, "inner_product": _json_num(ip),
        "fs_indicator": _json_num(nu),
        "sylow_multiplicities": [_json_num(triv_mult), _json_num(nontriv_mult)]}


def _witness_stage(run: _Run, ell: int) -> None:
    entries = run.blocks.setdefault("ell_witness", [])
    basis = jacobian.torsion_basis(run.G, ell, seed=run.options.seed,
                                   bound=run.options.ell_bound)
    traces = run.traces[ell] = jacobian.rho_ell_traces(run.G, basis)
    witness = _first_mismatch([v % ell for v in run.chi], [t % ell for t in traces])
    entry = {"ell": ell, "m": basis.m, "field_degree": 2 * basis.m,
             "jacobian_order": basis.jacobian_order, "basis_size": len(basis.basis),
             "span": basis.span_size, "traces": list(traces),
             "congruent": not witness}
    run.mark(f"ell_witness_{ell}", not witness,
             f"the torsion representation mod {ell} (basis spanning "
             f"{basis.span_size} classes over the degree-{2 * basis.m} "
             f"extension) has per-class traces congruent to the cohomology character",
             **{k: v for k, v in entry.items() if k not in ("basis_size", "congruent")},
             **witness)
    entries.append(entry)


def _witness_skipped(run: _Run) -> None:
    run.blocks["ell_witness"] = []
    run.mark("ell_witness", None,
             "torsion witness skipped (scale): no odd prime has "
             f"ell^(2g) within the bound {run.options.ell_bound} at p = {run.p}",
             bound=run.options.ell_bound)


def _crt_stage(run: _Run) -> None:
    p, traces, moduli = run.p, run.traces, sorted(run.traces)
    if traces and math.prod(traces) > 2 * (p - 1):
        rec = jacobian.crt_reconstruct(p, traces)
        witness = _first_mismatch(run.chi, rec)
        run.mark("crt_reconstruction", not witness,
                 "the integer class function recombined from all torsion traces "
                 "equals the cohomology character exactly",
                 reconstructed=list(rec), **witness)
        run.blocks["crt"] = {"status": "computed", "moduli": moduli,
                             "values": list(rec),
                             "equals_character": not witness}
    elif traces:
        run.mark("crt_reconstruction", None,
                 "reconstruction skipped (bound): the available moduli product "
                 f"{math.prod(traces)} does not exceed 2(p-1) = {2 * (p - 1)}",
                 moduli=moduli)
        run.blocks["crt"] = {"status": "skipped", "moduli": moduli,
                             "reason": "moduli product too small"}
    elif run.ells:
        run.mark("crt_reconstruction", None,
                 "reconstruction skipped (witness failed): no ell produced torsion traces",
                 moduli=[])
        run.blocks["crt"] = {"status": "skipped", "moduli": [], "reason": "witness failed"}
    else:
        run.blocks["crt"] = {"status": "skipped", "moduli": [], "reason": "scale"}


def _stages(ells: tuple) -> list:
    witness = [_Stage(f"ell_witness_{ell}", functools.partial(_witness_stage, ell=ell),
                      f"the torsion representation mod {ell} could not be computed",
                      {"ell": ell}, fatal=False) for ell in ells]
    return [_Stage("group", _group_stage, "the automorphism group could not be computed"),
            _Stage("points", _points_stage, "the point counts could not be computed"),
            _Stage("character", _character_stage, "the character could not be computed"),
            *(witness or [_Stage("ell_witness", _witness_skipped,
                                 "the torsion witness could not be computed")]),
            _Stage("crt", _crt_stage, "the CRT reconstruction could not be computed")]


def run_pipeline(p: int, options: PipelineOptions | None = None) -> VerificationReport:
    options = options or PipelineOptions()
    t_start = time.monotonic()
    # the size bounds come before the trial-division prime tests, which
    # would not finish on a huge input
    if p > options.max_prime:
        raise UsageError(
            f"p = {p} exceeds the configured maximum {options.max_prime}")
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if p < 5:
        raise UsageError("p must be at least 5 (the curve needs genus >= 2)")
    # the wild series retries only below the default window 2p+4, so a
    # larger one cannot change the report
    if options.series_precision is not None and not (
            2 <= options.series_precision <= 2 * p + 4):
        raise UsageError(f"series precision must be between 2 and 2p+4 = "
                         f"{2 * p + 4}, got {options.series_precision}")
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
    run = _Run(p, options, ells)
    timings: dict = {}
    for stage in _stages(run.ells):
        t0 = time.monotonic()
        try:
            stage.run(run)
        except Exception as exc:  # the report keeps it as a failed check
            run.mark(stage.name, False, stage.failure, **stage.data, error=str(exc))
            if stage.fatal:
                break
        finally:
            timings[stage.name] = time.monotonic() - t0
    verdict = final_verdict(run.integral, run.norm, run.fs,
                            any(c.status == "fail" for c in run.checks))
    run.mark("verdict_obstructed", verdict["lifts"] == "obstructed",
             "all prerequisites hold: Schur index 2 is witnessed and the "
             "quotient construction cannot lift to characteristic 0",
             **verdict)
    timings["total"] = time.monotonic() - t_start
    return VerificationReport(
        prime=p, options=options, blocks=run.blocks, checks=run.checks, verdict=verdict,
        timings={k: round(v, 6) for k, v in timings.items()}
        if options.include_timings else None)


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
        **{name: report.blocks.get(name) for name in BLOCKS},
        "checks": [c.as_dict() for c in report.checks],
        "verdict": report.verdict,
        "cited_inferences": CITED_INFERENCES,
        "timings": report.timings,
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode()


_STATUS_MARK = {"pass": "\u2713", "fail": "\u2717", "skipped": "-"}


def _emit_markdown(report: VerificationReport) -> bytes:
    headline = ("**Verdict: the quotient variety does not lift to characteristic 0"
                " (obstructed).**" if report.verdict["lifts"] == "obstructed"
                else "**Verdict: not determined.**")
    lines = [f"# Lifting-obstruction verification for p = {report.prime}", "",
             headline, ""]
    # a block whose stage did not complete leaves its summary line out
    b = report.blocks
    if "group" in b:
        lines.append(f"- automorphism group order: {b['group']['order']}"
                     f" in {b['group']['class_count']} conjugacy classes")
    if "points" in b:
        lines.append(f"- point counts: {b['points']['k1']} over F_p,"
                     f" {b['points']['k2']} over F_p^2"
                     f" (Frobenius sign {b['hasse_weil']['epsilon']:+d})")
    if "character" in b:
        lines.append(f"- character values by class: {b['character']['values']}")
        lines.append(f"- Frobenius-Schur indicator: {b['character']['fs_indicator']};"
                     f" norm: {b['character']['inner_product']}")
    lines += ["", "## Checks", ""]
    for c in report.checks:
        lines.append(f"- {_STATUS_MARK[c.status]} `{c.name}` - {c.claim}")
        if c.status == "fail" and "class" in c.data:
            lines.append(f"  - first mismatch at class {c.data['class']}: expected"
                         f" {c.data['expected']}, found {c.data['found']}")
    lines += ["", "## Standard theory cited by the verdict (not recomputed)", ""]
    lines += [f"- {s}" for s in CITED_INFERENCES] + [""]
    if report.timings is not None:
        lines += ["## Timings (seconds)", ""]
        lines += [f"- {k}: {t}" for k, t in report.timings.items()] + [""]
    return ("\n".join(lines)).encode()
