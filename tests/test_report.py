"""Pipeline orchestration, emission formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import roquette
from roquette import character as CH
from roquette import curve, ff, jacobian, series
from roquette import report as R
from roquette.cli import build_parser, main
from roquette.group import RoquetteGroup, get_group
from roquette.report import PipelineOptions, UsageError, emit, final_verdict, run_pipeline


OPTS_FAST = PipelineOptions(ell=(3,))


@pytest.fixture(scope="module")
def report5():
    return run_pipeline(5, OPTS_FAST)


def test_all_checks_pass_at_p5(report5):
    assert report5.failed == []
    statuses = {c["name"]: c["status"] for c in report5.checks}
    assert statuses["group_order"] == "pass"
    assert statuses["ell_witness_3"] == "pass"
    assert statuses["crt_reconstruction"] == "skipped"  # product 3 < 2(p-1)
    assert report5.verdict["lifts"] == "obstructed"
    assert report5.exit_code == 0


BASE_CHECKS = [
    "group_order", "square_root_group", "pgl_projection", "sylow_unipotent",
    "point_count_base", "point_count_quadratic", "hasse_weil_sharp",
    "char_degree", "char_involution", "char_order_p", "char_integral",
    "char_irreducible", "sylow_multiplicities", "fs_indicator", "char_faithful",
    "char_sign_rule", "wild_multiplicities",
]


def test_check_names_and_order(report5):
    assert [c["name"] for c in report5.checks] == BASE_CHECKS + [
        "ell_witness_3", "crt_reconstruction", "verdict_obstructed"]


def test_witness_failure_becomes_a_failed_check(monkeypatch):
    real = jacobian.torsion_basis

    def fails_at_7(G, ell, **kwargs):
        if ell == 7:
            raise RuntimeError("torsion basis search did not converge")
        return real(G, ell, **kwargs)

    monkeypatch.setattr(jacobian, "torsion_basis", fails_at_7)
    report = run_pipeline(5)
    assert [c["name"] for c in report.checks] == BASE_CHECKS + [
        "ell_witness_3", "ell_witness_7", "crt_reconstruction", "verdict_obstructed"]
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["ell_witness_3"] == "pass"
    assert [c["name"] for c in report.failed] == ["ell_witness_7", "verdict_obstructed"]
    assert report.failed[0]["data"] == {
        "ell": 7, "error": "torsion basis search did not converge"}
    # the failed ell stays out of the witness block and the CRT
    assert [w["ell"] for w in report.blocks["ell_witness"]] == [3]
    assert report.blocks["crt"] == {"status": "skipped", "moduli": [3],
                                     "reason": "moduli product too small"}
    assert report.verdict["lifts"] == "not determined"
    assert report.exit_code == 1


def test_cli_reports_a_failed_witness(monkeypatch, capsys):
    def left_the_span(G, basis):
        raise RuntimeError("image of a torsion class left the span")

    monkeypatch.setattr(jacobian, "rho_ell_traces", left_the_span)
    assert main(["--prime", "5", "--ell", "3", "--format", "json"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [c["name"] for c in doc["checks"]] == BASE_CHECKS + [
        "ell_witness_3", "crt_reconstruction", "verdict_obstructed"]
    failed = {c["name"]: c for c in doc["checks"] if c["status"] == "fail"}
    assert set(failed) == {"ell_witness_3", "verdict_obstructed"}
    assert failed["ell_witness_3"]["data"]["error"] == (
        "image of a torsion class left the span")
    assert doc["ell_witness"] == []
    assert doc["crt"] == {"status": "skipped", "moduli": [], "reason": "witness failed"}
    assert doc["verdict"]["lifts"] == "not determined"
    assert "FAILED: ell_witness_3" in captured.err


def _failed_stage(argv, capsys):
    """Run the CLI for a JSON report in which one stage raised; check the exit
    status, stderr and verdict, and return the report and that stage's check."""
    assert main([*argv, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    assert doc["verdict"]["lifts"] == "not determined"
    raised = [c for c in doc["checks"] if c["status"] == "fail" and "error" in c["data"]]
    assert len(raised) == 1
    return doc, raised[0]


def test_group_stage_failure_becomes_a_failed_check(fresh_groups, monkeypatch, capsys):
    monkeypatch.setattr(RoquetteGroup, "_centralizer_order", lambda self, g: 1)
    doc, failed = _failed_stage(["--prime", "11"], capsys)
    assert failed["name"] == "group"
    assert failed["data"]["error"] == (
        "the orbit of (1, 0, 0, 1, 1, 0) has 1 elements, but its class has 2640")
    # the classes come before any group check, and no later stage ran, so
    # no block was written and no fact is known
    assert [c["name"] for c in doc["checks"]] == ["group", "verdict_obstructed"]
    assert [doc[name] for name in R.BLOCKS] == [None] * len(R.BLOCKS)
    assert doc["verdict"]["fs_indicator"] is None
    assert doc["verdict"]["rationality_class_nontrivial"] is None
    # the markdown report survives too
    assert main(["--prime", "11"]) == 1
    text = capsys.readouterr().out
    assert "**Verdict: not determined.**" in text and "\u2717 `group`" in text


def test_a_matrix_enumerated_twice_changes_no_report_byte(report5, fresh_groups, monkeypatch):
    # the repeat finds its elements already in a class, and the checks read
    # the classes, not the walk
    real = RoquetteGroup._canonical_matrices

    def second_twice(self):
        for i, mat in enumerate(real(self)):
            yield mat
            if i == 1:
                yield mat
    monkeypatch.setattr(RoquetteGroup, "_canonical_matrices", second_twice)
    assert emit(run_pipeline(5, OPTS_FAST), "json") == emit(report5, "json")


def test_a_class_left_out_fails_the_class_equation(fresh_groups, monkeypatch):
    # every wild element reads the identity's slot, so the walk meets all
    # |G| elements but opens none of the two wild classes of p^2 - 1 each
    real = RoquetteGroup._slot
    monkeypatch.setattr(RoquetteGroup, "_slot", lambda self, g: real(
        self, self.identity if self.is_wild(g) else g))
    report = run_pipeline(11)
    failed = {c["name"]: c["data"] for c in report.failed}
    assert failed["group_order"] == {"counted": 2640 - 2 * 120, "expected": 2640}


def test_a_kernel_of_the_wrong_elements_fails_pgl_projection(fresh_groups, monkeypatch):
    # the involution's class swapped for another one-element class with
    # matrix part I: the class equation and the kernel's size still hold
    real = RoquetteGroup.conjugacy_classes.fget

    def forged(self):
        return tuple(((1, 0, 0, 1, 2, 0), size) if rep == self.involution else (rep, size)
                     for rep, size in real(self))
    monkeypatch.setattr(RoquetteGroup, "conjugacy_classes", property(forged))
    checks = {c["name"]: c for c in run_pipeline(11).checks}
    assert checks["group_order"]["status"] == "pass"
    assert checks["pgl_projection"]["status"] == "fail"
    assert checks["pgl_projection"]["data"] == {
        "kernel_size": 2, "image_size": 1320, "expected_image": 1320}


@pytest.mark.parametrize("p, options", [(13, PipelineOptions()), (5, OPTS_FAST)])
def test_a_run_walks_the_group_once(fresh_groups, monkeypatch, p, options):
    # the class search walks G and the group checks read its classes;
    # nothing else walks G (at p = 13 the witness is skipped)
    real, calls = RoquetteGroup._canonical_matrices, []

    def counted(self):
        calls.append(self.p)
        return real(self)
    monkeypatch.setattr(RoquetteGroup, "_canonical_matrices", counted)
    assert run_pipeline(p, options).exit_code == 0
    assert calls == [p]


def test_classes_p29_operation_counts(fresh_groups, count_calls, mul_calls):
    # machine-independent work counts of the classes-p29 benchmark workload:
    # the class search and the group checks, and the wild series (the
    # witness is skipped)
    series_muls = count_calls(series.TruncatedSeries, "__mul__")
    sqrt_calls = count_calls(ff, "sqrt")
    assert run_pipeline(29, PipelineOptions(max_prime=29)).exit_code == 0
    assert mul_calls[0] <= 296_796
    assert series_muls[0] <= 648
    assert sqrt_calls[0] <= 85


def test_pipeline_memory_stays_below_the_group_size(fresh_groups):
    # the group stage keeps per-slot tables of a few bytes, not sets or
    # dicts over G (those cost ~150 bytes an element)
    run_pipeline(5, OPTS_FAST)
    get_group.cache_clear()
    tracemalloc.start()
    try:
        run_pipeline(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * get_group(13).order


def test_points_stage_failure_becomes_a_failed_check(monkeypatch, capsys):
    def fails(p, k):
        raise ValueError("no points today")

    monkeypatch.setattr(curve, "point_count", fails)
    doc, failed = _failed_stage(["--prime", "5"], capsys)
    assert failed == {"name": "points", "status": "fail",
                      "claim": "the point counts could not be computed",
                      "data": {"error": "no points today"}}
    assert [c["name"] for c in doc["checks"]] == BASE_CHECKS[:4] + [
        "points", "verdict_obstructed"]
    assert doc["group"]["order"] == 240 and doc["points"] is None


def test_character_stage_failure_becomes_a_failed_check(monkeypatch, capsys):
    def fails(*args):
        raise RuntimeError("difference vanishes to precision")

    monkeypatch.setattr(series, "wild_translation_multiplicity", fails)
    doc, failed = _failed_stage(["--prime", "5"], capsys)
    assert failed["name"] == "character"
    assert failed["data"] == {"error": "difference vanishes to precision"}
    assert [c["name"] for c in doc["checks"]] == BASE_CHECKS[:7] + [
        "character", "verdict_obstructed"]
    assert doc["hasse_weil"]["sharp"] is True
    assert doc["character"] is doc["ell_witness"] is doc["crt"] is None
    assert doc["verdict"]["integer_valued"] is None


def test_failed_character_checks_carry_their_witnesses(monkeypatch):
    # chi(1) on the order-p class puts that class in the kernel and breaks
    # the sign rule there
    G = get_group(5)
    values = list(CH.lefschetz_character(G))
    k = G.class_of(G.unipotent())
    values[k] = values[G.class_of(G.identity)]
    monkeypatch.setattr(CH, "lefschetz_character",
                        lambda group: tuple(values))
    checks = {c["name"]: c for c in run_pipeline(5, OPTS_FAST).checks}
    assert checks["char_faithful"]["status"] == "fail"
    assert checks["char_faithful"]["data"] == {
        "kernel_size": 1 + G.conjugacy_classes[k][1],
        "kernel_classes": sorted([G.class_of(G.identity), k])}
    # the first class in class order whose partner under the involution is
    # not its negative is k or that partner, whichever comes first
    j = G.class_of(G.mul(G.conjugacy_classes[k][0], G.involution))
    first, other = min(k, j), max(k, j)
    assert checks["char_sign_rule"]["status"] == "fail"
    assert checks["char_sign_rule"]["data"] == {
        "class": first, "expected": -values[first], "found": values[other]}


def test_sylow_order_is_read_from_the_unipotent_class(monkeypatch):
    # element_order misreports the order of the unipotent's class as 2p;
    # no other check reads the class orders, so sylow_unipotent fails alone
    # and reports the order it was given
    G = get_group(5)
    k, real = G.class_of(G.unipotent()), RoquetteGroup.element_order
    monkeypatch.setattr(RoquetteGroup, "element_order",
                        lambda self, g: 10 if self.class_of(g) == k else real(self, g))
    report = run_pipeline(5, OPTS_FAST)
    assert [c["name"] for c in report.failed] == ["sylow_unipotent", "verdict_obstructed"]
    assert report.failed[0]["data"] == {
        "sylow_order": 10, "order_p_elements": 0, "order_p_classes": 0}
    assert report.blocks["character"]["class_orders"][k] == 10


def _fails_alone(report, name) -> dict:
    """The data of check `name`, which must be the one failed check besides
    the verdict; the markdown report must print its witness under it."""
    assert [c["name"] for c in report.failed] == [name, "verdict_obstructed"]
    data = report.failed[0]["data"]
    text = emit(report, "markdown").decode()
    assert (f"`{name}` - {report.failed[0]['claim']}\n  - first mismatch at class "
            f"{data['class']}: expected {data['expected']}, found {data['found']}\n") in text
    return data


def test_sign_rule_fails_alone_and_names_its_class(monkeypatch):
    # the partner of the order-p class under the involution is looked up as
    # the identity's class; no other check asks for that element's class
    G = get_group(5)
    chi = CH.lefschetz_character(G)
    k, one = G.class_of(G.unipotent()), G.class_of(G.identity)
    partner = G.mul(G.conjugacy_classes[k][0], G.involution)
    real = RoquetteGroup.class_of
    monkeypatch.setattr(RoquetteGroup, "class_of",
                        lambda self, g: one if g == partner else real(self, g))
    data = _fails_alone(run_pipeline(5, OPTS_FAST), "char_sign_rule")
    assert data == {"class": k, "expected": -chi[k], "found": chi[one]}


def test_ell_witness_fails_alone_and_names_its_class(monkeypatch):
    # two traces off by one mod 3: the witness is the first of the two
    G = get_group(5)
    chi = CH.lefschetz_character(G)
    i, j = sorted((G.class_of(G.unipotent()), len(chi) - 1))
    real = jacobian.rho_ell_traces

    def shifted(group, basis):
        traces = list(real(group, basis))
        for c in (i, j):
            traces[c] = (traces[c] + 1) % basis.ell
        return tuple(traces)
    monkeypatch.setattr(jacobian, "rho_ell_traces", shifted)
    report = run_pipeline(5, OPTS_FAST)  # one ell: crt is skipped
    data = _fails_alone(report, "ell_witness_3")
    assert (data["class"], data["expected"], data["found"]) == (
        i, chi[i] % 3, (chi[i] + 1) % 3)
    assert report.blocks["ell_witness"][0]["congruent"] is False


def test_crt_fails_alone_and_names_its_class(monkeypatch):
    # the recombined values are changed at two classes after the fact; the
    # traces stay congruent, so no witness check fails
    G = get_group(5)
    chi = CH.lefschetz_character(G)
    i, j = sorted((G.class_of(G.involution), len(chi) - 1))
    real = jacobian.crt_reconstruct

    def off(p, traces):
        rec = list(real(p, traces))
        rec[i], rec[j] = rec[i] + 21, rec[j] - 21
        return tuple(rec)
    monkeypatch.setattr(jacobian, "crt_reconstruct", off)
    report = run_pipeline(5, PipelineOptions(ell=(3, 7)))
    data = _fails_alone(report, "crt_reconstruction")
    assert (data["class"], data["expected"], data["found"]) == (i, chi[i], chi[i] + 21)
    assert report.blocks["crt"]["equals_character"] is False


def test_every_check_carries_claim_and_status(report5):
    for c in report5.checks:
        assert list(c) == ["name", "status", "claim", "data"]
        assert c["status"] in ("pass", "fail", "skipped")
        assert isinstance(c["claim"], str) and c["claim"]


def test_json_round_trip(report5):
    raw = emit(report5, "json")
    doc = json.loads(raw)
    assert doc["schema_version"] == "1.0.0"
    assert doc["input"]["prime"] == 5
    assert doc["group"]["order"] == 240
    assert doc["points"] == {"k1": 6, "k2": 6, "k1_expected": 6, "k2_expected": 6}
    assert doc["character"]["fs_indicator"] == -1
    assert doc["verdict"]["schur_index_witness"] == 2
    assert doc["verdict"]["lifts"] == "obstructed"
    assert doc["timings"] is None
    # integers survive exactly (no floats anywhere)
    def no_floats(node):
        if isinstance(node, float):
            return False
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return True
    assert no_floats(doc)


def test_json_byte_determinism():
    a = emit(run_pipeline(5, PipelineOptions(ell=(3,), seed=11)), "json")
    b = emit(run_pipeline(5, PipelineOptions(ell=(3,), seed=11)), "json")
    assert a == b


@pytest.mark.parametrize("p, seeds", [(5, (0, 1, 2)), (7, (0, 1))])
def test_reports_differ_only_in_the_seed(p, seeds):
    # the seed picks the random divisors of the torsion search, never a result
    docs = [json.loads(emit(run_pipeline(p, PipelineOptions(ell=(3,), seed=s)), "json"))
            for s in seeds]
    for s, doc in zip(seeds, docs):
        assert doc["input"]["seed"] == s
        doc["input"]["seed"] = None
    assert all(doc == docs[0] for doc in docs[1:])


def test_report_does_not_depend_on_the_fp2_root(monkeypatch):
    # metamorphic: lambda realized through the other root of the F_{p^2}
    # modulus turns each g into its Frobenius conjugate g^(p), which keeps
    # every trace and fixed-point count (curve._fp2_root), so the report
    # with both witnesses at p = 5 keeps every byte
    before = emit(run_pipeline(5), "json")
    root, m1 = curve._fp2_root, get_group(5).fp2.modulus[1]
    fields = []

    def other_root(target):
        fields.append(target)
        return -(root(target) + m1)
    monkeypatch.setattr(curve, "_fp2_root", other_root)
    try:
        after = emit(run_pipeline(5), "json")
        swapped = {F.k for F in set(fields) if -(root(F) + m1) != root(F)}
    finally:
        root.cache_clear()
    assert swapped == {4, 12}  # both witness fields, ell = 3 and 7
    assert after == before


def test_markdown_checklist(report5):
    text = emit(report5, "markdown").decode()
    assert "does not lift to characteristic 0" in text
    for c in report5.checks:
        assert f"`{c['name']}`" in text
    # one status mark per check line
    marks = [line for line in text.splitlines() if line.startswith("- ")
             and "`" in line]
    assert len(marks) == len(report5.checks)
    assert any(line.startswith("- \u2713") for line in marks)


def test_unknown_format_rejected(report5):
    with pytest.raises(UsageError):
        emit(report5, "yaml")


def test_select_ells():
    assert jacobian.witness_ells(5, None, 10_000) == (3, 7)
    assert jacobian.witness_ells(7, None, 10_000) == (3,)
    assert jacobian.witness_ells(11, None, 10_000) == ()
    assert jacobian.witness_ells(13, None, 10_000) == ()
    assert jacobian.witness_ells(3, None, 10_000) in ((5, 7), ())
    # 11^4 fits 10^6, but the selection stops at two ells
    assert jacobian.witness_ells(5, None, 10 ** 6) == (3, 7)


def test_select_ells_stops_at_the_bound(monkeypatch):
    # already 3^28 exceeds the bound, so no candidate is even tested
    calls, real = [], ff.is_prime

    def counted(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(ff, "is_prime", counted)
    assert jacobian.witness_ells(29, None, 10 ** 5) == ()
    assert calls == []
    assert jacobian.witness_ells(29, None, 10 ** 7) == ()
    assert jacobian.witness_ells(5, None, 10_000) == (3, 7)
    assert calls == [3, 7]  # 5 = p is skipped before the prime test


def test_quadratic_count_enumerated_once(monkeypatch):
    # the sharpness check and the hasse_weil block reuse the counted n2, and
    # the witness (run at p = 5, for ell = 3 and 7) counts no points itself
    calls, real = [], curve.point_count

    def counted(p, k):
        calls.append((p, k))
        return real(p, k)
    monkeypatch.setattr(curve, "point_count", counted)
    rep = run_pipeline(11)
    assert calls.count((11, 2)) == 1
    assert rep.blocks["hasse_weil"] == {"count": 232, "gap": 110, "expected_gap": 110,
                                        "epsilon": -1, "sharp": True}
    rep = run_pipeline(5)
    assert [w["ell"] for w in rep.blocks["ell_witness"]] == [3, 7]
    assert calls.count((5, 2)) == 1
    assert rep.blocks["hasse_weil"] == {"count": 6, "gap": 20, "expected_gap": 20,
                                        "epsilon": 1, "sharp": True}


def test_pipeline_options_fields_and_defaults():
    assert PipelineOptions._fields == ("ell", "ell_bound", "seed", "series_precision",
                                       "max_prime", "include_timings")
    assert tuple(PipelineOptions()) == (None, 10_000, 0, None, 31, False)
    with pytest.raises(TypeError):
        PipelineOptions(prime=5)
    options = PipelineOptions(seed=3)
    with pytest.raises(AttributeError):
        options.seed = 4
    assert options.seed == 3


def test_import_loads_no_class_or_rational_machinery():
    # roquette builds its records from collections.namedtuple and its
    # quotients from character.exact_quotient, so a bare interpreter that
    # imports it loads none of these
    heavy = ("dataclasses", "fractions", "decimal", "inspect", "ast", "typing")
    src = str(Path(roquette.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import roquette; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_prime_help_states_the_default_maximum():
    # no flag sets max_prime, so the help names the default bound
    text = " ".join(build_parser().format_help().split())
    assert f"the prime p (5 <= p <= {PipelineOptions().max_prime})" in text


def test_cli_defaults_come_from_the_pipeline_options(monkeypatch):
    # --ell-bound and --seed take their defaults and the help its numbers
    # from PipelineOptions, so changing the defaults there changes both
    def parsed():
        ap = build_parser()
        return ap.parse_args(["--prime", "5"]), " ".join(ap.format_help().split())
    ns, text = parsed()
    assert (ns.ell_bound, ns.seed) == (PipelineOptions().ell_bound, PipelineOptions().seed)
    assert "ell^(2g) (default 10000)" in text and "sampling (default 0)" in text
    monkeypatch.setattr(PipelineOptions, "ell_bound", 777)
    monkeypatch.setattr(PipelineOptions, "seed", 5)
    ns, text = parsed()
    assert (ns.ell_bound, ns.seed) == (777, 5)
    assert "ell^(2g) (default 777)" in text and "sampling (default 5)" in text


def test_usage_errors(capsys):
    with pytest.raises(UsageError):
        run_pipeline(4)
    with pytest.raises(UsageError):
        run_pipeline(3)
    with pytest.raises(UsageError):
        run_pipeline(37)  # beyond default max_prime
    with pytest.raises(UsageError):
        run_pipeline(5, PipelineOptions(ell=(5,)))     # ell = p
    with pytest.raises(UsageError):
        run_pipeline(5, PipelineOptions(ell=(2,)))     # even ell
    with pytest.raises(UsageError):
        run_pipeline(5, PipelineOptions(ell=(11,)))    # over the bound
    for bad in (PipelineOptions(series_precision=0),
                PipelineOptions(series_precision=-3),
                PipelineOptions(series_precision=1),
                PipelineOptions(series_precision=15),
                PipelineOptions(series_precision=14),   # 2p+4, the fixed window
                PipelineOptions(ell_bound=-5),
                PipelineOptions(ell=(3, 3)),
                PipelineOptions(ell=())):
        with pytest.raises(UsageError):
            run_pipeline(5, bad)
    # on the command line each is one line on stderr and exit status 2
    for args in (["--precision", "0"], ["--precision", "-3"], ["--precision", "1"],
                 ["--precision", "14"], ["--precision", "15"],
                 ["--precision", str(10 ** 6)],
                 ["--ell-bound", "-5"], ["--ell", "3,3"], ["--ell", ""],
                 ["--ell", "1"], ["--ell", "9"], ["--ell", "3,x"]):
        assert main(["--prime", "5", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # so is every error the argument parser finds, and every bad prime
    for argv in (["--prime", "5", "--seed", "x"], ["--prime", "5", "--format", "xml"],
                 ["--prime", "five"], [], ["--prime", "0"], ["--prime", "-7"],
                 ["--prime", "32"], ["--prime", str(10 ** 40)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: verify")


@pytest.mark.parametrize("p", [5, 31])
def test_cli_huge_ell_names_ell_and_the_bound(capsys, p):
    # ell^(2g) has 97 digits at p = 5 and about 720 at p = 31; the line
    # names ell and the bound, not that power
    ell = "1000000000000000000000007"
    assert main(["--prime", str(p), "--ell", ell]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120
    assert f"ell = {ell}" in err and "exceeds the bound 10000" in err


def test_huge_inputs_fail_the_bounds_before_any_prime_test(monkeypatch):
    # trial division of either number would not finish; the size bounds
    # must reject both before is_prime sees them
    real = ff.is_prime

    def small_only(n):
        if n > 10 ** 6:
            raise AssertionError(f"is_prime called on {n}")
        return real(n)
    # the one prime test, which make_field and witness_ells both call
    monkeypatch.setattr(ff, "is_prime", small_only)
    with pytest.raises(UsageError, match="exceeds the configured maximum"):
        run_pipeline(100000000000000000039)
    with pytest.raises(UsageError, match="exceeds the bound"):
        run_pipeline(5, PipelineOptions(ell=(1000000000000000000000007,)))


def test_skip_reason_at_scale():
    report = run_pipeline(11, PipelineOptions())
    skip = next(c for c in report.checks if c["name"] == "ell_witness")
    assert skip["status"] == "skipped"
    assert "scale" in skip["claim"]
    assert report.verdict["lifts"] == "obstructed"
    assert report.exit_code == 0


@pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
def test_wide_prime_range_obstructed(p):
    report = run_pipeline(p)
    assert report.blocks["character"]["inner_product"] == 1
    assert report.blocks["character"]["fs_indicator"] == -1
    skip = next(c for c in report.checks if c["name"] == "ell_witness")
    assert skip["status"] == "skipped" and "scale" in skip["claim"]
    assert report.failed == []
    assert report.verdict["lifts"] == "obstructed"


def test_verdict_monotone_under_fault_injection(group5):
    chi = CH.lefschetz_character(group5)
    facts = (all(isinstance(v, int) for v in chi),
             CH.inner_product(group5, chi, chi), CH.fs_indicator(group5, chi))
    assert final_verdict(*facts, any_failures=False)["lifts"] == "obstructed"
    # any failed check anywhere flips the verdict away from obstructed
    assert final_verdict(*facts, any_failures=True)["lifts"] == "not determined"
    # and a broken witness can never be rescued by passing checks
    broken = final_verdict(True, Fraction(1), Fraction(1), any_failures=False)
    assert broken["schur_index_witness"] is None
    assert broken["lifts"] == "not determined"


def test_verdict_facts_computed_once(monkeypatch):
    # the verdict reuses the norm and indicator its checks computed
    calls = {"inner_product": 0, "fs_indicator": 0}
    for name in calls:
        real = getattr(CH, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(CH, name, counted)
    report = run_pipeline(11)
    assert report.verdict["lifts"] == "obstructed"
    assert calls == {"inner_product": 1, "fs_indicator": 1}


def test_fault_injection_every_check(report5):
    # flipping each individual pass to fail must drop the exit status
    import copy
    for i, c in enumerate(report5.checks):
        if c["status"] != "pass":
            continue
        mutated = copy.deepcopy(report5)
        mutated.checks[i]["status"] = "fail"
        assert mutated.exit_code == 1
    # the exit status reads the checks alone: verdict_obstructed already
    # fails whenever the verdict is not "obstructed"
    undetermined = report5._replace(verdict={**report5.verdict, "lifts": "not determined"})
    assert undetermined.exit_code == 0


def test_cli_markdown_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = main(["--prime", "5", "--ell", "3", "--format", "markdown",
                 "--out", str(out)])
    assert code == 0
    assert "obstructed" in out.read_text()

    assert main(["--prime", "4"]) == 2
    assert main(["--prime", "5", "--ell", "banana"]) == 2
    capsys.readouterr()


def test_cli_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    code = main(["--prime", "11", "--out", str(tmp_path / "missing" / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write the report") and err.count("\n") == 1


def test_cli_closed_stdout_exits_2_with_one_line():
    # stdout is a pipe whose reader is gone, as in `verify ... | head -c 0`
    env = dict(os.environ, PYTHONPATH=str(Path(roquette.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "roquette", "--prime", "11"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("error: stdout was closed") and err.count("\n") == 1


def test_cli_json_to_stdout(capsys):
    code = main(["--prime", "5", "--ell", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["verdict"]["lifts"] == "obstructed"


def test_timings_flag_included(tmp_path):
    report = run_pipeline(5, PipelineOptions(ell=(3,), include_timings=True))
    assert report.timings is not None and "total" in report.timings
