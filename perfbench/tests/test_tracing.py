from conftest import run_small
from tracing import COUNT_POINTS, GROUP_MUL_POINTS, SPAN_POINTS, Tracer, _resolve

ALL_POINTS = SPAN_POINTS + COUNT_POINTS + GROUP_MUL_POINTS


def snapshot():
    return {(m, p): _resolve(m, p)[2] for m, p, _ in ALL_POINTS}


def traced_run(tracer):
    tracer.install(SPAN_POINTS, "span")
    tracer.install(COUNT_POINTS, "count")
    try:
        return run_small()
    finally:
        tracer.uninstall()


def test_every_entry_point_exists():
    t = Tracer("t")
    t.install(ALL_POINTS)
    t.uninstall()
    assert t.missing == []


def test_uninstall_restores_the_originals():
    before = snapshot()
    t = Tracer("t")
    t.install(SPAN_POINTS, "span")
    t.install(COUNT_POINTS + GROUP_MUL_POINTS, "count")
    assert all(_resolve(m, p)[2] is not before[(m, p)] for m, p, _ in ALL_POINTS)
    t.uninstall()
    assert snapshot() == before
    assert all(_resolve(m, p)[2] is before[(m, p)] for m, p, _ in ALL_POINTS)


def test_uninstall_restores_after_an_exception():
    import roquette
    before = snapshot()
    t = Tracer("t")
    t.install(SPAN_POINTS, "span")
    try:
        roquette.run_pipeline(4)
    except ValueError:
        pass
    finally:
        t.uninstall()
    assert snapshot() == before
    assert t.spans[0][2] == "report.run_pipeline"


def test_traced_report_is_byte_identical(small_report):
    t = Tracer("t")
    assert traced_run(t) == small_report
    assert t.counts["jacobian.act_on_class"] > 0
    assert t.counts["jacobian.add"] > 0


def test_counts_repeat_and_spans_nest():
    a, b = Tracer("a"), Tracer("b")
    traced_run(a)
    traced_run(b)
    for name in ("jacobian.add", "jacobian.act_on_class", "jacobian.random_divisor",
                 "poly.roots_with_multiplicity", "jacobian.basis_kept"):
        assert a.counts[name] == b.counts[name] > 0, name
    top = [s for s in a.spans if s[5] == -1]
    assert [s[2] for s in top] == ["report.run_pipeline", "report.emit"]
    for run_id, idx, name, start, end, parent in a.spans:
        assert run_id == "a" and start <= end
        if parent >= 0:
            assert a.spans[parent][3] <= start and end <= a.spans[parent][4]
    summary = a.summary()
    for row in summary.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9
    assert summary["jacobian.act_on_class"]["calls"] == a.counts["jacobian.act_on_class"]


def test_group_mul_counter_counts_calls():
    from roquette import get_group
    g = get_group(5)
    t = Tracer("m")
    t.install(GROUP_MUL_POINTS, "count")
    try:
        g.mul(g.identity, g.involution)
        g.power(g.involution, 4)
    finally:
        t.uninstall()
    assert t.counts["group.mul"] == 1 + 4
