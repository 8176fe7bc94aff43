"""Spans and call counts around roquette's public entry points.

The wrappers are installed from outside the program: `Tracer.install`
replaces module functions, methods and properties with thin wrappers and
`Tracer.uninstall` puts the originals back.  Spans (run id, index, name,
start, end, parent index) and counts stay in memory until the run ends.

No wrapper sits on a per-field-multiplication call.  `RoquetteGroup.mul`
runs millions of times at large p, so it is counted in its own pass
(`GROUP_MUL_POINTS`) rather than alongside the spans.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, name).  A span point records a span and counts
# calls; a count point only counts calls.
SPAN_POINTS = (
    ("roquette", "run_pipeline", "report.run_pipeline"),
    ("roquette", "emit", "report.emit"),
    ("roquette.group", "RoquetteGroup.elements", "group.elements"),
    ("roquette.group", "RoquetteGroup.conjugacy_classes", "group.conjugacy_classes"),
    ("roquette.curve", "point_count", "curve.point_count"),
    ("roquette.curve", "fixed_scheme_degree", "curve.fixed_scheme_degree"),
    ("roquette.series", "wild_translation_multiplicity",
     "series.wild_translation_multiplicity"),
    ("roquette.character", "lefschetz_character", "character.lefschetz_character"),
    ("roquette.character", "inner_product", "character.inner_product"),
    ("roquette.character", "fs_indicator", "character.fs_indicator"),
    ("roquette.jacobian", "torsion_basis", "jacobian.torsion_basis"),
    ("roquette.jacobian", "rho_ell_traces", "jacobian.rho_ell_traces"),
    ("roquette.jacobian", "act_on_class", "jacobian.act_on_class"),
    ("roquette.jacobian", "crt_reconstruct", "jacobian.crt_reconstruct"),
    ("roquette.jacobian", "roots_with_multiplicity", "poly.roots_with_multiplicity"),
    ("roquette.poly", "roots_with_multiplicity", "poly.roots_with_multiplicity"),
)
COUNT_POINTS = (
    ("roquette.jacobian", "CurveJacobian.add", "jacobian.add"),
    ("roquette.jacobian", "CurveJacobian.random_divisor", "jacobian.random_divisor"),
    ("roquette.series", "TruncatedSeries.__mul__", "series.mul"),
)
GROUP_MUL_POINTS = (
    ("roquette.group", "RoquetteGroup.mul", "group.mul"),
)


def _basis_kept(result) -> dict:
    return {"jacobian.basis_kept": len(result.basis)}


# Extra counts taken from a call's return value.
OBSERVERS = {"jacobian.torsion_basis": _basis_kept}


def _resolve(module: str, path: str):
    """(owner, attribute, raw original) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = {}
        self.installed: set = set()
        self.missing: list = []
        self._stack: list = []
        self._saved: list = []

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        run_id = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            counts[name] = counts.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (run_id, idx, name, start, end, parent)
            if observe is not None:
                for key, n in observe(result).items():
                    counts[key] = counts.get(key, 0) + n
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counts[name] = 0
        return wrapper

    def install(self, points, kind: str = "span") -> None:
        make = self._span if kind == "span" else self._count
        for module, path, name in points:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, property):
                new = property(make(name, raw.fget))
            else:
                new = make(name, raw)
            self._saved.append((owner, attr, raw))
            self.installed.add(name)
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, total seconds (outermost spans of that name
        only) and self seconds (duration minus direct children)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for _, idx, name, start, end, parent in spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[idx]
            anc = parent
            while anc >= 0 and spans[anc][2] != name:
                anc = spans[anc][5]
            if anc < 0:
                row["total_s"] += end - start
        return out
