"""Micro-benchmarks of the ff, poly, jacobian and group kernels.

Only the fields and sizes the workloads use are timed, through public
entry points, with tracing off and caches warm.  Operands come from the
benchmark seed.  A probe whose entry point is gone (AttributeError,
ImportError) or whose signature changed (TypeError) is reported absent.
"""

from __future__ import annotations

import random
import statistics
import time

BATCH_S = 0.05   # target duration of one timed batch
BATCHES = 5


def _per_op(one_pass, ops_per_pass: int) -> float:
    """Median seconds per operation over BATCHES batches, after a warm-up."""
    t0 = time.perf_counter()
    one_pass()
    reps = max(1, int(BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    per_op = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            one_pass()
        per_op.append((time.perf_counter() - t0) / (reps * ops_per_pass))
    return statistics.median(per_op)


def _nonzero(field, rng, n):
    out = []
    while len(out) < n:
        e = field.random_element(rng)
        if not e.is_zero():
            out.append(e)
    return out


def field_mul_ns(rng, p, k):
    from roquette import make_field
    xs = _nonzero(make_field(p, k), rng, 128)
    pairs = list(zip(xs, xs[1:] + xs[:1]))

    def one_pass():
        for a, b in pairs:
            a * b
    return _per_op(one_pass, len(pairs)) * 1e9


def field_inv_us(rng, p, k):
    from roquette import make_field
    xs = _nonzero(make_field(p, k), rng, 32)

    def one_pass():
        for a in xs:
            a.inverse()
    return _per_op(one_pass, len(xs)) * 1e6


def poly_divmod_us(rng, p, k):
    """Dividend of degree 3g-1 by a monic divisor of degree 2g: the shape of
    `num % u` after composition in Cantor addition."""
    from roquette import make_field
    from roquette.poly import Poly
    field = make_field(p, k)
    g = (p - 1) // 2
    pairs = []
    for _ in range(16):
        num = Poly(field, tuple(_nonzero(field, rng, 3 * g)))
        den = Poly(field, tuple(_nonzero(field, rng, 2 * g)) + (field.one(),))
        pairs.append((num, den))

    def one_pass():
        for a, b in pairs:
            a.divmod(b)
    return _per_op(one_pass, len(pairs)) * 1e6


def jacobian_add_us(rng, p, k):
    from roquette import make_field
    from roquette.jacobian import CurveJacobian
    jac = CurveJacobian(make_field(p, k), p)
    divs = [jac.random_divisor(rng) for _ in range(8)]
    pairs = list(zip(divs, divs[1:] + divs[:1]))

    def one_pass():
        for a, b in pairs:
            jac.add(a, b)
    return _per_op(one_pass, len(pairs)) * 1e6


def group_mul_ns(rng, p):
    from roquette import get_group
    group = get_group(p)
    els = group.elements
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(512)]
    mul = group.mul

    def one_pass():
        for a, b in pairs:
            mul(a, b)
    return _per_op(one_pass, len(pairs)) * 1e9


PROBES = (
    ("ff.mul_ns.F5_4", field_mul_ns, (5, 4)),
    ("ff.mul_ns.F5_12", field_mul_ns, (5, 12)),
    ("ff.mul_ns.F7_4", field_mul_ns, (7, 4)),
    ("ff.mul_ns.F7_12", field_mul_ns, (7, 12)),
    ("ff.mul_ns.F29_2", field_mul_ns, (29, 2)),
    ("ff.inv_us.F5_12", field_inv_us, (5, 12)),
    ("ff.inv_us.F7_12", field_inv_us, (7, 12)),
    ("poly.divmod_us.F5_12", poly_divmod_us, (5, 12)),
    ("poly.divmod_us.F7_12", poly_divmod_us, (7, 12)),
    ("jacobian.add_us.F5_4", jacobian_add_us, (5, 4)),
    ("jacobian.add_us.F5_12", jacobian_add_us, (5, 12)),
    ("jacobian.add_us.F7_4", jacobian_add_us, (7, 4)),
    ("jacobian.add_us.F7_12", jacobian_add_us, (7, 12)),
    ("group.mul_ns", group_mul_ns, (29,)),
)


def run_micro(seed: int) -> tuple[dict, list]:
    """(metric -> value, names of absent probes)."""
    values, absent = {}, []
    for name, probe, args in PROBES:
        rng = random.Random(f"{seed}:{name}")
        try:
            values[name] = probe(rng, *args)
        except (AttributeError, ImportError, TypeError):
            absent.append(name)
    return values, absent
