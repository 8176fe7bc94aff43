"""Command-line entry point.

    verify --prime 5 [--ell 3,7] [--ell-bound N] [--seed S]
           [--format json|markdown] [--out PATH] [--timings]

Exit codes: 0 when every check passes and the verdict is "obstructed",
1 when a check fails (a stage that raises is a failed check), 2 on usage
errors, infeasible input or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import PipelineOptions, UsageError, emit, run_pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, like every usage error
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def int_list(text: str) -> tuple:
    """--ell's comma-separated integers; empty items are skipped."""
    return tuple(int(x) for x in text.split(",") if x.strip())


def build_parser() -> argparse.ArgumentParser:
    defaults = PipelineOptions()
    ap = _Parser(
        prog="verify",
        description="Verify the lifting obstruction carried by the curve "
                    "y^2 = x^p - x for a concrete prime p.")
    ap.add_argument("--prime", type=int, required=True,
                    help=f"the prime p (5 <= p <= {defaults.max_prime})")
    ap.add_argument("--ell", type=int_list, default=None,
                    help="comma-separated primes for the torsion witness "
                         "(default: the two smallest --ell-bound allows)")
    ap.add_argument("--ell-bound", type=int, default=defaults.ell_bound,
                    help="a witness ell is an odd prime other than p whose full "
                         f"torsion fits this bound on ell^(2g) (default {defaults.ell_bound})")
    ap.add_argument("--seed", type=int, default=defaults.seed,
                    help=f"seed for the torsion-basis sampling (default {defaults.seed})")
    ap.add_argument("--format", choices=("json", "markdown"), default="markdown")
    ap.add_argument("--out", type=str, default=None,
                    help="write the report to this path instead of stdout")
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte-determinism)")
    return ap


def main(argv: list | None = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    options = PipelineOptions(ell=ns.ell, ell_bound=ns.ell_bound, seed=ns.seed,
                              include_timings=ns.timings)
    try:
        report = run_pipeline(ns.prime, options)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = emit(report, ns.format)
    try:
        if ns.out:
            with open(ns.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the
        # interpreter's final flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    for check in report.failed:
        print(f"FAILED: {check['name']}: {check['claim']}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
