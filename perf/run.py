"""The declared-workload benchmark: one command, every metric by name.

    python perf/run.py [--workload NAME] [--seed S] [--smoke] [--json OUT]

runs each workload first untraced (end-to-end metrics, set up several times
for ``setup_s``) and then traced (per-layer metrics), verifies every answer
against the independent oracle, and prints every metric with its unit.

The benchmark driver calls

    python perf/run.py --workload NAME --seed S --seconds T --trace 0|1

which makes one measurement and prints, as the last line of standard
output, one JSON object: ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  A traced measurement
is two passes of the same reduced op sequence — untraced, then traced — so
``trace.overhead_ratio`` compares like with like.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The sibling modules import as the package ``perf`` (a bare ``import trace``
# from this directory would shadow the standard library's).
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

#: The traced pass replays the seeded op sequence at a third of the rounds.
TRACED_SCALE = 1.0 / 3.0
SMOKE_SECONDS = 1.0


def _fail_without_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perf/run.py: the program under test is missing ({ROOT / 'src' / 'repro'}); "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def _print_metrics(title: str, values, units, tails=None) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        note = ""
        if tails and name in tails:
            pct, count = tails[name]
            note = f"  (p{pct:g} of {count} samples)"
        print(f"   {name:<40s} {value:>14.6g} {units.get(name, '')}{note}")


def _traced_pair(harness, workload, seed, seconds, scale, baseline=None):
    """The per-layer measurement: an untraced and a traced pass at ``scale``.

    Returns ``(traced result, per-layer metrics)``; the workload-only
    end-to-end metrics and ``error_rate`` come from the untraced pass.
    """
    if baseline is None:
        baseline = harness.run(workload, seed, seconds, scale=scale)
    traced = harness.run(workload, seed, seconds, scale=scale, traced=True)
    per_layer = dict(traced.layer_metrics)
    for name in per_layer:
        if name in baseline.metrics:
            per_layer[name] = baseline.metrics[name]
    # No query succeeded on one side (a dead server): there is no ratio to
    # report, but ``error_rate`` still is.
    traced_p50 = traced.metrics.get("query_p50_s", math.nan)
    baseline_p50 = baseline.metrics.get("query_p50_s", math.nan)
    per_layer["trace.overhead_ratio"] = traced_p50 / baseline_p50 if baseline_p50 else math.nan
    traced.attempted += baseline.attempted
    traced.failed += baseline.failed
    traced.wrong += baseline.wrong
    traced.problems = baseline.problems + traced.problems
    traced.invalid = traced.invalid or baseline.invalid
    return traced, per_layer


def _report_problems(result) -> None:
    for problem in result.problems[:10]:
        print(f"   WRONG {problem}", file=sys.stderr)
    if result.invalid:
        print(f"   INVALID {result.invalid}", file=sys.stderr)


def _driver_line(result, values, names, units) -> str:
    """The driver's result line.  ``correct`` is about the answers; an
    ``INVALID`` run (a late or busy generator) is reported on stderr and
    shows in the driver's own spread check."""
    missing = [n for n in names if n not in values or not math.isfinite(values[n])]
    if missing:
        raise SystemExit(f"perf/run.py: metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed + result.wrong,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="seconds each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one measurement, JSON result on the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at one round with all checks on")
    parser.add_argument("--json", default=None, metavar="OUT", help="also write all results here")
    args = parser.parse_args(argv)
    _fail_without_program()

    from perf import harness, metrics, workloads

    # A terminated run must still tear its server down (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units = metrics.units()
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else _default_seconds()
    )

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.trace == 0:
            result = harness.run(args.workload, args.seed, seconds, repeat_setup=True)
            values = result.metrics
            names = [m.name for m in metrics.END_TO_END]
            _print_metrics(f"{args.workload} end-to-end (untraced)", values, units, result.tails)
        else:
            result, values = _traced_pair(harness, args.workload, args.seed, seconds, TRACED_SCALE)
            names = [m.name for m in metrics.PER_LAYER]
            _print_metrics(f"{args.workload} per-layer (traced)", values, units)
        _report_problems(result)
        print(_driver_line(result, values, names, units))
        return 0

    started = time.perf_counter()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    document = {"seconds": seconds, "seed": args.seed, "workloads": {}}
    all_correct = True
    for name in names:
        untraced = harness.run(name, args.seed, seconds, repeat_setup=not args.smoke)
        _print_metrics(f"{name} end-to-end (untraced)", untraced.metrics, units, untraced.tails)
        _report_problems(untraced)
        # A smoke run is already at one round: its untraced pass is the baseline.
        traced, per_layer = _traced_pair(
            harness, name, args.seed, seconds,
            1.0 if args.smoke else TRACED_SCALE,
            baseline=untraced if args.smoke else None,
        )
        _print_metrics(f"{name} per-layer (traced)", per_layer, units)
        if not args.smoke:
            _report_problems(traced)
        invalid = untraced.invalid or traced.invalid
        all_correct = all_correct and untraced.correct and traced.correct and not invalid
        document["workloads"][name] = {
            "env": untraced.env,
            "correct": untraced.correct and traced.correct,
            "attempted": untraced.attempted,
            "failed": untraced.failed,
            "wrong": untraced.wrong,
            "invalid": invalid,
            "end_to_end": untraced.metrics,
            "tails": {k: list(v) for k, v in untraced.tails.items()},
            "per_layer": per_layer,
        }
    print(f"-- {'all answers correct' if all_correct else 'SOME ANSWERS WRONG OR RUNS INVALID'}; "
          f"{time.perf_counter() - started:.1f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
