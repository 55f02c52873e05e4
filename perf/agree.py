"""Compare two result sets metric by metric, by the benchmark's own bounds.

    python perf/agree.py A.json B.json

``A`` is the reference (the parent commit, or the first of two runs of one
commit) and ``B`` the candidate; each is a file written by
``perf/run.py --json`` or a comma-separated list of such files from
repeated runs of one side, in which case medians are compared and side A's
run-to-run spread is known.

Every end-to-end metric is held to its direction and bound: the gated ones
from ``BENCHMARK.json`` (``edge_recall`` to the tighter same-seed bound of
``perf/metrics.py``, because both sets are one seed), the workload-only
ones from ``perf/metrics.py``.
A metric worse by more than its bound is a *regression*; where side A's
spread exceeds the bound the verdict is *unresolved*, not "unchanged".
Workload-only metrics without a bound are printed and decide nothing.
When both sides are one commit, the program's counters must repeat exactly.

Exit status: 0 every metric compared and within its bound; 1 a regression,
or counters that differ on one commit; 2 refused — the sets differ in seed,
data, op sequence, ops run before the deadline, CPUs, client count or Python/numpy, a run in them is
invalid or gave wrong answers, or zero metrics were compared (a gate that
compares nothing must not pass); 3 no regression among the metrics that
could be judged, but some are unresolved, so the gate verified less than
it names.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perf.metrics import EXACT_COUNTERS, SAME_SEED_BOUNDS, WORKLOAD_END_TO_END  # noqa: E402

#: Environment fields two comparable sets must share.
MUST_MATCH = (
    "seed", "data_sha256", "op_sequence_sha256", "ops_run", "nproc", "cpus_usable",
    "clients", "python", "numpy",
)


def _load(argument: str) -> List[dict]:
    documents = []
    for name in argument.split(","):
        with open(name, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def _declared() -> Dict[str, dict]:
    """Direction and bound of every end-to-end metric, gated or workload-only."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    for name, bound in SAME_SEED_BOUNDS.items():
        declared[name] = {**declared[name], "bound": bound}
    for metric in WORKLOAD_END_TO_END:
        declared[metric.name] = {
            "name": metric.name, "unit": metric.unit, "better": metric.better,
            "bound": metric.bound, "workloads": metric.workloads,
            "demoted": metric.demoted,
        }
    return declared


def worse_by(reference: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``reference`` (<= 0: not worse)."""
    change = candidate - reference if better == "lower" else reference - candidate
    if reference == 0:
        return 0.0 if change <= 0 else float("inf")
    return change / abs(reference)


def mismatches(side_a: List[dict], side_b: List[dict]) -> List[str]:
    """Why the two sets must not be compared (empty: they may be)."""
    reasons = []
    for workload in side_a[0]["workloads"]:
        seen = {}
        for document in side_a + side_b:
            entry = document["workloads"].get(workload)
            if entry is None:
                reasons.append(f"{workload}: missing from one set")
                continue
            for key in MUST_MATCH:
                seen.setdefault(key, set()).add(json.dumps(entry["env"].get(key)))
            if entry.get("invalid"):
                reasons.append(f"{workload}: a run is invalid ({entry['invalid']})")
            elif not entry.get("correct", False):
                reasons.append(f"{workload}: a run failed operations or gave wrong answers")
        reasons += [
            f"{workload}: {key} differs ({', '.join(sorted(values))})"
            for key, values in seen.items() if len(values) > 1
        ]
    return reasons


def compare(side_a: List[dict], side_b: List[dict], out=sys.stdout) -> int:
    refused = mismatches(side_a, side_b)
    if refused:
        print("REFUSED: the result sets are not comparable", file=out)
        for reason in refused:
            print(f"  {reason}", file=out)
        return 2
    declared = _declared()
    compared = regressions = unresolved = counter_diffs = 0
    same_commit = {
        entry["env"].get("git_commit")
        for document in side_a + side_b
        for entry in document["workloads"].values()
    }
    same_commit = len(same_commit) == 1 and "unknown" not in same_commit
    for workload in side_a[0]["workloads"]:
        entries_a = [d["workloads"][workload] for d in side_a]
        entries_b = [d["workloads"][workload] for d in side_b]
        print(f"== {workload}", file=out)
        for name, metric in declared.items():
            if metric.get("workloads") and workload not in metric["workloads"]:
                continue
            values_a = [e["end_to_end"][name] for e in entries_a if name in e["end_to_end"]]
            values_b = [e["end_to_end"][name] for e in entries_b if name in e["end_to_end"]]
            if not values_a or not values_b:
                continue
            a, b = statistics.median(values_a), statistics.median(values_b)
            delta = worse_by(a, b, metric["better"])
            if metric["bound"] is None or workload in metric.get("demoted", ()):
                print(
                    f"   {name:<16s} {a:>12.5g} -> {b:>12.5g} {metric['unit']:<6s}"
                    f" worse by {delta:+.3f} (no bound: does not repeat on the reference box)",
                    file=out,
                )
                continue
            compared += 1
            spread: Optional[float] = None
            if len(values_a) > 1 and a:
                spread = (max(values_a) - min(values_a)) / abs(a)
            if spread is not None and spread > metric["bound"]:
                verdict = "unresolved"
                unresolved += 1
            elif delta > metric["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            else:
                verdict = "ok"
            note = "" if spread is None else f"  spread(A) {spread:.3f}"
            print(
                f"   {name:<16s} {a:>12.5g} -> {b:>12.5g} {metric['unit']:<6s}"
                f" worse by {delta:+.3f} (bound {metric['bound']:.3f}) {verdict}{note}",
                file=out,
            )
        if same_commit:
            for name in EXACT_COUNTERS:
                source = "end_to_end" if name in entries_a[0]["end_to_end"] else "per_layer"
                values = {e[source].get(name) for e in entries_a + entries_b}
                if len(values) > 1:
                    counter_diffs += 1
                    print(f"   counter {name} does not repeat: {sorted(values)}", file=out)
    print(
        f"-- {compared} metrics compared: {regressions} regressed, {unresolved} unresolved"
        + (f", {counter_diffs} counters differ on one commit" if same_commit else ""),
        file=out,
    )
    if compared == 0:
        print("REFUSED: zero metrics compared", file=out)
        return 2
    if regressions or counter_diffs:
        return 1
    return 3 if unresolved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", help="reference result file(s), comma-separated")
    parser.add_argument("b", help="candidate result file(s), comma-separated")
    args = parser.parse_args(argv)
    return compare(_load(args.a), _load(args.b))


if __name__ == "__main__":
    sys.exit(main())
