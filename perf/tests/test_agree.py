"""``perf/agree.py`` refuses what it cannot compare and flags regressions."""

import copy
import io

from perf import agree

ENV = {
    "seed": 1, "data_sha256": "d", "op_sequence_sha256": "o", "nproc": 2,
    "cpus_usable": 2, "clients": 2, "python": "3.11", "numpy": "2.0",
    "git_commit": "abc",
}


def _result(query_p50=0.1, builds=3, **env):
    return {
        "workloads": {
            "cold-batch": {
                "env": {**ENV, **env},
                "correct": True,
                "invalid": None,
                "end_to_end": {
                    "setup_s": 1.0, "query_p50_s": query_p50, "query_tail_s": 0.2,
                    "throughput_qps": 5.0, "edge_recall": 0.99, "peak_rss_mb": 100.0,
                    "error_rate": 0.0,
                },
                "per_layer": {"storage.cache.builds": builds},
            }
        }
    }


def _run(a, b):
    out = io.StringIO()
    return agree.compare(a, b, out=out), out.getvalue()


def test_identical_sets_agree():
    code, text = _run([_result()], [_result()])
    assert code == 0 and "0 regressed" in text


def test_refuses_mismatched_environments():
    for change in ({"seed": 2}, {"data_sha256": "x"}, {"cpus_usable": 1},
                   {"clients": 1}, {"numpy": "1.26"}, {"python": "3.12"}):
        code, text = _run([_result()], [_result(**change)])
        assert code == 2 and "REFUSED" in text, change


def test_refuses_when_zero_metrics_were_compared():
    empty = _result()
    empty["workloads"]["cold-batch"]["end_to_end"] = {}
    code, text = _run([empty], [copy.deepcopy(empty)])
    assert code == 2 and "zero metrics compared" in text


def test_regression_beyond_the_bound_fails():
    code, text = _run([_result(query_p50=0.100)], [_result(query_p50=0.105)])
    assert code == 0
    code, text = _run([_result(query_p50=0.100)], [_result(query_p50=0.130)])
    assert code == 1 and "REGRESSED" in text
    # Getting better is never a regression, and neither is a failure-free run.
    assert _run([_result(query_p50=0.130)], [_result(query_p50=0.100)])[0] == 0


def test_wide_spread_is_unresolved_and_does_not_pass():
    noisy = [_result(query_p50=v) for v in (0.08, 0.10, 0.13)]
    code, text = _run(noisy, [_result(query_p50=0.14)])
    assert "unresolved" in text and code == 3
    # A regression elsewhere still outranks it.
    worse = _result(query_p50=0.14)
    worse["workloads"]["cold-batch"]["end_to_end"]["peak_rss_mb"] = 200.0
    assert _run(noisy, [worse])[0] == 1


def test_refuses_invalid_or_incorrect_runs():
    for field, value in (("invalid", "generator ran late"), ("correct", False)):
        bad = _result()
        bad["workloads"]["cold-batch"][field] = value
        code, text = _run([_result()], [bad])
        assert code == 2 and "REFUSED" in text, field


def test_counters_must_repeat_on_one_commit():
    assert _run([_result(builds=3)], [_result(builds=4)])[0] == 1
    # Across commits a counter may legitimately move.
    assert _run([_result(builds=3)], [_result(builds=4, git_commit="def")])[0] == 0


def test_error_rate_may_not_rise_at_all():
    worse = _result()
    worse["workloads"]["cold-batch"]["end_to_end"]["error_rate"] = 0.01
    assert _run([_result()], [worse])[0] == 1


def test_demoted_metrics_are_printed_and_decide_nothing():
    def tail(value, workload):
        result = _result()
        entry = result["workloads"].pop("cold-batch")
        entry["end_to_end"]["query_tail_s"] = value
        result["workloads"][workload] = entry
        return result

    # The tail is held to 20 % on a library workload ...
    assert _run([tail(0.2, "cold-batch")], [tail(0.3, "cold-batch")])[0] == 1
    # ... and demoted where it is a segment export, which does not repeat.
    code, text = _run([tail(0.2, "serve-closed")], [tail(0.3, "serve-closed")])
    assert code == 0 and "no bound" in text
