"""Span self-time arithmetic and the wrapper's parent/op bookkeeping."""

import time

import pytest

from perf import trace


def _span(span_id, parent, start, end, pid=1, name="x", op=None):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "pid": pid, "name": name, "op": op}


def test_covered_merges_overlaps():
    assert trace.covered([]) == 0.0
    assert trace.covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert trace.covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == pytest.approx(3.0)


def test_self_time_is_duration_minus_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 5.0, 6.0),
        _span(4, 2, 2.0, 3.0),      # grandchild: charged to span 2, not span 1
    ]
    own = trace.self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert own[(1, 3)] == pytest.approx(1.0)
    assert own[(1, 4)] == pytest.approx(1.0)
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span(1, None, 0.0, 4.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),      # overlaps span 2 and runs past the parent
    ]
    assert trace.self_times(spans)[(1, 1)] == pytest.approx(4.0 - 3.0)


def test_same_ids_in_other_processes_do_not_mix():
    spans = [_span(1, None, 0.0, 2.0, pid=1), _span(2, 1, 0.0, 1.0, pid=2)]
    assert trace.self_times(spans)[(1, 1)] == pytest.approx(2.0)


def test_wrapper_records_parent_op_and_errors(tmp_path):
    tracer = trace.Tracer(tmp_path, "t")

    def inner():
        time.sleep(0.001)
        return 7

    wrapped_inner = tracer.wrap("inner", inner)

    def outer(fail=False):
        value = wrapped_inner()
        if fail:
            raise ValueError("boom")
        return value

    wrapped_outer = tracer.wrap("outer", outer)
    tracer.op = "op-1"
    assert wrapped_outer() == 7
    with pytest.raises(ValueError):
        wrapped_outer(fail=True)
    path = tracer.dump()
    spans = trace.load_spans([path])
    assert [s["name"] for s in spans] == ["inner", "outer", "inner", "outer"]
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        assert span["op"] == "op-1"
        if span["name"] == "inner":
            assert by_id[span["parent"]]["name"] == "outer"
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        else:
            assert span["parent"] is None
    assert spans[-1].get("error") is True
    assert tracer.dump() is None  # written once
