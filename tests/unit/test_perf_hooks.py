"""The benchmark's trace hooks must keep resolving.

``perf/trace.py`` times the program from outside by replacing the public
callables named in its ``TARGETS`` table.  ``perf/tests`` is outside tier-1,
so without this test a refactor that renames or moves a target would only be
noticed by the next traced benchmark run.  Every target is looked up exactly
the way ``perf.trace.install`` looks it up.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(REPO_ROOT))
    try:
        return importlib.import_module("perf.trace").TARGETS
    finally:
        sys.path.remove(str(REPO_ROOT))


def resolve(module_name, class_name, attribute):
    module = importlib.import_module(module_name)
    if class_name is None:
        return getattr(module, attribute)
    return getattr(module, class_name).__dict__[attribute]


def test_every_trace_target_resolves_to_a_callable(targets):
    assert targets
    for module_name, class_name, attribute, *_ in targets:
        raw = resolve(module_name, class_name, attribute)
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        assert callable(raw), (module_name, class_name, attribute)

