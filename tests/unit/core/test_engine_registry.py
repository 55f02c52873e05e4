"""Unit tests for the engine registry (repro.core.engine)."""

import pytest

from repro.core.engine import (
    SlidingCorrelationEngine,
    available_engines,
    create_engine,
    register_engine,
)
from repro.core.result import EXACTNESS_EXACT
from repro.exceptions import ExperimentError

pytestmark = pytest.mark.usefixtures("isolated_registry")

PRODUCT_ENGINES = ["brute_force", "dangoron", "incremental", "tsubasa"]


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert sorted(available_engines()) == PRODUCT_ENGINES

    @pytest.mark.parametrize("name", PRODUCT_ENGINES)
    def test_every_registered_engine_answers_exactly(self, name):
        assert create_engine(name).exactness() == EXACTNESS_EXACT

    def test_create_engine_by_name(self):
        engine = create_engine("dangoron", basic_window_size=16)
        assert engine.name == "dangoron"
        assert engine.basic_window_size == 16

    def test_create_engine_unknown_name(self):
        with pytest.raises(ExperimentError):
            create_engine("does_not_exist")

    def test_available_engines_returns_copy(self):
        first = available_engines()
        first["bogus"] = None
        assert "bogus" not in available_engines()

    def test_register_requires_name(self):
        class Nameless(SlidingCorrelationEngine):
            def run(self, matrix, query):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ExperimentError):
            register_engine(Nameless)

    def test_custom_engine_registration_roundtrip(self):
        @register_engine
        class EchoEngine(SlidingCorrelationEngine):
            name = "echo_test_engine"

            def run(self, matrix, query):  # pragma: no cover - never called
                raise NotImplementedError

        assert "echo_test_engine" in available_engines()
        assert isinstance(create_engine("echo_test_engine"), EchoEngine)

    def test_repr_and_describe(self):
        engine = create_engine("brute_force")
        assert "BruteForceEngine" in repr(engine)
        assert engine.describe() == "brute_force"
