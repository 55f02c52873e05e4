"""Registry safety: duplicate-name guard and typed create_engine errors."""

import pytest

from repro.core.engine import (
    SlidingCorrelationEngine,
    available_engines,
    create_engine,
    engine_options,
    register_engine,
)
from repro.exceptions import ExperimentError

pytestmark = pytest.mark.usefixtures("isolated_registry")


def _engine_class(engine_name):
    class Probe(SlidingCorrelationEngine):
        name = engine_name

        def run(self, matrix, query):  # pragma: no cover - never called
            raise NotImplementedError

    return Probe


class TestDuplicateRegistration:
    def test_duplicate_name_raises(self):
        @register_engine
        class GuardFirst(SlidingCorrelationEngine):
            name = "guard_test_engine"

            def run(self, matrix, query):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ExperimentError, match="already registered"):
            @register_engine
            class GuardSecond(SlidingCorrelationEngine):
                name = "guard_test_engine"

                def run(self, matrix, query):  # pragma: no cover - never called
                    raise NotImplementedError

    def test_replace_true_overwrites(self):
        register_engine(_engine_class("guard_replace_engine"))
        replacement = register_engine(replace=True)(
            _engine_class("guard_replace_engine")
        )
        assert available_engines()["guard_replace_engine"] is replacement

    def test_same_class_reregistration_is_noop(self):
        cls = register_engine(_engine_class("guard_idempotent_engine"))
        assert register_engine(cls) is cls

    def test_reload_style_redefinition_is_noop(self):
        """importlib.reload re-creates the class at the same definition site;
        same module + qualname must re-register without raising."""
        first = register_engine(_engine_class("guard_reload_engine"))
        second = register_engine(_engine_class("guard_reload_engine"))
        assert second is not first
        assert available_engines()["guard_reload_engine"] is second

    def test_builtin_name_is_protected(self):
        with pytest.raises(ExperimentError, match="dangoron"):
            register_engine(_engine_class("dangoron"))
        assert available_engines()["dangoron"].__name__ == "DangoronEngine"


class TestCreateEngineErrors:
    def test_unknown_option_raises_experiment_error(self):
        with pytest.raises(ExperimentError) as excinfo:
            create_engine("incremental", refresh_evry=0)
        message = str(excinfo.value)
        assert "incremental" in message
        assert "'refresh_every'" in message  # the accepted options are listed

    def test_valid_options_still_work(self):
        engine = create_engine("incremental", refresh_every=0, memory_budget=4096)
        assert engine.refresh_every == 0
        assert engine.memory_budget == 4096

    def test_engine_options_lists_constructor_parameters(self):
        options = engine_options("incremental")
        assert "refresh_every" in options
        assert "memory_budget" in options

    def test_engine_options_unknown_engine(self):
        with pytest.raises(ExperimentError, match="unknown engine"):
            engine_options("does_not_exist")
