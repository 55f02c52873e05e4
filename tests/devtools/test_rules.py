"""Per-rule positive/negative fixtures for the five repro-lint rules."""

import textwrap

from repro.devtools import LintConfig, lint_source


def codes(source, module_path, config=None, rules=None):
    return [
        f.code
        for f in lint_source(
            textwrap.dedent(source), module_path=module_path, config=config, codes=rules
        )
    ]


# ---------------------------------------------------------------------------
# RPR001 — exception discipline
# ---------------------------------------------------------------------------


class TestExceptionDiscipline:
    def test_bare_builtin_raise_is_flagged(self):
        assert codes("raise ValueError('bad')", "repro/core/x.py") == ["RPR001"]

    def test_all_three_banned_builtins(self):
        for name in ("ValueError", "TypeError", "RuntimeError"):
            assert codes(f"raise {name}('x')", "repro/core/x.py") == ["RPR001"]

    def test_reraise_without_operand_is_not_flagged(self):
        source = """
        try:
            f()
        except ValueError:
            raise
        """
        assert codes(source, "repro/core/x.py") == []

    def test_taxonomy_raise_is_clean(self):
        source = """
        from repro.exceptions import StorageError
        raise StorageError('bad chunk')
        """
        assert codes(source, "repro/storage/x.py") == []

    def test_scripts_are_in_scope(self):
        assert codes("raise RuntimeError('x')", "scripts/tool.py") == ["RPR001"]

    def test_tests_are_exempt(self):
        assert codes("raise ValueError('x')", "tests/unit/test_x.py") == []

    def test_raise_from_name_is_flagged(self):
        source = """
        error = ValueError('x')
        raise ValueError
        """
        assert codes(source, "repro/core/x.py") == ["RPR001"]


# ---------------------------------------------------------------------------
# RPR002 — lazy-materialization guard
# ---------------------------------------------------------------------------


class TestLazyMaterializationGuard:
    def test_values_on_matrix_name_is_flagged(self):
        assert codes("x = matrix.values", "repro/api/x.py") == ["RPR002"]

    def test_private_values_is_flagged(self):
        assert codes("x = chunk_matrix._values", "repro/service/x.py") == ["RPR002"]

    def test_self_matrix_attribute_base_is_flagged(self):
        source = """
        class S:
            def go(self):
                return self.matrix.values
        """
        assert codes(source, "repro/api/x.py") == ["RPR002"]

    def test_annotated_parameter_is_flagged_regardless_of_name(self):
        source = """
        def build(data: TimeSeriesMatrix):
            return data.values
        """
        assert codes(source, "repro/storage/x.py") == ["RPR002"]

    def test_raw_path_module_is_allowed(self):
        assert codes("x = matrix.values", "repro/baselines/brute.py") == []
        assert codes("x = matrix.values", "repro/datasets/load.py") == []

    def test_non_matrix_receiver_is_not_flagged(self):
        assert codes("x = edges.values", "repro/api/x.py") == []
        assert codes("x = result.values", "repro/service/x.py") == []

    def test_removing_an_allowlist_entry_turns_the_lint_red(self):
        config = LintConfig(
            raw_value_modules=tuple(
                m
                for m in LintConfig().raw_value_modules
                if m != "repro/baselines/*"
            )
        )
        assert codes("x = matrix.values", "repro/baselines/brute.py", config) == [
            "RPR002"
        ]


# ---------------------------------------------------------------------------
# RPR003 — canonical-accumulation guard
# ---------------------------------------------------------------------------


STAT_REDUCTION = """
import numpy as np

def combine(stats):
    return np.einsum('ij,j->i', stats.pair_sumprods, stats.weights)
"""

AXIS_REDUCTION = """
def tally(series_sums):
    return series_sums.sum(axis=0)
"""


class TestCanonicalAccumulationGuard:
    def test_einsum_over_stats_outside_blessed_is_flagged(self):
        assert codes(STAT_REDUCTION, "repro/api/x.py") == ["RPR003"]

    def test_method_axis_reduction_over_stats_is_flagged(self):
        assert codes(AXIS_REDUCTION, "repro/parallel/x.py") == ["RPR003"]

    def test_np_dot_over_stats_is_flagged(self):
        source = "import numpy as np\nr = np.dot(pair_corrs, weights)"
        assert codes(source, "repro/service/x.py") == ["RPR003"]

    def test_blessed_modules_are_allowed(self):
        assert codes(STAT_REDUCTION, "repro/core/sketch.py") == []
        assert codes(AXIS_REDUCTION, "repro/core/sketch.py") == []

    def test_the_tiled_builder_is_not_blessed(self):
        """core/tiled.py calls the sketch's kernel; a kernel of its own is a finding."""
        assert LintConfig().blessed_accumulation_modules == ("repro/core/sketch.py",)
        own_kernel = (
            "import numpy as np\n"
            "def fill(blocks, pair_sumprods):\n"
            "    np.matmul(blocks, blocks.transpose(0, 2, 1), out=pair_sumprods)\n"
        )
        assert codes(own_kernel, "repro/core/tiled.py") == ["RPR003"]
        assert codes(AXIS_REDUCTION, "repro/core/tiled.py") == ["RPR003"]

    def test_reduction_without_stat_names_is_not_flagged(self):
        source = "import numpy as np\nr = np.dot(weights, prices)"
        assert codes(source, "repro/api/x.py") == []

    def test_full_sum_without_axis_is_not_flagged(self):
        source = "import numpy as np\nr = np.sum(pair_sumprods)"
        assert codes(source, "repro/api/x.py") == []

    def test_removing_a_blessed_entry_turns_the_lint_red(self):
        for removed in LintConfig().blessed_accumulation_modules:
            config = LintConfig(
                blessed_accumulation_modules=tuple(
                    m
                    for m in LintConfig().blessed_accumulation_modules
                    if m != removed
                )
            )
            assert codes(STAT_REDUCTION, removed, config) == ["RPR003"]


# ---------------------------------------------------------------------------
# RPR004 — engine-protocol conformance
# ---------------------------------------------------------------------------


class TestEngineProtocolConformance:
    def test_pair_subset_without_pairs_kwarg_is_flagged(self):
        source = """
        class ShardyEngine:
            def supports_pair_subset(self):
                return True
            def run(self, matrix, query, *, sketch=None):
                pass
        """
        assert codes(source, "repro/core/custom.py") == ["RPR004"]

    def test_pair_subset_with_pairs_kwarg_is_clean(self):
        source = """
        class ShardyEngine:
            def supports_pair_subset(self):
                return not self.pruning
            def run(self, matrix, query, *, sketch=None, pairs=None):
                pass
        """
        assert codes(source, "repro/core/custom.py") == []

    def test_star_kwargs_count_as_accepting_pairs(self):
        source = """
        class ShardyEngine:
            def supports_pair_subset(self):
                return True
            def run(self, matrix, query, **kwargs):
                pass
        """
        assert codes(source, "repro/core/custom.py") == []

    def test_literal_false_support_needs_no_pairs(self):
        source = """
        class DenseEngine:
            def supports_pair_subset(self):
                return False
            def run(self, matrix, query, *, sketch=None):
                pass
        """
        assert codes(source, "repro/core/custom.py") == []

    def test_plan_layout_signature_drift_is_flagged(self):
        source = """
        class DriftyEngine:
            def plan_layout(self, query, hint):
                pass
        """
        assert codes(source, "repro/core/custom.py") == ["RPR004"]

    def test_run_positional_shape_is_enforced(self):
        source = """
        class OddEngine:
            def run(self, data, spec):
                pass
        """
        assert codes(source, "repro/core/custom.py") == ["RPR004"]

    def test_non_engine_classes_are_ignored(self):
        source = """
        class Report:
            def run(self, job):
                pass
            def plan_layout(self, query, extra):
                pass
        """
        assert codes(source, "repro/core/custom.py") == []

    def test_engine_base_class_name_triggers_the_check(self):
        source = """
        class Custom(SlidingCorrelationEngine):
            def plan_layout(self, spec):
                pass
        """
        assert codes(source, "repro/core/custom.py") == ["RPR004"]


# ---------------------------------------------------------------------------
# RPR005 — service lock discipline
# ---------------------------------------------------------------------------


GUARDED_CLASS = """
import threading

class Cacheish:
    def __init__(self):
        self._lock = threading.RLock()
        self.entries = {{}}  # guarded-by: _lock

    def mutate(self):
        {body}
"""


def guarded(body, module_path="repro/storage/cache.py", config=None):
    return codes(GUARDED_CLASS.format(body=body), module_path, config)


class TestLockDiscipline:
    def test_unlocked_subscript_write_is_flagged(self):
        assert guarded("self.entries['k'] = 1") == ["RPR005"]

    def test_unlocked_assignment_is_flagged(self):
        assert guarded("self.entries = {}") == ["RPR005"]

    def test_unlocked_mutator_call_is_flagged(self):
        assert guarded("self.entries.clear()") == ["RPR005"]

    def test_unlocked_del_is_flagged(self):
        assert guarded("del self.entries['k']") == ["RPR005"]

    def test_unlocked_augassign_on_field_is_flagged(self):
        assert guarded("self.entries.count += 1") == ["RPR005"]

    def test_write_under_the_right_lock_is_clean(self):
        assert (
            guarded("with self._lock:\n            self.entries['k'] = 1") == []
        )

    def test_write_under_a_different_lock_is_flagged(self):
        assert guarded(
            "with self._other:\n            self.entries['k'] = 1"
        ) == ["RPR005"]

    def test_requires_lock_annotation_vouches_for_the_method(self):
        source = """
        import threading

        class Cacheish:
            def __init__(self):
                self._lock = threading.RLock()
                self.entries = {}  # guarded-by: _lock

            def _insert(self, key):  # requires-lock: _lock
                self.entries[key] = 1
        """
        assert codes(source, "repro/storage/cache.py") == []

    def test_init_is_exempt(self):
        source = """
        import threading

        class Cacheish:
            def __init__(self):
                self._lock = threading.RLock()
                self.entries = {}  # guarded-by: _lock
                self.entries["seed"] = 0
        """
        assert codes(source, "repro/storage/cache.py") == []

    def test_cross_object_access_uses_the_owners_lock(self):
        source = """
        import threading

        class Runtime:
            def __init__(self):
                self.lock = threading.RLock()
                self.counters = {}  # guarded-by: lock

        class Service:
            def bump(self, runtime):
                runtime.counters["queries"] += 1

            def bump_locked(self, runtime):
                with runtime.lock:
                    runtime.counters["queries"] += 1
        """
        found = lint_source(
            textwrap.dedent(source), module_path="repro/service/service.py"
        )
        assert [f.code for f in found] == ["RPR005"]
        assert "runtime.counters" in found[0].message

    def test_modules_outside_the_discipline_are_ignored(self):
        assert guarded("self.entries['k'] = 1", "repro/api/x.py") == []

    def test_removing_the_annotation_disarms_the_rule(self):
        source = GUARDED_CLASS.format(body="self.entries['k'] = 1").replace(
            "  # guarded-by: _lock", ""
        )
        assert codes(source, "repro/storage/cache.py") == []
