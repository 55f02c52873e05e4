"""Unit tests for standard experiment workloads."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.experiments.workloads import (
    climate_workload,
    tomborg_workload,
)

ALL_BUILDERS = [climate_workload, tomborg_workload]


@pytest.mark.parametrize("builder", ALL_BUILDERS, ids=lambda b: b.__name__)
class TestWorkloadContract:
    def test_small_scale_workload_is_consistent(self, builder):
        workload = builder(scale=0.15)
        assert workload.num_series >= 10
        assert workload.matrix.length >= workload.query.window
        workload.query.validate_against_length(workload.matrix.length)
        assert workload.num_windows >= 1
        assert workload.describe().startswith(workload.name)

    def test_query_aligns_with_basic_windows(self, builder):
        workload = builder(scale=0.15)
        layout = BasicWindowLayout.for_query(
            workload.query, workload.basic_window_size
        )
        assert workload.query.window % layout.size == 0
        assert workload.query.step % layout.size == 0

    def test_scale_controls_size(self, builder):
        small = builder(scale=0.15)
        large = builder(scale=0.3)
        assert large.num_series >= small.num_series

    def test_same_seed_reproduces_the_data(self, builder):
        first = builder(scale=0.15, seed=3)
        second = builder(scale=0.15, seed=3)
        assert np.array_equal(first.matrix.values, second.matrix.values)
        assert first.query == second.query

    def test_seed_changes_the_data(self, builder):
        first = builder(scale=0.15, seed=3)
        second = builder(scale=0.15, seed=4)
        assert first.matrix.values.shape == second.matrix.values.shape
        assert not np.array_equal(first.matrix.values, second.matrix.values)


class TestSpecificWorkloads:
    def test_climate_threshold_passthrough(self):
        workload = climate_workload(scale=0.15, threshold=0.42)
        assert workload.query.threshold == 0.42

    def test_tomborg_metadata_has_ground_truth(self):
        workload = tomborg_workload(scale=0.15, num_segments=2)
        dataset = workload.metadata["dataset"]
        assert len(dataset.segments) == 2
        assert dataset.length == workload.matrix.length

    def test_tomborg_rejects_zero_segments(self):
        with pytest.raises(Exception):
            tomborg_workload(scale=0.15, num_segments=0)

    def test_climate_sizes_have_floors(self):
        workload = climate_workload(scale=0.01)
        assert workload.metadata["num_stations"] == 16
        assert workload.metadata["num_days"] == 40
        assert workload.matrix.length == 40 * 24
        assert workload.query.window == 480

    def test_tomborg_query_steps_one_basic_window(self):
        workload = tomborg_workload(scale=0.15, basic_window_size=16)
        assert workload.query.step == 16
        assert workload.query.window == 8 * 16

    def test_tomborg_segments_are_whole_basic_windows(self):
        workload = tomborg_workload(scale=0.15, num_segments=3, basic_window_size=32)
        dataset = workload.metadata["dataset"]
        assert all(segment.num_columns % 32 == 0 for segment in dataset.segments)
        assert dataset.length == sum(seg.num_columns for seg in dataset.segments)

    def test_tomborg_name_names_distribution_and_spectrum(self):
        workload = tomborg_workload(scale=0.15, distribution="uniform", spectrum="flat")
        assert workload.name == "tomborg_uniform_flat"
