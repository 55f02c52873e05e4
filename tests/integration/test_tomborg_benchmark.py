"""Integration: Tomborg as a benchmark — known ground truth drives evaluation.

This is the workflow the paper proposes Tomborg for: generate data with a
known (possibly time-varying) correlation structure, run the engines, and
score them against both the generated ground truth and the exact computation.
"""

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.core.query import SlidingQuery
from repro.experiments.approximate import ParCorrEngine, StatStreamEngine
from repro.network.dynamic import DynamicNetwork
from repro.tomborg.correlation_targets import block_correlation_matrix
from repro.tomborg.distributions import BimodalCorrelations
from repro.tomborg.generator import SegmentSpec, TomborgGenerator
from repro.tomborg.spectral import flat_spectrum, peaked_spectrum
from repro.tomborg.validation import validate_dataset


class TestTomborgDrivenEvaluation:
    def test_target_edges_recovered_within_segment(self):
        target = block_correlation_matrix([6, 6, 6], within=0.85, between=0.05)
        generator = TomborgGenerator(num_series=18, seed=41)
        dataset = generator.generate(1024, target)
        assert validate_dataset(dataset)[0].max_abs_error < 1e-6

        query = SlidingQuery(
            start=0, end=1024, window=1024, step=1024, threshold=0.7
        )
        result = DangoronEngine(basic_window_size=64).run(dataset.matrix, query)
        assert result[0].edge_set() == dataset.target_edges(0.7)

    def test_dynamic_ground_truth_tracked_across_segments(self):
        generator = TomborgGenerator(num_series=16, seed=43)
        dense = block_correlation_matrix([8, 8], within=0.9, between=0.3)
        sparse = np.eye(16)
        dataset = generator.generate_piecewise(
            [SegmentSpec(512, dense), SegmentSpec(512, sparse)]
        )
        query = SlidingQuery(
            start=0, end=1024, window=128, step=64, threshold=0.7
        )
        result = DangoronEngine(basic_window_size=64).run(dataset.matrix, query)
        network = DynamicNetwork.from_result(result)
        edge_counts = network.edge_count_series()
        starts = result.window_starts()
        first_segment = edge_counts[starts + query.window <= 512]
        second_segment = edge_counts[starts >= 512]
        assert first_segment.mean() > 10 * max(second_segment.mean(), 0.1)

    def test_robustness_gap_between_spectra(self):
        """Frequency-truncation degrades on flat spectra; Dangoron does not (E10)."""
        distribution = BimodalCorrelations(strong_fraction=0.2, strong_center=0.85)
        recalls = {}
        for name, spectrum in (("peaked", peaked_spectrum(0.03, 0.01)),
                               ("flat", flat_spectrum())):
            generator = TomborgGenerator(num_series=16, spectrum=spectrum, seed=47)
            dataset = generator.generate(1024, distribution)
            query = SlidingQuery(
                start=0, end=1024, window=256, step=128, threshold=0.7
            )
            exact = BruteForceEngine().run(dataset.matrix, query)
            statstream = StatStreamEngine(
                num_coefficients=6, verify=False, candidate_margin=0.0
            ).run(dataset.matrix, query)
            dangoron = DangoronEngine(basic_window_size=64).run(dataset.matrix, query)
            recalls[name] = {
                "statstream": compare_results(statstream, exact).recall,
                "dangoron": compare_results(dangoron, exact).recall,
            }
        assert recalls["peaked"]["statstream"] >= recalls["flat"]["statstream"]
        assert recalls["flat"]["dangoron"] >= 0.9
        assert recalls["peaked"]["dangoron"] >= 0.9

    def test_parcorr_insensitive_to_spectrum(self):
        """Random projection does not depend on energy concentration."""
        distribution = BimodalCorrelations(strong_fraction=0.2, strong_center=0.85)
        recalls = []
        for spectrum in (peaked_spectrum(0.03, 0.01), flat_spectrum()):
            generator = TomborgGenerator(num_series=14, spectrum=spectrum, seed=53)
            dataset = generator.generate(768, distribution)
            query = SlidingQuery(
                start=0, end=768, window=256, step=128, threshold=0.7
            )
            exact = BruteForceEngine().run(dataset.matrix, query)
            parcorr = ParCorrEngine(
                sketch_size=128, candidate_margin=0.1, seed=2
            ).run(dataset.matrix, query)
            recalls.append(compare_results(parcorr, exact).recall)
        assert min(recalls) >= 0.85
        assert abs(recalls[0] - recalls[1]) < 0.15
