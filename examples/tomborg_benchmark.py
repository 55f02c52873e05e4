"""Using Tomborg to benchmark sliding-correlation engines under your own data law.

Tomborg generates time-series matrices whose correlation structure is chosen
by the user and whose spectrum shape is a free knob, so engine robustness can
be measured against an exact, known ground truth.  This example

1. generates piecewise-stationary data (the correlation network changes twice),
2. validates that the generated data reproduces its targets,
3. evaluates Dangoron and the sketch baselines on every segment, and
4. shows the spectrum-robustness gap of DFT truncation (the E10 effect).

Run with::

    python examples/tomborg_benchmark.py
"""

from __future__ import annotations

from repro import BruteForceEngine, DangoronEngine, SlidingQuery
from repro.analysis import compare_results, format_table
from repro.experiments.approximate import ParCorrEngine, StatStreamEngine
from repro.tomborg import (
    BimodalCorrelations,
    SegmentSpec,
    TomborgGenerator,
    block_correlation_matrix,
    flat_spectrum,
    peaked_spectrum,
    power_law_spectrum,
    validate_dataset,
)


def main() -> None:
    # ----------------------------------------------------- piecewise dataset
    generator = TomborgGenerator(
        num_series=40, spectrum=power_law_spectrum(1.0), seed=29
    )
    dense = block_correlation_matrix([10] * 4, within=0.85, between=0.15)
    sparse = block_correlation_matrix([10] * 4, within=0.35, between=0.05)
    dataset = generator.generate_piecewise(
        [SegmentSpec(1024, dense), SegmentSpec(1024, sparse), SegmentSpec(1024, dense)]
    )
    checks = validate_dataset(dataset, edge_threshold=0.7)
    print(
        format_table(
            ["segment", "columns", "max |empirical - target|", "edge jaccard"],
            [
                [v.segment_index, v.end - v.start, v.max_abs_error, v.edge_jaccard]
                for v in checks
            ],
            title="Ground-truth validation of the generated data",
        )
    )

    query = SlidingQuery(
        start=0, end=dataset.length, window=256, step=64, threshold=0.7
    )
    exact = BruteForceEngine().run(dataset.matrix, query)
    rows = []
    for engine in (
        DangoronEngine(basic_window_size=64),
        ParCorrEngine(seed=5),
        StatStreamEngine(num_coefficients=8),
    ):
        result = engine.run(dataset.matrix, query)
        report = compare_results(result, exact)
        rows.append(
            [
                engine.describe(),
                result.stats.query_seconds,
                report.precision,
                report.recall,
                report.f1,
            ]
        )
    print()
    print(
        format_table(
            ["engine", "query_s", "precision", "recall", "f1"],
            rows,
            title="Engines on the piecewise Tomborg workload",
        )
    )

    # ------------------------------------------------ spectrum robustness gap
    distribution = BimodalCorrelations(strong_fraction=0.15, strong_center=0.85)
    gap_rows = []
    for name, spectrum in (
        ("peaked", peaked_spectrum(0.03, 0.01)),
        ("power_law", power_law_spectrum(1.0)),
        ("flat", flat_spectrum()),
    ):
        data = TomborgGenerator(num_series=30, spectrum=spectrum, seed=31).generate(
            1024, distribution
        )
        spectrum_query = SlidingQuery(
            start=0, end=1024, window=256, step=128, threshold=0.7
        )
        reference = BruteForceEngine().run(data.matrix, spectrum_query)
        truncated = StatStreamEngine(
            num_coefficients=6, verify=False, candidate_margin=0.0
        ).run(data.matrix, spectrum_query)
        pruned = DangoronEngine(basic_window_size=64).run(data.matrix, spectrum_query)
        gap_rows.append(
            [
                name,
                compare_results(truncated, reference).recall,
                compare_results(pruned, reference).recall,
            ]
        )
    print()
    print(
        format_table(
            ["spectrum", "statstream (6 coeffs) recall", "dangoron recall"],
            gap_rows,
            title="Robustness to spectrum energy concentration (E10)",
        )
    )
    print(
        "\nDFT truncation only holds up when energy concentrates in the kept "
        "coefficients; the exact basic-window sketch is unaffected."
    )


if __name__ == "__main__":
    main()
