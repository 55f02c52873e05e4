"""Dynamic functional connectivity on synthetic voxel-level BOLD data.

The paper's motivating example: sliding-window correlation of fMRI voxel time
series is the expensive step of dynamic functional-connectivity analysis.
This example

1. generates a small voxel grid with a known region parcellation,
2. computes the sequence of thresholded voxel-level connectivity matrices
   with Dangoron (every edge exact, from one pass over the sketch),
3. checks that communities detected in the time-averaged network recover the
   ground-truth parcellation, and
4. contrasts voxel-level analysis with the classical region-averaged analysis.

Run with::

    python examples/fmri_connectivity.py
"""

from __future__ import annotations

import numpy as np

from repro import DangoronEngine, SlidingQuery
from repro.analysis import format_table
from repro.datasets import SyntheticBOLD, region_average_matrix
from repro.network import (
    community_agreement,
    greedy_communities,
    persistence_graph,
)


def main() -> None:
    generator = SyntheticBOLD(
        grid_shape=(6, 6, 4),
        num_regions=10,
        num_volumes=600,
        tr_seconds=2.0,
        seed=11,
    )
    voxels, labels = generator.generate()
    print(
        f"voxels: {voxels.num_series} on a {generator.grid_shape} grid, "
        f"{voxels.length} volumes (TR={generator.tr_seconds}s), "
        f"{generator.num_regions} ground-truth regions"
    )

    # 40-volume (80 s) windows sliding by 10 volumes — typical dFC settings.
    query = SlidingQuery(
        start=0, end=voxels.length, window=40, step=10, threshold=0.5
    )
    engine = DangoronEngine(basic_window_size=10)
    result = engine.run(voxels, query)
    stats = result.stats
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["windows", result.num_windows],
                ["mean edges per window", float(np.mean(result.edge_count_series()))],
                ["evaluation fraction", stats.evaluation_fraction],
                ["pure query seconds", stats.query_seconds],
            ],
            title="Voxel-level dynamic connectivity with Dangoron",
        )
    )

    # ------------------------------------------------ parcellation recovery
    average_network = persistence_graph(result, min_persistence=0.3)
    communities = greedy_communities(average_network)
    ground_truth = {
        series_id: int(label)
        for series_id, label in zip(voxels.series_ids, labels)
    }
    agreement = community_agreement(communities, ground_truth)
    print(
        f"\ncommunities detected in the persistent network: {len(communities)}; "
        f"pair-counting agreement with the ground-truth parcellation: {agreement:.2f}"
    )

    # ------------------------------------------------ region-level contrast
    regions = region_average_matrix(voxels, labels)
    region_query = SlidingQuery(
        start=0, end=regions.length, window=40, step=10, threshold=0.5
    )
    region_result = DangoronEngine(basic_window_size=10).run(regions, region_query)
    print(
        f"\nregion-averaged analysis: {regions.num_series} series, "
        f"{region_result.total_edges()} edges across windows "
        f"(voxel-level analysis found {result.total_edges()}); the voxel-level "
        f"network preserves within-region structure the averaged one cannot see"
    )


if __name__ == "__main__":
    main()
