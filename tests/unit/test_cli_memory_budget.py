"""CLI tests for out-of-core execution (``--memory-budget``)."""

import numpy as np
import pytest

from repro.cli import main, parse_byte_size
from repro.exceptions import ReproError
from repro.storage.chunk_store import ChunkStore


@pytest.fixture
def npz_dataset(tmp_path):
    rng = np.random.default_rng(31)
    base = rng.standard_normal(512)
    values = np.stack([base + 0.3 * rng.standard_normal(512) for _ in range(6)])
    store = ChunkStore(num_series=6, chunk_columns=100)
    store.append(values)
    return str(store.save(tmp_path / "demo.data.npz"))


def _query(path, *extra):
    return ["query", path, "--window", "128", "--step", "64",
            "--basic-window", "16", "--threshold", "0.5", *extra]


class TestParseByteSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1048576", 1048576),
            ("64k", 64 * 1024),
            ("64KB", 64 * 1024),
            ("2MiB", 2 * 1024**2),
            ("1g", 1024**3),
            ("1.5kb", 1536),
            (" 8 mb ", 8 * 1024**2),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_byte_size(text) == expected

    @pytest.mark.parametrize("text", ["", "huge", "12q", "-4k", "0"])
    def test_rejected(self, text):
        with pytest.raises(ReproError):
            parse_byte_size(text)


class TestQueryMemoryBudget:
    def test_budgeted_npz_query_matches_unbudgeted(self, npz_dataset, capsys):
        assert main(_query(npz_dataset)) == 0
        dense_out = capsys.readouterr().out
        assert main(_query(npz_dataset, "--memory-budget", "3k")) == 0
        tiled_out = capsys.readouterr().out
        assert "build=tiled(budget=3072B)" in tiled_out
        # The per-window tables (everything but the plan/timing lines) agree
        # exactly — out-of-core execution is bit-identical.
        def rows(text):
            return [line for line in text.splitlines()
                    if "|" in line and "seconds" not in line]
        assert rows(dense_out) == rows(tiled_out)

    def test_large_budget_stays_dense(self, npz_dataset, capsys):
        assert main(_query(npz_dataset, "--memory-budget", "1g")) == 0
        assert "build=tiled" not in capsys.readouterr().out

    def test_topk_accepts_budget(self, npz_dataset):
        assert main(["query", npz_dataset, "--mode", "topk", "--window", "128",
                     "--step", "64", "--basic-window", "16", "--k", "3",
                     "--memory-budget", "3k"]) == 0

    def test_lagged_accepts_budget_and_matches_dense(self, npz_dataset, capsys):
        lagged = ["query", npz_dataset, "--mode", "lagged", "--window", "128",
                  "--step", "64", "--max-lag", "4"]
        assert main(lagged) == 0
        dense_out = capsys.readouterr().out
        # 6 series x 128-column window = 6144 bytes per buffer; 8k streams
        # (the full 6 x 512 matrix would need 24576 bytes).
        assert main([*lagged, "--memory-budget", "8k"]) == 0
        streamed_out = capsys.readouterr().out
        assert "build=tiled(budget=8192B)" in streamed_out

        def rows(text):
            return [line for line in text.splitlines()
                    if "|" in line and "seconds" not in line]
        assert rows(dense_out) == rows(streamed_out)

    def test_lagged_budget_below_one_window_fails_cleanly(self, npz_dataset, capsys):
        code = main(["query", npz_dataset, "--mode", "lagged", "--window", "128",
                     "--step", "64", "--memory-budget", "3k"])
        assert code == 1
        err = capsys.readouterr().err
        assert "lagged" in err and "tiled" in err and "window buffer" in err

    def test_unparseable_budget_fails_cleanly(self, npz_dataset, capsys):
        assert main(_query(npz_dataset, "--memory-budget", "lots")) == 1
        assert "byte size" in capsys.readouterr().err


class TestServeMemoryBudget:
    def test_create_server_threads_budget(self, tmp_path):
        from repro.cli import build_parser, create_server
        from repro.storage.catalog import Catalog

        catalog = Catalog(tmp_path / "catalog")
        store = ChunkStore(num_series=3, chunk_columns=32)
        store.append(np.random.default_rng(0).standard_normal((3, 128)))
        catalog.add_dataset("demo", store)
        args = build_parser().parse_args(
            ["serve", "--catalog", str(tmp_path / "catalog"), "--port", "0",
             "--memory-budget", "2MB"]
        )
        server = create_server(args)
        try:
            assert server.service.config.memory_budget == 2 * 1024**2
        finally:
            server.stop()
