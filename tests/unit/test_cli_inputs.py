"""CLI input handling: .npz chunk stores, and errors that name the path.

Regression tests for the fix where a missing or corrupt query input escaped
as a raw ``FileNotFoundError``/zip traceback instead of the CLI's normal
``error: ...`` line; plus the ``repro serve`` argument wiring.
"""

import numpy as np
import pytest

from repro.cli import build_parser, create_server, main
from repro.storage.chunk_store import ChunkStore


@pytest.fixture
def npz_dataset(tmp_path, rng):
    store = ChunkStore(6, chunk_columns=64, series_ids=[f"q{i}" for i in range(6)])
    store.append(rng.normal(size=(6, 128)))
    path = tmp_path / "demo.data.npz"
    store.save(path)
    return path


class TestQueryInputs:
    QUERY_ARGS = ["--window", "32", "--step", "16", "--threshold", "0.3"]

    def test_npz_chunk_store_is_queryable(self, npz_dataset, capsys):
        assert main(["query", str(npz_dataset), *self.QUERY_ARGS]) == 0
        out = capsys.readouterr().out
        assert "dangoron" in out and "window" in out

    def test_missing_csv_reports_error_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["query", str(missing), *self.QUERY_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(missing) in err

    def test_missing_npz_reports_error_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.npz"
        assert main(["query", str(missing), *self.QUERY_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(missing) in err

    def test_corrupt_npz_reports_error_with_path(self, tmp_path, capsys):
        garbage = tmp_path / "broken.npz"
        garbage.write_bytes(b"certainly not a zip archive")
        assert main(["query", str(garbage), *self.QUERY_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(garbage) in err

    def test_binary_garbage_csv_reports_error_with_path(self, tmp_path, capsys):
        garbage = tmp_path / "broken.csv"
        garbage.write_bytes(bytes(range(256)))
        assert main(["query", str(garbage), *self.QUERY_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(garbage) in err

    def test_empty_npz_store_reports_error(self, tmp_path, capsys):
        path = tmp_path / "empty.data.npz"
        ChunkStore(3, chunk_columns=8).save(path)
        assert main(["query", str(path), *self.QUERY_ARGS]) == 1
        assert "no columns" in capsys.readouterr().err


class TestServeWiring:
    def test_create_server_binds_ephemeral_port(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", "--catalog", str(tmp_path), "--port", "0"]
        )
        server = create_server(args)
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()

    @pytest.mark.parametrize("flag", [
        "--workers", "--write-buffer-columns", "--write-buffer-seconds",
    ])
    def test_serve_has_no_sharding_or_write_buffer_flags(self, tmp_path, capsys, flag):
        # Served queries run serially and appends write through.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--catalog", str(tmp_path), flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--catalog", "/data/cat"])
        assert (args.host, args.port, args.engine) == ("127.0.0.1", 8350, "dangoron")
        assert args.basic_window == 32 and args.service_workers is None
