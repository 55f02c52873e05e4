"""CLI tests for the unified query modes and --engine-opt (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_engine_option
from repro.datasets.loaders import write_wide_csv
from repro.exceptions import ReproError


@pytest.fixture
def csv_dataset(tmp_path, ar1_matrix):
    matrix = ar1_matrix(8, 256, coefficient=0.8, shared_weight=0.7, seed=3)
    path = tmp_path / "data.csv"
    write_wide_csv(matrix, path)
    return path


class TestParseEngineOption:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("slack=0.05", ("slack", 0.05)),
            ("num_pivots=4", ("num_pivots", 4)),
            ("use_horizontal_pruning=true", ("use_horizontal_pruning", True)),
            ("use_temporal_pruning=False", ("use_temporal_pruning", False)),
            ("use_temporal_pruning=yes", ("use_temporal_pruning", True)),
            ("seed=none", ("seed", None)),
            ("pivot_strategy=kcenter", ("pivot_strategy", "kcenter")),
        ],
    )
    def test_typed_parsing(self, text, expected):
        assert parse_engine_option(text) == expected

    @pytest.mark.parametrize("text", ["slack", "=0.5", "", "=", "  =x"])
    def test_malformed_flag_raises(self, text):
        with pytest.raises(ReproError):
            parse_engine_option(text)


class TestQueryModes:
    def _query(self, csv_dataset, *extra):
        return ["query", str(csv_dataset), "--window", "64", "--step", "32",
                "--basic-window", "32", *extra]

    def test_default_mode_is_threshold(self, csv_dataset, capsys):
        assert main(self._query(csv_dataset)) == 0
        output = capsys.readouterr().out
        assert "engine statistics" in output

    def test_topk_mode(self, csv_dataset, capsys):
        code = main(self._query(csv_dataset, "--mode", "topk", "--k", "3"))
        assert code == 0
        output = capsys.readouterr().out
        assert "top-3" in output
        assert "mean_|weight|" in output

    def test_lagged_mode(self, csv_dataset, capsys):
        code = main(self._query(
            csv_dataset, "--mode", "lagged", "--max-lag", "4",
            "--threshold", "0.4",
        ))
        assert code == 0
        output = capsys.readouterr().out
        assert "lagged(max_lag=4)" in output

    def test_topk_edges_output_has_lag_column(self, csv_dataset, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        code = main(self._query(
            csv_dataset, "--mode", "topk", "--k", "2",
            "--edges-output", str(edges),
        ))
        assert code == 0
        header = edges.read_text().splitlines()[0]
        assert header == "window,source,target,weight,lag"

    def test_engine_opt_reaches_the_engine(self, csv_dataset, capsys):
        code = main(self._query(
            csv_dataset, "--engine", "incremental", "--engine-opt", "refresh_every=16",
        ))
        assert code == 0
        assert "incremental[refresh=16]" in capsys.readouterr().out

    def test_bad_engine_opt_reports_accepted_options(self, csv_dataset, capsys):
        code = main(self._query(csv_dataset, "--engine-opt", "slak=0.05"))
        assert code == 1
        err = capsys.readouterr().err
        assert "'basic_window_size'" in err  # accepted options listed in the message

    def test_a_jumping_option_fails_cleanly(self, csv_dataset, capsys):
        """Jumping is an experiment engine, not an option: the engine
        registry names the option and the accepted ones, with no
        traceback."""
        code = main(self._query(
            csv_dataset, "--engine-opt", "use_temporal_pruning=true",
        ))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid options for engine 'dangoron'")
        assert "use_temporal_pruning" in err
        assert "accepted options: ['basic_window_size']" in err
        assert "Traceback" not in err

    def test_a_jumping_option_fails_cleanly_as_a_process(self, csv_dataset):
        """The same request through the console entry point: exit status 1
        and one ``error:`` line, whatever the interpreter prints on exit."""
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *self._query(
                csv_dataset, "--engine-opt", "use_temporal_pruning=true",
            )],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: invalid options for engine 'dangoron'")
        assert "Traceback" not in done.stderr

    def test_malformed_engine_opt_fails_cleanly(self, csv_dataset, capsys):
        code = main(self._query(csv_dataset, "--engine-opt", "slack"))
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    def test_engine_flags_rejected_outside_threshold_mode(self, csv_dataset, capsys):
        """topk/lagged run on fixed paths; silently ignoring --engine would
        make engine comparisons lie."""
        code = main(self._query(
            csv_dataset, "--mode", "topk", "--engine", "tsubasa",
        ))
        assert code == 1
        assert "threshold" in capsys.readouterr().err
        code = main(self._query(
            csv_dataset, "--mode", "lagged", "--engine-opt", "slack=0.1",
        ))
        assert code == 1
