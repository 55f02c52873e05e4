"""Unit tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.datasets.loaders import load_wide_csv, write_wide_csv


@pytest.fixture
def csv_dataset(tmp_path, ar1_matrix):
    """A small correlated dataset written in the CLI's wide CSV format."""
    matrix = ar1_matrix(8, 256, coefficient=0.8, shared_weight=0.7, seed=3)
    path = tmp_path / "data.csv"
    write_wide_csv(matrix, path)
    return path


class TestGenerate:
    @pytest.mark.parametrize("dataset", ["climate", "finance", "raingauge", "tomborg"])
    def test_generates_each_dataset_kind(self, tmp_path, dataset, capsys):
        output = tmp_path / f"{dataset}.csv"
        code = main([
            "generate", dataset, "--output", str(output),
            "--num-series", "6", "--length", "128", "--seed", "5",
        ])
        assert code == 0
        assert output.exists()
        matrix = load_wide_csv(output)
        assert matrix.num_series >= 2
        assert "wrote" in capsys.readouterr().out

    def test_fmri_generation(self, tmp_path):
        output = tmp_path / "fmri.csv"
        code = main([
            "generate", "fmri", "--output", str(output),
            "--num-series", "27", "--length", "200", "--seed", "5",
        ])
        assert code == 0
        assert load_wide_csv(output).length == 200


class TestQuery:
    def test_query_prints_tables(self, csv_dataset, capsys):
        code = main([
            "query", str(csv_dataset), "--engine", "dangoron",
            "--window", "64", "--step", "32", "--threshold", "0.6",
            "--basic-window", "32",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "dangoron" in output
        assert "edges" in output
        assert "engine statistics" in output

    def test_query_writes_edge_list(self, csv_dataset, tmp_path, capsys):
        edges_path = tmp_path / "edges.csv"
        code = main([
            "query", str(csv_dataset), "--engine", "brute_force",
            "--window", "64", "--step", "64", "--threshold", "0.5",
            "--edges-output", str(edges_path),
        ])
        assert code == 0
        assert edges_path.exists()
        header = edges_path.read_text().splitlines()[0]
        assert header == "window,source,target,weight"

    def test_query_absolute_mode_and_other_engine(self, csv_dataset):
        code = main([
            "query", str(csv_dataset), "--engine", "incremental",
            "--window", "64", "--step", "32", "--threshold", "0.6", "--absolute",
        ])
        assert code == 0

    def test_invalid_query_reports_error(self, csv_dataset, capsys):
        code = main([
            "query", str(csv_dataset), "--engine", "dangoron",
            "--window", "1024", "--step", "32", "--threshold", "0.6",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperimentAndInfo:
    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E2" in output

    def test_experiment_requires_id(self, capsys):
        assert main(["experiment"]) == 2
        assert "specify an experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment_id", [f"E{i}" for i in range(1, 16)])
    def test_every_registered_experiment_prints_its_table(
        self, capsys, experiment_id
    ):
        assert main(["experiment", experiment_id, "--scale", "0.15"]) == 0
        title, underline, _header, rule, *rows = (
            capsys.readouterr().out.splitlines()
        )
        assert title.startswith(f"{experiment_id}: ")
        assert set(underline) == {"="} and set(rule) <= {"-", " "}
        # At least one measured row besides the trailing "[E<n>] notes" line.
        assert [row for row in rows if not row.startswith("[")]

    def test_info_lists_components(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert __version__ in output
        assert "dangoron" in output
        assert "E1" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_version_flag(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["--version"])
        assert excinfo.value.code == 0


def test_importing_the_cli_and_server_loads_neither_scipy_nor_networkx():
    """The query and serve paths need numpy only (CI's smoke jobs install no more).

    scipy is used by ``repro.analysis.significance`` and networkx by
    ``repro.network``; both are imported where they are called, so a fresh
    interpreter that imports the CLI and the HTTP server has loaded neither.
    """
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import repro.cli, repro.service.http, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
