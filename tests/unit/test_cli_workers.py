"""CLI tests for sharded parallel execution (``repro query --workers``)."""

import pytest

from repro.cli import main
from repro.datasets.loaders import write_wide_csv


@pytest.fixture
def csv_dataset(tmp_path, ar1_matrix):
    matrix = ar1_matrix(8, 256, coefficient=0.8, shared_weight=0.7, seed=3)
    path = tmp_path / "data.csv"
    write_wide_csv(matrix, path)
    return path


def _query(csv_dataset, *extra):
    return ["query", str(csv_dataset), "--window", "64", "--step", "32",
            "--basic-window", "32", *extra]


def test_workers_flag_accepted_and_output_matches_serial(csv_dataset, capsys):
    assert main(_query(csv_dataset, "--threshold", "0.5")) == 0
    serial_output = capsys.readouterr().out
    assert main(_query(csv_dataset, "--threshold", "0.5", "--workers", "2")) == 0
    workers_output = capsys.readouterr().out
    # 8 series stay below the parallel pair floor, so both runs are serial —
    # and by the bit-identity guarantee the tables must agree regardless.
    serial_rows = [line for line in serial_output.splitlines()
                   if "|" in line and "seconds" not in line]
    workers_rows = [line for line in workers_output.splitlines()
                    if "|" in line and "seconds" not in line]
    assert serial_rows == workers_rows


@pytest.mark.parametrize("mode_args", [
    ("--mode", "topk", "--k", "3"),
    ("--mode", "lagged", "--max-lag", "4"),
])
def test_workers_accepted_for_all_modes(csv_dataset, capsys, mode_args):
    """topk/lagged queries shard too; output must match the serial run."""
    assert main(_query(csv_dataset, *mode_args)) == 0
    serial_output = capsys.readouterr().out
    assert main(_query(csv_dataset, *mode_args, "--workers", "2")) == 0
    workers_output = capsys.readouterr().out
    # Drop the plan line (it names the execution decision) and compare the
    # result summaries: sharded execution is bit-identical to serial.
    def summary(text):
        return [line for line in text.splitlines() if not line.startswith("plan[")]
    assert summary(serial_output) == summary(workers_output)


def test_workers_must_be_positive(csv_dataset, capsys):
    code = main(_query(csv_dataset, "--workers", "0"))
    assert code == 1
    assert "--workers" in capsys.readouterr().err


def test_info_reports_available_cpus(capsys):
    assert main(["info"]) == 0
    assert "cpus available for --workers:" in capsys.readouterr().out
