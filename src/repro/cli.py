"""Command-line interface for the Dangoron reproduction.

Five subcommands cover the workflow a user of the system actually runs:

``repro generate``
    Produce a synthetic dataset (climate, fMRI, finance, rain gauges, or a
    Tomborg configuration) and write it as a wide CSV.
``repro query``
    Run a sliding correlation query over a wide CSV or a chunk-store
    ``.npz`` through a :class:`~repro.api.CorrelationSession` and print the
    per-window summary (optionally exporting the edge list).  ``--mode``
    selects the query type (``threshold``, ``topk`` or ``lagged``),
    repeatable ``--engine-opt key=value`` flags reach every engine option
    without writing Python (threshold answers are exact unless
    ``use_temporal_pruning=true`` opts into jumping; the summary says
    which), ``--workers N`` shards large queries of any mode across a
    worker pool, and ``--memory-budget BYTES`` streams
    ``.npz`` inputs through the tiled out-of-core builder (lagged mode:
    streamed window buffers) without materializing the dense matrix (both
    bit-identical, see :mod:`repro.parallel` and :mod:`repro.core.tiled`).
``repro serve``
    Run the long-lived correlation query service over a dataset catalog
    directory (see :mod:`repro.service` and ``docs/service.md``).
``repro experiment``
    Regenerate one of the experiments (E1–E15) and print its table.
``repro info``
    Show the library version, registered engines and known experiments.

The module is also installed as the ``repro`` console script; every function
is importable so tests drive :func:`main` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.api.queries import LaggedQuery, ThresholdQuery, TopKQuery
from repro.api.session import CorrelationSession
from repro.analysis.report import format_table, summarize_result
from repro.core.engine import available_engines
from repro.core.query import THRESHOLD_ABSOLUTE, THRESHOLD_SIGNED
from repro.core.result import CorrelationSeriesResult
from repro.datasets.climate import SyntheticUSCRN
from repro.datasets.finance import SyntheticMarket
from repro.datasets.fmri import SyntheticBOLD
from repro.datasets.loaders import load_wide_csv, write_wide_csv
from repro.datasets.raingauge import SyntheticRainGauges
from repro.exceptions import ReproError
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.tomborg.generator import TomborgGenerator
from repro.tomborg.distributions import named_distribution
from repro.tomborg.spectral import named_spectrum

_DATASETS = ("climate", "fmri", "finance", "raingauge", "tomborg")
_QUERY_MODES = ("threshold", "topk", "lagged")


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def _generate_dataset(args: argparse.Namespace) -> TimeSeriesMatrix:
    if args.dataset == "climate":
        return SyntheticUSCRN(
            num_stations=args.num_series, num_days=max(2, args.length // 24),
            seed=args.seed,
        ).generate_anomalies()
    if args.dataset == "fmri":
        side = max(3, int(round(args.num_series ** (1.0 / 3.0))) + 1)
        matrix, _ = SyntheticBOLD(
            grid_shape=(side, side, max(2, args.num_series // (side * side) + 1)),
            num_volumes=args.length,
            seed=args.seed,
        ).generate()
        return matrix
    if args.dataset == "finance":
        return SyntheticMarket(
            num_assets=args.num_series, num_days=args.length, seed=args.seed
        ).generate_returns()
    if args.dataset == "raingauge":
        return SyntheticRainGauges(
            num_gauges=args.num_series, num_days=args.length, seed=args.seed
        ).generate()
    distribution = named_distribution(args.distribution)
    spectrum = named_spectrum(args.spectrum)
    generator = TomborgGenerator(
        num_series=args.num_series, spectrum=spectrum, seed=args.seed
    )
    return generator.generate(args.length, distribution).matrix


def _command_generate(args: argparse.Namespace) -> int:
    matrix = _generate_dataset(args)
    path = write_wide_csv(matrix, args.output)
    print(
        f"wrote {matrix.num_series} series x {matrix.length} columns "
        f"({args.dataset}) to {path}"
    )
    return 0


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def parse_engine_option(text: str) -> tuple:
    """Parse one ``--engine-opt key=value`` flag into a typed ``(key, value)``.

    Values are coerced in order: booleans (``true``/``false``/``yes``/``no``,
    case-insensitive), ints, floats, ``none``/``null`` to ``None``; anything
    else stays a string (e.g. ``name=value``).
    """
    key, separator, raw = text.partition("=")
    key = key.strip()
    if not separator or not key:
        raise ReproError(
            f"--engine-opt expects key=value, got {text!r}"
        )
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("true", "yes"):
        return key, True
    if lowered in ("false", "no"):
        return key, False
    if lowered in ("none", "null"):
        return key, None
    try:
        return key, int(raw)
    except ValueError:
        pass
    try:
        return key, float(raw)
    except ValueError:
        pass
    return key, raw


_BYTE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1024, "kb": 1024, "kib": 1024,
    "m": 1024**2, "mb": 1024**2, "mib": 1024**2,
    "g": 1024**3, "gb": 1024**3, "gib": 1024**3,
}


def parse_byte_size(text: str) -> int:
    """Parse a human byte count (``"64MiB"``, ``"2g"``, ``"1048576"``) to bytes.

    Used by ``--memory-budget``; suffixes are binary (``k``/``m``/``g`` =
    1024-based) and case-insensitive.  Anything unparseable or non-positive
    raises :class:`ReproError` naming the input.
    """
    stripped = text.strip().lower()
    index = len(stripped)
    while index > 0 and not (stripped[index - 1].isdigit() or stripped[index - 1] == "."):
        index -= 1
    number, suffix = stripped[:index], stripped[index:].strip()
    try:
        scale = _BYTE_SUFFIXES[suffix]
        value = int(float(number) * scale)
    except (KeyError, ValueError):
        raise ReproError(
            f"cannot parse byte size {text!r} (expected e.g. 1048576, 64MB, 2GiB)"
        ) from None
    if value < 1:
        raise ReproError(f"byte size must be positive, got {text!r}")
    return value


def _load_input_matrix(path: str, memory_budget: Optional[int] = None) -> TimeSeriesMatrix:
    """Load a query input: wide CSV, or a ``.npz`` chunk store from a catalog.

    With ``memory_budget`` set, a ``.npz`` input is opened through the lazy
    :class:`~repro.storage.chunk_store.ChunkStoreReader` and wrapped in a
    :class:`~repro.core.tiled.ChunkBackedMatrix` — the dense matrix is never
    materialized for aligned queries, which is the CLI's out-of-core path
    (see ``docs/scaling.md``).

    A missing file or a corrupt/truncated archive used to escape as a raw
    ``FileNotFoundError``/``zipfile``/``numpy`` traceback; every failure mode
    now surfaces as :class:`~repro.exceptions.ExperimentError` naming the
    path, matching the planner's error style.
    """
    from repro.exceptions import ExperimentError
    from repro.storage.chunk_store import ChunkStore, ChunkStoreReader

    try:
        if path.endswith(".npz"):
            if memory_budget is not None:
                from repro.core.tiled import ChunkBackedMatrix

                reader = ChunkStoreReader(path)
                if reader.length == 0:
                    raise ExperimentError(f"chunk store {path} contains no columns")
                return ChunkBackedMatrix(reader)
            store = ChunkStore.load(path)
            if store.length == 0:
                raise ExperimentError(f"chunk store {path} contains no columns")
            return store.to_matrix()
        return load_wide_csv(path)
    except ReproError:
        raise  # already named and typed by the loader
    except OSError as error:
        raise ExperimentError(f"cannot read query input {path}: {error}") from error
    except (UnicodeDecodeError, ValueError) as error:
        raise ExperimentError(
            f"query input {path} is not a readable dataset "
            f"(expected a wide CSV or a chunk-store .npz): {error}"
        ) from error


def _build_query(args: argparse.Namespace, end: int):
    common = dict(
        start=args.start,
        end=end,
        window=args.window,
        step=args.step,
        threshold_mode=THRESHOLD_ABSOLUTE if args.absolute else THRESHOLD_SIGNED,
    )
    if args.mode == "topk":
        return TopKQuery(k=args.k, **common)
    if args.mode == "lagged":
        return LaggedQuery(threshold=args.threshold, max_lag=args.max_lag, **common)
    return ThresholdQuery(threshold=args.threshold, **common)


def _command_query(args: argparse.Namespace) -> int:
    if args.mode != "threshold" and (args.engine != "dangoron" or args.engine_opt):
        # Engines answer threshold queries only; accepting these flags for
        # topk/lagged would silently ignore them.  --workers and
        # --memory-budget apply to every mode: the planner shards and
        # streams all query families.
        raise ReproError(
            f"--engine/--engine-opt apply to --mode threshold only "
            f"(mode {args.mode!r} does not run through an engine)"
        )
    if args.workers is not None and args.workers < 1:
        raise ReproError(f"--workers must be at least 1, got {args.workers}")
    memory_budget = (
        parse_byte_size(args.memory_budget) if args.memory_budget is not None else None
    )
    matrix = _load_input_matrix(args.input, memory_budget=memory_budget)
    end = args.end if args.end is not None else matrix.length
    query = _build_query(args, end)
    session = CorrelationSession(
        matrix,
        engine=args.engine,
        engine_options=dict(parse_engine_option(opt) for opt in args.engine_opt),
        basic_window_size=args.basic_window,
        workers=args.workers,
        memory_budget=memory_budget,
    )
    # Shows whether the planner chose serial or sharded execution — in
    # particular *why* an explicit --workers request stays serial (pair
    # count under the floor, unaligned windows, or an engine configuration
    # that cannot shard) — and whether the data path builds dense or
    # tiled/streamed under a --memory-budget.
    print(session.plan(query).describe())
    result = session.run(query)

    print(result.describe())
    if isinstance(result, CorrelationSeriesResult):
        headers = ["window", "start", "end", "edges", "density"]
        rows = []
        starts = result.window_starts()
        engine = session.planner.resolve_engine()
        for k, matrix_k in enumerate(result.matrices):
            rows.append(
                [k, int(starts[k]), int(starts[k]) + query.window, matrix_k.num_edges,
                 matrix_k.density()]
            )
        print(format_table(headers, rows, title=f"{engine.describe()} on {args.input}"))
        stats_rows = [
            [key, value] for key, value in sorted(result.stats.as_dict().items())
        ]
        print(format_table(["stat", "value"], stats_rows, title="engine statistics"))
    else:
        print(summarize_result(result, title=f"{args.mode} query on {args.input}"))

    if args.edges_output:
        # repro.network pulls in networkx; only this branch needs it.
        from repro.network.export import (
            write_protocol_edge_list,
            write_temporal_edge_list,
        )

        if isinstance(result, CorrelationSeriesResult):
            path = write_temporal_edge_list(result, args.edges_output)
        else:
            path = write_protocol_edge_list(
                result, args.edges_output, series_ids=matrix.series_ids
            )
        print(f"wrote temporal edge list to {path}")
    return 0


# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------

def create_server(args: argparse.Namespace):
    """Build the (unstarted) service server from parsed ``repro serve`` args.

    Split from :func:`_command_serve` so tests can construct a server on an
    ephemeral port without blocking on ``serve_forever``.
    """
    # Imported lazily: most CLI invocations never need the HTTP stack.
    from repro.service import CorrelationServer, CorrelationService
    from repro.storage.catalog import Catalog

    if args.service_workers is not None and args.service_workers < 1:
        raise ReproError(
            f"--service-workers must be at least 1, got {args.service_workers}"
        )
    memory_budget = (
        parse_byte_size(args.memory_budget) if args.memory_budget is not None else None
    )
    service = CorrelationService(
        Catalog(args.catalog),
        engine=args.engine,
        engine_options=dict(parse_engine_option(opt) for opt in args.engine_opt),
        basic_window_size=args.basic_window,
        memory_budget=memory_budget,
        service_workers=args.service_workers,
        admission_queue_limit=args.admission_queue_limit,
        batch_window_seconds=args.batch_window_seconds,
    )
    return CorrelationServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )


def _command_serve(args: argparse.Namespace) -> int:
    server = create_server(args)
    names = server.service.catalog.dataset_names()
    print(f"serving {len(names)} dataset(s) from {args.catalog} on {server.url}")
    if names:
        print("datasets: " + ", ".join(names))
    print("endpoints: GET /healthz  GET /datasets  POST /datasets/{name}/query  (see docs/service.md)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


# ---------------------------------------------------------------------------
# Experiments and info
# ---------------------------------------------------------------------------

def _command_experiment(args: argparse.Namespace) -> int:
    # Imported lazily: the registry pulls in every engine and workload builder.
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.list:
        for experiment_id, function in sorted(EXPERIMENTS.items()):
            print(f"{experiment_id}: {(function.__doc__ or '').strip().splitlines()[0]}")
        return 0
    if not args.experiment_id:
        print("error: specify an experiment id or --list", file=sys.stderr)
        return 2
    result = run_experiment(args.experiment_id, scale=args.scale)
    print(result.table())
    if result.notes:
        print(f"[{result.experiment_id}] {result.notes}")
    return 0


def _command_info(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.parallel.executor import available_workers

    print(f"dangoron-repro {__version__}")
    print("engines: " + ", ".join(sorted(available_engines())))
    print("experiments: " + ", ".join(sorted(EXPERIMENTS)))
    print("datasets: " + ", ".join(_DATASETS))
    print(f"cpus available for --workers: {available_workers()}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dangoron reproduction: sliding-window correlation networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command")

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic dataset and write it as a wide CSV"
    )
    generate.add_argument("dataset", choices=_DATASETS)
    generate.add_argument("--output", "-o", required=True, help="output CSV path")
    generate.add_argument("--num-series", type=int, default=32)
    generate.add_argument(
        "--length", type=int, default=1024,
        help="series length (days for finance/raingauge, hours/volumes otherwise)",
    )
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--distribution", default="bimodal", help="Tomborg correlation distribution"
    )
    generate.add_argument("--spectrum", default="power_law", help="Tomborg spectrum")
    generate.set_defaults(handler=_command_generate)

    query = subparsers.add_parser(
        "query", help="run a sliding correlation query over a wide CSV"
    )
    query.add_argument(
        "input",
        help="wide CSV produced by 'repro generate', or a chunk-store .npz "
             "from a storage catalog",
    )
    query.add_argument(
        "--mode", default="threshold", choices=_QUERY_MODES,
        help="query type: thresholded matrices, top-k pairs, or lagged edges",
    )
    query.add_argument("--engine", default="dangoron", choices=sorted(available_engines()))
    query.add_argument(
        "--engine-opt", action="append", default=[], metavar="KEY=VALUE",
        help="engine constructor option (repeatable); threshold answers are "
             "exact unless --engine-opt use_temporal_pruning=true opts into "
             "Dangoron's Eq. 2 jumping (slack=... tunes its recall)",
    )
    query.add_argument("--window", type=int, required=True)
    query.add_argument("--step", type=int, required=True)
    query.add_argument("--threshold", type=float, default=0.7)
    query.add_argument("--k", type=int, default=10, help="pairs per window (topk mode)")
    query.add_argument(
        "--max-lag", type=int, default=1, help="lag range in columns (lagged mode)"
    )
    query.add_argument("--start", type=int, default=0)
    query.add_argument("--end", type=int, default=None)
    query.add_argument("--basic-window", type=int, default=32)
    query.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard large queries (any mode) across N pool workers "
             "(results are bit-identical to serial execution)",
    )
    query.add_argument(
        "--memory-budget", default=None, metavar="BYTES",
        help="bound the resident data (e.g. 64MB): sketch builds tile and "
             "lagged windows stream; .npz inputs then read from disk without "
             "materializing the dense matrix",
    )
    query.add_argument(
        "--absolute", action="store_true", help="threshold on |c| instead of c"
    )
    query.add_argument(
        "--edges-output", default=None, help="also write the temporal edge list CSV"
    )
    query.set_defaults(handler=_command_query)

    serve = subparsers.add_parser(
        "serve", help="run the correlation query service over a dataset catalog"
    )
    serve.add_argument(
        "--catalog", required=True,
        help="catalog directory (created by repro.storage.Catalog)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8350, help="listening port (0 = ephemeral)"
    )
    serve.add_argument(
        "--engine", default="dangoron", choices=sorted(available_engines()),
        help="engine answering threshold queries",
    )
    serve.add_argument(
        "--engine-opt", action="append", default=[], metavar="KEY=VALUE",
        help="engine constructor option (repeatable)",
    )
    serve.add_argument("--basic-window", type=int, default=32)
    serve.add_argument(
        "--memory-budget", default=None, metavar="BYTES",
        help="bound each dataset's sketch-build working set (e.g. 256MB); "
             "larger datasets build their statistics tiled, bit-identically",
    )
    serve.add_argument(
        "--cost-calibration", default=None, choices=["fixture"],
        help="accepted for compatibility and changes nothing: served "
             "queries always run serially",
    )
    serve.add_argument(
        "--service-workers", type=int, default=None, metavar="N",
        help="run query scans in a pool of N forked worker processes over "
             "shared mmap sketch segments (default: in-process execution)",
    )
    serve.add_argument(
        "--admission-queue-limit", type=int, default=None, metavar="N",
        help="shed query load with 429 + Retry-After once a dataset has N "
             "requests in flight (default: admit everything)",
    )
    serve.add_argument(
        "--batch-window-seconds", type=float, default=0.0, metavar="SECONDS",
        help="group-commit window for threshold batching: wait this long for "
             "compatible queries to join one shared scan (default: 0, only "
             "batch while queued)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    serve.set_defaults(handler=_command_serve)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's experiments"
    )
    experiment.add_argument("experiment_id", nargs="?", default=None)
    experiment.add_argument("--scale", type=float, default=0.3)
    experiment.add_argument("--list", action="store_true", help="list experiment ids")
    experiment.set_defaults(handler=_command_experiment)

    info = subparsers.add_parser("info", help="show version, engines and experiments")
    info.set_defaults(handler=_command_info)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
