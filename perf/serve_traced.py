"""The traced server: install the timing wrappers, then run ``repro serve``.

``python perf/serve_traced.py --trace-dir DIR serve ...``
behaves exactly like ``python -m repro.cli serve ...`` except that the
public callables named in :data:`perf.trace.TARGETS` record spans, written
to ``DIR`` when the server (and each forked pool worker) exits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", required=True)
    args, cli_args = parser.parse_known_args(argv)

    from perf import trace

    trace.install(Path(args.trace_dir), "serve")

    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
