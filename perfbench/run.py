"""Engine benchmark of record: run one workload, print one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload vc-saturated --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see :mod:`perfbench.bench`).  Human-readable lines, including
``failed_frac``, precede the final JSON line; the full record (provenance,
per-repetition digests, spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it.

    Refuses any other installed ``repro``: without the checkout's own
    source tree there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.bench import report

    return report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
