"""The one bench CLI: ``python -m benchmarks <key> [--seed N] [--export PATH]``
writes a bench's deterministic export.

It runs no gates and prints no tables -- those live in each module's
``test_*`` functions (``python -m pytest benchmarks/<module>.py``).
"""

from __future__ import annotations

import argparse
import sys

from benchmarks import BENCHMARKS, load


def non_negative_int(text: str) -> int:
    """Every workload / model seed is ``k + seed``, and numpy seeds are >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks", description=__doc__)
    parser.add_argument("key", choices=sorted(BENCHMARKS), metavar="key",
                        help="registry key, e.g. e7 or p5")
    parser.add_argument("--seed", type=non_negative_int, default=0,
                        help="offsets every workload / model seed (default 0)")
    parser.add_argument("--export", metavar="PATH",
                        help="write the export here instead of stdout")
    args = parser.parse_args(argv)
    blob = load(args.key).export(seed=args.seed)
    if args.export:
        with open(args.export, "w") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
