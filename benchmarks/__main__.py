"""The one bench CLI: ``python -m benchmarks <key> [--profile quick|full]
[--seed N] [--export PATH]`` writes a bench's deterministic export.

It runs no gates and prints no tables -- those live in each module's
``test_*`` functions (``python -m pytest benchmarks/<module>.py``).
"""

from __future__ import annotations

import argparse
import sys

from benchmarks import BENCHMARKS, load


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks", description=__doc__)
    parser.add_argument("key", choices=sorted(BENCHMARKS), metavar="key",
                        help="registry key of a bench with an export, e.g. p5")
    parser.add_argument("--profile", choices=("quick", "full"),
                        help="default: BENCH_PROFILE, else quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--export", metavar="PATH",
                        help="write the export here instead of stdout")
    args = parser.parse_args(argv)
    export = getattr(load(args.key), "export", None)
    if export is None:
        parser.error(f"benchmark {args.key!r} has no deterministic export")
    blob = export(seed=args.seed, profile=args.profile)
    if args.export:
        with open(args.export, "w") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
