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
                        help="registry key, e.g. e7 or p5")
    parser.add_argument("--profile", choices=("quick", "full"),
                        help="default: BENCH_PROFILE, else quick; t1, e1-e13 and p1 "
                             "have the one size, quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--export", metavar="PATH",
                        help="write the export here instead of stdout")
    args = parser.parse_args(argv)
    blob = load(args.key).export(seed=args.seed, profile=args.profile)
    if args.export:
        with open(args.export, "w") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
