"""Benchmark entry point.

    python3 perfbench/run.py --workload shared_right --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; kaluza is imported from its ``src``.
With ``--trace 0`` it prints the end-to-end metrics, measured for
``--seconds``; with ``--trace 1`` the per-layer metrics of a separate
traced process, which does a fixed amount of work instead.  Each metric
is printed as ``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Records and
spans are written under ``perfbench/out/``.  Exit code 2 means no result
could be produced.
"""

from __future__ import annotations

import argparse
import sys

import bench_core as core


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=core.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    try:
        k = core.load_kaluza()
        if args.trace:
            import bench_trace

            bench_trace.run_traced(k, args.workload, args.seed, args.seconds)
        else:
            core.run_untraced(k, args.workload, args.seed, args.seconds)
    except core.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
