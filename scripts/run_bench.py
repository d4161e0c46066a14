#!/usr/bin/env python3
"""Time the embedding pipeline on random graphs of growing size and print
the per-stage table, the fitted log-log slope of total time and the
process's peak resident set size."""

import argparse
import resource

import numpy as np

from motifembed.cli import bench_scaling
from motifembed.pipeline import PipelineConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1000,10000,100000",
                    help="comma-separated node counts, ascending")
    ap.add_argument("--avg-degree", type=float, default=10.0)
    ap.add_argument("--dl", type=int, default=PipelineConfig.local_rank)
    ap.add_argument("--d", type=int, default=PipelineConfig.global_rank)
    ap.add_argument("--k", type=int, default=PipelineConfig.max_steps)
    ap.add_argument("--seed", type=int, default=PipelineConfig.seed)
    args = ap.parse_args()

    sizes = tuple(int(t) for t in args.sizes.split(",") if t)
    cfg = PipelineConfig(max_steps=args.k, local_rank=args.dl,
                         global_rank=args.d, seed=args.seed)
    rows = bench_scaling(sizes, args.avg_degree, cfg, seed=args.seed)

    print(f"{'n':>8} {'edges':>9} {'generate':>9} {'count':>9} "
          f"{'local':>9} {'global':>9} {'total':>9}")
    clean = []
    for row in rows:
        if "error" in row:
            print(f"{row['n']:>8} failed: {row['error']}")
            continue
        clean.append(row)
        print(f"{row['n']:>8} {row['edges']:>9} {row['generate_s']:>9.3f} "
              f"{row['count_s']:>9.3f} {row['local_s']:>9.3f} "
              f"{row['global_s']:>9.3f} {row['total_s']:>9.3f}")
    if len(clean) >= 2:
        slope = np.polyfit(np.log([r["n"] for r in clean]),
                           np.log([r["total_s"] for r in clean]), 1)[0]
        print(f"log-log slope of total time: {slope:.3f}")
    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS: {peak_kib / 1024:.1f} MiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
