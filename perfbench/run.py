#!/usr/bin/env python3
"""motifembed benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload embed-er --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload graph is drawn from ``--seed``
and written as an edge-list file; the program sees only that file, through
its real entry point ``motifembed.cli.main`` called in-process, and writes
the TSV a user would get.

``--trace 0`` times CLI calls until ``--seconds`` of calls have run (at
least one) and reports the end-to-end metrics. Between calls it times a
fixed calibration kernel (``calibration.py``); ``cli_rel`` is the median of
each call's wall time over the mean of the kernel times around it, which
cancels most of a shared machine's slow phases. The raw median wall time
(``embed_s`` or ``linkpred_s``) is printed and recorded beside it.

``--trace 1`` makes one warm-up call, then alternates an untraced and a
traced call for as long, and reports the traced calls' per-layer metrics,
the tracing overhead and each layer's share of a call.

Every output is checked; a failed call or check counts in ``failed``.
A record of the run (environment, input, samples and, when traced, the
spans) goes to ``.perfbench_run/``. The last stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import SHARE_METRICS, Tracer, capture_embeddings, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
BLAS_THREADS = 1  # pinned for steady timings; never more than nproc
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED_ENV_VAR = "MOTIFEMBED_SEED"  # would override the workload's CLI seed
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import motifembed.cli; print(time.perf_counter() - t)"


def pin_environment() -> dict:
    """Pin BLAS threads and unset the seed override, before numpy loads."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(threads)
    seed_was_set = os.environ.pop(SEED_ENV_VAR, None) is not None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        SEED_ENV_VAR: "unset (removed from the environment)" if seed_was_set else "unset",
    }


def import_seconds() -> float:
    """``import motifembed.cli`` in a fresh interpreter, as a CLI user pays it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    return float(probe.stdout.strip())


class Run:
    """CLI calls on one workload input, with every output checked."""

    def __init__(self, workload, seed: int, workdir: Path):
        from workloads import graph_stats, write_edge_list

        self.workload = workload
        self.workdir = workdir
        self.input = workdir / "graph.txt"
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            edges = workload.make_graph(seed)
            write_edge_list(self.input, workload.n, edges)
            setups.append(time.perf_counter() - start + import_seconds())
        self.setup_samples = setups
        self.stats = graph_stats(workload.n, edges)
        self.echo = {"subcommand": workload.subcommand, "input": str(self.input),
                     **workload.echo, "seed": "0"}
        self.attempted = 0
        self.failed = 0
        self.first_output: bytes | None = None
        self.auc_mean: float | None = None
        self.fusion_ratio: float | None = None

    def fail(self, messages: list[str]) -> None:
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)
        self.failed += len(messages)

    def call(self, main) -> tuple[float, bytes | None]:
        """One CLI call; its wall seconds and output bytes (None if it failed)."""
        out = self.workdir / "out.tsv"
        argv = [self.workload.subcommand, "--input", str(self.input), *self.workload.flags,
                "--out", str(out)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed call, not a dead benchmark
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail([f"motifembed {' '.join(argv)} returned {code}"])
            return elapsed, None
        data = out.read_bytes()
        out.unlink()
        return elapsed, data

    def check(self, data: bytes | None, results: list | None = None) -> None:
        """Check one call's output and, when captured, the pipeline results
        it returned. The run's first output is checked in full; every later
        one must equal it byte for byte (determinism, and tracing changes
        nothing)."""
        from checks import check_embed_tsv, check_linkpred_tsv

        if data is None:
            return
        if results is not None:
            self.check_results(results)
        if self.first_output is not None:
            if data != self.first_output:
                self.fail(["output differs from the run's first output"])
            return
        self.first_output = data
        try:
            text = data.decode("utf-8")
            if self.workload.subcommand == "embed":
                nodes = results[0][1].embedding.nodes if results else None
                self.fail(check_embed_tsv(text, self.echo, self.workload.n, nodes))
            else:
                failures, self.auc_mean = check_linkpred_tsv(text, self.echo, int(self.echo["seeds"]))
                self.fail(failures)
        except (UnicodeDecodeError, ValueError, IndexError) as exc:
            self.fail([f"unparseable output: {exc}"])

    def check_results(self, results: list) -> None:
        """Orbit counts against an independent count, and the fusion
        objective against its closed-form optimum, for every pipeline run."""
        from checks import check_counts, fusion_ratio

        if self.workload.subcommand == "embed" and len(results) != 1:
            self.fail([f"embed ran the pipeline {len(results)} times"])
        ratios = []
        for graph, result in results:
            self.fail(check_counts(graph, result.counts))
            ratio, failures = fusion_ratio(result)
            self.fail(failures)
            ratios.append(ratio)
        if ratios and self.fusion_ratio is None:
            self.fusion_ratio = statistics.mean(ratios)


def measure(run: Run, cli, seconds: float) -> dict:
    """Untraced calls until ``seconds`` of calls have run."""
    from calibration import Calibration

    calibration = Calibration()
    times, cal, peak_mb = [], [calibration.seconds()], None
    while not times or sum(times) < seconds:
        captured: list = []
        with capture_embeddings(captured):
            elapsed, data = run.call(cli.main)
        times.append(elapsed)
        cal.append(calibration.seconds())
        if peak_mb is None:  # before any check allocates
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.check(data, captured if len(times) == 1 else None)  # later outputs must equal the first
    rel = [t / ((before + after) / 2) for t, before, after in zip(times, cal, cal[1:])]
    return {"calls_s": times, "calibration_s": cal, "calls_rel": rel, "peak_rss_mb": peak_mb}


def measure_traced(run: Run, cli, seconds: float) -> dict:
    """After one warm-up call, pairs of an untraced and a traced call until
    ``seconds`` have run. The warm-up keeps first-call costs out of the
    tracing overhead, and the order within a pair alternates."""
    run.check(run.call(cli.main)[1])
    plain, traced, layers, first = [], [], [], None
    while not traced or sum(plain) + sum(traced) < seconds:
        tracer = Tracer()
        for traced_turn in (False, True) if len(traced) % 2 == 0 else (True, False):
            if traced_turn:
                with instrument(tracer):
                    elapsed, data = run.call(cli.main)
                traced.append(elapsed)
            else:
                elapsed, plain_data = run.call(cli.main)
                plain.append(elapsed)
        run.check(data, tracer.embeddings if len(traced) == 1 else None)
        run.check(plain_data)
        tracer.embeddings.clear()
        layers.append(layer_metrics(tracer))
        first = first or tracer
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    t0 = first.spans[0][1] if first.spans else 0.0
    return {
        "calls_s": plain,
        "traced_calls_s": traced,
        "metrics": metrics,
        "spans": [[name, start - t0, end - t0, parent] for name, start, end, parent in first.spans],
        "counts": first.counts,
    }


def print_shares(workload, metrics: dict, traced_s: float) -> dict:
    shares = {name: metrics[name] / traced_s for name in SHARE_METRICS}
    shares["other"] = 1.0 - sum(shares.values())
    verb = f"{workload.subcommand}_s"
    print(f"layer shares of the traced {verb} ({traced_s:.4f} s):")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        seconds = metrics.get(name, share * traced_s)
        print(f"  {name:<24} {seconds:9.4f} s  {100 * share:6.2f} %")
    dominant = max(SHARE_METRICS, key=lambda name: shares[name])
    predicted = workload.predicted_dominant
    if dominant == predicted:
        print(f"prediction met: {predicted} is the largest layer")
    else:
        print(f"prediction NOT met: predicted {predicted} ({100 * shares[predicted]:.1f} %), "
              f"measured {dominant} ({100 * shares[dominant]:.1f} %)")
    return shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motifembed" / "cli.py").is_file():
        print(f"error: motifembed sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import motifembed.cli as cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env.update(python=platform.python_version(), numpy=numpy.__version__, scipy=scipy.__version__)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(workload, args.seed, workdir)
        record = (measure_traced if args.trace else measure)(run, cli, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verb = f"{workload.subcommand}_s"
    cli_s = statistics.median(record["calls_s"])
    setup_s = statistics.median(run.setup_samples)
    if args.trace:
        metrics = record["metrics"]
    else:
        if run.fusion_ratio is None:
            run.fail(["no pipeline result to compute the fusion ratio from"])
            run.fusion_ratio = 0.0
        metrics = {"cli_rel": statistics.median(record["calls_rel"]), "setup_s": setup_s,
                   "peak_rss_mb": record["peak_rss_mb"], "fusion_ratio": run.fusion_ratio}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("input   " + "  ".join(f"{k}={v}" for k, v in run.stats.items()))
    print("env     " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{verb:<16} {cli_s:.4f} s  (median of {len(record['calls_s'])} untraced call(s))")
    if not args.trace:
        print(f"{'cli_rel':<16} {metrics['cli_rel']:.4f} ratio  (call time over calibration kernel time)")
    print(f"{'setup_s':<16} {setup_s:.4f} s  (median of {SETUP_REPEATS} set-ups)")
    if not args.trace:
        print(f"{'peak_rss_mb':<16} {metrics['peak_rss_mb']:.1f} MiB")
    if run.fusion_ratio is not None:
        print(f"{'fusion_excess':<16} {run.fusion_ratio - 1.0:.6f} ratio  (fusion_ratio {run.fusion_ratio:.6f})")
    if run.auc_mean is not None:
        print(f"{'auc_mean':<16} {run.auc_mean:.6f} AUC")
    print(f"{'error_rate':<16} {run.failed / run.attempted:.4f} ratio  "
          f"({run.failed} failed calls and checks, {run.attempted} calls)")
    if args.trace:
        record["shares"] = print_shares(workload, metrics, statistics.median(record["traced_calls_s"]))
        print(f"{'trace.overhead_s':<16} {metrics['trace.overhead_s']:.4f} s  (traced minus untraced {verb})")

    record.update(metrics=metrics, workload=workload.name, seed=args.seed, trace=args.trace, env=env,
                  input=run.stats, setup_samples_s=run.setup_samples, attempted=run.attempted,
                  failed=run.failed)
    (WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
