"""Command-line interface: orbit counting, matrix export, embedding,
link-prediction experiments, and the scaling benchmark.

Every output begins with ``# key=value`` comment lines echoing the resolved
configuration (including the seed), so any artifact can be reproduced by
re-running with the header's values. ``MOTIFEMBED_SEED`` in the environment
overrides ``--seed`` everywhere.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.io

from motifembed.evaluation import DEFAULT_STEP_GRID, EvalConfig, run_experiment
from motifembed.generators import erdos_renyi_average_degree
from motifembed.graph import load_edge_list
from motifembed.matrices import MotifMatrixKind, apply_matrix_kind, build_motif_weight_matrix
from motifembed.orbits import NUM_ORBITS, count_edge_orbits
from motifembed.pipeline import DiffusionConfig, DiffusionVariant, PipelineConfig, embed_graph

log = logging.getLogger("motifembed.cli")

SEED_ENV_VAR = "MOTIFEMBED_SEED"
KIND_TOKENS = tuple(k.value for k in MotifMatrixKind)


class CliError(ValueError):
    """User-facing CLI failure; the message is printed and exit code is 1."""


# ---------------------------------------------------------------------------
# config resolution: defaults < config file < flags < MOTIFEMBED_SEED (seed only)


def read_config_file(path: str) -> dict[str, str]:
    """Parse ``key=value`` lines; '#' starts a comment; keys use flag names."""
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, val = text.partition("=")
            if not sep:
                raise CliError(f"{path} line {line_no}: expected key=value")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


def resolve(args: argparse.Namespace, name: str, default, parse=None):
    """Flag value if given, else config-file value, else the default."""
    flag_value = getattr(args, name, None)
    if flag_value is not None:
        return flag_value
    file_cfg = getattr(args, "_file_cfg", {})
    if name in file_cfg:
        raw = file_cfg[name]
        if parse is bool:
            return _parse_bool(raw)
        return parse(raw) if parse else raw
    return default


def resolve_seed(args: argparse.Namespace, default: int = 0) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return resolve(args, "seed", default, parse=int)


def parse_diffusion(token: str) -> DiffusionConfig | None:
    if token == "none":
        return None
    if token == "linear":
        return DiffusionConfig(DiffusionVariant.LINEAR)
    if token == "transition":
        return DiffusionConfig(DiffusionVariant.TRANSITION_WALK)
    if token.startswith("theta:"):
        try:
            theta = float(token.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad theta in --diffusion {token!r}") from None
        try:
            return DiffusionConfig(DiffusionVariant.THETA_SMOOTHING, theta=theta)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raise CliError(f"unknown --diffusion {token!r}; use none|linear|transition|theta:<t>")


def parse_steps(token: str, allow_auto: bool) -> int | str:
    if token == "auto":
        if not allow_auto:
            raise CliError("--k auto is only valid for linkpred; give a step count 1..4")
        return "auto"
    try:
        value = int(token)
    except ValueError:
        raise CliError(f"bad --k {token!r}; use auto or an integer 1..4") from None
    if not 1 <= value <= 4:
        raise CliError(f"--k must be in 1..4, got {value}")
    return value


# ---------------------------------------------------------------------------
# output plumbing


def claim_outputs(*paths: str | None) -> None:
    """Create (or truncate) each output path now, so an unusable path ends
    the command before its computation rather than after it."""
    for path in paths:
        if path is not None:
            with open(path, "w"):
                pass


@contextmanager
def open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_header(stream, subcommand: str, resolved: dict) -> None:
    stream.write(f"# subcommand={subcommand}\n")
    for key, value in resolved.items():
        stream.write(f"# {key}={_format_value(value)}\n")


def header_dict(subcommand: str, resolved: dict) -> str:
    lines = [f"subcommand={subcommand}"]
    lines += [f"{k}={_format_value(v)}" for k, v in resolved.items()]
    return "; ".join(lines)


def load_input_graph(args: argparse.Namespace):
    path = resolve(args, "input", None)
    if path is None:
        raise CliError("--input is required")
    if not os.path.exists(path):
        raise CliError(f"input file not found: {path}")
    one_indexed = bool(resolve(args, "one_indexed", False, parse=bool))
    skip_header = bool(resolve(args, "skip_header", False, parse=bool))
    return load_edge_list(path, one_indexed=one_indexed, skip_header=skip_header), {
        "input": path,
        "one_indexed": one_indexed,
        "skip_header": skip_header,
    }


def pipeline_from_args(args: argparse.Namespace, steps: int, seed: int) -> tuple[PipelineConfig, dict]:
    kind_token = resolve(args, "kind", "w")
    if kind_token not in KIND_TOKENS:
        raise CliError(f"unknown --kind {kind_token!r}; use one of {'|'.join(KIND_TOKENS)}")
    delta = resolve(args, "delta", 1, parse=int)
    local_rank = resolve(args, "dl", 16, parse=int)
    global_rank = resolve(args, "d", 128, parse=int)
    diffusion_token = resolve(args, "diffusion", "none")
    diffusion = parse_diffusion(diffusion_token)
    try:
        cfg = PipelineConfig(
            max_steps=steps,
            local_rank=local_rank,
            global_rank=global_rank,
            kind=MotifMatrixKind(kind_token),
            delta=delta,
            diffusion=diffusion,
            seed=seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    echo = {
        "kind": kind_token,
        "delta": delta,
        "dl": local_rank,
        "d": global_rank,
        "diffusion": diffusion_token,
    }
    return cfg, echo


# ---------------------------------------------------------------------------
# subcommands


def cmd_count_orbits(args: argparse.Namespace) -> int:
    g, input_echo = load_input_graph(args)
    workers = resolve(args, "workers", 1, parse=int)
    seed = resolve_seed(args)
    out_path = resolve(args, "out", None)
    claim_outputs(out_path)
    counts = count_edge_orbits(g)
    resolved = {**input_echo, "workers": workers, "seed": seed}
    with open_out(out_path) as out:
        write_header(out, "count-orbits", resolved)
        out.write("u\tv\t" + "\t".join(f"O{i}" for i in range(1, NUM_ORBITS + 1)) + "\n")
        labels = g.labels
        for idx in range(g.num_edges):
            row = counts.counts[idx]
            out.write(
                f"{labels[g.edge_u[idx]]}\t{labels[g.edge_v[idx]]}\t"
                + "\t".join(str(int(c)) for c in row)
                + "\n"
            )
    return 0


def cmd_motif_matrix(args: argparse.Namespace) -> int:
    g, input_echo = load_input_graph(args)
    orbit = resolve(args, "orbit", None, parse=int)
    if orbit is None:
        raise CliError("--orbit is required")
    if not 1 <= orbit <= NUM_ORBITS:
        raise CliError(f"--orbit must be in 1..{NUM_ORBITS}, got {orbit}")
    kind_token = resolve(args, "kind", "w")
    if kind_token not in KIND_TOKENS:
        raise CliError(f"unknown --kind {kind_token!r}; use one of {'|'.join(KIND_TOKENS)}")
    delta = resolve(args, "delta", 1, parse=int)
    seed = resolve_seed(args)
    out_path = resolve(args, "out", None)
    claim_outputs(out_path)
    counts = count_edge_orbits(g)
    try:
        wg = build_motif_weight_matrix(g, counts, orbit, delta)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    matrix = apply_matrix_kind(wg, MotifMatrixKind(kind_token))

    resolved = {**input_echo, "orbit": orbit, "kind": kind_token, "delta": delta, "seed": seed}
    comment = header_dict("motif-matrix", resolved)
    # MatrixMarket banner must stay on line one; the config echo follows as
    # '%' comment lines, so the file still opens with a pure comment block.
    # A path goes to mmwrite as an open file, which stops scipy from
    # appending .mtx to a bare name.
    if out_path is None:
        scipy.io.mmwrite(sys.stdout.buffer if hasattr(sys.stdout, "buffer") else sys.stdout, matrix, comment=comment)
    else:
        with open(out_path, "wb") as fh:
            scipy.io.mmwrite(fh, matrix, comment=comment)
    return 0


def _write_vector_tsv(out, labels, matrix) -> None:
    """One ``label<TAB>v1<TAB>...`` line per row, values at 17 significant digits."""
    row_format = "%d" + "\t%.17g" * matrix.shape[1] + "\n"
    for label, row in zip(labels.tolist(), matrix):
        out.write(row_format % (label, *row.tolist()))


def cmd_embed(args: argparse.Namespace) -> int:
    g, input_echo = load_input_graph(args)
    steps = parse_steps(resolve(args, "k", "2"), allow_auto=False)
    seed = resolve_seed(args)
    workers = resolve(args, "workers", 1, parse=int)
    cfg, cfg_echo = pipeline_from_args(args, steps, seed)
    out_path, y_out = resolve(args, "out", None), resolve(args, "y_out", None)
    claim_outputs(out_path, y_out)
    result = embed_graph(g, cfg)
    resolved = {**input_echo, **cfg_echo, "k": steps, "seed": seed, "workers": workers}
    with open_out(out_path) as out:
        write_header(out, "embed", resolved)
        _write_vector_tsv(out, g.labels, result.embedding.nodes)
    if y_out is not None:
        with open_out(y_out) as out:
            write_header(out, "embed", {**resolved, "matrix": "concatenated"})
            _write_vector_tsv(out, g.labels, result.concatenated.matrix)
    return 0


def cmd_linkpred(args: argparse.Namespace) -> int:
    g, input_echo = load_input_graph(args)
    steps_token = resolve(args, "k", "auto")
    steps = parse_steps(steps_token, allow_auto=True)
    step_grid = DEFAULT_STEP_GRID if steps == "auto" else (steps,)
    seed = resolve_seed(args)
    seeds = resolve(args, "seeds", 10, parse=int)
    if seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {seeds}")
    cfg, cfg_echo = pipeline_from_args(args, max(step_grid), seed)
    resolved = {
        **input_echo,
        **cfg_echo,
        "k": steps_token if steps == "auto" else steps,
        "seeds": seeds,
        "seed": seed,
    }
    echo = header_dict("linkpred", resolved)
    out_path = resolve(args, "out", None)
    claim_outputs(out_path)
    report = run_experiment(
        g,
        EvalConfig(pipeline=cfg, step_grid=step_grid, n_seeds=seeds, base_seed=seed),
        config_echo=echo,
    )
    with open_out(out_path) as out:
        write_header(out, "linkpred", resolved)
        out.write("seed\tk\tauc\n")
        for outcome in report.outcomes:
            out.write(f"{outcome.seed}\t{outcome.chosen_steps}\t{format(outcome.auc, '.17g')}\n")
        out.write(f"mean\t-\t{format(report.mean_auc, '.17g')}\n")
        out.write(f"# std={format(report.std_auc, '.17g')}\n")
    return 0


def bench_scaling(
    sizes: tuple[int, ...],
    avg_degree: float = 10.0,
    cfg: PipelineConfig | None = None,
    seed: int = 0,
) -> list[dict]:
    """Time each pipeline stage on random graphs of growing size.

    One row per size: node/edge counts plus wall seconds for graph
    generation, orbit counting, local blocks (with diffusion and the
    concatenation), the global step, and the end-to-end pipeline total
    (generation excluded). A failing size is reported and the remaining
    (larger) sizes are skipped.
    """
    if list(sizes) != sorted(sizes):
        raise CliError("--sizes must be ascending")
    cfg = cfg if cfg is not None else PipelineConfig()
    rows: list[dict] = []
    for n in sizes:
        graph_seed = int(np.random.SeedSequence((seed, n)).generate_state(1)[0])
        try:
            t0 = time.perf_counter()
            g = erdos_renyi_average_degree(n, avg_degree, seed=graph_seed)
            t_gen = time.perf_counter() - t0

            start = time.perf_counter()
            seconds = embed_graph(g, cfg).seconds
            total = time.perf_counter() - start
        except (MemoryError, ValueError, OSError) as exc:
            rows.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
            log.error("size %d failed (%s); skipping larger sizes", n, exc)
            break
        rows.append(
            {
                "n": n,
                "edges": g.num_edges,
                "generate_s": t_gen,
                "count_s": seconds["count"],
                "local_s": seconds["local"] + seconds["diffuse"],
                "global_s": seconds["global"],
                "total_s": total,
            }
        )
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    sizes_token = resolve(args, "sizes", "1000,10000,100000")
    try:
        sizes = tuple(int(tok) for tok in sizes_token.split(",") if tok)
    except ValueError:
        raise CliError(f"bad --sizes {sizes_token!r}; use comma-separated integers") from None
    if not sizes:
        raise CliError("--sizes must name at least one size")
    avg_degree = resolve(args, "avg_degree", 10.0, parse=float)
    steps = parse_steps(resolve(args, "k", "2"), allow_auto=False)
    seed = resolve_seed(args)
    workers = resolve(args, "workers", 1, parse=int)
    cfg, cfg_echo = pipeline_from_args(args, steps, seed)
    resolved = {
        "sizes": ",".join(str(s) for s in sizes),
        "avg_degree": avg_degree,
        **cfg_echo,
        "k": steps,
        "seed": seed,
        "workers": workers,
    }
    out_path = resolve(args, "out", None)
    claim_outputs(out_path)
    rows = bench_scaling(sizes, avg_degree, cfg, seed=seed)
    with open_out(out_path) as out:
        write_header(out, "bench", resolved)
        out.write("n\tedges\tgenerate_s\tcount_s\tlocal_s\tglobal_s\ttotal_s\n")
        for row in rows:
            if "error" in row:
                out.write(f"# size {row['n']} failed: {row['error']}\n")
                continue
            out.write(
                f"{row['n']}\t{row['edges']}"
                + "".join(
                    f"\t{row[col]:.4f}"
                    for col in ("generate_s", "count_s", "local_s", "global_s", "total_s")
                )
                + "\n"
            )
    return 0


# ---------------------------------------------------------------------------
# parser


_WORKERS_HELP = "no effect; accepted and echoed so older config files keep working"


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="edge-list file (lines of 'u v')")
    sub.add_argument("--one-indexed", dest="one_indexed", action="store_true", default=None,
                     help="treat node ids as starting at 1")
    sub.add_argument("--skip-header", dest="skip_header", action="store_true", default=None,
                     help="skip the first non-comment line")
    sub.add_argument("--config", help="key=value file; flags override its values")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (env {SEED_ENV_VAR} overrides)")


def _add_pipeline_flags(sub: argparse.ArgumentParser, k_help: str) -> None:
    sub.add_argument("--kind", choices=KIND_TOKENS, default=None,
                     help="matrix kind built from motif weights")
    sub.add_argument("--delta", type=int, default=None, help="minimum orbit count kept (default 1)")
    sub.add_argument("--dl", type=int, default=None, help="rank of each local block (default 16)")
    sub.add_argument("--d", type=int, default=None, help="global embedding rank (default 128)")
    sub.add_argument("--k", default=None, help=k_help)
    sub.add_argument("--diffusion", default=None,
                     help="none | linear | transition | theta:<t> (default none)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifembed",
        description="Motif-based node embeddings: orbit counting, motif matrices, "
        "embedding, link prediction, scaling benchmark.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("count-orbits", help="per-edge orbit count table (TSV)")
    _add_input_flags(p)
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.set_defaults(func=cmd_count_orbits)

    p = subs.add_parser("motif-matrix", help="export one motif matrix (MatrixMarket)")
    _add_input_flags(p)
    p.add_argument("--orbit", type=int, default=None, help="orbit id 1..13")
    p.add_argument("--kind", choices=KIND_TOKENS, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.set_defaults(func=cmd_motif_matrix)

    p = subs.add_parser("embed", help="node embeddings (TSV: label + vector)")
    _add_input_flags(p)
    _add_pipeline_flags(p, k_help="step count 1..4 (default 2)")
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.add_argument("--y-out", dest="y_out", default=None,
                   help="also write the concatenated pre-fusion matrix here")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("linkpred", help="link-prediction experiment report (TSV)")
    _add_input_flags(p)
    _add_pipeline_flags(p, k_help="auto (grid 1..4) or a fixed step count (default auto)")
    p.add_argument("--seeds", type=int, default=None, help="number of protocol seeds (default 10)")
    p.set_defaults(func=cmd_linkpred)

    p = subs.add_parser("bench", help="pipeline scaling benchmark (TSV)")
    p.add_argument("--sizes", default=None, help="comma-separated node counts (ascending)")
    p.add_argument("--avg-degree", dest="avg_degree", type=float, default=None)
    p.add_argument("--config", help="key=value file; flags override its values")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    _add_pipeline_flags(p, k_help="step count 1..4 (default 2)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and flag errors
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config_path = getattr(args, "config", None)
        args._file_cfg = read_config_file(config_path) if config_path else {}
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
