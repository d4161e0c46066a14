"""Command-line interface: orbit counting, matrix export, embedding,
link-prediction experiments, and the scaling benchmark.

Every output begins with ``# key=value`` comment lines echoing every parsed
setting, so any artifact can be reproduced by re-running with the header's
values. ``MOTIFEMBED_SEED`` in the environment overrides ``--seed`` wherever
a subcommand takes one.
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np

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
# settings: build_parser declares each flag's default, type and range once.
# Precedence: defaults < config file < flags < MOTIFEMBED_SEED (seed only).


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`CliError`."""

    def error(self, message: str):
        raise CliError(message)


def read_config_file(path: str) -> dict[str, str]:
    """Parse ``key=value`` lines; '#' starts a comment; keys use flag names."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # -sig: drop a leading BOM
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, val = text.partition("=")
            if not sep:
                raise CliError(f"{path} line {line_no}: expected key=value")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def config_flags(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """The config file's values as ``--key=value`` flags of ``sub``; keys
    that name none of its flags are skipped."""
    flags = []
    for key, value in read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        # argparse keeps no public table of a parser's option strings
        if flag in sub._option_string_actions and key != "help":
            flags.append(f"{flag}={value}")
    return flags


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse the command line. A ``--config`` file's values are spliced in
    as flags right after the subcommand, ahead of the command line's own
    flags, which therefore win; ``MOTIFEMBED_SEED`` then overrides any seed."""
    parser, subcommands = build_parser()
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    at = next((i for i, token in enumerate(argv) if token in subcommands), None)
    if config is not None and at is not None:
        argv = argv[: at + 1] + config_flags(subcommands[argv[at]], config) + argv[at + 1 :]
    args = parser.parse_args(argv)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"{SEED_ENV_VAR}: {exc}") from None
    return args


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _int_range(low: int, high: int | None = None):
    """An argparse type: an integer in low..high, unbounded above without high."""
    span = f"in {low}..{high}" if high is not None else f">= {low}"

    def parse(token: str) -> int:
        try:
            value = int(token)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {token!r}")
        return value

    return parse


_positive_int = _int_range(1)
_seed = _int_range(0)
_step_count = _int_range(1, max(DEFAULT_STEP_GRID))


def _step_count_or_auto(token: str) -> int | str:
    return token if token == "auto" else _step_count(token)


def _positive_float(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = None
    # NaN fails both comparisons
    if value is None or not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {token!r}")
    return value


def _sizes(token: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in token.split(",") if tok)
    except ValueError:
        sizes = ()
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {token!r}")
    if min(sizes) < 2:  # the generator's smallest graph
        raise argparse.ArgumentTypeError(f"sizes must be at least 2, got {token!r}")
    if list(sizes) != sorted(sizes):
        raise argparse.ArgumentTypeError(f"sizes must be ascending, got {token!r}")
    return sizes


def parse_diffusion(token: str) -> DiffusionConfig | None:
    if token == "none":
        return None
    if token == "linear":
        return DiffusionConfig(DiffusionVariant.LINEAR)
    if token == "transition":
        return DiffusionConfig(DiffusionVariant.TRANSITION_WALK)
    if token.startswith("theta:"):
        try:
            return DiffusionConfig(DiffusionVariant.THETA_SMOOTHING, theta=float(token.split(":", 1)[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad theta in {token!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown diffusion {token!r}; use none|linear|transition|theta:<t>")


def _diffusion_token(token: str) -> str:
    """An argparse type: the token itself, once it names a valid diffusion."""
    parse_diffusion(token)
    return token


# ---------------------------------------------------------------------------
# output plumbing


@contextmanager
def open_out(path: str | None, binary: bool = False):
    """The output stream: ``path`` opened once, before the command computes,
    so an unusable path ends the command at once; stdout without a path."""
    if path is None:
        if not binary:
            yield sys.stdout
        elif hasattr(sys.stdout, "buffer"):
            yield sys.stdout.buffer
        else:  # a text-only stdout, such as io.StringIO, gets the bytes as text
            with io.BytesIO() as buf:
                yield buf
                sys.stdout.write(buf.getvalue().decode("utf-8"))
    else:
        with open(path, "wb") if binary else open(path, "w", encoding="utf-8") as fh:
            yield fh


# namespace entries that are not settings of the run
_NOT_SETTINGS = frozenset({"verbose", "config", "out", "y_out", "func"})


def header_lines(args: argparse.Namespace) -> list[str]:
    """``key=value`` for the subcommand and every setting flag, in the order
    the flags are declared."""
    lines = []
    for key, value in vars(args).items():
        if key in _NOT_SETTINGS:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key}={value}")
    return lines


def write_header(stream, args: argparse.Namespace, *extra: str) -> None:
    for line in header_lines(args) + list(extra):
        stream.write(f"# {line}\n")


def load_input_graph(args: argparse.Namespace):
    return load_edge_list(args.input, one_indexed=args.one_indexed, skip_header=args.skip_header)


def pipeline_from_args(args: argparse.Namespace, steps: int) -> PipelineConfig:
    return PipelineConfig(
        max_steps=steps,
        local_rank=args.dl,
        global_rank=args.d,
        kind=MotifMatrixKind(args.kind),
        delta=args.delta,
        diffusion=parse_diffusion(args.diffusion),
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_count_orbits(args: argparse.Namespace) -> int:
    g = load_input_graph(args)
    with open_out(args.out) as out:
        counts = count_edge_orbits(g)
        write_header(out, args)
        out.write("u\tv\t" + "\t".join(f"O{i}" for i in range(1, NUM_ORBITS + 1)) + "\n")
        row_format = "%d\t%d" + "\t%d" * NUM_ORBITS + "\n"
        ends = zip(g.labels[g.edge_u].tolist(), g.labels[g.edge_v].tolist())
        for (u, v), row in zip(ends, counts.counts.tolist()):
            out.write(row_format % (u, v, *row))
    return 0


def cmd_motif_matrix(args: argparse.Namespace) -> int:
    import scipy.io  # here, so that importing the CLI loads no more modules

    g = load_input_graph(args)
    # mmwrite gets an open file, which stops scipy from appending .mtx to a
    # bare name
    with open_out(args.out, binary=True) as out:
        counts = count_edge_orbits(g)
        wg = build_motif_weight_matrix(g, counts, args.orbit, args.delta)
        matrix = apply_matrix_kind(wg, MotifMatrixKind(args.kind))
        # the MatrixMarket banner must stay on line one, so the header
        # follows it as one '%' comment line
        scipy.io.mmwrite(out, matrix, comment="; ".join(header_lines(args)))
    return 0


# ---------------------------------------------------------------------------
# exact %.17g text for the vector TSVs
#
# For finite x ≠ 0, "%.17g" % x prints |x| as D·10^(X−16) with 17 digits,
# D = round-half-even(|x|·10^(16−X)) in [10^16, 10^17): "0.00ddd" for
# X = −4..−1, "ddd.ddd" for X = 0..16, "d.ddde-0N" for X = −5, −6, with
# trailing zeros and a bare point dropped. For X in −6..16 the scale
# 10^(16−X) is an exact double, so Dekker's TwoProduct splits |x|·10^(16−X)
# exactly into p + e; p ≥ 2^53 is then an even integer, so p + rint(e) is D,
# ties included. The writer does this with numpy for a chunk of values at
# a time and lays each cell out in 8-byte words whose unused bytes are NUL:
#
#   head    tab, sign, lead, point, up to three zeros, d0   lead: "0" or d0
#   whole   digits 1..16 of an integer part past d0   (only if some |x| ≥ 10)
#   point   the point after such an integer part      (only if some |x| ≥ 10)
#   frac    the digits after the point, 1..16
#   exp     "e-05" or "e-06"                          (only if needed)
#
# then drops every NUL of the chunk at once. A zero takes the X = −1 layout
# with D = 0 and prints "0" or "-0". Other exponents, inf and nan are
# formatted one at a time with "%.17g". A chunk's cells are as wide as its
# common values need: when the values that need the whole and point words
# or a per-value cell are few, those are formatted one at a time too, and
# the X = −5, −6 cells move their fraction and exponent into 3 words, so
# the chunk keeps the head and frac words alone.

_CHUNK_VALUES = 16_384  # values formatted per numpy pass: bounds the writer's memory
_SPLITTER = 134_217_729.0  # 2^27 + 1: Dekker's split of a double into 26-bit halves
_WORD = np.dtype("<u8")
_MIN_X, _MAX_X = -6, 16  # the decimal exponents whose scale 10^(16−X) is exact
# at most 1/_FEW_WIDE of a chunk's values are formatted one at a time: with
# 1/32 of them at |v| ≥ 10 that costs as much as the three words it spares
_FEW_WIDE = 64


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on its first call, so that
    importing the CLI does no work for them. X indexes from _MIN_X, and L
    is the number of significant digits of D, 0 for D = 0:

    ascii4    "0000".."9999", one little-endian word each
    scale     10^(16−X) by X, and its two halves scale_hi and scale_lo
    head      the head word by (X, L, sign, d0)
    whole     (2, X): the integer digits among digits 1..16
    point     the point word by (X, L)
    frac      (2, (X, L)): the fraction digits among digits 1..16
    exp       the exponent word by X
    """
    four = np.arange(10_000)
    ascii4 = np.stack([four // 1000, four // 100 % 10, four // 10 % 10, four % 10], axis=1)
    ascii4 = (ascii4 + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(_WORD)
    scale = np.array([float(10**k) for k in range(16 - _MIN_X, 16 - _MAX_X - 1, -1)])
    split = _SPLITTER * scale
    scale_hi = split - (split - scale)

    x = np.arange(_MIN_X, _MAX_X + 1)[:, None, None, None]
    sig = np.arange(18)[:, None, None]
    neg = np.arange(2)[:, None]
    d0 = np.arange(10) + ord("0")
    lead = np.where(x >= 0, x + 1, np.where(x >= -4, 0, 1))  # digits of D before the point
    zeros = np.where((x >= -4) & (x < 0), -x - 1, 0)
    dot = sig > lead
    digit = np.arange(1, 17)

    def words(mask_or_bytes):
        return np.ascontiguousarray(mask_or_bytes, dtype=np.uint8).view(_WORD)

    head = np.zeros((len(scale), 18, 2, 10, 8), np.uint8)
    head[..., 0] = ord("\t")
    head[..., 1] = np.where(neg == 1, ord("-"), 0)
    head[..., 2] = np.where(lead == 0, ord("0"), d0)
    head[..., 3] = np.where(dot & (lead <= 1), ord("."), 0)
    head[..., 4:7] = np.where(np.arange(3) < zeros[..., None], ord("0"), 0)
    head[..., 7] = np.where((lead == 0) & (sig > 0), d0, 0)
    whole = np.where(digit < lead[:, 0, 0], 255, 0)
    frac = np.where((digit >= np.maximum(lead[..., 0], 1)) & (digit < sig[..., 0]), 255, 0)
    point = np.zeros((len(scale), 18, 8), np.uint8)
    point[..., 0] = np.where(dot & (lead >= 2), ord("."), 0)[..., 0, 0]
    exp = np.zeros((len(scale), 8), np.uint8)
    exp[:2, :4] = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 4)
    return SimpleNamespace(
        ascii4=ascii4,
        scale=scale,
        scale_hi=scale_hi,
        scale_lo=scale - scale_hi,
        head=words(head).ravel(),
        whole=words(whole).T.copy(),
        point=words(point).ravel(),
        frac=words(frac).reshape(-1, 2).T.copy(),
        exp=words(exp).ravel(),
    )


def _scaled(a: np.ndarray, x: np.ndarray, t: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e = a·10^(16−x) exactly: Dekker's TwoProduct."""
    i = x - _MIN_X
    b_hi, b_lo = t.scale_hi[i], t.scale_lo[i]
    p = a * t.scale[i]
    s = _SPLITTER * a
    a_hi = s - (s - a)
    a_lo = a - a_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _rounded(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """p + e rounded half to even, exact for p ≥ 2^53, an even integer."""
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _settle(a: np.ndarray, x: np.ndarray, t: SimpleNamespace):
    """Exponents, digits and a success flag for values next to a decade
    boundary, where log10 may miss X by one and rounding may carry D to
    10^17. A value left unsettled gets X = −1 and D = 0."""
    for _ in range(2):
        valid = (x >= _MIN_X) & (x <= _MAX_X)
        p, e = _scaled(np.where(valid, a, 0.0), np.where(valid, x, 0), t)
        d = _rounded(p, e)
        # whether p + e < 10^16 exactly: where d rounds to 10^16, p − 10^16
        # is exact, and adding e keeps the sign of the sum
        low = (d < 10**16) | ((d == 10**16) & ((p - 1e16) + e < 0))
        high = d > 10**17
        if not (valid & (low | high)).any():
            break
        x = x + high - low
    # d = 10^17 prints as 10^16 one decade up, whether p + e reached 10^17
    # or only rounded to it
    carry = d == 10**17
    x = x + carry
    ok = valid & ~low & ~high & (x <= _MAX_X)
    return np.where(ok, x, -1), np.where(ok, np.where(carry, 10**16, d), 0), ok


def _g17_words(values: np.ndarray) -> np.ndarray:
    """The cells ``"\\t" + "%.17g" % v`` of a 1-D float64 array, padded with
    NUL bytes, as a (words, len(values)) array of little-endian words."""
    t = _g17_tables()
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
    fast = (x >= _MIN_X) & (x <= _MAX_X)  # False for zero, inf and nan
    x = np.where(fast, x, -1).astype(np.intp)
    a = np.where(fast, a, 0.0)
    d = _rounded(*_scaled(a, x, t))
    near = np.flatnonzero(fast & ((d <= 10**16) | (d >= 10**17)))
    if near.size:
        x[near], d[near], fast[near] = _settle(a[near], x[near], t)

    top = d // 10**8  # digits 0..8 as an integer
    d0 = top // 10**8  # the leading digit, 0 only for D = 0
    tail = np.empty((2, len(values)), _WORD)  # digits 1..8 and 9..16 as integers
    tail[0] = top - d0 * 10**8
    tail[1] = d - top * 10**8
    quot = tail // 10_000
    digits = t.ascii4[quot] | t.ascii4[tail - quot * 10_000] << 32
    # the bit length of the digit values locates the last nonzero digit; as
    # no byte exceeds 9, the float conversion cannot round up past it
    bits = np.frexp((digits - _WORD.type(0x3030303030303030)).astype(np.float64))[1]
    sig = np.where(bits[1] > 0, 9 + (bits[1] + 7) // 8, 1 + (bits[0] + 7) // 8) * (d0 > 0)

    by_x = x - _MIN_X
    by_x_sig = by_x * 18 + sig
    head = t.head[(by_x_sig * 2 + np.signbit(values)) * 10 + d0]
    frac = [digits[0] & t.frac[0][by_x_sig], digits[1] & t.frac[1][by_x_sig]]
    slow = ~fast & (values != 0)
    # when the values that need the integer-part words or a per-value cell
    # are few, and every such cell fits in 24 bytes (all but a 3-digit
    # exponent's do), they are formatted one at a time and the chunk's other
    # cells stay 3 words wide
    own = np.flatnonzero(slow | (x >= 1))
    text = _cell_text(values[own]) if len(own) <= len(values) // _FEW_WIDE else None
    if text is not None and text.itemsize <= 24:
        cells = np.stack([head, *frac])
        # "d.ddde-0N" fills the 3 words: its fraction moves 4 bytes up into
        # the unused end of the head, and its exponent into the freed end
        small = np.flatnonzero(x <= -5)
        f0, f1 = frac[0][small], frac[1][small]
        cells[:, small] = [head[small] | f0 << 32, f0 >> 32 | f1 << 32, f1 >> 32 | t.exp[by_x[small]] << 32]
    else:
        own = np.flatnonzero(slow)
        text = _cell_text(values[own])
        rows = [head]
        if (x >= 1).any():
            rows += [digits[0] & t.whole[0][by_x], digits[1] & t.whole[1][by_x], t.point[by_x_sig]]
        rows += frac
        if own.size or (x <= -5).any():  # a per-value cell needs up to 25 bytes
            rows.append(t.exp[by_x])
        cells = np.stack(rows)
    if own.size:
        cells[:, own] = text.astype(f"S{8 * len(cells)}").view(_WORD).reshape(len(own), -1).T
    return cells


def _cell_text(values: np.ndarray) -> np.ndarray:
    """The cells ``"\\t" + "%.17g" % v`` as a byte-string array, as wide as
    its longest cell."""
    return np.array(["\t" + format(v, ".17g") for v in values.tolist()], dtype="S")


def _write_vector_tsv(out, labels, matrix) -> None:
    """One ``label<TAB>v1<TAB>...`` line per row, each value exactly as
    ``"%.17g" % v`` prints it, written a chunk of rows at a time."""
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows, cols = matrix.shape
    step = max(1, _CHUNK_VALUES // max(cols, 1))
    for start in range(0, rows, step):
        block = matrix[start : start + step]
        cells = _g17_words(block.ravel())
        n, k = len(block), len(cells)
        line = np.empty((n, 3 + k * cols + 1), _WORD)
        line[:, :3] = labels[start : start + step].astype("S24").view(_WORD).reshape(n, 3)
        line[:, 3:-1].reshape(n, cols, k)[...] = cells.T.reshape(n, cols, k)
        line[:, -1] = ord("\n")
        out.write(line.tobytes().translate(None, b"\0").decode("ascii"))


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by device and inode when both
    exist (hard links too), else by their resolved paths."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_embed(args: argparse.Namespace) -> int:
    # two handles on one file would each write from their own offset
    if args.out is not None and args.y_out is not None and _same_file(args.out, args.y_out):
        raise CliError(f"--y-out names the same file as --out: {args.y_out}")
    g = load_input_graph(args)
    cfg = pipeline_from_args(args, args.k)
    y_target = nullcontext() if args.y_out is None else open_out(args.y_out)
    with open_out(args.out) as out, y_target as y_out:
        result = embed_graph(g, cfg)
        write_header(out, args)
        _write_vector_tsv(out, g.labels, result.embedding.nodes)
        if y_out is not None:
            write_header(y_out, args, "matrix=concatenated")
            _write_vector_tsv(y_out, g.labels, result.concatenated.matrix)
    return 0


def cmd_linkpred(args: argparse.Namespace) -> int:
    g = load_input_graph(args)
    step_grid = DEFAULT_STEP_GRID if args.k == "auto" else (args.k,)
    cfg = pipeline_from_args(args, max(step_grid))
    with open_out(args.out) as out:
        report = run_experiment(
            g, EvalConfig(pipeline=cfg, step_grid=step_grid, n_seeds=args.seeds, base_seed=args.seed)
        )
        write_header(out, args)
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
    (generation excluded). ``sizes`` ascend (the ``--sizes`` parser checks
    that); a failing size is reported and the remaining larger sizes are
    skipped.
    """
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
    import resource  # here, so that importing the CLI loads no more modules

    cfg = pipeline_from_args(args, args.k)
    with open_out(args.out) as out:
        rows = bench_scaling(args.sizes, args.avg_degree, cfg, seed=args.seed)
        write_header(out, args)
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
        done = [row for row in rows if "error" not in row]
        if len(done) >= 2:
            log_n = np.log([row["n"] for row in done])
            slope = np.polyfit(log_n, np.log([row["total_s"] for row in done]), 1)[0]
            out.write(f"# loglog_slope={slope:.3f}\n")
        # ru_maxrss is in KiB on Linux
        out.write(f"# peak_rss_mib={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value file; flags override its values")
    sub.add_argument("--out", help="output path (default: stdout)")


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="edge-list file (lines of 'u v')")
    sub.add_argument("--one-indexed", nargs="?", const=True, default=False, type=_parse_bool,
                     metavar="BOOL", help="treat node ids as starting at 1")
    sub.add_argument("--skip-header", nargs="?", const=True, default=False, type=_parse_bool,
                     metavar="BOOL", help="skip the first non-comment line")
    _add_common_flags(sub)


def _add_kind_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=KIND_TOKENS, default=PipelineConfig.kind.value,
                     help="matrix kind built from motif weights (default %(default)s)")
    sub.add_argument("--delta", type=_positive_int, default=PipelineConfig.delta,
                     help="minimum orbit count kept (default %(default)s)")


def _add_pipeline_flags(
    sub: argparse.ArgumentParser,
    k_type=_step_count,
    k_default=PipelineConfig.max_steps,
    k_help=f"step count 1..{max(DEFAULT_STEP_GRID)}",
) -> None:
    _add_kind_flags(sub)
    sub.add_argument("--dl", type=_positive_int, default=PipelineConfig.local_rank,
                     help="rank of each local block (default %(default)s)")
    sub.add_argument("--d", type=_positive_int, default=PipelineConfig.global_rank,
                     help="global embedding rank (default %(default)s)")
    sub.add_argument("--k", type=k_type, default=k_default, help=k_help + " (default %(default)s)")
    sub.add_argument("--diffusion", type=_diffusion_token, default="none",
                     help="none | linear | transition | theta:<t> (default %(default)s)")
    sub.add_argument("--seed", type=_seed, default=PipelineConfig.seed,
                     help=f"RNG seed (default %(default)s; env {SEED_ENV_VAR} overrides)")


def _add_workers_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workers", type=int, default=1,
                     help="no effect; accepted and echoed so older config files keep working")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="motifembed",
        description="Motif-based node embeddings: orbit counting, motif matrices, "
        "embedding, link prediction, scaling benchmark.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("count-orbits", help="per-edge orbit count table (TSV)")
    _add_input_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_count_orbits)

    p = subs.add_parser("motif-matrix", help="export one motif matrix (MatrixMarket)")
    _add_input_flags(p)
    p.add_argument("--orbit", type=_int_range(1, NUM_ORBITS), required=True,
                   help=f"orbit id 1..{NUM_ORBITS}")
    _add_kind_flags(p)
    p.set_defaults(func=cmd_motif_matrix)

    p = subs.add_parser("embed", help="node embeddings (TSV: label + vector)")
    _add_input_flags(p)
    _add_pipeline_flags(p)
    _add_workers_flag(p)
    p.add_argument("--y-out", help="also write the fused matrix here: the concatenated local blocks "
                   "(for kind w, the 1-step blocks scaled by sqrt(k)) and any diffused attributes")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("linkpred", help="link-prediction experiment report (TSV)")
    _add_input_flags(p)
    _add_pipeline_flags(p, k_type=_step_count_or_auto, k_default="auto",
                        k_help=f"auto (select from {DEFAULT_STEP_GRID} per seed) or a fixed step count")
    p.add_argument("--seeds", type=_positive_int, default=EvalConfig.n_seeds,
                   help="number of protocol seeds (default %(default)s)")
    p.set_defaults(func=cmd_linkpred)

    p = subs.add_parser("bench", help="pipeline scaling benchmark (TSV)")
    p.add_argument("--sizes", type=_sizes, default="1000,10000,100000",
                   help="comma-separated node counts, ascending (default %(default)s)")
    p.add_argument("--avg-degree", type=_positive_float, default=10.0,
                   help="mean degree (default %(default)s)")
    _add_common_flags(p)
    _add_workers_flag(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser, subs.choices


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else list(argv))
        except SystemExit as exc:  # argparse printed --help
            return int(exc.code or 0)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except ValueError as exc:  # CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
