"""Tracing from outside the program: wrap motifembed's public functions.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, every
public module-level function of the layer modules (and the two
``KStepOperator`` products) with a wrapper that records a span
``[name, start, end, parent]``. The replacement is made on every module
attribute that holds the function, so calls through ``from ... import``
names are traced too. A few wrappers also add counts taken from the
arguments and results (edges counted, columns applied, sweeps, ...).
Spans stay in memory; ``layer_metrics`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("graph", "orbits", "matrices", "operators", "factorize", "pipeline", "evaluation", "cli")
OPERATOR_METHODS = ("matmat", "rmatmat")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self.embeddings: list = []  # (graph, PipelineResult), kept for the correctness checks
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, func, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counts recorded at layer boundaries


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_count(tr, args, kwargs, result):
    tr.add("orbits.edges", _arg(args, kwargs, 0, "g").num_edges)


def _on_product(tr, args, kwargs, result):
    op, x = args[0], _arg(args, kwargs, 1, "X")
    tr.add("operators.columns_applied", (x.shape[1] if x.ndim == 2 else 1) * op.k)


def _on_ccd(tr, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    sweeps = len(result.objective_path)
    tr.add("factorize.ccd_sweeps", sweeps)
    tr.add("factorize.ccd_capped_calls", sweeps >= cfg.ccd.max_sweeps)
    tr.add("factorize.ccd_final_objective", result.objective_path[-1])


def _on_local(tr, args, kwargs, result):
    tr.add("pipeline.zero_blocks", sum(block[3] for block in result))


def _on_embed(tr, args, kwargs, result):
    tr.embeddings.append((_arg(args, kwargs, 0, "g"), result))


def _on_logreg(tr, args, kwargs, result):
    tr.add("evaluation.logreg_iters", result.iterations)
    tr.add("evaluation.logreg_unconverged_fits", not result.converged)


HOOKS = {
    "orbits.count_edge_orbits": _on_count,
    "operators.KStepOperator.matmat": _on_product,
    "operators.KStepOperator.rmatmat": _on_product,
    "factorize.ccd_factorize": _on_ccd,
    "pipeline.local_embeddings": _on_local,
    "pipeline.embed_graph": _on_embed,
    "evaluation.fit_logreg": _on_logreg,
}


# ---------------------------------------------------------------------------
# attribute replacement


_MISSING = object()


@contextmanager
def _replaced(replacements):
    """Set ``owner.attr = value`` for each triple; restore on exit."""
    saved = [(owner, attr, owner.__dict__.get(attr, _MISSING)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _modules():
    package = importlib.import_module("motifembed")
    return package, {layer: importlib.import_module(f"motifembed.{layer}") for layer in LAYERS}


def _rebind(package, modules, wrappers: dict):
    """Every module attribute that holds a wrapped function, with its wrapper."""
    return [
        (mod, attr, wrappers[obj])
        for mod in (package, *modules.values())
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj in wrappers
    ]


@contextmanager
def instrument(tracer: Tracer):
    package, modules = _modules()
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    cls = modules["operators"].KStepOperator
    methods = [
        (cls, meth, tracer.wrap(f"operators.KStepOperator.{meth}", getattr(cls, meth),
                                HOOKS[f"operators.KStepOperator.{meth}"]))
        for meth in OPERATOR_METHODS
    ]
    with _replaced(_rebind(package, modules, wrappers) + methods):
        yield tracer


@contextmanager
def capture_embeddings(store: list):
    """Keep (graph, ``PipelineResult``) for every ``embed_graph`` call, with
    no timing: untraced calls use it for the fusion and count checks."""
    package, modules = _modules()
    original = modules["pipeline"].embed_graph

    def keeping(*args, **kwargs):
        result = original(*args, **kwargs)
        store.append((_arg(args, kwargs, 0, "g"), result))
        return result

    with _replaced(_rebind(package, modules, {original: keeping})):
        yield store


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    count = tracer.counts.get
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    under_eval = [False] * len(spans)
    outer = [True] * len(spans)  # False for a call nested in the same function
    for i, (name, _, _, parent) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
            under_eval[i] = under_eval[parent] or spans[parent][0].startswith("evaluation.")
            outer[i] = spans[parent][0] != name

    def total(*names):
        return sum(d for (name, *_), d, o in zip(spans, dur, outer) if o and name in names)

    def calls(*names, within_eval=False):
        return sum(
            1 for (name, *_), ev, o in zip(spans, under_eval, outer)
            if o and name in names and (ev or not within_eval)
        )

    def self_time(pred):
        return sum(d - c for (name, *_), d, c in zip(spans, dur, child) if pred(name))

    products = ("operators.KStepOperator.matmat", "operators.KStepOperator.rmatmat")
    count_s = total("orbits.count_edge_orbits")
    ccd_calls = calls("factorize.ccd_factorize")
    fits = calls("evaluation.fit_logreg")
    return {
        "graph.load_s": total("graph.load_edge_list"),
        "cli.self_s": self_time(lambda name: name.startswith("cli.")),
        "orbits.count_s": count_s,
        "orbits.count_calls": calls("orbits.count_edge_orbits"),
        "orbits.edges_per_s": count("orbits.edges", 0) / count_s if count_s else 0.0,
        "matrices.build_s": total("matrices.build_motif_weight_matrix"),
        "matrices.build_calls": calls("matrices.build_motif_weight_matrix"),
        "operators.matmat_s": total(*products),
        "operators.matmat_calls": calls(*products),
        "operators.columns_applied": count("operators.columns_applied", 0),
        "factorize.rsvd_s": total("factorize.randomized_low_rank"),
        "factorize.rsvd_self_s": self_time(lambda name: name == "factorize.randomized_low_rank"),
        "factorize.rsvd_calls": calls("factorize.randomized_low_rank"),
        "factorize.ccd_s": total("factorize.ccd_factorize"),
        "factorize.ccd_calls": ccd_calls,
        "factorize.ccd_sweeps": count("factorize.ccd_sweeps", 0),
        "factorize.ccd_capped": count("factorize.ccd_capped_calls", 0) / ccd_calls if ccd_calls else 0.0,
        "factorize.fusion_objective": (
            count("factorize.ccd_final_objective", 0) / ccd_calls if ccd_calls else 0.0
        ),
        "pipeline.embed_s": total("pipeline.embed_graph"),
        "pipeline.local_s": total("pipeline.local_embeddings"),
        "pipeline.diffuse_s": total("pipeline.diffuse_attributes"),
        "pipeline.concat_s": total("pipeline.concatenate_embeddings"),
        "pipeline.global_s": total("pipeline.global_embedding"),
        "pipeline.zero_blocks": count("pipeline.zero_blocks", 0),
        "evaluation.split_s": total("evaluation.make_split"),
        "evaluation.embed_s": sum(
            d for (name, *_), d, ev in zip(spans, dur, under_eval) if name == "pipeline.embed_graph" and ev
        ),
        "evaluation.embed_calls": calls("pipeline.embed_graph", within_eval=True),
        "evaluation.count_calls": calls("orbits.count_edge_orbits", within_eval=True),
        "evaluation.logreg_s": total("evaluation.fit_logreg"),
        "evaluation.logreg_fits": fits,
        "evaluation.logreg_iters": count("evaluation.logreg_iters", 0),
        "evaluation.logreg_unconverged": count("evaluation.logreg_unconverged_fits", 0) / fits if fits else 0.0,
        "evaluation.auc_s": total("evaluation.auc"),
        "trace.spans": len(spans),
    }


# disjoint time metrics whose shares of a traced call are printed
SHARE_METRICS = (
    "graph.load_s",
    "cli.self_s",
    "orbits.count_s",
    "matrices.build_s",
    "operators.matmat_s",
    "factorize.rsvd_self_s",
    "factorize.ccd_s",
    "evaluation.split_s",
    "evaluation.logreg_s",
    "evaluation.auc_s",
)
