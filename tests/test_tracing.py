"""The benchmark's tracer (perfbench/spans.py) still finds the layers it times."""

import importlib.util
from pathlib import Path

import numpy as np

import motifembed.pipeline as pipeline
from motifembed.evaluation import (
    FOLDS,
    LAMBDA_GRID,
    SELECTION_FRACTION,
    EvalConfig,
    _labeled_pairs,
    _selection_subsample,
    _stratified_folds,
    make_split,
    run_experiment,
)
from motifembed.generators import cycle_graph, erdos_renyi
from motifembed.matrices import MotifMatrixKind

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_traced_layers():
    spans = load_spans()
    g = erdos_renyi(30, 0.25, seed=2)
    cfg = pipeline.PipelineConfig(
        max_steps=2,
        local_rank=4,
        global_rank=16,
        kind=MotifMatrixKind.NORMALIZED_LAPLACIAN,
        diffusion=pipeline.DiffusionConfig(pipeline.DiffusionVariant.LINEAR),
    )
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pipeline.embed_graph(g, cfg)
    metrics = spans.layer_metrics(tracer)
    for name in ("operators.matmat_calls", "matrices.build_calls", "pipeline.diffuse_s", "pipeline.global_s"):
        assert metrics[name] > 0, name
    assert len(tracer.embeddings) == 1


def test_tracer_counts_the_zero_blocks_the_pipeline_records():
    # a cycle has no triangles, no stars and no tails: most orbits give zero blocks
    spans = load_spans()
    cfg = pipeline.PipelineConfig(max_steps=2, local_rank=3, global_rank=8)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = pipeline.embed_graph(cycle_graph(12), cfg)
    metrics = spans.layer_metrics(tracer)
    y = result.concatenated
    zero = sum(not y.matrix[:, b.columns].any() for b in y)
    assert 0 < zero < len(y.blocks)
    assert metrics["pipeline.zero_blocks"] == zero
    assert metrics["pipeline.local_s"] > 0


def test_tracer_sees_the_protocol_count_once_and_embed_per_step():
    # the benchmark's fusion ratio is the mean over every captured embed_graph result
    spans = load_spans()
    cfg = EvalConfig(
        pipeline=pipeline.PipelineConfig(local_rank=4, global_rank=12),
        step_grid=(1, 2, 3),
        n_seeds=1,
    )
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        run_experiment(erdos_renyi(40, 0.2, seed=13), cfg)
    metrics = spans.layer_metrics(tracer)
    assert metrics["evaluation.count_calls"] == 1
    assert metrics["evaluation.embed_calls"] == 3
    assert metrics["matrices.build_calls"] == 13
    assert metrics["pipeline.local_s"] > 0
    assert len(tracer.embeddings) == 3


def test_tracer_records_one_logreg_span_per_fit():
    # selection fits every (step, lambda) on each fold of the subsample, then
    # the final CV fits the chosen lambda on each fold of all labeled pairs
    spans = load_spans()
    g = erdos_renyi(40, 0.2, seed=13)
    cfg = EvalConfig(
        pipeline=pipeline.PipelineConfig(local_rank=4, global_rank=12),
        step_grid=(1, 2),
        n_seeds=1,
    )
    _, labels = _labeled_pairs(make_split(g, cfg.base_seed))
    # the subsample's class sizes, and so its fold count, do not depend on the draw
    sub = _selection_subsample(labels, SELECTION_FRACTION, np.random.default_rng(0))

    def fold_count(y):
        return len(_stratified_folds(y, FOLDS, np.random.default_rng(0)))

    fits = len(cfg.step_grid) * len(LAMBDA_GRID) * fold_count(labels[sub]) + fold_count(labels)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        run_experiment(g, cfg)
    metrics = spans.layer_metrics(tracer)
    assert sum(name == "evaluation.fit_logreg" for name, *_ in tracer.spans) == fits
    assert metrics["evaluation.logreg_fits"] == fits
    assert metrics["evaluation.logreg_s"] > 0
    assert metrics["evaluation.logreg_iters"] >= metrics["evaluation.logreg_fits"]
