"""Every function the benchmark's tracer wraps by name must exist in
uniar, and every op its registry expects on a workload must run there,
so a deletion, rename or fusion fails here before it breaks a traced
benchmark run. perfbench/spans.py and registry.json are read by path
and left as they are."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from uniar import autodiff, cli, data, metrics, model
from uniar.types import GrayMap, ImageGrid, PromptSpec, RatingSample, Sample, Scanpath

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_functions_resolve(spans):
    assert spans.LAYER_FUNCTIONS
    missing = [f"{modname}.{attr}" for modname, attr, _ in spans.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert missing == []


def test_autodiff_ops_resolve(spans):
    assert spans.AUTODIFF_OPS
    assert [op for op in spans.AUTODIFF_OPS if not callable(getattr(autodiff, op, None))] == []


def test_decode_position_counter_arguments():
    # the decode_positions counter reads prefix_ids as the 4th positional
    # argument, and scanpath_generate must reach next_token_logits through
    # the module name the tracer rebinds
    params = list(inspect.signature(model.next_token_logits).parameters)
    assert params[3] == "prefix_ids"
    assert "next_token_logits" in model.scanpath_generate.__code__.co_names
    # and next_token_logits reaches the decoder through the name of the
    # model.decoder span
    assert "_decode_batch" in model.next_token_logits.__code__.co_names


def test_cli_binds_the_hooked_functions():
    # perfbench's untraced runs hook these names in uniar.cli to mark where
    # each eval sample and each train step ends
    assert cli.evaluate_heatmap is metrics.evaluate_heatmap
    assert cli.multimatch is metrics.multimatch
    assert cli.mixture_next is data.mixture_next
    assert cli.run_training is model.run_training
    assert "evaluate_heatmap" in cli._heatmap_one.__code__.co_names
    assert "multimatch" in cli._scanpath_one.__code__.co_names
    assert "run_training" in cli._cmd_train.__code__.co_names


# what each benchmark workload runs through the model, at a small size:
# `train` steps over a mixed batch with its probe decode, `predict_eval`
# asks each head once
SMALL = model.ModelConfig(image_size=20, patch_size=4, embed_dim=16, encoder_layers=1,
                          decoder_layers=1, heads=2, max_output_tokens=16)


def _train_work():
    rng = np.random.default_rng(0)
    image = lambda: ImageGrid(20, 20, rng.uniform(size=(20, 20, 3)))
    batch = [Sample(image(), PromptSpec("natural image", "scanpath"),
                    Scanpath((20, 20), rng.uniform(0, 20, size=(3, 2)))),
             Sample(image(), PromptSpec("natural image", "saliency heatmap"),
                    GrayMap(20, 20, rng.uniform(size=(20, 20)))),
             Sample(image(), PromptSpec("natural image", "aesthetics score"),
                    RatingSample(0.4))]
    samples = iter(batch)
    model.run_training(model.init_params(SMALL, seed=0), SMALL, lambda: next(samples),
                       steps=1, batch_size=3, gen_every=1)


def _predict_work():
    params = model.init_params(SMALL, seed=1)
    image = ImageGrid(12, 16, np.random.default_rng(1).uniform(size=(16, 12, 3)))
    model.predict_heatmap(image, PromptSpec("natural image", "saliency heatmap"), params, SMALL)
    model.predict_rating(image, PromptSpec("natural image", "aesthetics score"), params, SMALL)
    model.predict_scanpath(image, PromptSpec("natural image", "scanpath", "brightest"),
                           params, SMALL)


@pytest.mark.parametrize("workload,work", [("train", _train_work),
                                           ("predict_eval", _predict_work)])
def test_registry_ops_are_exercised(spans, workload, work):
    # the traced benchmark reports "per-layer metric ... not exercised"
    # for every op the registry expects on a workload and no span saw;
    # a fusion that drops an op from a path fails here first
    registry = json.loads((PERFBENCH / "registry.json").read_text(encoding="utf-8"))
    expected = {name for name, on in registry["per_layer_workloads"].items() if workload in on}
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    tracer.enabled = True
    try:
        work()
    finally:
        tracer.enabled = False
        undo()
    totals = tracer.totals()
    missing = [f"autodiff.{op}.{kind}" for op in spans.AUTODIFF_OPS
               for kind, span in (("calls", f"autodiff.{op}"), ("bwd_ms", f"autodiff.{op}.bwd"))
               if f"autodiff.{op}.{kind}" in expected and span not in totals]
    assert missing == []


def test_cached_greedy_steps_call_no_engine_op(spans, monkeypatch):
    params = model.init_params(SMALL, seed=1)
    image = ImageGrid(20, 20, np.random.default_rng(2).uniform(size=(20, 20, 3)))
    fused = model.encode_inputs(image, PromptSpec("natural image", "scanpath"), params, SMALL)
    calls = []
    for op in spans.AUTODIFF_OPS:
        fn = getattr(autodiff, op)
        monkeypatch.setattr(autodiff, op,
                            lambda *a, _op=op, _fn=fn, **k: calls.append(_op) or _fn(*a, **k))
    cache, prev = {}, model.BOS_ID
    for _ in range(3):
        prev = int(np.argmax(model.next_token_logits(fused, params, SMALL, [prev], cache=cache)))
    assert cache["length"] == 3 and calls == []
    # the counting wrappers do see an uncached step's ops
    model.next_token_logits(fused, params, SMALL)
    assert "embedding" in calls and "softmax" in calls
