"""Every function the benchmark's tracer wraps by name must exist in
uniar, so a deletion or rename fails here before it breaks a traced
benchmark run. perfbench/spans.py is loaded by path and left as is."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from uniar import autodiff, cli, data, metrics, model

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
