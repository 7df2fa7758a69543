"""The demos run against the public API, so a renamed or deleted name
breaks them; these tests keep them working. The quick demos run
in-process; the training demo (600-1,500 steps) only has its `uniar`
imports resolved."""

import ast
import importlib
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["formats_and_mixture.py", "heatmap_metrics.py",
                                  "scanpath_tour.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # a demo leaves no files behind


def test_training_demo_imports_resolve():
    tree = ast.parse((DEMOS / "train_and_predict.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("uniar")
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
