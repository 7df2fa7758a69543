"""Golden fingerprint of a seeded run, so a change that claims "same
behaviour" shows it in one test.

A 20-step `uniar train --synthetic --seed 0` must log the pinned losses
within 1e-10, and `predict` from a seed-0 `init_params` checkpoint must
give the pinned rating within 1e-10 and the pinned scanpath file. The
SHA-256 of `model.ckpt`, `train_log.csv` and the predicted heatmap PGM
are asserted only where numpy, the BLAS and the CPU model match the
provenance the digests were pinned on, since BLAS kernels may round
differently elsewhere. A change that moves these bits re-pins them,
from the outputs of ``fingerprint_run`` on a fresh directory, and says
why.
"""

import csv
import hashlib
import platform

import numpy as np
import pytest

from uniar import cli, data, model
from uniar.types import ImageGrid, PromptSpec, render_prompt

PINNED_LOSSES = [
    35.31953277686611, 13.755120544114465, 37.0270218739028, 8.741308453794327,
    7.937054056305513, 12.7888496999429, 11.803131476486055, 2.583435108295151,
    4.170885788543969, 7.214795836698015, 5.938727050153707, 8.416589732533973,
    7.378382333026951, 4.745854187641874, 8.07156842818513, 9.661987337916296,
    5.67243467795898, 7.338804975750327, 5.6705875247086155, 7.361143304473893,
]
PINNED_RATING = 0.5126030921928123
PINNED_SCANPATH_SHA256 = "810d87f6abdab8349efbab5940f6153c26592e893ed003a1d0ff88e7e133e9ba"

PROVENANCE = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "cpu_model": "Intel(R) Xeon(R) Processor",
}
PINNED_SHA256 = {
    "model.ckpt": "b17aff427a1e05c1b13e597221aa2de0cb31c9ab4c88ad1a5c197d1660a5cfe3",
    "train_log.csv": "6f88c1858b5569619d702388354dce2f047eb6a4654f2e0b007bcc6cba332972",
    "heatmap.pgm": "8bd317f2d0adb7c1533ce6de57c733ce0e36461c50107a282629df82b9048081",
}


def provenance() -> dict:
    """numpy version, BLAS name and version, and CPU model, read the way
    perfbench/run.py records them."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "cpu_model": cpu}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fingerprint_run(root) -> dict:
    """Train 20 seeded steps, then predict every head for one seeded image
    from a seed-0 checkpoint, all under ``root``; returns the output
    paths by name."""
    out = {}
    assert cli.run(["train", "--synthetic", "--seed", "0", "--steps", "20",
                    "--out", str(root / "train")]) == 0
    out["model.ckpt"] = root / "train" / "model.ckpt"
    out["train_log.csv"] = root / "train" / "train_log.csv"

    cfg = model.ModelConfig()
    ckpt, config, image = root / "init.ckpt", root / "config.txt", root / "image.ppm"
    model.save_params(ckpt, model.init_params(cfg, seed=0))
    model.write_config(config, cfg)
    rng = np.random.default_rng(0)
    data.write_ppm(image, ImageGrid(48, 40, rng.uniform(0.0, 1.0, (40, 48, 3))))
    for name, output in (("heatmap.pgm", "saliency heatmap"),
                         ("rating.txt", "aesthetics score"),
                         ("scanpath.jsonl", "scanpath")):
        out[name] = root / name
        prompt = render_prompt(PromptSpec("natural image", output))
        assert cli.run(["predict", str(image), "--ckpt", str(ckpt), "--config", str(config),
                        "--prompt", prompt, "--out", str(out[name])]) == 0
    return out


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return fingerprint_run(tmp_path_factory.mktemp("fingerprint"))


def logged_losses(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["step"]) for r in rows] == list(range(1, len(rows) + 1))
    return [float(r["loss"]) for r in rows]


def test_losses_match_the_pinned_run(run):
    losses = logged_losses(run["train_log.csv"])
    assert len(losses) == len(PINNED_LOSSES) == 20
    assert np.max(np.abs(np.subtract(losses, PINNED_LOSSES))) <= 1e-10


def test_predictions_match_the_pinned_run(run):
    assert abs(float(run["rating.txt"].read_text()) - PINNED_RATING) <= 1e-10
    assert sha256(run["scanpath.jsonl"]) == PINNED_SCANPATH_SHA256


def test_bytes_match_on_the_pinned_provenance(run):
    here = provenance()
    if here != PROVENANCE:
        pytest.skip(f"digests pinned on {PROVENANCE}, running on {here}")
    assert {name: sha256(run[name]) for name in PINNED_SHA256} == PINNED_SHA256
