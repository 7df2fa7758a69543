"""End-to-end acceptance gate. One test per criterion; each prints a
single PASS line with its measured numbers once its assertions hold.

The training-dependent criteria share two identical 1500-step runs of
the default model over the 64-sample synthetic mixture (72 s each on
one core), driven through the installed command-line entry points so
the gate exercises the shipped surface, not internal shortcuts.
"""

import csv
import string
import time

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import rand_fixations, rand_map
from oracles import (
    auc_judd_naive,
    auc_pairwise,
    cc_naive,
    grad_check,
    kld_naive,
    nss_naive,
    pearson_naive,
    r2_naive,
    rmse_naive,
    sim_naive,
    srcc_naive,
)
from uniar import autodiff as ad
from uniar.cli import run
from uniar.codec import decode_robust, encode_target, quantize
from uniar.data import gen_rating_task, gen_saliency_task
from uniar.metrics import (
    cc,
    kld,
    meanshift_clusters,
    multimatch,
    nss,
    plcc,
    r_squared,
    rmse,
    sauc,
    semfed,
    sequence_score,
    sim,
    srcc,
    subsample_negatives,
)
from uniar.metrics.heatmap import auc_judd
from uniar.model import (
    ModelConfig,
    _batch_loss,
    encode_inputs,
    load_params,
    next_token_logits,
    predict_heatmap,
    predict_rating,
)
from uniar.types import (
    FixationSet,
    GrayMap,
    ImageGrid,
    PromptSpec,
    RatingSample,
    Sample,
    Scanpath,
    SegmentationMap,
    fixation_pixels,
)

TRAIN_STEPS = 1500
TRAIN_SEED = 0


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared training / mixture runs (criteria 5, 6, 7, 8)


@pytest.fixture(scope="module")
def train_runs(tmp_path_factory):
    """Two identical synthetic training runs; returns (dir_a, dir_b, wall_a)."""
    root = tmp_path_factory.mktemp("accept_train")
    walls = []
    for tag in ("a", "b"):
        out = root / tag
        t0 = time.perf_counter()
        code = run(["train", "--synthetic", "--steps", str(TRAIN_STEPS),
                    "--seed", str(TRAIN_SEED), "--out", str(out)])
        walls.append(time.perf_counter() - t0)
        assert code == 0
    return root / "a", root / "b", walls[0]


@pytest.fixture(scope="module")
def mixture_runs(tmp_path_factory):
    """Two identical 10,000-draw mixture checks; returns both CSV paths."""
    root = tmp_path_factory.mktemp("accept_mix")
    outs = []
    for tag in ("a", "b"):
        out = root / f"{tag}.csv"
        assert run(["mixture-check", "--draws", "10000", "--seed", "0",
                    "--out", str(out)]) == 0
        outs.append(out)
    return outs


def read_log(run_dir):
    with open(run_dir / "train_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    losses = [float(r[1]) for r in rows]
    valid = [int(r[2]) for r in rows if r[2] != ""]
    return losses, valid


# ---------------------------------------------------------------------------


def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(100):
        p = rand_map(rng, 16, 16, 0.01, 1.0)
        g = rand_map(rng, 16, 16, 0.01, 1.0)
        pl, gl = p.values.tolist(), g.values.tolist()
        assert cc(p, g) == pytest.approx(cc_naive(pl, gl), abs=1e-12)
        assert kld(p, g) == pytest.approx(kld_naive(pl, gl), abs=1e-12)
        assert sim(p, g) == pytest.approx(sim_naive(pl, gl), abs=1e-12)
        assert rmse(p, g) == pytest.approx(rmse_naive(pl, gl), abs=1e-12)
        assert r_squared(p, g) == pytest.approx(r2_naive(pl, gl), abs=1e-12)

        f = rand_fixations(rng, 16, 16, int(rng.integers(1, 13)))
        fl = f.points.tolist()
        assert nss(p, f) == pytest.approx(nss_naive(pl, fl, 16, 16), abs=1e-12)
        assert auc_judd(p, f) == pytest.approx(
            auc_judd_naive(pl, fl, 16, 16), abs=1e-9)

        neg = rand_fixations(rng, 16, 16, int(rng.integers(1, 41)))
        got = sauc(p, f, neg, seed=7)
        sub = subsample_negatives(neg, 10 * len(f), seed=7)
        cols, rows = fixation_pixels(f.points, 16, 16)
        ncols, nrows = fixation_pixels(sub.points, 16, 16)
        expect = auc_pairwise(p.values[rows, cols].tolist(),
                              p.values[nrows, ncols].tolist())
        assert got == pytest.approx(expect, abs=1e-9)

        a, b = rng.uniform(0, 1, 20).tolist(), rng.uniform(0, 1, 20).tolist()
        assert srcc(a, b) == pytest.approx(srcc_naive(a, b), abs=1e-12)
        assert plcc(a, b) == pytest.approx(pearson_naive(a, b), abs=1e-12)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(1, f"100 instances, roc within 1e-9, loop oracles within 1e-12, {dt:.1f} s")


def test_criterion_2_identities():
    rng = np.random.default_rng(22)
    tol = 1e-12
    for _ in range(50):
        p = rand_map(rng, 16, 16, 0.01, 1.0)
        assert cc(p, p) == pytest.approx(1.0, abs=tol)
        assert kld(p, p) == pytest.approx(0.0, abs=tol)
        assert sim(p, p) == pytest.approx(1.0, abs=tol)
        assert rmse(p, p) == pytest.approx(0.0, abs=tol)
        assert r_squared(p, p) == pytest.approx(1.0, abs=tol)

        n = int(rng.integers(3, 9))
        path = Scanpath((64, 64), rng.uniform(1, 63, size=(n, 2)))
        clusters = meanshift_clusters(
            FixationSet(frame=(64, 64), points=path.fixations))
        assert sequence_score(path, path, clusters) == pytest.approx(1.0, abs=tol)
        seg = SegmentationMap(64, 64, rng.integers(0, 5, size=(64, 64)))
        assert semfed(path, path, seg) == pytest.approx(0.0, abs=tol)
        mm = multimatch(path, path)
        for v in (mm.shape, mm.length, mm.direction, mm.position):
            assert v == pytest.approx(1.0, abs=tol)

        vec = rng.uniform(0, 1, 10).tolist()
        assert srcc(vec, vec) == pytest.approx(1.0, abs=tol)
        assert plcc(vec, vec) == pytest.approx(1.0, abs=tol)
    report(2, "pred = gt identities hold across 50 cases at 1e-12")


def test_criterion_3_codec_round_trip_and_fuzz():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        w, h = int(rng.integers(10, 4000)), int(rng.integers(10, 4000))
        n = int(rng.integers(1, 21))
        pts = np.stack([rng.uniform(0, w, n), rng.uniform(0, h, n)], axis=1)
        # exact frame-edge coordinates stay inside the top bin
        path = Scanpath((w, h), pts)
        out = decode_robust(encode_target(quantize(path)).text, (w, h))
        assert out.valid and out.scanpath.fixations.shape == (n, 2)
        err = np.abs(out.scanpath.fixations - path.fixations)
        assert err[:, 0].max() <= w / 2000 + 1e-9
        assert err[:, 1].max() <= h / 2000 + 1e-9

    vocab = (["<extra_id_01>", "<extra_id_02>", "and"]
             + [str(i) for i in range(-3, 1203)]
             + list(string.ascii_lowercase) + ["", " ", "12.5", "\t", "<", ">"])
    for _ in range(10_000):
        k = int(rng.integers(0, 12))
        raw = " ".join(rng.choice(vocab) for _ in range(k))
        result = decode_robust(raw, (100, 100))  # must never raise
        assert result.valid == (result.scanpath is not None)
    report(3, "1000 round trips within half a bin, 10,000-string fuzz, zero aborts")


def test_criterion_4_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)

    def t(*shape):
        return ad.Tensor(rng.standard_normal(shape), requires_grad=True)

    # scalarize through a fixed random projection so every output
    # coordinate contributes to the checked gradient
    def dotted(build):
        def f(*ts):
            out = build(*ts)
            return ad.tsum(ad.mul(out, ad.Tensor(dotted.c)))
        return f

    per_op = []

    def check(name, build, tensors, tol=1e-6):
        probe = build(*tensors)
        dotted.c = rng.standard_normal(probe.shape)
        err = grad_check(dotted(build), tensors)
        assert err < tol, f"{name}: {err:.3e}"
        per_op.append((name, err))

    check("add", lambda a, b: ad.add(a, b), [t(3, 4), t(4)])
    check("mul", lambda a, b: ad.mul(a, b), [t(3, 4), t(3, 1)])
    check("scale", lambda a: ad.scale(a, -1.7), [t(3, 4)])
    check("matmul", lambda a, b: ad.matmul(a, b), [t(3, 4), t(4, 5)])
    check("relu", lambda a: ad.relu(a), [ad.Tensor(
        rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
        requires_grad=True)])
    check("sigmoid", lambda a: ad.sigmoid(a), [t(3, 4)])
    check("softmax", lambda a: ad.softmax(a), [t(3, 5)])
    check("layer_norm", lambda a: ad.layer_norm(a), [t(3, 8)])
    ids = np.array([[0, 2], [2, 1]])
    check("embedding", lambda w: ad.embedding(w, ids), [t(4, 3)])
    check("reshape", lambda a: ad.reshape(a, (4, 3)), [t(3, 4)])
    check("permute", lambda a: ad.permute(a, (1, 0, 2)), [t(2, 3, 4)])
    check("concat", lambda a, b: ad.concat([a, b], axis=1), [t(2, 3), t(2, 2)])
    check("narrow", lambda a: ad.narrow(a, 1, 1, 2), [t(3, 4)])
    check("tsum", lambda a: ad.tsum(a, axis=1, keepdims=True), [t(3, 4)])
    check("mean", lambda a: ad.mean(a, axis=0, keepdims=True), [t(3, 4)])
    check("squared_error", lambda a, b: ad.squared_error(a, b), [t(3, 4), t(3, 4)])
    labels = np.array([1, 0, 3])
    check("cross_entropy", lambda l: ad.cross_entropy_with_logits(l, labels),
          [t(3, 5)])
    check("conv2d", lambda x, w: ad.conv2d(x, w, stride=2, pad=1),
          [t(2, 5, 5, 3), t(3, 3, 3, 4)])
    check("conv2d_transpose", lambda x, w: ad.conv2d_transpose(x, w, stride=2, pad=1),
          [t(2, 3, 3, 4), t(4, 4, 3, 4)])
    worst_op = max(per_op, key=lambda kv: kv[1])

    # end-to-end: combined loss of a mixed batch wrt every parameter,
    # sampled coordinates (the per-op sweeps above are exhaustive)
    cfg = ModelConfig(image_size=16, patch_size=2, embed_dim=16,
                      encoder_layers=1, decoder_layers=1, heads=2,
                      max_output_tokens=12)
    from uniar.model import init_params
    params = init_params(cfg, seed=3)
    img = lambda: ImageGrid(16, 16, rng.uniform(0, 1, (16, 16, 3)))
    batch = [
        Sample(img(), PromptSpec("natural image", "saliency heatmap"),
               GrayMap(16, 16, rng.uniform(0, 1, (16, 16)), kind="unit-range")),
        Sample(img(), PromptSpec("natural image", "scanpath"),
               Scanpath((16, 16), rng.uniform(0.5, 15.5, (3, 2)))),
        Sample(img(), PromptSpec("natural image", "aesthetics score"), RatingSample(0.35)),
    ]
    names = sorted(params)
    tensors = [params[k] for k in names]

    def loss_fn(*ts):
        return _batch_loss(batch, dict(zip(names, ts)), cfg)

    err = grad_check(loss_fn, tensors, sample=2, seed=5)
    assert err < 1e-4, f"end-to-end: {err:.3e}"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(4, f"19 ops < 1e-6 (worst {worst_op[0]} {worst_op[1]:.1e}), "
              f"end-to-end {err:.1e} < 1e-4, {dt:.1f} s")


@pytest.mark.slow
def test_criterion_5_toy_convergence(train_runs):
    run_a, _, wall = train_runs
    assert TRAIN_STEPS <= 2000
    assert wall < 300.0
    losses, valid = read_log(run_a)
    reduction = 1.0 - losses[-1] / losses[0]
    assert reduction >= 0.90
    assert len(valid) >= 50 and all(v == 1 for v in valid[-50:])

    cfg = ModelConfig()
    params = load_params(run_a / "model.ckpt", cfg)
    sal = gen_saliency_task(TRAIN_SEED, 22, size=cfg.image_size)
    ccs = [cc(predict_heatmap(s.image, s.prompt, params, cfg), s.target)
           for s in sal.samples]
    mean_cc = float(np.mean(ccs))
    assert mean_cc > 0.9

    rat = gen_rating_task(TRAIN_SEED, 21, size=cfg.image_size)
    preds = [predict_rating(s.image, s.prompt, params, cfg).score
             for s in rat.samples]
    obs = [s.target.score for s in rat.samples]
    p = plcc(preds, obs)
    assert p > 0.9
    report(5, f"{TRAIN_STEPS} steps in {wall:.0f} s: loss -{reduction:.1%}, "
              f"valid rate 1.0, CC {mean_cc:.3f}, PLCC {p:.3f}")


def test_criterion_6_mixture_fairness(mixture_runs):
    with open(mixture_runs[0], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    sizes = sorted(int(r[1]) for r in rows)
    counts = np.array([int(r[2]) for r in rows], dtype=float)
    assert sizes == [1] * 10 + [1000]  # the required 1000:1 skew
    assert counts.sum() == 10_000
    expected = 10_000 / len(counts)
    stat = float(((counts - expected) ** 2 / expected).sum())
    pval = float(chi2.sf(stat, df=len(counts) - 1))
    assert pval > 0.001
    report(6, f"chi-square {stat:.1f} over 11 handles, p {pval:.3f} > 0.001")


@pytest.mark.slow
def test_criterion_7_prompt_conditioning(train_runs):
    run_a, _, _ = train_runs
    cfg = ModelConfig()
    params = load_params(run_a / "model.ckpt", cfg)
    image = gen_saliency_task(TRAIN_SEED, 1, size=cfg.image_size).samples[0].image
    logits = {}
    with ad.no_grad():
        for out_type in ("scanpath", "saliency heatmap", "aesthetics score"):
            prompt = PromptSpec("natural image", out_type)
            fused = encode_inputs(image, prompt, params, cfg)
            logits[out_type] = next_token_logits(fused, params, cfg)
    gaps = []
    pairs = (("scanpath", "saliency heatmap"),
             ("scanpath", "aesthetics score"),
             ("saliency heatmap", "aesthetics score"))
    for a, b in pairs:
        gap = float(np.max(np.abs(logits[a] - logits[b])))
        assert gap > 1e-6
        gaps.append(gap)
    report(7, f"decoder logits move with output_type; smallest max-norm gap "
              f"{min(gaps):.3g} > 1e-6")


@pytest.mark.slow
def test_criterion_8_determinism(train_runs, mixture_runs):
    run_a, run_b, _ = train_runs
    for name in ("model.ckpt", "train_log.csv"):
        a = (run_a / name).read_bytes()
        b = (run_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    assert mixture_runs[0].read_bytes() == mixture_runs[1].read_bytes()
    report(8, "checkpoints, training logs and mixture counts byte-identical")
