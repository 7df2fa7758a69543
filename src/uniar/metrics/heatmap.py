"""Saliency/importance map metrics.

Location-based scores (NSS, AUC variants) take explicit fixation sets;
distribution-based scores (CC, KLD, SIM) and regression scores (RMSE,
R^2) compare two maps of identical shape. ``evaluate_heatmap`` bundles
the whole suite and resizes the prediction to the ground-truth
resolution first, so callers can evaluate at the original scale.

Statistics are population statistics (denominator N) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, ValidationError
from ..types import FixationSet, GrayMap, fixation_pixels
from .rating import _pearson


def _check_same_shape(pred: GrayMap, gt: GrayMap) -> None:
    if (pred.width, pred.height) != (gt.width, gt.height):
        raise ValidationError(
            f"map shapes differ: {pred.width}x{pred.height} vs {gt.width}x{gt.height}")


def _check_frame_matches(m: GrayMap, f: FixationSet, what: str) -> None:
    if f.frame != (m.width, m.height):
        raise ValidationError(
            f"{what} frame {f.frame} does not match map {m.width}x{m.height}")


def _as_distribution(m: GrayMap, what: str) -> np.ndarray:
    v = m.values
    if v.min() < 0:
        raise NumericError(f"{what} map has negative values, cannot normalize")
    s = float(v.sum())
    if s <= 0:
        raise NumericError(f"{what} map sums to zero, cannot normalize")
    return v / s


def cc(pred: GrayMap, gt: GrayMap) -> float:
    """Pearson correlation between two maps over pixels."""
    _check_same_shape(pred, gt)
    return _pearson(pred.values.ravel(), gt.values.ravel(), "a constant map")


def kld(pred: GrayMap, gt: GrayMap, eps: float = 1e-12) -> float:
    """KL divergence of the prediction from the ground truth,
    sum(g * ln(g / (p + eps))) after normalizing both maps to sum 1.
    Zero ground-truth cells contribute nothing. The epsilon in the
    denominator biases a perfect prediction to -N*eps, so the total is
    clipped at 0 to keep the divergence non-negative; with eps = 0 a
    zero prediction under ground-truth mass yields +inf."""
    _check_same_shape(pred, gt)
    p = _as_distribution(pred, "predicted")
    g = _as_distribution(gt, "ground-truth")
    mask = g > 0
    with np.errstate(divide="ignore"):
        total = float(np.sum(g[mask] * np.log(g[mask] / (p[mask] + eps))))
    return max(0.0, total)


def sim(pred: GrayMap, gt: GrayMap) -> float:
    """Histogram intersection of the two maps normalized to sum 1."""
    _check_same_shape(pred, gt)
    p = _as_distribution(pred, "predicted")
    g = _as_distribution(gt, "ground-truth")
    return float(np.minimum(p, g).sum())


def rmse(pred: GrayMap, gt: GrayMap) -> float:
    """Root mean squared error on raw values."""
    _check_same_shape(pred, gt)
    d = pred.values - gt.values
    return math.sqrt(float(np.mean(d * d)))


def r_squared(pred: GrayMap, gt: GrayMap) -> float:
    """Coefficient of determination with the ground truth as reference."""
    _check_same_shape(pred, gt)
    p = pred.values.ravel()
    g = gt.values.ravel()
    ss_res = float(np.sum((p - g) ** 2))
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    if ss_tot == 0.0:
        raise NumericError("R^2 undefined for a constant ground truth")
    return 1.0 - ss_res / ss_tot


def nss(pred: GrayMap, fixations: FixationSet) -> float:
    """Mean z-scored prediction value at the fixated pixels."""
    _check_frame_matches(pred, fixations, "fixation")
    if len(fixations) == 0:
        raise ValidationError("NSS needs at least one fixation")
    v = pred.values
    mu = float(v.mean())
    sd = float(v.std())
    if sd == 0.0:
        raise NumericError("NSS undefined for a constant map")
    cols, rows = fixation_pixels(fixations.points, pred.width, pred.height)
    return float(np.mean((v[rows, cols] - mu) / sd))


def _roc_area(pos: np.ndarray, neg: np.ndarray, thresholds: np.ndarray) -> float:
    """Trapezoidal area under (FPR, TPR) sampled at descending
    thresholds, with (0,0) and (1,1) endpoints."""
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    tp = pos.size - np.searchsorted(pos_sorted, thresholds, side="left")
    fp = neg.size - np.searchsorted(neg_sorted, thresholds, side="left")
    tpr = np.concatenate([[0.0], tp / pos.size, [1.0]])
    fpr = np.concatenate([[0.0], fp / neg.size, [1.0]])
    return float(np.trapezoid(tpr, fpr))


def auc_judd(pred: GrayMap, fixations: FixationSet) -> float:
    """ROC area with fixated pixels as positives and all remaining
    pixels as negatives, thresholded at the distinct fixated values."""
    _check_frame_matches(pred, fixations, "fixation")
    if len(fixations) == 0:
        raise ValidationError("AUC needs at least one fixation")
    v = pred.values
    cols, rows = fixation_pixels(fixations.points, pred.width, pred.height)
    pos = v[rows, cols]
    mask = np.ones(v.shape, dtype=bool)
    mask[rows, cols] = False
    neg = v[mask]
    if neg.size == 0:
        raise NumericError("AUC undefined when every pixel is fixated")
    thresholds = np.unique(pos)[::-1]
    return _roc_area(pos, neg, thresholds)


def subsample_negatives(negatives: FixationSet, cap: int, seed: int) -> FixationSet:
    """Deterministically thin a negative fixation set to at most ``cap``
    points (without replacement)."""
    if cap <= 0:
        raise ValidationError("subsample cap must be positive")
    n = len(negatives)
    if n <= cap:
        return negatives
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=cap, replace=False)
    return FixationSet(frame=negatives.frame, points=negatives.points[np.sort(idx)])


def sauc(pred: GrayMap, fixations: FixationSet, negatives: FixationSet, seed: int = 0) -> float:
    """Shuffled AUC: negatives are fixation locations drawn from other
    images (capped at 10 per positive, seeded). Thresholds sweep every
    distinct positive and negative value, which makes the trapezoidal
    area equal the pairwise-comparison statistic with ties counted
    half."""
    _check_frame_matches(pred, fixations, "fixation")
    _check_frame_matches(pred, negatives, "negative fixation")
    if len(fixations) == 0:
        raise ValidationError("sAUC needs at least one fixation")
    if len(negatives) == 0:
        raise ValidationError("sAUC needs at least one negative fixation")
    negatives = subsample_negatives(negatives, 10 * len(fixations), seed)
    v = pred.values
    cols, rows = fixation_pixels(fixations.points, pred.width, pred.height)
    pos = v[rows, cols]
    ncols, nrows = fixation_pixels(negatives.points, pred.width, pred.height)
    neg = v[nrows, ncols]
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    return _roc_area(pos, neg, thresholds)


def fixations_to_map(fixations: FixationSet, sigma: float) -> GrayMap:
    """Continuous attention map from discrete fixations: unit impulses
    at the rounded pixels, blurred with an isotropic Gaussian truncated
    at radius ceil(3 sigma) and clipped at the frame edges, rescaled to
    peak at 1."""
    if len(fixations) == 0:
        raise ValidationError("cannot build a map from an empty fixation set")
    if not (sigma > 0):
        raise ValidationError(f"sigma must be positive, got {sigma}")
    w, h = fixations.frame
    counts = np.zeros((h, w))
    cols, rows = fixation_pixels(fixations.points, w, h)
    np.add.at(counts, (rows, cols), 1.0)

    r = int(math.ceil(3 * sigma))
    d = np.arange(-r, r + 1, dtype=np.float64)
    k1 = np.exp(-(d * d) / (2 * sigma * sigma))
    kernel = np.outer(k1, k1)

    out = np.zeros_like(counts)
    ys, xs = np.nonzero(counts)
    for y, x in zip(ys, xs):
        y0, y1 = max(0, y - r), min(h, y + r + 1)
        x0, x1 = max(0, x - r), min(w, x + r + 1)
        out[y0:y1, x0:x1] += counts[y, x] * kernel[y0 - y + r:y1 - y + r, x0 - x + r:x1 - x + r]
    return GrayMap(w, h, out / out.max(), kind="unit-range")


def resize_bilinear(m: GrayMap, size) -> GrayMap:
    """Bilinear resample to (width, height) using half-pixel centers.
    A same-size resize returns the input unchanged."""
    w, h = int(size[0]), int(size[1])
    if w <= 0 or h <= 0:
        raise ValidationError(f"target size must be positive, got {w}x{h}")
    if (w, h) == (m.width, m.height):
        return m
    v = m.values
    xs = np.clip((np.arange(w) + 0.5) * m.width / w - 0.5, 0, m.width - 1)
    ys = np.clip((np.arange(h) + 0.5) * m.height / h - 0.5, 0, m.height - 1)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, m.width - 1)
    y1 = np.minimum(y0 + 1, m.height - 1)
    wx = (xs - x0)[None, :]
    wy = (ys - y0)[:, None]
    top = v[np.ix_(y0, x0)] * (1 - wx) + v[np.ix_(y0, x1)] * wx
    bot = v[np.ix_(y1, x0)] * (1 - wx) + v[np.ix_(y1, x1)] * wx
    return GrayMap(w, h, top * (1 - wy) + bot * wy)


@dataclass(frozen=True)
class HeatmapScores:
    """One evaluation row. Fields are None when their inputs were not
    supplied (no fixations, no negatives)."""

    cc: float
    kld: float
    sim: float
    rmse: float
    r2: float
    auc_judd: float | None = None
    sauc: float | None = None
    nss: float | None = None


def evaluate_heatmap(pred: GrayMap, gt: GrayMap, fixations: FixationSet | None = None,
                     negatives: FixationSet | None = None, seed: int = 0) -> HeatmapScores:
    """Run the full metric suite on one prediction. The prediction is
    bilinearly resized to the ground-truth resolution first."""
    pred = resize_bilinear(pred, (gt.width, gt.height))
    scores = dict(
        cc=cc(pred, gt),
        kld=kld(pred, gt),
        sim=sim(pred, gt),
        rmse=rmse(pred, gt),
        r2=r_squared(pred, gt),
    )
    if fixations is not None and len(fixations) > 0:
        scores["auc_judd"] = auc_judd(pred, fixations)
        scores["nss"] = nss(pred, fixations)
        if negatives is not None and len(negatives) > 0:
            scores["sauc"] = sauc(pred, fixations, negatives, seed=seed)
    return HeatmapScores(**scores)
