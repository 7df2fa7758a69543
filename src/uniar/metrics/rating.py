"""Subjective rating metrics: rank and linear correlation between
predicted and observed scores."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError, ValidationError


def _paired(pred, obs):
    p = np.asarray(pred, dtype=np.float64).ravel()
    o = np.asarray(obs, dtype=np.float64).ravel()
    if p.size != o.size:
        raise ValidationError(f"paired scores differ in length: {p.size} vs {o.size}")
    if p.size < 2:
        raise ValidationError("correlation needs at least two pairs")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(o))):
        raise ValidationError("scores must be finite")
    return p, o


def _pearson(x: np.ndarray, y: np.ndarray, what: str = "constant scores") -> float:
    """Population Pearson correlation; ``what`` names a constant side."""
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.mean(xc * xc)))
    sy = float(np.sqrt(np.mean(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise NumericError(f"correlation undefined for {what}")
    return float(np.mean(xc * yc)) / (sx * sy)


def average_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their ranks."""
    x = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # a tie run starts at 0 and wherever a sorted value differs from the one
    # before it; NaN differs from everything, so each NaN is a run of its own
    cuts = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    starts, ends = np.r_[0, cuts], np.r_[cuts, x.size] - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def plcc(pred, obs) -> float:
    """Pearson linear correlation on the raw values."""
    p, o = _paired(pred, obs)
    return _pearson(p, o)


def srcc(pred, obs) -> float:
    """Spearman rank correlation: Pearson correlation of average
    ranks."""
    p, o = _paired(pred, obs)
    return _pearson(average_ranks(p), average_ranks(o))
