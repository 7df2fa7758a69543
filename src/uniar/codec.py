"""Scanpath <-> token string codec.

Continuous fixation coordinates are quantized onto a fixed 1000x1000
grid regardless of frame size, serialized as integer tokens joined by
the separator word, and wrapped in sentinel tokens:

    <extra_id_01> x1 y1 and x2 y2 and ... xN yN <extra_id_02>

A path of N fixations therefore renders as 3N+1 tokens in total.
Decoding is fault tolerant: it never raises on arbitrary model text
and keeps whatever well-formed prefix it can recover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .types import BinnedScanpath, Scanpath, TokenString

BINS = 1000
START_SENTINEL = "<extra_id_01>"
END_SENTINEL = "<extra_id_02>"
SEPARATOR = "and"


def quantize(path: Scanpath) -> BinnedScanpath:
    """Map coordinates to bin indices: floor(x / width * 1000), clamped
    to [0, 999]. The clamp only matters for float round-off at the very
    edge of the frame."""
    w, h = path.frame
    fx = path.fixations
    bx = np.clip(np.floor(fx[:, 0] / w * BINS), 0, BINS - 1)
    by = np.clip(np.floor(fx[:, 1] / h * BINS), 0, BINS - 1)
    return BinnedScanpath(np.stack([bx, by], axis=1).astype(np.int64))


def dequantize(binned: BinnedScanpath, frame) -> Scanpath:
    """Map bin indices back to the continuous centers of their bins,
    (b + 0.5) * extent / 1000. Inverse of quantize up to half a bin."""
    w, h = frame
    b = binned.bins.astype(np.float64)
    x = (b[:, 0] + 0.5) * w / BINS
    y = (b[:, 1] + 0.5) * h / BINS
    return Scanpath(frame=(w, h), fixations=np.stack([x, y], axis=1))


def encode_target(binned: BinnedScanpath) -> TokenString:
    """Render a binned path as the sentinel-wrapped token sequence."""
    toks = [START_SENTINEL]
    for i, (bx, by) in enumerate(binned.bins):
        if i:
            toks.append(SEPARATOR)
        toks.append(str(int(bx)))
        toks.append(str(int(by)))
    toks.append(END_SENTINEL)
    return TokenString(tuple(toks))


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of fault-tolerant decoding. ``scanpath`` is None exactly
    when no fixation could be recovered."""

    scanpath: Scanpath | None
    fixations_recovered: int

    @property
    def valid(self) -> bool:
        return self.scanpath is not None


def _is_bin_token(tok: str) -> bool:
    # ASCII digits only; rejects signs, decimals, unicode digits.
    if not tok.isascii() or not tok.isdigit():
        return False
    return int(tok) < BINS


def decode_robust(raw: str, frame) -> DecodeResult:
    """Recover a scanpath from arbitrary model output. Never raises on
    the model string; a frame without positive width and height is the
    caller's error and raises ValidationError.

    The region between the first start sentinel and the next end
    sentinel (falling back to the string boundary when either is
    missing) is split on the separator word; pairs of tokens are
    accepted from the beginning while both parse as integers in
    [0, 999], and decoding stops at the first deviation, keeping the
    fixations gathered so far. Zero recovered fixations means invalid.
    """
    w, h = frame
    if w <= 0 or h <= 0:
        raise ValidationError(f"frame dimensions must be positive, got {w}x{h}")
    toks = raw.split()
    start = 0
    if START_SENTINEL in toks:
        start = toks.index(START_SENTINEL) + 1
    try:
        end = toks.index(END_SENTINEL, start)
    except ValueError:
        end = len(toks)
    region = toks[start:end]

    # Split the region into separator-delimited groups, then walk each
    # group pairwise. A trailing unpaired token ends decoding.
    groups: list[list[str]] = [[]]
    for t in region:
        if t == SEPARATOR:
            groups.append([])
        else:
            groups[-1].append(t)

    bins: list[tuple[int, int]] = []
    ok = True
    for group in groups:
        if not group:
            break
        i = 0
        while i + 1 < len(group):
            a, b = group[i], group[i + 1]
            if _is_bin_token(a) and _is_bin_token(b):
                bins.append((int(a), int(b)))
                i += 2
            else:
                ok = False
                break
        if not ok or i < len(group):
            break

    if not bins:
        return DecodeResult(scanpath=None, fixations_recovered=0)
    path = dequantize(BinnedScanpath(np.asarray(bins, dtype=np.int64)), (w, h))
    return DecodeResult(scanpath=path, fixations_recovered=len(bins))

