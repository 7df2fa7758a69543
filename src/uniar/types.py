"""Core value types: images, maps, fixations, scanpaths, tokens, prompts, samples.

Every array-backed type takes its arrays through one rule, `_frozen`:
one copy into float64 or int64 (int64 only from integer input, so 1.5
is rejected, never truncated), a shape check, a finiteness check for
floats, then the copy is made read-only, so instances behave as
immutable values.
Coordinates are continuous pixel units with x in [0, width) and y in
[0, height); pixel lookups round half away from zero and clip to the
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError

INPUT_TYPES = (
    "natural image",
    "webpage",
    "graphic design",
    "mobile user interface",
)

OUTPUT_TYPES = (
    "saliency heatmap",
    "importance heatmap",
    "scanpath",
    "aesthetics score",
)

# Map output type onto the kind of target a sample carries.
_TARGET_KINDS = {
    "saliency heatmap": "heatmap",
    "importance heatmap": "heatmap",
    "scanpath": "scanpath",
    "aesthetics score": "score",
}

def target_kind(output_type: str) -> str:
    """Return 'heatmap', 'scanpath' or 'score' for a valid output type."""
    try:
        return _TARGET_KINDS[output_type]
    except KeyError:
        raise ValidationError(f"unknown output type: {output_type!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array the caller owns, a private copy, read-only."""
    arr.setflags(write=False)
    return arr


def _frozen(values, dtype, shape, what: str) -> np.ndarray:
    """``values`` copied once into ``dtype`` (np.float64 or np.int64) and
    returned read-only, after checking it against ``shape``, in which
    None matches any length. int64 is built only from integer input;
    floats must be finite. Any failure is a ValidationError."""
    try:
        if dtype is np.int64 and np.asarray(values).dtype.kind not in "iu":
            raise ValidationError(f"{what} must be integers")
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{what}: {e}") from None
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        expected = ", ".join("N" if n is None else str(n) for n in shape)
        raise ValidationError(f"{what} must have shape ({expected}), got {arr.shape}")
    if dtype is np.float64 and not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    return _freeze(arr)


def round_halfaway(x):
    """Round half away from zero (0.5 -> 1, -0.5 -> -1), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def fixation_pixels(points, width: int, height: int):
    """Continuous (x, y) coordinates -> integer pixel indices (col, row).

    Rounds half away from zero, then clips into the frame so that a
    coordinate arbitrarily close to the right/bottom edge still lands
    on the last pixel.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    cols = np.clip(round_halfaway(pts[:, 0]), 0, width - 1).astype(np.int64)
    rows = np.clip(round_halfaway(pts[:, 1]), 0, height - 1).astype(np.int64)
    return cols, rows


@dataclass(frozen=True)
class GrayMap:
    """Single-channel map, row-major (height, width) float64.
    ``kind="unit-range"`` asserts every value lies in [0, 1]."""

    width: int
    height: int
    values: np.ndarray
    kind: str | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"map dimensions must be positive, got {self.width}x{self.height}")
        if self.kind not in (None, "unit-range"):
            raise ValidationError(f"unknown map kind: {self.kind!r}")
        v = _frozen(self.values, np.float64, (self.height, self.width), "map")
        if self.kind and (v.min() < 0.0 or v.max() > 1.0):
            raise ValidationError("unit-range map has values outside [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class SegmentationMap:
    """Integer region labels, row-major (height, width), labels >= 0."""

    width: int
    height: int
    labels: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"segmentation dimensions must be positive, got {self.width}x{self.height}")
        lab = _frozen(self.labels, np.int64, (self.height, self.width), "segmentation labels")
        if lab.min() < 0:
            raise ValidationError("segmentation labels must be >= 0")
        object.__setattr__(self, "labels", lab)


def _check_frame(frame) -> tuple[int, int]:
    try:
        w, h = frame
        whole = int(np.int64(w)), int(np.int64(h))
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != (w, h):  # a fraction is rejected, not truncated
        raise ValidationError(f"frame must be a (width, height) pair of whole numbers, "
                              f"got {frame!r}")
    w, h = whole
    if w <= 0 or h <= 0:
        raise ValidationError(f"frame dimensions must be positive, got {w}x{h}")
    return w, h


def _check_points(points, frame, allow_empty: bool):
    w, h = frame
    pts = _frozen(points, np.float64, (None, 2), "fixations")
    if not len(pts):
        if not allow_empty:
            raise ValidationError("at least one fixation required")
    elif pts.min() < 0 or pts[:, 0].max() >= w or pts[:, 1].max() >= h:
        raise ValidationError(f"fixation outside frame {w}x{h}")
    return pts


@dataclass(frozen=True)
class FixationSet:
    """Unordered fixation locations within a frame. May be empty;
    operations that need data check for themselves."""

    frame: tuple[int, int]
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self):
        object.__setattr__(self, "frame", _check_frame(self.frame))
        object.__setattr__(self, "points", _check_points(self.points, self.frame, allow_empty=True))

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class Scanpath:
    """Ordered fixation sequence within a frame, at least one fixation."""

    frame: tuple[int, int]
    fixations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", _check_frame(self.frame))
        object.__setattr__(self, "fixations", _check_points(self.fixations, self.frame, allow_empty=False))

    def __len__(self):
        return self.fixations.shape[0]

    @cached_property
    def pixels(self):
        """(cols, rows): the pixel of the frame each fixation falls in, as
        `fixation_pixels` maps it; worked out on first use, then kept."""
        return tuple(_freeze(a) for a in fixation_pixels(self.fixations, *self.frame))


@dataclass(frozen=True)
class BinnedScanpath:
    """Scanpath quantized to the fixed 1000x1000 coordinate grid."""

    bins: np.ndarray

    def __post_init__(self):
        b = _frozen(self.bins, np.int64, (None, 2), "bin indices")
        if not len(b):
            raise ValidationError("a binned scanpath needs at least one fixation")
        if b.min() < 0 or b.max() > 999:
            raise ValidationError("bin indices must lie in [0, 999]")
        object.__setattr__(self, "bins", b)

    def __len__(self):
        return self.bins.shape[0]


@dataclass(frozen=True)
class TokenString:
    """Whitespace-free tokens; rendered text joins them with single spaces."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        toks = tuple(self.tokens)
        if not toks:
            raise ValidationError("token string must not be empty")
        for t in toks:
            if not t or any(c.isspace() for c in t):
                raise ValidationError(f"invalid token: {t!r}")
        object.__setattr__(self, "tokens", toks)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class RatingSample:
    """A normalized opinion score in [0, 1]."""

    score: float

    def __post_init__(self):
        try:
            score = float(self.score)
        except (TypeError, ValueError):
            raise ValidationError("rating score must be a real number")
        if not np.isfinite(score) or not (0.0 <= score <= 1.0):
            raise ValidationError(f"rating score must lie in [0, 1], got {score}")
        object.__setattr__(self, "score", score)


@dataclass(frozen=True)
class ImageGrid:
    """RGB image, row-major (height, width, 3) float64 in [0, 1]."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"image dimensions must be positive, got {self.width}x{self.height}")
        p = _frozen(self.pixels, np.float64, (self.height, self.width, 3), "image")
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValidationError("image values must lie in [0, 1]")
        object.__setattr__(self, "pixels", p)


@dataclass(frozen=True)
class PromptSpec:
    """Task conditioning: what the pixels are, what behavior to predict,
    and an optional free-text query (for target-driven viewing)."""

    input_type: str
    output_type: str
    query: str | None = None

    def __post_init__(self):
        if self.input_type not in INPUT_TYPES:
            raise ValidationError(f"unknown input type: {self.input_type!r}")
        if self.output_type not in OUTPUT_TYPES:
            raise ValidationError(f"unknown output type: {self.output_type!r}")
        if self.query is not None and "\n" in self.query:
            raise ValidationError("query must not contain newlines")

    @property
    def kind(self) -> str:
        return target_kind(self.output_type)


_TARGET_TYPES = {"heatmap": GrayMap, "scanpath": Scanpath, "score": RatingSample}


def render_prompt(spec: PromptSpec) -> str:
    """Serialize a prompt. Exactly one space follows INPUT_TYPE: and
    OUTPUT_TYPE:, none follows QUERY:."""
    text = f"INPUT_TYPE: {spec.input_type} OUTPUT_TYPE: {spec.output_type}"
    if spec.query is not None:
        text += f" QUERY:{spec.query}"
    return text


def parse_prompt(text: str) -> PromptSpec:
    """Invert render_prompt by splitting on the literal markers."""
    head = "INPUT_TYPE: "
    if not text.startswith(head):
        raise ParseError(f"prompt must start with {head!r}")
    rest = text[len(head):]
    in_part, sep, rest = rest.partition(" OUTPUT_TYPE: ")
    if not sep:
        raise ParseError("prompt is missing the OUTPUT_TYPE marker")
    out_part, sep, query = rest.partition(" QUERY:")
    return PromptSpec(in_part, out_part, query if sep else None)


@dataclass(frozen=True)
class Sample:
    """One training/eval item: an image, its prompt, and a target whose
    type is dictated by the prompt's output type (heatmap GrayMap,
    Scanpath, or RatingSample)."""

    image: ImageGrid
    prompt: PromptSpec
    target: object

    def __post_init__(self):
        kind = self.prompt.kind
        gt, img = self.target, self.image
        if not isinstance(gt, _TARGET_TYPES[kind]):
            raise ValidationError(
                f"{kind} output type requires a {_TARGET_TYPES[kind].__name__} target")
        if kind == "heatmap" and (gt.width, gt.height) != (img.width, img.height):
            raise ValidationError(
                f"heatmap target {gt.width}x{gt.height} does not match its "
                f"image {img.width}x{img.height}")

    @property
    def kind(self) -> str:
        return self.prompt.kind


@dataclass(frozen=True)
class DatasetHandle:
    """A named, ordered collection of same-task samples that the
    mixture treats as one source regardless of its size."""

    name: str
    input_type: str
    output_type: str
    samples: tuple

    def __post_init__(self):
        if not self.name:
            raise ValidationError("dataset handle needs a name")
        samples = tuple(self.samples)
        if not samples:
            raise ValidationError(f"dataset handle {self.name!r} has no samples")
        for s in samples:
            if not isinstance(s, Sample):
                raise ValidationError("dataset handle may contain Sample objects only")
            if s.prompt.input_type != self.input_type or s.prompt.output_type != self.output_type:
                raise ValidationError(
                    f"sample prompt ({s.prompt.input_type!r}, {s.prompt.output_type!r}) does not "
                    f"match handle {self.name!r} ({self.input_type!r}, {self.output_type!r})")
        object.__setattr__(self, "samples", samples)

    @property
    def kind(self) -> str:
        return target_kind(self.output_type)

    def __len__(self):
        return len(self.samples)
