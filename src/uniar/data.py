"""Dataset handles on disk, synthetic task generators, the equal-rate
mixture sampler, and the file formats everything travels in.

Synthetic stimuli stand in for real gaze/rating corpora: bright Gaussian
blobs on noise for saliency and scanpaths, uniform-noise fields for
contrast-scored ratings. Every sample is a pure function of (seed, task,
index), so any single stimulus can be regenerated without building the
whole set, and a dataset of n samples is a prefix of the same seed's
dataset of n + k.

Formats: binary grids (`UARGRID` header line, little-endian float64 or
int64 payload), binary PGM (P5, 16-bit) for
maps, binary PPM (P6) for images, JSON lines for scanpaths, CSV tables
for rating pairs, scores and reports, `key = value` text for handle
metadata and model configs. This module is the only one that knows a
file format or a directory layout; the CLI and the model read and write
through it. All writers are deterministic byte-for-byte. One way in,
one way out: every file, checkpoints included, is read by `_read_input`
and written by `_write_output`; `reads_file` names the file in errors.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParseError, ValidationError
from .types import (
    INPUT_TYPES,
    OUTPUT_TYPES,
    DatasetHandle,
    FixationSet,
    GrayMap,
    ImageGrid,
    PromptSpec,
    RatingSample,
    Sample,
    Scanpath,
    SegmentationMap,
    round_halfaway,
    target_kind,
)

# ---------------------------------------------------------------------------
# synthetic scenes

BLOB_SIGMA = 5.0
BLOB_MARGIN = 10          # keeps ~2 sigma of blob mass inside the frame
BLOB_MIN_DIST = 18.0      # at 18px a 0.6 blob flanked by two 1.0 neighbours
                          # still owns its center pixel (spillover gain over
                          # one pixel < the blob's own one-pixel falloff)
BLOB_AMP_RANGE = (0.6, 1.0)
BLOB_NOISE_MAX = 0.25

_TASK_CODES = {"saliency": 1, "scanpath": 2, "rating": 3}


def sample_rng(seed: int, task: str, index: int) -> np.random.Generator:
    """Independent stream for one synthetic sample.

    Keyed by (seed, task, index) so the three tasks never share draws at
    equal seeds and regenerating sample i needs no other sample.
    """
    if task not in _TASK_CODES:
        raise ValidationError(f"unknown task {task!r}")
    if index < 0:
        raise ValidationError("sample index must be >= 0")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), _TASK_CODES[task], int(index))))


@dataclass(frozen=True)
class BlobScene:
    """Parametric truth behind one blob stimulus: the rendered image,
    the clean ground-truth map, and the blob centers/amplitudes that
    produced both."""

    image: ImageGrid
    gt: GrayMap
    centers: tuple
    amps: tuple


def blob_scene(rng: np.random.Generator, size: int = 64) -> BlobScene:
    """Render 1-3 bright Gaussian blobs on uniform noise.

    Centers sit on integer pixels, at least BLOB_MARGIN from every edge
    and BLOB_MIN_DIST apart, so each center is the argmax of the clean
    map within its own neighbourhood and the global argmax is the
    brightest blob's center. The ground truth is the noise-free blob sum
    scaled so its maximum is exactly 1.
    """
    # rejection sampling needs the center box to span at least twice the
    # separation radius or three blobs may not fit at all
    if size - 2 * BLOB_MARGIN - 1 < 2 * BLOB_MIN_DIST:
        raise ValidationError(
            f"scene size {size} cannot hold three blobs {BLOB_MIN_DIST:.0f}px apart; "
            f"need at least {int(2 * BLOB_MIN_DIST + 2 * BLOB_MARGIN + 1)}")
    count = int(rng.integers(1, 4))
    centers = []
    attempts = 0
    while len(centers) < count:
        attempts += 1
        if attempts > 10_000:
            raise NumericError("blob placement did not converge")
        cx = int(rng.integers(BLOB_MARGIN, size - BLOB_MARGIN))
        cy = int(rng.integers(BLOB_MARGIN, size - BLOB_MARGIN))
        if all((cx - ox) ** 2 + (cy - oy) ** 2 >= BLOB_MIN_DIST ** 2 for ox, oy in centers):
            centers.append((cx, cy))
    amps = rng.uniform(*BLOB_AMP_RANGE, size=count)
    yy, xx = np.mgrid[0:size, 0:size]
    field = np.zeros((size, size))
    for (cx, cy), a in zip(centers, amps):
        field += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * BLOB_SIGMA ** 2))
    noise = rng.uniform(0.0, BLOB_NOISE_MAX, size=(size, size))
    gray = np.clip(field + noise, 0.0, 1.0)
    image = ImageGrid(size, size, np.repeat(gray[:, :, None], 3, axis=2))
    gt = GrayMap(size, size, field / field.max(), kind="unit-range")
    return BlobScene(image, gt, tuple(centers), tuple(float(a) for a in amps))


def noise_scene(rng: np.random.Generator, size: int = 64):
    """Uniform-noise stimulus for the rating task.

    gray = 0.5 + a*u with u ~ U[-1, 1] and a <= 0.5, so values never
    clip and raising the amplitude raises the RMS contrast exactly.
    Returns (image, amplitude, field) with field the unit noise u.
    """
    u = rng.uniform(-1.0, 1.0, size=(size, size))
    a = float(rng.uniform(0.05, 0.5))
    gray = 0.5 + a * u
    image = ImageGrid(size, size, np.repeat(gray[:, :, None], 3, axis=2))
    return image, a, u


def contrast_score(image) -> float:
    """Clamped RMS contrast: min(1, 2 * std(gray)).

    Accepts an ImageGrid or a bare 2-D/3-D array; 3-channel input is
    averaged to gray first. A constant image scores 0; a 0/1
    checkerboard has std 0.5 and hits the ceiling at exactly 1.
    """
    pixels = image.pixels if isinstance(image, ImageGrid) else np.asarray(image, dtype=np.float64)
    gray = pixels.mean(axis=2) if pixels.ndim == 3 else pixels
    if gray.min() == gray.max():  # constant image scores exactly 0
        return 0.0
    return float(min(1.0, 2.0 * gray.std()))


def _check_gen_args(n, input_type):
    if n < 1:
        raise ValidationError("need at least one sample")
    if input_type not in INPUT_TYPES:
        raise ValidationError(f"unknown input type: {input_type!r}")


def gen_saliency_task(seed: int, n: int, size: int = 64,
                      input_type: str = "natural image",
                      output_type: str = "saliency heatmap") -> DatasetHandle:
    """Blob images with their clean blob-sum maps as heatmap targets.

    output_type may be either heatmap flavour; the stimuli are the same,
    only the prompt tag changes, which is exactly how a transfer
    scenario is expressed.
    """
    _check_gen_args(n, input_type)
    if target_kind(output_type) != "heatmap":
        raise ValidationError(f"{output_type!r} is not a heatmap output type")
    prompt = PromptSpec(input_type, output_type)
    samples = []
    for i in range(n):
        scene = blob_scene(sample_rng(seed, "saliency", i), size)
        samples.append(Sample(scene.image, prompt, scene.gt))
    return DatasetHandle(f"blobs-{output_type.split()[0]}", input_type, output_type,
                         tuple(samples))


def gen_scanpath_task(seed: int, n: int, size: int = 64,
                      input_type: str = "natural image") -> DatasetHandle:
    """Blob images with fixation sequences as targets.

    Even-indexed samples free-view: the path visits every blob center in
    decreasing amplitude order. Odd-indexed samples carry the query
    "brightest" and fixate only the brightest center, mimicking
    target-driven search.
    """
    _check_gen_args(n, input_type)
    samples = []
    for i in range(n):
        scene = blob_scene(sample_rng(seed, "scanpath", i), size)
        order = np.argsort(-np.asarray(scene.amps), kind="stable")
        if i % 2 == 1:
            prompt = PromptSpec(input_type, "scanpath", query="brightest")
            fixations = [scene.centers[order[0]]]
        else:
            prompt = PromptSpec(input_type, "scanpath")
            fixations = [scene.centers[k] for k in order]
        path = Scanpath((size, size), np.asarray(fixations, dtype=np.float64))
        samples.append(Sample(scene.image, prompt, path))
    return DatasetHandle("blobs-scanpath", input_type, "scanpath", tuple(samples))


def gen_rating_task(seed: int, n: int, size: int = 64,
                    input_type: str = "natural image") -> DatasetHandle:
    """Noise images scored by clamped RMS contrast."""
    _check_gen_args(n, input_type)
    prompt = PromptSpec(input_type, "aesthetics score")
    samples = []
    for i in range(n):
        image, _, _ = noise_scene(sample_rng(seed, "rating", i), size)
        samples.append(Sample(image, prompt, RatingSample(contrast_score(image))))
    return DatasetHandle("noise-rating", input_type, "aesthetics score", tuple(samples))


# ---------------------------------------------------------------------------
# mixture

@dataclass(frozen=True)
class MixtureConfig:
    """One or more dataset handles sampled at equal rate, plus the seed
    that makes the draw stream reproducible."""

    handles: tuple
    seed: int = 0

    def __post_init__(self):
        handles = tuple(self.handles)
        if not handles:
            raise ValidationError("mixture needs at least one handle")
        for h in handles:
            if not isinstance(h, DatasetHandle):
                raise ValidationError("mixture handles must be DatasetHandle objects")
        object.__setattr__(self, "handles", handles)
        object.__setattr__(self, "seed", int(self.seed))


def mixture_start(cfg: MixtureConfig) -> np.random.Generator:
    """Fresh draw stream for one training loop."""
    return np.random.default_rng(cfg.seed)


def mixture_next(cfg: MixtureConfig, rng_state: np.random.Generator):
    """Draw one sample: handle uniform over handles, then sample uniform
    within the handle, so every handle contributes at rate 1/D no matter
    how many samples it holds. Returns (sample, rng_state)."""
    if not isinstance(cfg, MixtureConfig):
        raise ValidationError("cfg must be a MixtureConfig")
    handle = cfg.handles[int(rng_state.integers(len(cfg.handles)))]
    sample = handle.samples[int(rng_state.integers(len(handle.samples)))]
    return sample, rng_state


# ---------------------------------------------------------------------------
# input and output files

def _read_input(path, binary=False):
    """The one place an input file is opened. Returns its bytes, or its
    UTF-8 text as lines that keep their ends, cut at `\\n`, `\\r` and
    `\\r\\n` only. A file that cannot be read, or bytes that are not UTF-8,
    raise ParseError, the latter at the line and column where they start."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ParseError(e.strerror or str(e))
    if binary:
        return raw
    try:
        text, bad = raw.decode("utf-8"), None
    except UnicodeDecodeError as e:
        # a sentinel character keeps the line the bad bytes start on
        text, bad = raw[:e.start].decode("utf-8") + "x", e
    lines, run = [], []
    for piece in text.splitlines(keepends=True):
        run.append(piece)
        if piece[-1] in "\r\n":  # a form feed, \x85 and the like end no line
            lines.append("".join(run))
            run = []
    if run:
        lines.append("".join(run))
    if bad is not None:
        raise ParseError(f"invalid UTF-8: {bad.reason}", line=len(lines), column=len(lines[-1]))
    return lines


def _write_output(path, *chunks) -> None:
    """The one place a file is opened for writing, with ``chunks`` in
    order: text is written as UTF-8 exactly as given, line ends
    untranslated; bytes, or a C-contiguous array, as they are in memory."""
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)


def reads_file(reader):
    """Decorator for a reader whose first argument is the path of the file
    it parses: a ParseError that leaves it naming no file gets that path,
    so a nested read (read_map calling read_grid) names the file once."""
    @functools.wraps(reader)
    def named(path, *args):
        try:
            return reader(path, *args)
        except ParseError as e:
            if e.path is None:
                e.path = path
            raise
    return named


# ---------------------------------------------------------------------------
# grids

_GRID_MAGIC = "UARGRID"
# a grid's header line is followed by exactly 8 * width * height
# bytes: the values, row-major, as little-endian float64 or int64
_GRID_DTYPES = {"float64le": np.dtype("<f8"), "int64le": np.dtype("<i8")}
_LINE_END = re.compile(rb"\r\n?|\n")


def write_grid(path, obj) -> None:
    """GrayMap -> float64le grid, SegmentationMap -> int64le grid.

    The ASCII header line `UARGRID <width> <height> <mode>`, then the
    values row-major as little-endian 8-byte floats or ints, so every
    float64, -0.0 and subnormals included, reads back bit for bit.
    """
    if isinstance(obj, GrayMap):
        mode, arr = "float64le", obj.values
    elif isinstance(obj, SegmentationMap):
        mode, arr = "int64le", obj.labels
    else:
        raise ValidationError("write_grid takes a GrayMap or SegmentationMap")
    h, w = arr.shape
    header = f"{_GRID_MAGIC} {w} {h} {mode}\n".encode("ascii")
    # the array's own buffer goes to the file: no bytes copy of the payload
    _write_output(path, header, np.ascontiguousarray(arr, dtype=_GRID_DTYPES[mode]))


def _grid_header(line: str):
    """(width, height, mode) from a grid's first line, or a ParseError at
    line 1 and the column of the offending token."""
    header = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]
    if not header or header[0][0] != _GRID_MAGIC:
        col = header[0][1] if header else 1
        raise ParseError(f"expected {_GRID_MAGIC} magic", line=1, column=col)
    if len(header) < 4:
        raise ParseError("header needs `UARGRID <width> <height> <mode>`",
                         line=1, column=len(line.rstrip("\r\n")) + 1)
    if len(header) > 4:
        raise ParseError("trailing tokens after grid mode", line=1, column=header[4][1])
    dims = []
    for tok, col in header[1:3]:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"expected an integer dimension, got {tok!r}", line=1, column=col)
        if v <= 0:
            raise ParseError(f"dimensions must be positive, got {v}", line=1, column=col)
        dims.append(v)
    mode, mode_col = header[3]
    if mode not in _GRID_DTYPES:
        raise ParseError(f"mode must be float64le or int64le, got {mode!r}",
                         line=1, column=mode_col)
    return dims[0], dims[1], mode


def _binary_values(raw: bytes, start: int, width: int, height: int, mode: str):
    """The payload of a grid that starts at ``start``: its size is
    checked before any array exists, then every float is finite and
    every label >= 0, else ParseError at the first bad value's row and
    column."""
    dtype = _GRID_DTYPES[mode]
    need = dtype.itemsize * width * height
    if len(raw) - start != need:
        raise ParseError(f"{mode} payload has {len(raw) - start} bytes, "
                         f"expected {need} for {width}x{height}")
    values = np.frombuffer(raw, dtype=dtype, offset=start).reshape(height, width)
    ok = np.isfinite(values) if mode == "float64le" else values >= 0
    if not ok.all():
        r, c = np.argwhere(~ok)[0].tolist()
        what = "non-finite value" if mode == "float64le" else "segmentation labels must be >= 0, got"
        raise ParseError(f"row {r + 1}, column {c + 1}: {what} {values[r, c].item()!r}")
    return values


def write_key_values(path, pairs) -> None:
    """One `key = value` line per (key, value) pair, in order; the
    inverse of read_key_values. A key or value that would not read back
    unchanged (a line break, surrounding whitespace, an empty key, a key
    holding `=` or opening with `#`) raises ValidationError before the
    file is written."""
    lines = []
    for key, value in pairs:
        key, value = str(key), str(value)
        if (not key or "=" in key or key.startswith("#")
                or any("\n" in t or "\r" in t or t != t.strip() for t in (key, value))):
            raise ValidationError(f"{key!r} = {value!r} would not read back unchanged")
        lines.append(f"{key} = {value}\n")
    _write_output(path, "".join(lines))


@reads_file
def read_key_values(path, keys, kind: str):
    """The `key = value` lines of a file as (key, value, line number)
    triples in file order; blank lines and #-comments are skipped. A
    line without a key and `=`, or a key outside ``keys``, raises
    ParseError (``kind`` names the file's kind in the unknown-key message)."""
    out = []
    for lineno, raw in enumerate(_read_input(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ParseError("expected `key = value`", line=lineno)
        if key not in keys:
            raise ParseError(f"unknown {kind} key {key!r}", line=lineno)
        out.append((key, value, lineno))
    return out


@reads_file
def read_grid(path):
    """Inverse of write_grid: the header line `UARGRID <width> <height>
    <float64le|int64le>`, then exactly 8 * width * height bytes of values.
    Malformed input raises ParseError naming the file: a bad header at
    line 1 and the column of the offending token, a bad payload at its
    first bad value's row and column."""
    raw = _read_input(path, binary=True)
    m = _LINE_END.search(raw)
    start = m.end() if m else len(raw)
    # only the header is text; the payload is never decoded
    width, height, mode = _grid_header(raw[:start].decode("utf-8", "replace"))
    values = _binary_values(raw, start, width, height, mode)
    if mode == "int64le":
        return SegmentationMap(width, height, values)
    return GrayMap(width, height, values)


# ---------------------------------------------------------------------------
# binary rasters

def _pnm_header(buf: bytes, magic: bytes):
    """Parse `P5`/`P6`, then width/height/maxval with netpbm whitespace
    and # comment rules. Returns (width, height, maxval, raster offset)."""
    if buf[:2] != magic:
        raise ParseError(f"expected {magic.decode()} magic")
    pos, vals = 2, []
    while len(vals) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated header")
        try:
            vals.append(int(buf[start:pos]))
        except ValueError:
            raise ParseError(f"bad header token {buf[start:pos]!r}")
    if pos >= len(buf):
        raise ParseError("missing raster")
    pos += 1  # single whitespace byte separates maxval from raster
    w, h, maxval = vals
    if w <= 0 or h <= 0:
        raise ParseError(f"dimensions must be positive, got {w}x{h}")
    if not (0 < maxval < 65536):
        raise ParseError(f"maxval must lie in [1, 65535], got {maxval}")
    return w, h, maxval, pos


def _pnm_raster(buf, pos, count, maxval):
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = count * dtype.itemsize
    if len(buf) - pos < need:
        raise ParseError(f"raster truncated ({len(buf) - pos} of {need} bytes)")
    raw = np.frombuffer(buf[pos:pos + need], dtype=dtype).astype(np.float64)
    if raw.max(initial=0.0) > maxval:
        raise ParseError(f"raster value exceeds maxval {maxval}")
    return raw / maxval


def write_pgm(path, gmap: GrayMap) -> None:
    """16-bit binary PGM. Values must lie in [0, 1]; each maps to
    round(v * 65535)."""
    v = gmap.values
    if v.min() < 0.0 or v.max() > 1.0:
        raise ValidationError("PGM output needs values in [0, 1]")
    raster = round_halfaway(v * 65535.0).astype(">u2")
    _write_output(path, f"P5\n{gmap.width} {gmap.height}\n65535\n".encode("ascii")
                  + raster.tobytes())


@reads_file
def read_pgm(path) -> GrayMap:
    buf = _read_input(path, binary=True)
    w, h, maxval, pos = _pnm_header(buf, b"P5")
    values = _pnm_raster(buf, pos, w * h, maxval).reshape(h, w)
    return GrayMap(w, h, values, kind="unit-range")


def write_ppm(path, image: ImageGrid) -> None:
    """8-bit binary PPM; each channel maps to round(v * 255)."""
    raster = round_halfaway(image.pixels * 255.0).astype("u1")
    _write_output(path, f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
                  + raster.tobytes())


@reads_file
def read_ppm(path) -> ImageGrid:
    buf = _read_input(path, binary=True)
    w, h, maxval, pos = _pnm_header(buf, b"P6")
    pixels = _pnm_raster(buf, pos, w * h * 3, maxval).reshape(h, w, 3)
    return ImageGrid(w, h, pixels)


# ---------------------------------------------------------------------------
# map and scanpath directories

MAP_EXTS = (".grid", ".pgm")  # the lossless grid wins when a map has both


def list_files(dirpath, exts) -> dict:
    """Stem -> path for the files in ``dirpath`` whose extension is in
    ``exts``, in file name order; when a stem has several, the first
    extension in ``exts`` wins."""
    if not os.path.isdir(dirpath):
        raise ValidationError(f"not a directory: {dirpath}")
    split = [os.path.splitext(f) for f in sorted(os.listdir(dirpath))]
    # the last extension goes in first, so earlier ones overwrite it
    return {stem: os.path.join(dirpath, stem + ext)
            for want in reversed(exts) for stem, ext in split if ext == want}


@reads_file
def read_map(path, image=None) -> GrayMap:
    """A float map from a `.grid` (by extension) or a PGM file; an int
    grid is rejected, and so is a map of another size than ``image``,
    the ImageGrid it belongs to, when one is given."""
    m = read_grid(path) if os.path.splitext(path)[1] == ".grid" else read_pgm(path)
    if not isinstance(m, GrayMap):
        raise ParseError("expected a float map, found an int grid")
    if image is not None and (m.width, m.height) != (image.width, image.height):
        raise ParseError(f"heatmap target {m.width}x{m.height} does not match its "
                         f"image {image.width}x{image.height}")
    return m


@reads_file
def read_segmentation(path) -> SegmentationMap:
    """An int grid; a float grid is rejected."""
    seg = read_grid(path)
    if not isinstance(seg, SegmentationMap):
        raise ParseError("segmentation must be an int grid")
    return seg


# ---------------------------------------------------------------------------
# scanpath JSON lines

def write_scanpaths(path, items) -> None:
    """One JSON object per line: frame, fixations, input_type,
    output_type, query (null when absent). Floats print with full
    precision, so numeric round trips are exact."""
    lines = []
    for scanpath, prompt in items:
        if not isinstance(scanpath, Scanpath) or not isinstance(prompt, PromptSpec):
            raise ValidationError("write_scanpaths takes (Scanpath, PromptSpec) pairs")
        lines.append(json.dumps({
            "frame": [scanpath.frame[0], scanpath.frame[1]],
            "fixations": [[float(x), float(y)] for x, y in scanpath.fixations],
            "input_type": prompt.input_type,
            "output_type": prompt.output_type,
            "query": prompt.query,
        }))
    _write_output(path, "\n".join(lines) + ("\n" if lines else ""))


_SCANPATH_FIELDS = ("frame", "fixations", "input_type", "output_type", "query")


@reads_file
def read_scanpaths(path):
    """Inverse of write_scanpaths; returns a list of (Scanpath,
    PromptSpec). Structural violations (empty fixation list, point
    outside the frame, unknown prompt type) are rejected with the line
    number attached."""
    out = []
    for lineno, raw in enumerate(_read_input(path), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e.msg}", line=lineno, column=e.colno)
        if not isinstance(obj, dict):
            raise ParseError("each line must hold a JSON object", line=lineno)
        missing = [k for k in _SCANPATH_FIELDS if k not in obj]
        if missing:
            raise ParseError(f"missing fields: {', '.join(missing)}", line=lineno)
        try:
            scanpath = Scanpath(tuple(obj["frame"]), np.asarray(obj["fixations"],
                                                                dtype=np.float64))
            prompt = PromptSpec(obj["input_type"], obj["output_type"], obj["query"])
        except (ValidationError, TypeError, ValueError) as e:
            raise ParseError(str(e), line=lineno)
        out.append((scanpath, prompt))
    return out


@reads_file
def read_scanpath(path):
    """The one (Scanpath, PromptSpec) of a file that must hold exactly
    one scanpath line."""
    entries = read_scanpaths(path)
    if len(entries) != 1:
        raise ParseError(f"expected exactly one scanpath, found {len(entries)}")
    return entries[0]


@reads_file
def read_fixations(path) -> FixationSet:
    """All fixations of all observers in one scanpath file, in file
    order. The file must hold at least one scanpath, all in one frame."""
    entries = read_scanpaths(path)
    if not entries:
        raise ParseError("no scanpaths")
    frame = entries[0][0].frame
    if any(p.frame != frame for p, _ in entries):
        raise ParseError("observers disagree on the frame")
    return FixationSet(frame, np.vstack([p.fixations for p, _ in entries]))


# ---------------------------------------------------------------------------
# CSV tables

def write_table(path, header, rows) -> None:
    """A CSV table: the header, then one line per row, with minimal
    quoting and `\\n` line ends. The csv module writes floats with
    repr(), so at full precision, and None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_output(path, buf.getvalue())


@reads_file
def read_table(path, header, kind: str):
    """One tuple per row of a CSV table below its header, in file
    order: the first field as text, the others as finite floats or, for
    an empty cell, None, as write_table wrote it. An empty file, another
    header, no rows, a row whose field count differs from the header's,
    a bad number or bytes the csv module rejects (a field over its size
    limit) raise ParseError at the physical line where the first such
    row ends; ``kind`` names what the table holds in the messages."""
    reader = csv.reader(_read_input(path))
    out = []
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(f"empty {kind} file", line=1)
        if tuple(first) != header:
            raise ParseError(f"header must be {','.join(header)}", line=1)
        for row in reader:
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 line=reader.line_num)
            try:
                values = [None if v == "" else float(v) for v in row[1:]]
            except ValueError:
                raise ParseError(f"bad numeric field in {row!r}", line=reader.line_num)
            if not all(v is None or math.isfinite(v) for v in values):
                raise ParseError(f"{kind} must be finite", line=reader.line_num)
            out.append((row[0], *values))
    except csv.Error as e:
        raise ParseError(f"bad CSV: {e}", line=reader.line_num)
    if not out:
        raise ParseError("no rows below its header", line=2)
    return out


@reads_file
def _read_numbers(path, header, kind: str):
    """read_table for a table with a number in every cell after the first."""
    rows = read_table(path, header, kind)
    for row in rows:
        if None in row:
            raise ParseError(f"empty field in {kind} row {row[0]!r}")
    return rows


# ---------------------------------------------------------------------------
# rating CSV

RATING_HEADER = ("id", "predicted", "observed")


def write_ratings(path, rows) -> None:
    """Rating pairs under the header `id,predicted,observed`, floats at
    full precision, rows in input order."""
    write_table(path, RATING_HEADER, ((rid, float(pred), float(obs)) for rid, pred, obs in rows))


def read_ratings(path):
    """Inverse of write_ratings; returns a list of (id, predicted,
    observed) with floats parsed and checked finite."""
    return _read_numbers(path, RATING_HEADER, "ratings")


# ---------------------------------------------------------------------------
# handle directories

_META_KEYS = ("name", "input_type", "output_type")


@reads_file
def _read_meta(path):
    """The meta keys of a handle; an unknown input or output type is an
    error at the line that sets it (the last line, when a key repeats)."""
    found = {key: (value, lineno) for key, value, lineno in
             read_key_values(path, _META_KEYS, "meta")}
    missing = [k for k in _META_KEYS if k not in found]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    for key, allowed in (("input_type", INPUT_TYPES), ("output_type", OUTPUT_TYPES)):
        value, lineno = found[key]
        if value not in allowed:
            raise ParseError(f"unknown {key.replace('_', ' ')}: {value!r}", line=lineno)
    return {key: value for key, (value, _) in found.items()}


def save_handle(dirpath, handle: DatasetHandle) -> None:
    """Lay a handle out on disk: meta.txt, images/<id>.ppm, and one
    target store per task kind (maps/<id>.pgm, paths/<id>.jsonl, or
    scores.csv). Ids are zero-padded sample indices, so lexicographic
    and numeric order agree."""
    os.makedirs(os.path.join(dirpath, "images"), exist_ok=True)
    kind = target_kind(handle.output_type)
    write_key_values(os.path.join(dirpath, "meta.txt"),
                     [(key, getattr(handle, key)) for key in _META_KEYS])
    if kind in ("heatmap", "scanpath"):
        os.makedirs(os.path.join(dirpath, "maps" if kind == "heatmap" else "paths"),
                    exist_ok=True)
    score_rows = []
    for i, sample in enumerate(handle.samples):
        sid = f"{i:06d}"
        write_ppm(os.path.join(dirpath, "images", sid + ".ppm"), sample.image)
        if kind == "heatmap":
            write_pgm(os.path.join(dirpath, "maps", sid + ".pgm"), sample.target)
        elif kind == "scanpath":
            write_scanpaths(os.path.join(dirpath, "paths", sid + ".jsonl"),
                            [(sample.target, sample.prompt)])
        else:
            score_rows.append((sid, sample.target.score))
    if kind == "score":
        write_table(os.path.join(dirpath, "scores.csv"), ("id", "score"), score_rows)


def _read_scores(path):
    return dict(_read_numbers(path, ("id", "score"), "scores"))


def _normalize_scores(scores: dict) -> dict:
    """Scores already inside [0, 1] pass through; any other scale is
    min-max mapped onto [0, 1], a constant column landing on 0.5."""
    vals = np.asarray(list(scores.values()), dtype=np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if 0.0 <= lo and hi <= 1.0:
        return dict(scores)
    if lo == hi:
        return {k: 0.5 for k in scores}
    return {k: (v - lo) / (hi - lo) for k, v in scores.items()}


def load_handle(dirpath) -> DatasetHandle:
    """Inverse of save_handle, tolerant of externally converted data:
    map targets may be .pgm or .grid, ids are arbitrary stems as long as
    images and targets agree, and out-of-range rating scores are min-max
    normalized at ingestion."""
    meta = _read_meta(os.path.join(dirpath, "meta.txt"))
    kind = target_kind(meta["output_type"])
    images = list_files(os.path.join(dirpath, "images"), (".ppm",))
    if not images:
        raise ValidationError(f"{dirpath}: no images found")
    if kind == "heatmap":
        targets = list_files(os.path.join(dirpath, "maps"), MAP_EXTS)
    elif kind == "scanpath":
        targets = list_files(os.path.join(dirpath, "paths"), (".jsonl",))
    else:
        targets = _normalize_scores(_read_scores(os.path.join(dirpath, "scores.csv")))
    samples = []
    for sid in sorted(images):
        image = read_ppm(images[sid])
        if sid not in targets:
            raise ValidationError(f"{dirpath}: no {kind} target for id {sid!r}")
        prompt = PromptSpec(meta["input_type"], meta["output_type"])
        if kind == "heatmap":
            target = read_map(targets[sid], image)
        elif kind == "scanpath":
            target, prompt = read_scanpath(targets[sid])
        else:
            target = RatingSample(targets[sid])
        samples.append(Sample(image, prompt, target))
    return DatasetHandle(meta["name"], meta["input_type"], meta["output_type"],
                         tuple(samples))
