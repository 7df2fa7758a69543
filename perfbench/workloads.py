"""The two workloads, train and predict_eval (predict then eval, in one
process): seeded inputs, the CLI calls they make, and the checks on
every output.

Each workload drives ``uniar.cli.run(argv)`` in-process, so interpreter
start-up is not measured, and sees only the files generated here from
the seed plus its argv. One pass is the smallest unit of repeatable
work: one training run, or one request per (image, head) key followed
by one round of the three eval commands. Passes always run to
completion.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import time
import traceback

import numpy as np

from uniar import cli, data, model
from uniar.types import (INPUT_TYPES, GrayMap, ImageGrid, PromptSpec, Scanpath,
                         SegmentationMap, render_prompt)

import spans

TRAIN_STEPS = 60            # one training run of ~7 s; probe decode every cli.GEN_EVERY steps
PREDICT_IMAGES = 8          # 8 images x 3 heads = 24 requests per pass
EVAL_SAMPLES = 96           # large enough for the O(N^2) negative pooling to show
EVAL_LARGE_EVERY = 12       # every 12th sample uses 256x256 maps, the rest 64x64
RATING_PAIRS_PER_SAMPLE = 250  # enough pairs that eval-rating is timed over ~0.2 s a pass
WARMUP_SEED = 0             # the train set-up run's seed, the same for every --seed


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method); NaN when
    there are no values, e.g. when every op failed."""
    if not len(values):
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def per_s(count, seconds) -> float:
    """count per second of the summed seconds; NaN when there are none."""
    total = sum(seconds)
    return count / total if total > 0 else math.nan


def split(op, sample_s) -> dict:
    """Pieces of an op timed in finer samples: sample k as piece k, and
    the op's time outside the samples as piece "rest"."""
    pieces = dict(enumerate(sample_s))
    pieces["rest"] = op.seconds - sum(sample_s)
    return pieces


class Op:
    """Outcome of one operation: a training run, a predict request or an
    eval command. ``problems`` lists every failed check."""

    def __init__(self, kind: str, key, seconds: float):
        self.kind = kind
        self.key = key
        self.seconds = seconds
        self.problems: list = []
        self.digest = ""
        self.extra: dict = {}

    @property
    def ok(self) -> bool:
        return not self.problems


def run_cli(argv, tracer=None):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.
    With a tracer, the call is the root span ``cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    idx = tracer.begin(spans.ROOT_SPAN) if tracer is not None and tracer.enabled else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    finally:
        seconds = time.perf_counter() - t0
        if idx is not None:
            tracer.end(idx)
    return rc, out.getvalue(), err.getvalue(), seconds


def _checked(kind, key, argv, tracer, check):
    """Run one CLI call and its output check. An exception escaping the
    CLI or the check is recorded as a failed op, not raised."""
    try:
        rc, stdout, stderr, seconds = run_cli(argv, tracer)
    except Exception:
        op = Op(kind, key, 0.0)
        op.problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
        return op
    op = Op(kind, key, seconds)
    if rc != 0:
        op.problems.append(f"exit code {rc}: {stderr.strip()[:200]}")
        return op
    paused = tracer is not None and tracer.enabled
    if paused:
        tracer.enabled = False
    try:
        check(op, stdout)
    except Exception:
        op.problems.append("check raised " + traceback.format_exc().strip().splitlines()[-1])
    finally:
        if paused:
            tracer.enabled = True
    return op


def _smooth_field(rng, h: int, w: int, blobs: int) -> tuple:
    """Sum of random isotropic Gaussians rescaled to [0, 1], plus the
    blob centres as (x, y)."""
    centers = np.column_stack([rng.uniform(0.1 * w, 0.9 * w, blobs),
                               rng.uniform(0.1 * h, 0.9 * h, blobs)])
    sigma = rng.uniform(0.06, 0.14, blobs) * min(w, h)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    field = np.zeros((h, w))
    for (cx, cy), s, a in zip(centers, sigma, rng.uniform(0.5, 1.0, blobs)):
        field += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * s * s))
    field -= field.min()
    return field / field.max(), centers


def _balanced(rng, lo: int, hi: int, groups) -> np.ndarray:
    """One whole number in [lo, hi) per entry of `groups`: within each
    group every value comes equally often (up to rounding), in a seeded
    order. The seed moves where the work falls, not how much there is."""
    groups = np.asarray(groups)
    out = np.empty(len(groups), dtype=np.int64)
    for g in np.unique(groups):
        idx = np.flatnonzero(groups == g)
        out[idx] = rng.permutation(np.resize(np.arange(lo, hi), len(idx)))
    return out


def _points_near(rng, centers, n: int, spread: float, size: int) -> np.ndarray:
    picks = centers[rng.integers(len(centers), size=n)]
    pts = picks + rng.normal(0.0, spread, size=(n, 2))
    return np.clip(pts, 0.0, size - 1e-3)


class Workload:
    """Common runner: a workload lists the op thunks of one pass; passes
    repeat until the deadline. ``unit`` names what per-unit figures are
    normalised by.

    Every pass repeats the same deterministic work, so the end-to-end
    timings come from the mean time of each piece of a pass (a training
    step, a request, one sample of an eval command) over the run's
    passes. The machine this was tuned on drifts between speeds up to 2x
    apart over seconds to minutes. On the same ten eval runs, samples/s
    from the per-piece means spread 0.06 (IQR/median), from the
    per-piece minimum 0.13 and from the median pass 0.11."""

    name = ""
    unit = ""
    units_per_pass = 0

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.reference: dict = {}   # op key -> digest of its first output
        self.passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def pass_ops(self, tracer=None) -> list:
        raise NotImplementedError

    def units(self, ops) -> int:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list:
        ops = []
        self.passes += 1
        for thunk in self.pass_ops(tracer):
            op = thunk()
            first = self.reference.setdefault(op.key, op.digest)
            if op.ok and op.digest != first:
                op.problems.append(f"output differs from the first {op.key} output")
            ops.append(op)
        return ops

    def digest(self) -> str:
        """One digest over the first output of every op key."""
        return sha256(*(f"{k}={v}\n".encode() for k, v in sorted(self.reference.items(), key=str)))

    def start_hooks(self):
        """Untimed counting hooks for the untraced run; returns the
        uninstall callable."""
        return lambda: None

    def metrics(self, ops) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit, n)."""
        raise NotImplementedError

    def pieces(self, op) -> dict:
        """The op's time split into pieces of work that repeat identically
        in every pass, as {piece: seconds}. Integer pieces are latency
        samples; piece "rest" is op time outside them. By default the
        whole op is one latency sample."""
        return {0: op.seconds}

    def mean_pieces(self, ops) -> dict:
        """{(op key, piece): seconds}: the mean time of every piece over
        the run's passing ops."""
        times: dict = {}
        for op in ops:
            if op.ok:
                for piece, s in self.pieces(op).items():
                    times.setdefault((op.key, piece), []).append(s)
        return {k: float(np.mean(v)) for k, v in times.items()}

    def latencies_ms(self, mean) -> list:
        """The latency samples of one pass, in ms, from the piece means."""
        return [1000.0 * s for (_, piece), s in sorted(mean.items(), key=str)
                if isinstance(piece, int)]

    def headline(self, ops) -> dict:
        """The BENCHMARK.json metrics of the workload, as name -> (value,
        unit, n), all from the mean time of every piece of a pass: units
        of work per second of the sum of the means, and p50 and p95 over
        the mean latency samples."""
        mean = self.mean_pieces(ops)
        lat = self.latencies_ms(mean)
        return {"work_per_s": (per_s(self.units_per_pass, mean.values()), "1/s",
                               self.units(ops)),
                "latency_p50_ms": (percentile(lat, 50), "ms", len(lat)),
                "latency_p95_ms": (percentile(lat, 95), "ms", len(lat))}


# ---------------------------------------------------------------------------
# train

class TrainWorkload(Workload):
    """Repeated `uniar train --synthetic` runs of TRAIN_STEPS steps."""

    name = "train"
    unit = "step"
    units_per_pass = TRAIN_STEPS

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.out = os.path.join(work, "train")
        self.draws: list = []
        self.ends: list = []

    def argv(self, steps: int, out: str, seed=None) -> list:
        seed = self.seed if seed is None else seed
        return ["train", "--synthetic", "--seed", str(seed), "--steps", str(steps),
                "--out", out]

    def setup(self) -> None:
        # a short run: data generation, init, steps up to the first probe
        # decode, checkpoint write. Its seed is fixed, so set-up time does
        # not depend on the batch mix that the run's seed draws.
        out = os.path.join(self.work, "warmup")
        rc, _, err, _ = run_cli(self.argv(cli.GEN_EVERY, out, seed=WARMUP_SEED))
        if rc != 0:
            raise RuntimeError(f"warm-up training run failed: {err.strip()}")

    def start_hooks(self):
        return spans.hook([
            ("uniar.cli", "mixture_next", lambda args, out: self.draws.append(time.perf_counter())),
            ("uniar.cli", "run_training", lambda args, out: self.ends.append(time.perf_counter())),
        ])

    def pass_ops(self, tracer=None):
        return [lambda: self._run(tracer)]

    def _run(self, tracer):
        shutil.rmtree(self.out, ignore_errors=True)
        self.draws.clear()
        self.ends.clear()
        return _checked("train", "train", self.argv(TRAIN_STEPS, self.out), tracer, self._check)

    def _check(self, op: Op, stdout: str) -> None:
        with open(os.path.join(self.out, "train_log.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["step", "loss", "valid"] or len(rows) != TRAIN_STEPS + 1:
            op.problems.append(f"train_log.csv: {len(rows) - 1} rows, expected {TRAIN_STEPS}")
            return
        steps = [int(r[0]) for r in rows[1:]]
        losses = [float(r[1]) for r in rows[1:]]
        if steps != list(range(1, TRAIN_STEPS + 1)):
            op.problems.append("train_log.csv: steps are not 1..N")
        if not all(math.isfinite(v) for v in losses):
            op.problems.append("train_log.csv: non-finite loss")
        tenth = max(1, TRAIN_STEPS // 10)
        first, last = np.mean(losses[:tenth]), np.mean(losses[-tenth:])
        if not last < first:
            op.problems.append(f"loss did not fall: first tenth {first:.6g}, last {last:.6g}")
        ckpt = os.path.join(self.out, "model.ckpt")
        cfg = model.read_config(os.path.join(self.out, "config.txt"))
        model.load_params(ckpt, cfg)
        op.digest = sha256(file_bytes(ckpt))
        if self.draws:
            op.extra["step_s"] = self._step_seconds()

    def _step_seconds(self) -> list:
        """Step k runs from its first mixture draw to the first draw of
        step k + 1; the last step ends when run_training returns. The
        probe decode after a step belongs to that step."""
        batch = cli.TRAIN_BATCH
        if len(self.draws) != TRAIN_STEPS * batch or len(self.ends) != 1:
            raise RuntimeError(f"saw {len(self.draws)} draws, expected {TRAIN_STEPS * batch}")
        starts = self.draws[::batch] + self.ends
        return [b - a for a, b in zip(starts, starts[1:])]

    def units(self, ops) -> int:
        return TRAIN_STEPS * len(ops)

    def pieces(self, op):
        return split(op, op.extra.get("step_s", []))

    def metrics(self, ops) -> dict:
        h = self.headline(ops)
        return {"train_steps_per_s": h["work_per_s"], "train_step_p50_ms": h["latency_p50_ms"],
                "train_step_p95_ms": h["latency_p95_ms"]}


# ---------------------------------------------------------------------------
# predict

HEADS = ("heatmap", "rating", "scanpath")


class PredictWorkload(Workload):
    """Closed loop, one client, no think time: `uniar predict` for every
    (image, head) key in turn, so the heads get equal shares."""

    name = "predict"
    unit = "request"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.dir = os.path.join(work, "predict")
        self.tokens: list = []
        self.keys = [(i, head) for i in range(PREDICT_IMAGES) for head in HEADS]
        self.units_per_pass = len(self.keys)

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 2])
        self.images, self.prompts = [], {}
        for i in range(PREDICT_IMAGES):
            w, h = (int(v) for v in rng.integers(40, 65, size=2))
            channels = [_smooth_field(rng, h, w, int(rng.integers(2, 6)))[0] for _ in range(3)]
            noise = rng.uniform(0.0, 0.15, size=(h, w, 3))
            pixels = np.clip(0.85 * np.stack(channels, axis=2) + noise, 0.0, 1.0)
            path = os.path.join(self.dir, f"img{i}.ppm")
            data.write_ppm(path, ImageGrid(w, h, pixels))
            self.images.append((path, w, h))
            flavour = ("saliency heatmap", "importance heatmap")[int(rng.integers(2))]
            query = "brightest" if rng.random() < 0.5 else None
            for head, output, q in (("heatmap", flavour, None),
                                    ("rating", "aesthetics score", None),
                                    ("scanpath", "scanpath", query)):
                input_type = INPUT_TYPES[int(rng.integers(len(INPUT_TYPES)))]
                self.prompts[(i, head)] = render_prompt(PromptSpec(input_type, output, q))
        # untrained seeded weights: greedy decodes run to the token cap
        cfg = model.ModelConfig()
        self.ckpt = os.path.join(self.dir, "model.ckpt")
        self.config = os.path.join(self.dir, "config.txt")
        model.save_params(self.ckpt, model.init_params(cfg, seed=self.seed))
        model.write_config(self.config, cfg)
        for head in HEADS:
            rc, _, err, _ = run_cli(self._argv((0, head)))
            if rc != 0:
                raise RuntimeError(f"warm-up {head} request failed: {err.strip()}")

    def _out(self, key) -> str:
        i, head = key
        ext = {"heatmap": "pgm", "rating": "txt", "scanpath": "jsonl"}[head]
        return os.path.join(self.dir, f"out{i}_{head}.{ext}")

    def _argv(self, key) -> list:
        return ["predict", self.images[key[0]][0], "--ckpt", self.ckpt, "--config",
                self.config, "--prompt", self.prompts[key], "--out", self._out(key)]

    def start_hooks(self):
        return spans.hook([("uniar.model", "scanpath_generate",
                            lambda args, out: self.tokens.append(len(out.split())))])

    def pass_ops(self, tracer=None):
        return [lambda key=key: self._request(key, tracer) for key in self.keys]

    def _request(self, key, tracer):
        out = self._out(key)
        if os.path.exists(out):
            os.remove(out)
        n_tokens = len(self.tokens)
        op = _checked(key[1], key, self._argv(key), tracer,
                      lambda op, stdout: self._check(op, stdout, key))
        if key[1] == "scanpath" and len(self.tokens) > n_tokens:
            op.extra["tokens"] = self.tokens[-1]
        return op

    def _check(self, op: Op, stdout: str, key) -> None:
        _, w, h = self.images[key[0]]
        out = self._out(key)
        body = file_bytes(out) if os.path.exists(out) else b""
        op.digest = sha256(stdout.encode(), b"\0", body)
        head = key[1]
        if head == "heatmap":
            gmap = data.read_pgm(out)
            if (gmap.width, gmap.height) != (w, h):
                op.problems.append(f"heatmap {gmap.width}x{gmap.height} for a {w}x{h} image")
            if not (gmap.values.min() >= 0.0 and gmap.values.max() <= 1.0):
                op.problems.append("heatmap values outside [0, 1]")
        elif head == "rating":
            score = float(stdout.strip().splitlines()[-1])
            if not 0.0 < score < 1.0:
                op.problems.append(f"rating {score!r} outside (0, 1)")
            if body.decode().strip() != repr(score):
                op.problems.append("rating file differs from the printed score")
        elif stdout.strip() == "INVALID":
            if body:
                op.problems.append("INVALID scanpath but an output file was written")
        else:
            entries = data.read_scanpaths(out)
            if len(entries) != 1 or entries[0][0].frame != (w, h):
                op.problems.append("scanpath output is neither INVALID nor one path in the frame")

    def units(self, ops) -> int:
        return len(ops)

    def latencies_ms(self, mean):
        return [1000.0 * mean[(key, 0)] for key in self.keys if (key, 0) in mean]

    def metrics(self, ops) -> dict:
        """Per-head percentiles over the mean time of each request, and
        decoded tokens per second of the mean scanpath request times."""
        mean = self.mean_pieces(ops)
        out = {}
        for head in HEADS:
            lat = [1000.0 * v for k, v in mean.items() if k[0][1] == head]
            out[f"predict_{head}_p50_ms"] = (percentile(lat, 50), "ms", len(lat))
        scan = {k: v for k, v in mean.items() if k[0][1] == "scanpath"}
        lat = [1000.0 * v for v in scan.values()]
        out["predict_scanpath_p95_ms"] = (percentile(lat, 95), "ms", len(lat))
        tokens = {op.key: op.extra["tokens"] for op in ops if "tokens" in op.extra}
        out["scanpath_tokens_per_s"] = (per_s(sum(tokens.values()), scan.values()), "1/s",
                                        sum(op.extra.get("tokens", 0) for op in ops))
        return out


# ---------------------------------------------------------------------------
# eval

HEATMAP_RANGES = {"cc": (-1, 1), "kld": (0, math.inf), "auc_judd": (0, 1), "sauc": (0, 1),
                  "nss": (-math.inf, math.inf), "sim": (0, 1), "rmse": (0, math.inf),
                  "r2": (-math.inf, 1)}
SCANPATH_RANGES = {"seq_score": (0, 1), "semss": (0, 1), "semfed": (0, math.inf),
                   "mm_shape": (0, 1), "mm_direction": (0, 1), "mm_length": (0, 1),
                   "mm_position": (0, 1)}
RATING_RANGES = {"srcc": (-1, 1), "plcc": (-1, 1)}
RANGE_TOL = 1e-9


class EvalWorkload(Workload):
    """`uniar eval-heatmap --fix`, `eval-scanpath --seg` and `eval-rating`
    at --jobs 1 over one seeded directory of EVAL_SAMPLES samples."""

    name = "eval"
    unit = "sample"
    units_per_pass = EVAL_SAMPLES

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.dir = os.path.join(work, "eval")
        self.pairs = EVAL_SAMPLES * RATING_PAIRS_PER_SAMPLE
        self.marks: list = []

    def _sub(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        for sub in ("pred", "gt", "fix", "sp_pred", "sp_gt", "seg"):
            os.makedirs(self._sub(sub), exist_ok=True)
        rng = np.random.default_rng([self.seed, 3])
        sizes = np.array([256 if i % EVAL_LARGE_EVERY == EVAL_LARGE_EVERY - 1 else 64
                          for i in range(EVAL_SAMPLES)])
        blobs = _balanced(rng, 3, 7, sizes)
        n_observers = _balanced(rng, 3, 6, sizes)
        n_fixations = iter(_balanced(rng, 5, 16, np.repeat(sizes, n_observers)))
        path_lengths = {sub: _balanced(rng, 8, 26, sizes) for sub in ("sp_gt", "sp_pred")}
        for i, size in enumerate(int(v) for v in sizes):
            sid = f"s{i:03d}"
            input_type = INPUT_TYPES[int(rng.integers(len(INPUT_TYPES)))]
            gt, centers = _smooth_field(rng, size, size, int(blobs[i]))
            noise, _ = _smooth_field(rng, size, size, 4)
            pred = 0.6 * gt + 0.4 * noise
            data.write_grid(self._sub(f"gt/{sid}.grid"), GrayMap(size, size, gt))
            data.write_pgm(self._sub(f"pred/{sid}.pgm"),
                           GrayMap(size, size, pred / pred.max(), kind="unit-range"))
            spread = 0.05 * size
            heat_prompt = PromptSpec(input_type, "saliency heatmap")
            observers = [(Scanpath((size, size), _points_near(
                rng, centers, int(next(n_fixations)), spread, size)), heat_prompt)
                for _ in range(int(n_observers[i]))]
            data.write_scanpaths(self._sub(f"fix/{sid}.jsonl"), observers)
            path_prompt = PromptSpec(input_type, "scanpath")
            for sub in ("sp_gt", "sp_pred"):
                pts = _points_near(rng, centers, int(path_lengths[sub][i]), spread, size)
                data.write_scanpaths(self._sub(f"{sub}/{sid}.jsonl"),
                                     [(Scanpath((size, size), pts), path_prompt)])
            yy, xx = np.mgrid[0:size, 0:size]
            d2 = (xx[..., None] - centers[:, 0]) ** 2 + (yy[..., None] - centers[:, 1]) ** 2
            data.write_grid(self._sub(f"seg/{sid}.grid"),
                            SegmentationMap(size, size, np.argmin(d2, axis=2).astype(np.int64)))
        observed = rng.uniform(0.0, 1.0, self.pairs)
        predicted = np.clip(observed + rng.normal(0.0, 0.2, self.pairs), 0.0, 1.0)
        data.write_ratings(self._sub("pairs.csv"),
                           [(f"r{k:05d}", p, o) for k, (p, o) in enumerate(zip(predicted, observed))])

    def start_hooks(self):
        # the last metric call for each sample marks where the sample ends
        def mark(args, out):
            self.marks.append(time.perf_counter())

        return spans.hook([("uniar.cli", "evaluate_heatmap", mark),
                           ("uniar.cli", "multimatch", mark)])

    def pass_ops(self, tracer=None):
        heat = ["eval-heatmap", "--pred", self._sub("pred"), "--gt", self._sub("gt"),
                "--fix", self._sub("fix"), "--seed", str(self.seed), "--jobs", "1",
                "--out", self._sub("heatmap.csv")]
        scan = ["eval-scanpath", "--pred", self._sub("sp_pred"), "--gt", self._sub("sp_gt"),
                "--seg", self._sub("seg"), "--jobs", "1", "--out", self._sub("scanpath.csv")]
        rate = ["eval-rating", "--pairs", self._sub("pairs.csv"), "--out", self._sub("rating.csv")]
        return [
            lambda: self._command("eval-heatmap", heat, "heatmap.csv", HEATMAP_RANGES,
                                  EVAL_SAMPLES + 1, tracer),
            lambda: self._command("eval-scanpath", scan, "scanpath.csv", SCANPATH_RANGES,
                                  EVAL_SAMPLES + 1, tracer),
            lambda: self._command("eval-rating", rate, "rating.csv", RATING_RANGES, 1, tracer),
        ]

    def _command(self, kind, argv, csv_name, ranges, rows, tracer):
        path = self._sub(csv_name)
        if os.path.exists(path):
            os.remove(path)
        self.marks.clear()
        start = time.perf_counter()
        op = _checked(kind, kind, argv, tracer,
                      lambda op, stdout: self._check(op, path, ranges, rows))
        if len(self.marks) == EVAL_SAMPLES:
            # sample k runs from the end of sample k - 1; the first from the
            # command's start, so it carries set-up such as negative pooling
            bounds = [start] + self.marks
            op.extra["sample_s"] = [b - a for a, b in zip(bounds, bounds[1:])]
        return op

    def _check(self, op: Op, path: str, ranges: dict, n_rows: int) -> None:
        body = file_bytes(path)
        op.digest = sha256(body)
        table = list(csv.reader(io.StringIO(body.decode())))
        if table[0] != ["id"] + list(ranges):
            op.problems.append(f"{os.path.basename(path)}: header {table[0]}")
            return
        if len(table) - 1 != n_rows:
            op.problems.append(f"{os.path.basename(path)}: {len(table) - 1} rows, "
                               f"expected {n_rows}")
        if n_rows > 1 and table[-1][0] != "mean":
            op.problems.append(f"{os.path.basename(path)}: last row is not the mean row")
        for row in table[1:]:
            for name, cell in zip(ranges, row[1:]):
                if cell == "":
                    continue  # metric undefined for this sample
                v = float(cell)
                lo, hi = ranges[name]
                if not (math.isfinite(v) and lo - RANGE_TOL <= v <= hi + RANGE_TOL):
                    op.problems.append(f"{os.path.basename(path)}: {row[0]} {name}={cell}")

    def units(self, ops) -> int:
        return EVAL_SAMPLES * sum(op.kind == "eval-heatmap" for op in ops)

    def pieces(self, op):
        return split(op, op.extra.get("sample_s", []))

    def metrics(self, ops) -> dict:
        mean = self.mean_pieces(ops)

        def rate(kind, count):
            runs = sum(op.kind == kind for op in ops)
            return (per_s(count, [v for k, v in mean.items() if k[0] == kind]), "1/s", runs)

        return {"eval_heatmap_samples_per_s": rate("eval-heatmap", EVAL_SAMPLES),
                "eval_scanpath_samples_per_s": rate("eval-scanpath", EVAL_SAMPLES),
                "eval_rating_pairs_per_s": rate("eval-rating", self.pairs)}

    def latencies_ms(self, mean):
        """One sample per scored sample: its mean eval-heatmap time plus
        its mean eval-scanpath time."""
        return [1000.0 * (mean.get(("eval-heatmap", i), math.nan)
                          + mean.get(("eval-scanpath", i), math.nan))
                for i in range(EVAL_SAMPLES)]


# ---------------------------------------------------------------------------
# predict_eval

class PredictEvalWorkload(Workload):
    """One client that queries the model and scores predictions: each pass
    is a predict pass followed by an eval pass, in one process. Eval's
    timings swing up to 2x with the speed of the machine it was tuned on,
    predict's up to 1.4x. Run together, their figures average over runs
    of 50 s, where three separate workloads would get 35 s within the
    time allowed for all runs."""

    name = "predict_eval"
    unit = "request or sample"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.parts = (PredictWorkload(work, seed), EvalWorkload(work, seed))
        self.units_per_pass = sum(p.units_per_pass for p in self.parts)

    def _part(self, op):
        return self.parts[op.kind.startswith("eval-")]

    def _ops_of(self, part, ops):
        return [op for op in ops if self._part(op) is part]

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def pass_ops(self, tracer=None):
        return [thunk for part in self.parts for thunk in part.pass_ops(tracer)]

    def start_hooks(self):
        offs = [part.start_hooks() for part in self.parts]
        return lambda: [off() for off in reversed(offs)]

    def units(self, ops) -> int:
        return sum(part.units(self._ops_of(part, ops)) for part in self.parts)

    def pieces(self, op):
        return self._part(op).pieces(op)

    def latencies_ms(self, mean):
        return [ms for part in self.parts for ms in part.latencies_ms(mean)]

    def metrics(self, ops) -> dict:
        out = {}
        for part in self.parts:
            out.update(part.metrics(self._ops_of(part, ops)))
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, PredictEvalWorkload)}
