"""Command-line entry point.

Subcommands: eval-heatmap, eval-scanpath, eval-rating (metric suites
over prediction/ground-truth directories), codec encode|decode, train,
predict, and mixture-check. Exit codes separate failure classes: 0
success, 1 usage, 2 bad data, 3 numerically undefined. Diagnostics are
one line on standard error; UNIAR_LOG (error, info, debug) controls
progress chatter. Every subcommand writes only to the paths it was
given, and identical invocations with identical seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .codec import decode_robust, encode_target, quantize
from .data import (
    MAP_EXTS,
    MixtureConfig,
    _write_output,
    gen_rating_task,
    gen_saliency_task,
    gen_scanpath_task,
    list_files,
    load_handle,
    mixture_next,
    mixture_start,
    read_fixations,
    read_map,
    read_ppm,
    read_ratings,
    read_scanpath,
    read_scanpaths,
    read_segmentation,
    write_pgm,
    write_ppm,
    write_scanpaths,
    write_table,
)
from .errors import NumericError, UniarError, ValidationError
from .metrics import (
    evaluate_heatmap,
    fixations_to_map,
    meanshift_clusters,
    multimatch,
    plcc,
    semfed,
    semss,
    sequence_score,
    srcc,
)
from .model import (
    ModelConfig,
    init_params,
    load_params,
    predict_heatmap,
    predict_rating,
    predict_scanpath,
    read_config,
    run_training,
    save_params,
    write_config,
)
from .types import (
    FixationSet,
    ImageGrid,
    PromptSpec,
    Scanpath,
    fixation_pixels,
    parse_prompt,
)

log = logging.getLogger("uniar")

# training knobs without flags; changing them changes every run, so they
# live here as named constants rather than buried literals
TRAIN_LR = 3e-3
TRAIN_BATCH = 8
GEN_EVERY = 5


class UsageError(UniarError):
    """Bad invocation: unknown flag, missing argument, invalid UNIAR_LOG."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _StderrHandler(logging.StreamHandler):
    """Resolves sys.stderr at emit time, so redirection works."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):
        pass


_LOG_READY = False


def _setup_logging() -> None:
    global _LOG_READY
    name = os.environ.get("UNIAR_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if name not in levels:
        raise UsageError(f"UNIAR_LOG must be one of error, info, debug; got {name!r}")
    if not _LOG_READY:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("uniar %(levelname)s: %(message)s"))
        log.addHandler(handler)
        _LOG_READY = True
    log.setLevel(levels[name])


# ---------------------------------------------------------------------------
# table rendering

def report_table(rows, metrics) -> str:
    """Fixed-width table: one label column, one column per metric.

    Metric names carry their direction as a +/- suffix (higher/lower is
    better); the best cell per column is starred, ties all starred.
    Cells print with 3 decimals, missing values as n/a.
    """
    if not rows:
        raise ValidationError("table needs at least one row")
    directions = [m[-1] if m.endswith(("+", "-")) else "+" for m in metrics]
    for label, values in rows:
        if len(values) != len(metrics):
            raise ValidationError(f"row {label!r} has {len(values)} cells for "
                                  f"{len(metrics)} metrics")
    best = [(max if d == "+" else min)(seen) if seen else None
            for d, seen in zip(directions, _columns(rows))]
    cells = [(str(label), ["n/a" if v is None else f"{'*' if v == b else ''}{v:.3f}"
                           for v, b in zip(values, best)]) for label, values in rows]
    label_w = max(len("id"), max(len(c[0]) for c in cells))
    widths = [max(len(m), max(len(c[1][j]) for c in cells)) for j, m in enumerate(metrics)]
    out = ["id".ljust(label_w) + "".join("  " + m.rjust(widths[j])
                                         for j, m in enumerate(metrics))]
    for label, line in cells:
        out.append(label.ljust(label_w) + "".join("  " + cell.rjust(widths[j])
                                                  for j, cell in enumerate(line)))
    return "\n".join(out)


def _columns(rows):
    """Each column's values, over the rows that have one."""
    return [[v[j] for _, v in rows if v[j] is not None] for j in range(len(rows[0][1]))]


def _mean_row(rows):
    """Column-wise mean over the rows that have the column."""
    return "mean", [float(np.mean(seen)) if seen else None for seen in _columns(rows)]


def _report(rows, headers, out) -> None:
    """Print the table and, when ``out`` is given, write the rows there
    as CSV under the headers without their direction suffix."""
    if out:
        write_table(out, ("id",) + tuple(h.rstrip("+-") for h in headers),
                    ([label, *values] for label, values in rows))
    print(report_table(rows, headers))


def _pmap(fn, tasks, jobs):
    """Order-preserving map, optionally across processes. Aggregations
    downstream are plain means, so the job count never changes results."""
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# eval-heatmap

HEATMAP_HEADERS = ("cc+", "kld-", "auc_judd+", "sauc+", "nss+", "sim+", "rmse-", "r2+")


def _heatmap_one(task):
    sid, pred_path, gt_path, fixations, neg_norm, seed, sigma = task
    pred = read_map(pred_path)
    if gt_path is not None:
        gt = read_map(gt_path)
    else:
        if fixations is None or sigma is None:
            raise ValidationError(
                f"{sid}: no ground-truth map; need fixations and --sigma to build one")
        gt = fixations_to_map(fixations, sigma)
    negatives = None
    if fixations is not None and len(neg_norm):
        # negatives come from other images; rescale their normalized
        # coordinates into this ground truth's frame
        pts = neg_norm * np.array([gt.width, gt.height], dtype=np.float64)
        negatives = FixationSet((gt.width, gt.height), pts)
    s = evaluate_heatmap(pred, gt, fixations, negatives, seed=seed)
    return sid, [s.cc, s.kld, s.auc_judd, s.sauc, s.nss, s.sim, s.rmse, s.r2]


def _cmd_eval_heatmap(args) -> None:
    preds = list_files(args.pred, MAP_EXTS)
    gts = list_files(args.gt, MAP_EXTS)
    if not preds:
        raise ValidationError(f"{args.pred}: no .pgm or .grid maps")
    fixes = {sid: read_fixations(path)
             for sid, path in (list_files(args.fix, (".jsonl",)) if args.fix else {}).items()}
    # every file's points in frame-normalized units, pooled in file order;
    # a sample's negatives are the pool without its own rows
    pool, own, start = [np.zeros((0, 2))], {}, 0
    for sid, fs in fixes.items():
        pool.append(fs.points / np.array(fs.frame, dtype=np.float64))
        own[sid] = (start, start + len(fs))
        start += len(fs)
    pool = np.vstack(pool)
    tasks = []
    for sid in sorted(preds):
        gt_path = gts.get(sid)
        if gt_path is None and sid not in fixes:
            raise ValidationError(f"{sid}: no ground truth in {args.gt}")
        lo, hi = own.get(sid, (0, 0))
        neg = np.concatenate([pool[:lo], pool[hi:]])
        tasks.append((sid, preds[sid], gt_path, fixes.get(sid), neg, args.seed, args.sigma))
    log.info("eval-heatmap: %d samples, jobs=%d", len(tasks), args.jobs)
    rows = _pmap(_heatmap_one, tasks, args.jobs)
    rows.append(_mean_row(rows))
    _report(rows, HEATMAP_HEADERS, args.out)


# ---------------------------------------------------------------------------
# eval-scanpath

SCANPATH_HEADERS = ("seq_score+", "semss+", "semfed-",
                    "mm_shape+", "mm_direction+", "mm_length+", "mm_position+")


def _scanpath_one(task):
    sid, pred_path, gt_path, seg_path, bandwidth = task
    pred, _ = read_scanpath(pred_path)
    gt, _ = read_scanpath(gt_path)
    clusters = meanshift_clusters(FixationSet(gt.frame, gt.fixations), bandwidth=bandwidth)
    seq = sequence_score(pred, gt, clusters)
    ss = fed = None
    if seg_path is not None:
        seg = read_segmentation(seg_path)
        ss = semss(pred, gt, seg)
        fed = float(semfed(pred, gt, seg))
    mm = multimatch(pred, gt)
    return sid, [seq, ss, fed, mm.shape, mm.direction, mm.length, mm.position]


def _cmd_eval_scanpath(args) -> None:
    preds = list_files(args.pred, (".jsonl",))
    gts = list_files(args.gt, (".jsonl",))
    if not preds:
        raise ValidationError(f"{args.pred}: no .jsonl scanpaths")
    segs = list_files(args.seg, (".grid",)) if args.seg else {}
    tasks = []
    for sid in sorted(preds):
        if sid not in gts:
            raise ValidationError(f"{sid}: no ground truth in {args.gt}")
        tasks.append((sid, preds[sid], gts[sid], segs.get(sid), args.bandwidth))
    log.info("eval-scanpath: %d samples, jobs=%d", len(tasks), args.jobs)
    rows = _pmap(_scanpath_one, tasks, args.jobs)
    rows.append(_mean_row(rows))
    _report(rows, SCANPATH_HEADERS, args.out)


# ---------------------------------------------------------------------------
# eval-rating

def _cmd_eval_rating(args) -> None:
    pairs = read_ratings(args.pairs)
    pred = [p for _, p, _ in pairs]
    obs = [o for _, _, o in pairs]
    _report([(os.path.basename(args.pairs), [srcc(pred, obs), plcc(pred, obs)])],
            ("srcc+", "plcc+"), args.out)


# ---------------------------------------------------------------------------
# codec

def _cmd_codec(args) -> None:
    if args.mode == "encode":
        text = "".join(encode_target(quantize(path)).text + "\n"
                       for path, _ in read_scanpaths(args.input))
        if args.out:
            _write_output(args.out, text)
        else:
            sys.stdout.write(text)
    else:
        result = decode_robust(args.input, tuple(args.frame))
        if not result.valid:
            print("INVALID")  # malformed strings are data, not failure
        else:
            print(json.dumps([[x, y] for x, y in result.scanpath.fixations.tolist()]))


# ---------------------------------------------------------------------------
# train

def _cmd_train(args) -> None:
    if bool(args.synthetic) == bool(args.data):
        raise UsageError("pass either --synthetic or --data DIR (at least once)")
    cfg = read_config(args.config) if args.config else ModelConfig()
    seed = args.seed
    if args.synthetic:
        # 64 mixed samples across the three behaviors
        handles = (gen_saliency_task(seed, 22, size=cfg.image_size),
                   gen_scanpath_task(seed, 21, size=cfg.image_size),
                   gen_rating_task(seed, 21, size=cfg.image_size))
    else:
        handles = tuple(load_handle(d) for d in args.data)
    mix = MixtureConfig(handles, seed=seed)
    rng = mixture_start(mix)

    def next_sample():
        nonlocal rng
        s, rng = mixture_next(mix, rng)
        return s

    params = init_params(cfg, seed=seed)
    log.info("train: %d steps, %d handles, lr=%g", args.steps, len(handles), TRAIN_LR)
    params, _, rows = run_training(params, cfg, next_sample, steps=args.steps,
                                   batch_size=TRAIN_BATCH, lr=TRAIN_LR,
                                   gen_every=GEN_EVERY)
    os.makedirs(args.out, exist_ok=True)
    save_params(os.path.join(args.out, "model.ckpt"), params)
    write_config(os.path.join(args.out, "config.txt"), cfg)
    write_table(os.path.join(args.out, "train_log.csv"), ("step", "loss", "valid"), rows)
    print(f"step {rows[-1][0]} loss {rows[-1][1]:.6f}")


# ---------------------------------------------------------------------------
# predict

# 3x5 pixel digit glyphs for fixation-order overlays
_FONT = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "010", "010", "010"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
}


def _draw_disc(px, cx, cy, radius, color):
    h, w = px.shape[:2]
    y0, y1 = max(0, cy - radius), min(h, cy + radius + 1)
    x0, x1 = max(0, cx - radius), min(w, cx + radius + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
    px[y0:y1, x0:x1][mask] = color


def _draw_number(px, cx, cy, number, color):
    digits = str(number)
    block_w = 4 * len(digits) - 1
    top, left = cy - 2, cx - block_w // 2
    h, w = px.shape[:2]
    for d, ch in enumerate(digits):
        for r, bits in enumerate(_FONT[ch]):
            for c, bit in enumerate(bits):
                if bit == "1":
                    y, x = top + r, left + 4 * d + c
                    if 0 <= y < h and 0 <= x < w:
                        px[y, x] = color


def render_overlay(image: ImageGrid, path: Scanpath) -> ImageGrid:
    """Fixation order as numbered discs on a copy of the image."""
    px = image.pixels.copy()
    cols, rows = fixation_pixels(path.fixations, image.width, image.height)
    for k, (cx, cy) in enumerate(zip(cols, rows), start=1):
        radius = max(4, 2 * len(str(k)) + 2)
        _draw_disc(px, int(cx), int(cy), radius, np.array([0.85, 0.1, 0.1]))
        _draw_number(px, int(cx), int(cy), k, np.array([1.0, 1.0, 1.0]))
    return ImageGrid(image.width, image.height, px)


def _cmd_predict(args) -> None:
    cfg = read_config(args.config)
    params = load_params(args.ckpt, cfg)
    image = read_ppm(args.image)
    prompt = parse_prompt(args.prompt)
    if args.overlay and prompt.kind != "scanpath":
        raise UsageError("--overlay only applies to scanpath prompts")
    if prompt.kind in ("heatmap", "scanpath") and not args.out:
        raise UsageError(f"--out required for {prompt.kind} prediction")
    if prompt.kind == "heatmap":
        write_pgm(args.out, predict_heatmap(image, prompt, params, cfg))
        log.info("predict: heatmap -> %s", args.out)
    elif prompt.kind == "scanpath":
        raw, result = predict_scanpath(image, prompt, params, cfg)
        log.debug("predict: raw tokens %r", raw)
        if not result.valid:
            print("INVALID")  # undecodable generation is data, not failure
            return
        write_scanpaths(args.out, [(result.scanpath, prompt)])
        if args.overlay:
            write_ppm(args.overlay, render_overlay(image, result.scanpath))
        log.info("predict: %d fixations -> %s", len(result.scanpath), args.out)
    else:
        score = predict_rating(image, prompt, params, cfg).score
        if args.out:
            _write_output(args.out, repr(score) + "\n")
        print(repr(score))


# ---------------------------------------------------------------------------
# mixture-check

def _cmd_mixture_check(args) -> None:
    # 11 handles with a 1000:1 size skew; equal-rate sampling should
    # still hit each about draws/11 times
    sizes = [1000] + [1] * 10
    handles = tuple(gen_rating_task(s, n, size=8) for s, n in enumerate(sizes))
    owner = {id(s): k for k, h in enumerate(handles) for s in h.samples}
    mix = MixtureConfig(handles, seed=args.seed)
    rng = mixture_start(mix)
    counts = [0] * len(handles)
    for _ in range(args.draws):
        s, rng = mixture_next(mix, rng)
        counts[owner[id(s)]] += 1
    write_table(args.out, ("handle", "size", "draws"),
                ((f"{k}:{h.name}", len(h.samples), c)
                 for k, (h, c) in enumerate(zip(handles, counts))))
    log.info("mixture-check: %d draws over %d handles -> %s",
             args.draws, len(handles), args.out)
    print(f"{args.draws} draws over {len(handles)} handles, "
          f"counts {min(counts)}..{max(counts)}")


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> _Parser:
    parser = _Parser(prog="uniar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-heatmap", help="map metrics over a prediction directory")
    p.add_argument("--pred", required=True, help="directory of predicted .pgm/.grid maps")
    p.add_argument("--gt", required=True, help="directory of ground-truth maps")
    p.add_argument("--fix", help="directory of per-sample fixation .jsonl files")
    p.add_argument("--out", help="per-sample CSV destination")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float,
                   help="blur radius to build missing ground-truth maps from fixations")
    p.set_defaults(func=_cmd_eval_heatmap)

    p = sub.add_parser("eval-scanpath", help="scanpath metrics over a prediction directory")
    p.add_argument("--pred", required=True, help="directory of predicted .jsonl scanpaths")
    p.add_argument("--gt", required=True, help="directory of ground-truth .jsonl scanpaths")
    p.add_argument("--seg", help="directory of .grid segmentations for SemSS/SemFED")
    p.add_argument("--out", help="per-sample CSV destination")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--bandwidth", type=float,
                   help="mean-shift bandwidth (default: frame diagonal / 10)")
    p.set_defaults(func=_cmd_eval_scanpath)

    p = sub.add_parser("eval-rating", help="rating correlations over a pairs CSV")
    p.add_argument("--pairs", required=True, help="CSV with header id,predicted,observed")
    p.add_argument("--out", help="summary CSV destination")
    p.set_defaults(func=_cmd_eval_rating)

    p = sub.add_parser("codec", help="scanpath token codec")
    p.add_argument("mode", choices=("encode", "decode"))
    p.add_argument("input", help="encode: scanpath .jsonl file; decode: token string")
    p.add_argument("--frame", type=int, nargs=2, metavar=("W", "H"), default=(1000, 1000),
                   help="decode target frame")
    p.add_argument("--out", help="encode output file (default: stdout)")
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("train", help="train on synthetic or on-disk datasets")
    p.add_argument("--synthetic", action="store_true",
                   help="64 generated samples mixing all three behaviors")
    p.add_argument("--data", action="append", default=[], metavar="DIR",
                   help="dataset handle directory (repeatable)")
    p.add_argument("--config", help="model config file (default config otherwise)")
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="directory for model.ckpt, config.txt, train_log.csv")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run one image through a trained checkpoint")
    p.add_argument("image", help="input .ppm image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--prompt", required=True,
                   help='e.g. "INPUT_TYPE: natural image OUTPUT_TYPE: scanpath"')
    p.add_argument("--out", help="heatmap .pgm, scanpath .jsonl, or score text file")
    p.add_argument("--overlay", help="write fixation-order discs over the image (.ppm)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("mixture-check", help="histogram of equal-rate mixture draws")
    p.add_argument("--draws", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="histogram CSV destination")
    p.set_defaults(func=_cmd_mixture_check)
    return parser


def run(argv=None) -> int:
    """Parse and dispatch. Returns the process exit code instead of
    raising, so it is callable in-process."""
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        # overflows are reported by the engine's finiteness checks, not numpy
        with np.errstate(all="ignore"):
            args.func(args)
        return 0
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
