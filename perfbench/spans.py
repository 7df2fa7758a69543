"""Outside-in tracing of the uniar layers.

The tracer wraps module-level functions of the ``uniar.*`` modules from
here, without touching the package source. Each call becomes one span
(name, start, end, parent) kept in memory; ``write`` dumps them when the
run ends. A wrapper replaces the function in every loaded ``uniar``
namespace that binds it, so calls through ``from .x import f`` copies
are traced as well as calls through the defining module.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array

AUTODIFF_OPS = ("add", "mul", "scale", "matmul", "relu", "sigmoid", "softmax",
                "layer_norm", "embedding", "reshape", "permute", "concat", "narrow",
                "tsum", "mean", "squared_error", "cross_entropy_with_logits",
                "conv2d", "conv2d_transpose")

# (module, function, span name); model and metric spans are inclusive
LAYER_FUNCTIONS = (
    [("uniar.autodiff", f, f"autodiff.{f}")
     for f in ("backward", "adam_step", "zero_grads", "save_checkpoint", "load_checkpoint")]
    + [("uniar.model", "train_step", "model.train_step"),
       ("uniar.model", "_batch_loss", "model.forward"),
       ("uniar.model", "_encode_batch", "model.encoder"),
       ("uniar.model", "_decode_batch", "model.decoder"),
       ("uniar.model", "_heatmap_batch", "model.heatmap_head"),
       ("uniar.model", "_rating_batch", "model.rating_head"),
       ("uniar.model", "scanpath_generate", "model.scanpath_generate"),
       ("uniar.model", "next_token_logits", "model.next_token_logits"),
       ("uniar.codec", "encode_target", "codec.encode_target"),
       ("uniar.codec", "decode_robust", "codec.decode_robust")]
    + [("uniar.data", f, f"data.{f}")
       for f in ("mixture_next", "read_ppm", "read_pgm", "read_grid", "read_scanpaths",
                 "read_ratings", "write_pgm", "write_scanpaths")]
    + [("uniar.metrics.heatmap", f, f"metrics.{f}")
       for f in ("cc", "kld", "sim", "rmse", "r_squared", "nss", "auc_judd", "sauc")]
    + [("uniar.metrics.scanpath", f, f"metrics.{f}")
       for f in ("meanshift_clusters", "sequence_score", "semss", "semfed", "multimatch")]
    + [("uniar.metrics.rating", f, f"metrics.{f}") for f in ("srcc", "plcc")]
)

ROOT_SPAN = "cli.run"


class Tracer:
    """Span recorder. Span i is (names[i], starts[i], ends[i], parents[i]);
    the parent is the innermost span open when span i began, -1 for none.
    Columns are packed arrays, so long traced runs stay small."""

    def __init__(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict = {}
        self.enabled = False
        self._open: list = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds). Self time is
        the span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + dur, self_s + dur - child[i])
        return out

    def write(self, path: str) -> None:
        """Spans as gzip CSV: name, start and end in seconds from the first
        span, parent row index (-1 for roots)."""
        t0 = self.starts[0] if self.names else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]}\n")


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    wrapper._perfbench_span = name
    return wrapper


def _wrap_backward(tracer: Tracer, op: str):
    """After hook for a public autodiff op: time the backward closure of
    the tensor it returns, unless another op's wrapper already did (an op
    such as ``mean`` returns the tensor built by ``scale``)."""
    name = f"autodiff.{op}.bwd"

    def after(args, kwargs, out):
        bwd = getattr(out, "_backward", None)
        if bwd is not None and not hasattr(bwd, "_perfbench_span"):
            out._backward = _timed(tracer, name, bwd)

    return after


def _count_hooks(tracer: Tracer) -> dict:
    def tokens(args, kwargs, out):
        tracer.count("model.decode_tokens", len(out.split()))

    def positions(args, kwargs, out):
        prefix = kwargs.get("prefix_ids", args[3] if len(args) > 3 else (None,))
        tracer.count("model.decode_positions", len(prefix))

    def valid(args, kwargs, out):
        tracer.count("codec.decode_valid", int(out.valid))

    def grid_bytes(args, kwargs, out):
        tracer.count("data.read_grid.bytes", os.path.getsize(args[0]))

    return {"model.scanpath_generate": tokens, "model.next_token_logits": positions,
            "codec.decode_robust": valid, "data.read_grid": grid_bytes}


def _rebind(orig, new, restore: list) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "uniar" and not modname.startswith("uniar."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                restore.append((mod, attr, orig))


def install(tracer: Tracer):
    """Wrap every traced uniar function in every namespace that binds it.
    Returns a callable that puts the original functions back."""
    restore: list = []
    hooks = _count_hooks(tracer)
    targets = [("uniar.autodiff", op, f"autodiff.{op}", _wrap_backward(tracer, op))
               for op in AUTODIFF_OPS]
    targets += [(mod, attr, name, hooks.get(name)) for mod, attr, name in LAYER_FUNCTIONS]
    for modname, attr, name, after in targets:
        orig = getattr(sys.modules[modname], attr)
        _rebind(orig, _timed(tracer, name, orig, after), restore)

    return _undo(restore)


def hook(targets):
    """Untimed call hooks for the untraced run: for each (module, function,
    after), ``after(args, out)`` runs once the function returns. Returns
    the uninstall callable."""
    restore: list = []
    for modname, attr, after in targets:
        orig = getattr(sys.modules[modname], attr)

        @functools.wraps(orig)
        def wrapper(*args, _orig=orig, _after=after, **kwargs):
            out = _orig(*args, **kwargs)
            _after(args, out)
            return out

        _rebind(orig, wrapper, restore)
    return _undo(restore)


def _undo(restore: list):
    def undo():
        for mod, attr, orig in reversed(restore):
            setattr(mod, attr, orig)

    return undo
