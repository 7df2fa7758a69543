"""Minimal float64 tensor engine with reverse-mode differentiation.

Tensors wrap numpy arrays; each differentiable operation records its
parents and a closure that maps the output gradient to parent
gradients. ``backward`` walks the graph once in reverse topological
order and consumes it as it goes, so each activation is freed once its
gradient has been passed on. ``Tensor(...)`` rejects NaN/Inf inputs,
so attention masks must use large finite negatives rather than -inf.
Op outputs are checked once, where a value leaves the engine (see
``check_finite``).
Checkpoints are written and read through ``uniar.data``'s one way out
and one way in, so an error in reading one names its path.

Op bodies stay lean, as inference runs them on small arrays, where
Python overhead is a large share (a cached decode step skips them: it
makes their forwards' arithmetic on plain arrays, ``softmax_data`` as
is and each layer norm on a row's Python-float mean and inverse
standard deviation, and hands its result back through ``leaf``):
reductions call the ufunc (``np.add.reduce(x, ...) / n`` is what
``x.mean`` computes for float64, minus its Python wrapper), and work
only the backward needs happens inside ``bwd``. Convolutions are one
primitive and its adjoint: ``conv2d`` runs the primitive forward and
the adjoint for its input gradient, ``conv2d_transpose`` the other way
round. The primitive lays its input once on a zero canvas and copies
one image's kh x kw windows at a time into one reused buffer for the
matmul, so no batch-sized im2col is ever built or kept; it keeps the
padded input, from which the weight gradient rebuilds each image's
windows and sums ``cols_i^T @ g_i``. The adjoint splits a stride-s
transposed convolution into s x s phase sub-convolutions, one per
output residue (row mod s, column mod s), each with the taps that
reach it, so it multiplies no zeros. Both are checked against the
explicit-loop oracles in the test suite.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

from .data import _read_input, _write_output, reads_file
from .errors import NumericError, ParseError, ValidationError

_GRAD_ENABLED = True
_CHECK_OPS = False  # set only inside check_finite's re-run


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """Whether ops record a graph here (False inside ``no_grad``)."""
    return _GRAD_ENABLED


def check_finite(data, what: str, rerun=None) -> None:
    """Raise NumericError naming ``what`` if ``data`` holds NaN or Inf.
    A boundary passes ``rerun``, the forward that made ``data``; it runs
    once first with per-op checks on, to name the first failing op."""
    if np.logical_and.reduce(np.isfinite(data), axis=None):
        return
    global _CHECK_OPS
    if rerun is not None:
        _CHECK_OPS = True
        try:
            rerun()
        finally:
            _CHECK_OPS = False
    raise NumericError(f"non-finite values produced by {what}")


class Tensor:
    """float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        check_finite(self.data, "tensor construction")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValidationError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents, bwd, op: str) -> Tensor:
    """Assemble an op result, recording the graph edge only when grad
    mode is on and some parent needs gradients."""
    if _CHECK_OPS:
        check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = tuple(parents) if track else ()
    out._backward = bwd if track else None
    return out


def leaf(data: np.ndarray, what: str, requires_grad: bool = False) -> Tensor:
    """A graph leaf over a float64 array that needs no scan here: one
    already checked (a checkpoint tensor), or a grad-free result made on
    plain arrays that a boundary checks. Inside a boundary's re-run it is
    checked like an op output and named ``what``."""
    out = _make(data, (), None, what)
    out.requires_grad = bool(requires_grad)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear ops

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), bwd, "add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), bwd, "mul")


def scale(a, s: float) -> Tensor:
    a = _wrap(a)
    s = float(s)
    data = a.data * s

    def bwd(g):
        return (g * s,)

    return _make(data, (a,), bwd, "scale")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValidationError("matmul operands must have rank >= 2")
    data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(data, (a, b), bwd, "matmul")


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def bwd(g):
        return (g * mask,)

    return _make(data, (a,), bwd, "relu")


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    # overflow-safe split form
    x = a.data
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), bwd, "sigmoid")


def softmax_data(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``softmax``'s forward on a plain array, for grad-free callers."""
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    data = softmax_data(a.data, axis)

    def bwd(g):
        inner = np.add.reduce(g * data, axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (a,), bwd, "softmax")


def _normalized(x: np.ndarray, eps: float) -> tuple:
    """``x`` at zero mean / unit variance over its last axis, and the
    inverse standard deviation that scaled it."""
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def layer_norm(a, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance."""
    a = _wrap(a)
    n = a.data.shape[-1]
    xhat, inv = _normalized(a.data, eps)

    def bwd(g):
        m = np.add.reduce(g, axis=-1, keepdims=True) / n
        mx = np.add.reduce(g * xhat, axis=-1, keepdims=True) / n
        return (inv * (g - m - xhat * mx),)

    return _make(xhat, (a,), bwd, "layer_norm")


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :]."""
    table = _wrap(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValidationError("embedding ids must be integers")
    if table.ndim != 2:
        raise ValidationError("embedding table must be rank 2")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValidationError("embedding id outside table")
    data = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), bwd, "embedding")


# ---------------------------------------------------------------------------
# shape ops

def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), bwd, "reshape")


def permute(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    data = a.data.transpose(axes)

    def bwd(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(data, (a,), bwd, "permute")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValidationError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), bwd, "concat")


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _wrap(a)
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ValidationError(
            f"narrow [{start}:{start + length}] outside axis of size {a.shape[axis]}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return (ga,)

    return _make(data, (a,), bwd, "narrow")


# ---------------------------------------------------------------------------
# reductions and losses

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = np.add.reduce(a.data, axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(np.asarray(data), (a,), bwd, "sum")


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def squared_error(a, b) -> Tensor:
    """Elementwise (a - b)^2."""
    a, b = _wrap(a), _wrap(b)
    diff = a.data - b.data
    data = diff * diff

    def bwd(g):
        return (_unbroadcast(2.0 * g * diff, a.shape),
                _unbroadcast(-2.0 * g * diff, b.shape))

    return _make(data, (a, b), bwd, "squared_error")


def cross_entropy_with_logits(logits, labels) -> Tensor:
    """Per-position negative log-likelihood over the last axis.

    ``labels`` is an integer array shaped like ``logits`` minus its
    class axis; the result has the labels' shape.
    """
    logits = _wrap(logits)
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError("labels must be integers")
    if labels.shape != logits.shape[:-1]:
        raise ValidationError(
            f"labels shape {labels.shape} does not match logits {logits.shape}")
    v = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= v):
        raise ValidationError("label outside vocabulary")
    shifted = logits.data - np.maximum.reduce(logits.data, axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    data = lse - picked

    def bwd(g):
        p = np.exp(shifted)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        idx = tuple(np.indices(labels.shape)) + (labels,)
        p[idx] -= 1.0
        return (p * g[..., None],)

    return _make(data, (logits,), bwd, "cross_entropy")


# ---------------------------------------------------------------------------
# convolutions (NHWC, weight (kh, kw, cin, cout))

def _windows(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(n, oh, ow, kh, kw, c) view of every kernel window of ``xp``, no copy."""
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (xp.shape[0], oh, ow, kh, kw, xp.shape[3]),
        (s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False)


def _conv(x: np.ndarray, w: np.ndarray, stride: int, pad) -> tuple:
    """Cross-correlate NHWC ``x`` with a (kh, kw, cin, cout) kernel, with
    ``pad = (py, px)`` zeros on each side: ``x`` is laid once on a zero
    canvas, and each image's windows are copied into one reused buffer
    and multiplied into the output. Returns the output and the padded
    input, from which ``_conv_weight_grad`` rebuilds the windows."""
    kh, kw, cin, cout = w.shape
    n, h, wd, _ = x.shape
    py, px = pad
    oh = (h + 2 * py - kh) // stride + 1
    ow = (wd + 2 * px - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValidationError(f"kernel {kh}x{kw} too large for input {h + 2 * py}x{wd + 2 * px}")
    xp = x
    if py or px:
        xp = np.zeros((n, h + 2 * py, wd + 2 * px, cin))
        xp[:, py:py + h, px:px + wd] = x
    win = _windows(xp, kh, kw, stride, oh, ow)
    cols = np.empty((oh, ow, kh * kw * cin))
    w2 = w.reshape(-1, cout)
    out = np.empty((n, oh, ow, cout))
    for i in range(n):
        cols.reshape(oh, ow, kh, kw, cin)[...] = win[i]
        np.matmul(cols, w2, out=out[i])
    return out, xp


def _conv_weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Weight gradient of ``_conv`` over the padded input ``xp`` for the
    output gradient ``g``: the sum over images of ``cols_i^T @ g_i``,
    each image's windows rebuilt in one reused buffer."""
    n, oh, ow, cout = g.shape
    cin = xp.shape[3]
    win = _windows(xp, kh, kw, stride, oh, ow)
    g2 = g.reshape(n, oh * ow, cout)
    cols = np.empty((oh * ow, kh * kw * cin))
    gw = np.zeros((kh * kw * cin, cout))
    part = np.empty_like(gw)
    for i in range(n):
        cols.reshape(oh, ow, kh, kw, cin)[...] = win[i]
        np.matmul(cols.T, g2[i], out=part)
        gw += part
    return gw.reshape(kh, kw, cin, cout)


def _conv_adjoint(g: np.ndarray, w: np.ndarray, stride: int, pad: int, hw) -> np.ndarray:
    """Adjoint of ``_conv`` in its input, for an (h, w) input ``hw``, with
    ``pad`` cropped from each side (Dumoulin & Visin 2016, arXiv
    1603.07285). Uncropped row ``y`` gets only the taps ``ky`` with
    ``ky % stride == y % stride``, so each phase ``(ry, rx)`` is a stride-1
    ``_conv`` of ``g``, padded by its sub-kernel's size minus one, with
    the sub-kernel ``w[ry::stride, rx::stride]`` flipped and
    channel-swapped. A phase without taps or rows stays zero."""
    kh, kw = w.shape[:2]
    h, wd = hw
    full = np.zeros((g.shape[0], h + 2 * pad, wd + 2 * pad, w.shape[2]))
    for ry in range(min(stride, kh, h + 2 * pad)):
        for rx in range(min(stride, kw, wd + 2 * pad)):
            sub = w[ry::stride, rx::stride]
            py, px = sub.shape[0] - 1, sub.shape[1] - 1
            out, _ = _conv(g, sub[::-1, ::-1].transpose(0, 1, 3, 2), 1, (py, px))
            dst = full[:, ry::stride, rx::stride]
            qy, qx = min(dst.shape[1], out.shape[1]), min(dst.shape[2], out.shape[2])
            dst[:, :qy, :qx] = out[:, :qy, :qx]
    return full[:, pad:pad + h, pad:pad + wd]


def conv2d(x, w, stride: int = 1, pad: int = 0) -> Tensor:
    """2D convolution (cross-correlation), NHWC x (kh, kw, cin, cout)."""
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ValidationError("conv2d expects NHWC input and (kh,kw,cin,cout) weight")
    if x.shape[3] != w.shape[2]:
        raise ValidationError(f"conv2d channel mismatch: input {x.shape[3]}, weight {w.shape[2]}")
    data, xp = _conv(x.data, w.data, stride, (pad, pad))

    def bwd(g):
        gw = _conv_weight_grad(xp, g, w.shape[0], w.shape[1], stride)
        return _conv_adjoint(g, w.data, stride, pad, x.shape[1:3]), gw

    return _make(data, (x, w), bwd, "conv2d")


def conv2d_transpose(x, w, stride: int = 2, pad: int = 0) -> Tensor:
    """Transposed convolution, NHWC x (kh, kw, cout, cin): the adjoint
    of ``conv2d`` with the same weight. Output side grows to
    (in-1)*stride + kh - 2*pad."""
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ValidationError("conv2d_transpose expects NHWC input and (kh,kw,cout,cin) weight")
    kh, kw, _, cin = w.shape
    if x.shape[3] != cin:
        raise ValidationError(f"conv2d_transpose channel mismatch: input {x.shape[3]}, weight {cin}")
    oh = (x.shape[1] - 1) * stride + kh - 2 * pad
    ow = (x.shape[2] - 1) * stride + kw - 2 * pad
    if oh <= 0 or ow <= 0:
        raise ValidationError("transposed conv output would be empty")
    data = _conv_adjoint(x.data, w.data, stride, pad, (oh, ow))

    def bwd(g):
        gx, gp = _conv(g, w.data, stride, (pad, pad))
        return gx, _conv_weight_grad(gp, x.data, kh, kw, stride)

    return _make(data, (x, w), bwd, "conv2d_transpose")


# ---------------------------------------------------------------------------
# backward pass

def topo_order(root: Tensor) -> list:
    """Ancestors of ``root`` that require gradients, parents before
    children, ``root`` last. Iterative so deep graphs cannot blow the
    recursion limit."""
    topo: list[Tensor] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            topo.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return topo


def _consumed(g):
    raise ValidationError("backward reached a graph that an earlier backward consumed; "
                          "rebuild the forward to differentiate again")


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf that influences a
    scalar loss. Leaves the loss never touches keep ``grad`` None,
    which the optimizer reads as zero.

    Consumes the graph as it walks it: once a node has passed its
    gradient on, it drops its parents and its closure, so activations
    and the arrays their closures hold are freed during the walk, even
    while the caller still holds ``loss``. A second backward that
    reaches a consumed node raises ValidationError; fresh graphs over
    the same leaves keep accumulating into ``grad``."""
    if loss.data.size != 1:
        raise ValidationError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    order = topo_order(loss)
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        parents, node._parents, node._backward = node._parents, (), _consumed
        for p, pg in zip(parents, parent_grads):
            if not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


def zero_grads(params) -> None:
    for t in (params.values() if isinstance(params, dict) else params):
        t.grad = None


# ---------------------------------------------------------------------------
# optimizer

def adam_init(params: dict) -> dict:
    """Fresh first/second-moment state for a named parameter dict."""
    return {
        "t": 0,
        "m": {k: np.zeros_like(p.data) for k, p in params.items()},
        "v": {k: np.zeros_like(p.data) for k, p in params.items()},
    }


def adam_step(params: dict, grads: dict, state: dict, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam. Updates parameters in place and returns
    (params, state). Gradients are checked for shape and NaN/Inf before
    any state changes. A parameter without a gradient entry takes a zero
    one: its moments decay, and its momentum may still move it."""
    for k, p in params.items():
        g = grads.get(k)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValidationError(f"gradient shape {g.shape} does not match {k} {p.data.shape}")
        check_finite(g, f"the backward pass for {k}")
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k, p in params.items():
        g = grads.get(k, 0.0)
        m, v = state["m"][k], state["v"][k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"UARCKPT1"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: dict) -> None:
    """Flat binary container: magic, u32 version, then per tensor a
    u32 name length, UTF-8 name, u64 rank, u64 dims, float64
    little-endian payload. Order follows the dict."""
    records = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for name, t in params.items():
        arr = np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64)
        nb = name.encode("utf-8")
        records += [struct.pack("<I", len(nb)), nb, struct.pack("<Q", arr.ndim),
                    struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f8").tobytes()]
    _write_output(path, b"".join(records))


@reads_file
def load_checkpoint(path) -> dict:
    """Read a checkpoint back into an ordered name -> ndarray dict. A
    missing file or any truncated, corrupt or non-finite content raises
    ParseError."""
    blob = _read_input(path, binary=True)
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ParseError("not a checkpoint file (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", blob, 8)
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        off = 12
        out: dict[str, np.ndarray] = {}
        while off < len(blob):
            (nlen,) = struct.unpack_from("<I", blob, off)
            off += 4
            if nlen > len(blob) - off:
                raise ValueError("truncated name")
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<Q", blob, off)
            off += 8
            if 8 * rank > len(blob) - off:
                raise ValueError(f"tensor {name!r}: rank {rank} overruns the file")
            dims = struct.unpack_from(f"<{rank}Q", blob, off)
            off += 8 * rank
            count = math.prod(dims)  # exact: Python ints cannot overflow
            if 8 * count > len(blob) - off:
                raise ValueError(f"tensor {name!r}: {8 * count} payload bytes, "
                                 f"{len(blob) - off} left")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(dims)
            off += 8 * count
            if not np.isfinite(arr).all():
                raise ParseError(f"checkpoint tensor {name!r} holds non-finite values")
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError, OverflowError) as e:
        raise ParseError(f"truncated or corrupt checkpoint: {e}")
    return out
