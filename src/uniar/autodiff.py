"""Minimal float64 tensor engine with reverse-mode differentiation.

Tensors wrap numpy arrays; each differentiable operation records its
parents and a closure that maps the output gradient to parent
gradients. ``backward`` walks the graph once in reverse topological
order. Every forward result is checked for NaN/Inf, so attention
masks must use large finite negatives rather than -inf.

Performance is a non-goal beyond keeping desk-scale training runs in
the minutes range; convolutions use an im2col path, checked against
the explicit-loop oracles in the test suite.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

from .errors import NumericError, ValidationError

_GRAD_ENABLED = True


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


def _finite_or_raise(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by {op}")


class Tensor:
    """float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        _finite_or_raise(self.data, "tensor construction")
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
    _finite_or_raise(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = tuple(parents) if track else ()
    out._backward = bwd if track else None
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
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
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bwd(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), bwd, "sigmoid")


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (a,), bwd, "softmax")


def layer_norm(a, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance."""
    a = _wrap(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat

    def bwd(g):
        m = g.mean(axis=-1, keepdims=True)
        mx = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - m - xhat * mx),)

    return _make(data, (a,), bwd, "layer_norm")


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
    old = a.shape
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return _make(data, (a,), bwd, "reshape")


def permute(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return _make(data, (a,), bwd, "permute")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValidationError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
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
    data = a.data.sum(axis=axis, keepdims=keepdims)

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
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    data = lse - picked

    def bwd(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        idx = tuple(np.indices(labels.shape)) + (labels,)
        p[idx] -= 1.0
        return (p * g[..., None],)

    return _make(data, (logits,), bwd, "cross_entropy")


# ---------------------------------------------------------------------------
# convolutions (NHWC, weight (kh, kw, cin, cout))

def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValidationError(f"kernel {kh}x{kw} too large for input {h}x{w}")
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, oh, ow, kh, kw, c), (s0, s1 * stride, s2 * stride, s1, s2, s3))
    return np.ascontiguousarray(win).reshape(n, oh, ow, kh * kw * c), oh, ow


def _col2im(cols: np.ndarray, out_hw, kh: int, kw: int, stride: int, pad: int,
            c: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add window columns back to image."""
    n, oh, ow = cols.shape[:3]
    h, w = out_hw
    img = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    cols6 = cols.reshape(n, oh, ow, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            img[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += cols6[:, :, :, i, j, :]
    if pad:
        img = img[:, pad:pad + h, pad:pad + w, :]
    return img


def conv2d(x, w, stride: int = 1, pad: int = 0) -> Tensor:
    """2D convolution (cross-correlation), NHWC x (kh, kw, cin, cout)."""
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ValidationError("conv2d expects NHWC input and (kh,kw,cin,cout) weight")
    kh, kw, cin, cout = w.shape
    if x.shape[3] != cin:
        raise ValidationError(f"conv2d channel mismatch: input {x.shape[3]}, weight {cin}")
    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    wmat = w.data.reshape(kh * kw * cin, cout)
    data = cols @ wmat

    def bwd(g):
        gmat = g.reshape(-1, cout)
        gw = (cols.reshape(-1, kh * kw * cin).T @ gmat).reshape(w.shape)
        gcols = g @ wmat.T
        gx = _col2im(gcols, (x.shape[1], x.shape[2]), kh, kw, stride, pad, cin)
        return gx, gw

    return _make(data, (x, w), bwd, "conv2d")


def conv2d_transpose(x, w, stride: int = 2, pad: int = 0) -> Tensor:
    """Transposed convolution, NHWC x (kh, kw, cout, cin); output side
    grows to (in-1)*stride + kh - 2*pad."""
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ValidationError("conv2d_transpose expects NHWC input and (kh,kw,cout,cin) weight")
    kh, kw, cout, cin = w.shape
    if x.shape[3] != cin:
        raise ValidationError(f"conv2d_transpose channel mismatch: input {x.shape[3]}, weight {cin}")
    n, h, wd = x.shape[:3]
    oh = (h - 1) * stride + kh - 2 * pad
    ow = (wd - 1) * stride + kw - 2 * pad
    if oh <= 0 or ow <= 0:
        raise ValidationError("transposed conv output would be empty")
    wmat = w.data.reshape(kh * kw * cout, cin)
    cols = x.data @ wmat.T  # (n, h, wd, kh*kw*cout)
    data = _col2im(cols, (oh, ow), kh, kw, stride, pad, cout)

    def bwd(g):
        gcols, goh, gow = _im2col(g, kh, kw, stride, pad)
        assert (goh, gow) == (h, wd)
        gx = gcols @ wmat
        gw = (gcols.reshape(-1, kh * kw * cout).T @ x.data.reshape(-1, cin)).reshape(w.shape)
        return gx, gw

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


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf that influences a
    scalar loss. Leaves the loss never touches keep ``grad`` None,
    which the optimizer and grad_check read as zero."""
    if loss.data.size != 1:
        raise ValidationError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
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
# gradient checking

def grad_check(f, x, h: float = 1e-5, sample: int | None = None, seed: int = 0) -> float:
    """Max relative error between backward gradients and central
    differences, over all (or ``sample`` per-tensor seeded random)
    coordinates of the leaf tensors in ``x``.

    ``f`` must rebuild its graph on each call and return a scalar
    Tensor. Relative error = |a - b| / max(1e-8, |a| + |b|).
    """
    if not (h > 0):
        raise ValidationError("step size must be positive")
    leaves = [x] if isinstance(x, Tensor) else list(x)
    for t in leaves:
        t.requires_grad = True
    zero_grads(leaves)
    loss = f(*leaves)
    backward(loss)
    anal = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in leaves]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, ga in zip(leaves, anal):
        n = t.data.size
        if sample is None or sample >= n:
            idxs = range(n)
        else:
            idxs = rng.choice(n, size=sample, replace=False)
        flat = t.data.reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*leaves).item()
            flat[i] = orig - h
            fm = f(*leaves).item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            a = float(ga.reshape(-1)[i])
            err = abs(num - a) / max(1e-8, abs(num) + abs(a))
            worst = max(worst, err)
    return worst


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
    (params, state). Parameters without a gradient entry are left
    untouched (their moments still decay)."""
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k, p in params.items():
        g = grads.get(k)
        m, v = state["m"][k], state["v"][k]
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ValidationError(f"gradient shape {g.shape} does not match {k} {p.data.shape}")
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
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, t in params.items():
            arr = np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into an ordered name -> ndarray dict. Any
    truncated or corrupt content raises ValidationError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValidationError("not a checkpoint file (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", blob, 8)
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {version}")
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
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError, OverflowError) as e:
        raise ValidationError(f"truncated or corrupt checkpoint: {e}")
    return out
