import ast
import itertools
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uniar import autodiff as ad
from uniar.errors import NumericError, ParseError, UniarError, ValidationError

from oracles import (
    conv2d_naive,
    conv2d_transpose_naive,
    conv2d_weight_grad_naive,
    grad_check,
    layer_norm_naive,
    softmax_naive,
)

TOL = 1e-6  # per-op finite-difference tolerance at h = 1e-5


def dot_loss(t, c):
    """Scalarize with a fixed random projection so gradients are informative."""
    return ad.tsum(ad.mul(t, ad.Tensor(c)))


def check(f, tensors, tol=TOL, **kw):
    err = grad_check(f, tensors, **kw)
    assert err < tol, f"grad check failed: {err:.3e}"


# ---------------------------------------------------------------------------
# per-op finite-difference sweeps, 5 random points each


@pytest.mark.parametrize("seed", range(5))
def test_grad_add_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(2, 3)))
    b = ad.Tensor(rng.normal(size=(3,)))
    c = rng.normal(size=(2, 3))
    check(lambda a, b: dot_loss(ad.add(a, b), c), [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_grad_mul_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(2, 3)))
    b = ad.Tensor(rng.normal(size=(2, 1)))
    c = rng.normal(size=(2, 3))
    check(lambda a, b: dot_loss(ad.mul(a, b), c), [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_grad_scale(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(4,)))
    c = rng.normal(size=(4,))
    check(lambda a: dot_loss(ad.scale(a, -1.7), c), [a])


@pytest.mark.parametrize("seed", range(5))
def test_grad_matmul(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(2, 3)))
    b = ad.Tensor(rng.normal(size=(3, 4)))
    c = rng.normal(size=(2, 4))
    check(lambda a, b: dot_loss(ad.matmul(a, b), c), [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_grad_matmul_batched_broadcast(seed):
    # batched left operand against a shared right matrix
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(2, 2, 3)))
    b = ad.Tensor(rng.normal(size=(3, 4)))
    c = rng.normal(size=(2, 2, 4))
    check(lambda a, b: dot_loss(ad.matmul(a, b), c), [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_grad_relu(seed):
    rng = np.random.default_rng(seed)
    # keep samples away from the kink so central differences are valid
    raw = rng.normal(size=(3, 4))
    a = ad.Tensor(np.sign(raw) * (np.abs(raw) + 0.1))
    c = rng.normal(size=(3, 4))
    check(lambda a: dot_loss(ad.relu(a), c), [a])


@pytest.mark.parametrize("seed", range(5))
def test_grad_sigmoid(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(3, 4)))
    c = rng.normal(size=(3, 4))
    check(lambda a: dot_loss(ad.sigmoid(a), c), [a])


@pytest.mark.parametrize("seed", range(5))
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(3, 5)))
    c = rng.normal(size=(3, 5))
    check(lambda a: dot_loss(ad.softmax(a), c), [a])


@pytest.mark.parametrize("seed", range(5))
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(3, 6)))
    c = rng.normal(size=(3, 6))
    check(lambda a: dot_loss(ad.layer_norm(a), c), [a])


@pytest.mark.parametrize("seed", range(5))
def test_grad_embedding_with_duplicates(seed):
    rng = np.random.default_rng(seed)
    table = ad.Tensor(rng.normal(size=(7, 4)))
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    c = rng.normal(size=(2, 3, 4))
    check(lambda t: dot_loss(ad.embedding(t, ids), c), [table])


@pytest.mark.parametrize("seed", range(5))
def test_grad_shape_ops(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(2, 6)))
    c = rng.normal(size=(3, 4))
    check(lambda a: dot_loss(ad.reshape(a, (3, 4)), c), [a])

    b = ad.Tensor(rng.normal(size=(2, 3, 4)))
    cp = rng.normal(size=(4, 2, 3))
    check(lambda b: dot_loss(ad.permute(b, (2, 0, 1)), cp), [b])

    parts = [ad.Tensor(rng.normal(size=(2, k))) for k in (1, 3, 2)]
    cc = rng.normal(size=(2, 6))
    check(lambda *ps: dot_loss(ad.concat(ps, axis=1), cc), parts)

    d = ad.Tensor(rng.normal(size=(3, 6)))
    cn = rng.normal(size=(3, 2))
    check(lambda d: dot_loss(ad.narrow(d, 1, 2, 2), cn), [d])


@pytest.mark.parametrize("seed", range(5))
def test_grad_reductions(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(3, 4)))
    check(lambda a: ad.tsum(a), [a])
    check(lambda a: ad.mean(a), [a])
    c = rng.normal(size=(3, 1))
    check(lambda a: dot_loss(ad.mean(a, axis=1, keepdims=True), c), [a])
    c0 = rng.normal(size=(4,))
    check(lambda a: dot_loss(ad.tsum(a, axis=0), c0), [a])


@pytest.mark.parametrize("seed", range(5))
def test_grad_squared_error(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(3, 4)))
    b = ad.Tensor(rng.normal(size=(3, 4)))
    check(lambda a, b: ad.mean(ad.squared_error(a, b)), [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_grad_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = ad.Tensor(rng.normal(size=(2, 3, 5)))
    labels = rng.integers(0, 5, size=(2, 3))
    c = rng.normal(size=(2, 3))
    check(lambda L: dot_loss(ad.cross_entropy_with_logits(L, labels), c), [logits])


@pytest.mark.parametrize("seed", range(5))
def test_grad_conv2d(seed):
    # a batch sums its weight gradient over images; at seed 4 and batch 3
    # one weight's gradient is 1.76e-4, near zero for its tensor
    rng = np.random.default_rng(seed)
    for n in (1, 3):
        x = ad.Tensor(rng.normal(size=(n, 5, 5, 2)))
        w = ad.Tensor(rng.normal(size=(3, 3, 2, 3)))
        c = rng.normal(size=(n, 3, 3, 3))
        check(lambda x, w: dot_loss(ad.conv2d(x, w, stride=2, pad=1), c), [x, w])


@pytest.mark.parametrize("seed", range(5))
def test_grad_conv2d_transpose(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 3):
        x = ad.Tensor(rng.normal(size=(n, 3, 3, 3)))
        w = ad.Tensor(rng.normal(size=(4, 4, 2, 3)))
        c = rng.normal(size=(n, 6, 6, 2))
        check(lambda x, w: dot_loss(ad.conv2d_transpose(x, w, stride=2, pad=1), c), [x, w])


# ---------------------------------------------------------------------------
# closed-form gradients and op identities


def test_grad_linear_is_near_exact():
    rng = np.random.default_rng(7)
    a = ad.Tensor(rng.normal(size=(6,)))
    c = rng.normal(size=(6,))
    err = grad_check(lambda a: dot_loss(a, c), [a])
    assert err < 1e-10


def _misscaled_identity(a, factor, at):
    """Identity whose backward scales the gradient at the flat indices
    ``at`` by ``factor``: a wrong gradient for grad_check to catch."""
    def bwd(g):
        g = g.copy()
        g.reshape(-1)[at] *= factor
        return (g,)
    return ad._make(a.data.copy(), (a,), bwd, "misscaled")


@pytest.mark.parametrize("at", [slice(None), 3, 4], ids=["all", "small", "tiny"])
def test_grad_check_catches_a_gradient_off_by_a_tenth_of_a_percent(at):
    # the gradient of coordinate 3 is 1e-2 of the largest; that of
    # coordinate 4 is 1e-4 of it, so it is scored against the floor
    a = ad.Tensor(np.array([0.3, -1.2, 0.8, 0.5, 2.0]))
    c = np.array([1.0, 2.0, -3.0, 0.03, 3e-4])
    assert grad_check(lambda a: dot_loss(a, c), [a]) < TOL
    err = grad_check(lambda a: dot_loss(_misscaled_identity(a, 1.001, at), c), [a])
    assert err > TOL


def test_sum_gradient_is_ones():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_half_norm_gradient_is_x():
    x = ad.Tensor(np.array([1.0, -2.0, 3.5]), requires_grad=True)
    loss = ad.scale(ad.tsum(ad.mul(x, x)), 0.5)
    ad.backward(loss)
    assert np.allclose(x.grad, x.data, atol=1e-15)


def test_matmul_identity_left():
    a = np.random.default_rng(0).normal(size=(3, 5))
    out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
    assert np.array_equal(out.data, a)


def test_softmax_symmetry_and_sum():
    out = ad.softmax(ad.Tensor([3.7, 3.7, 3.7]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)
    rng = np.random.default_rng(1)
    big = ad.softmax(ad.Tensor(rng.normal(size=(4, 9)) * 200.0))
    assert np.all(np.abs(big.data.sum(axis=-1) - 1.0) < 1e-12)


def test_layer_norm_centers_last_axis():
    rng = np.random.default_rng(2)
    out = ad.layer_norm(ad.Tensor(rng.normal(size=(5, 8)) * 3 + 1))
    assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-12)
    # eps keeps the variance a hair under 1
    v = out.data.var(axis=-1)
    assert np.all(v < 1.0) and np.all(v > 0.9)


def test_sigmoid_extreme_inputs_stay_finite():
    out = ad.sigmoid(ad.Tensor([-800.0, 0.0, 800.0]))
    assert np.allclose(out.data, [0.0, 0.5, 1.0], atol=1e-15)


def test_embedding_gathers_rows():
    table = ad.Tensor(np.arange(12.0).reshape(4, 3))
    out = ad.embedding(table, np.array([2, 0, 2]))
    assert np.array_equal(out.data, table.data[[2, 0, 2]])


def test_dominant_correct_logit_drives_loss_to_zero():
    # a 1004-way vocabulary where the label's logit leads every other by 60
    logits = np.zeros((1, 3, 1004))
    logits[..., 5] = 60.0
    ce = ad.cross_entropy_with_logits(ad.Tensor(logits), np.full((1, 3), 5))
    assert ce.shape == (1, 3)
    assert np.all(ce.data >= 0.0) and ce.data.max() < 1e-12


# ---------------------------------------------------------------------------
# convolution reference paths


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_conv2d_matches_quadruple_loop_oracle(stride, pad):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4, 2))
    w = rng.normal(size=(2, 2, 2, 3))
    got = ad.conv2d(ad.Tensor(x[None]), ad.Tensor(w), stride=stride, pad=pad).data[0]
    want = np.array(conv2d_naive(x.tolist(), w.tolist(), stride=stride, pad=pad))
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_conv2d_equals_package_loop_reference(stride, pad):
    # a batch of two multi-channel images against the loop reference,
    # which lives in tests/oracles as conv2d_naive (one image at a time)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 6, 6, 3))
    w = rng.normal(size=(3, 3, 3, 4))
    fast = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=stride, pad=pad).data
    slow = np.array([conv2d_naive(xi.tolist(), w.tolist(), stride=stride, pad=pad)
                     for xi in x])
    assert fast.shape == slow.shape
    assert np.allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_conv_weight_gradients_over_a_batch_match_the_loop_oracle(stride, pad):
    # <conv2d_transpose(x, w), g> = <conv2d(g, w), x>, so one oracle gives
    # both weight gradients: the transposed conv's input and output
    # gradient are the plain conv's output gradient and input
    rng = np.random.default_rng(10 * stride + pad)
    w = ad.Tensor(rng.normal(size=(3, 3, 2, 4)), requires_grad=True)
    x = rng.normal(size=(3, 7, 6, 2))
    out = ad.conv2d(ad.Tensor(x), w, stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    ad.backward(dot_loss(out, g))
    want = np.array(conv2d_weight_grad_naive(x.tolist(), g.tolist(), 3, 3, stride, pad))
    assert np.max(np.abs(w.grad - want)) <= 1e-12

    wt = ad.Tensor(w.data, requires_grad=True)
    xt = x[:, :(g.shape[1] - 1) * stride + 3 - 2 * pad, :(g.shape[2] - 1) * stride + 3 - 2 * pad]
    ad.backward(dot_loss(ad.conv2d_transpose(ad.Tensor(g), wt, stride=stride, pad=pad), xt))
    want = np.array(conv2d_weight_grad_naive(xt.tolist(), g.tolist(), 3, 3, stride, pad))
    assert np.max(np.abs(wt.grad - want)) <= 1e-12


# 4x4 kernels, then phases without taps (kh < stride) and phases with
# unequal tap counts, at every pad below the kernel size
@pytest.mark.parametrize("stride,pad,kh", [
    *(pytest.param(s, p, 4, id=f"{s}-{p}") for s, p in ((2, 0), (2, 1), (1, 0))),
    *(pytest.param(s, p, k, id=f"{s}-{p}-kh{k}")
      for k, s in ((2, 3), (3, 2), (1, 2)) for p in range(k)),
])
def test_conv2d_transpose_matches_scatter_oracle(stride, pad, kh):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3, 2))
    w = rng.normal(size=(kh, kh if kh == 4 else kh + 1, 3, 2))
    got = ad.conv2d_transpose(ad.Tensor(x[None]), ad.Tensor(w), stride=stride, pad=pad).data[0]
    want = np.array(conv2d_transpose_naive(x.tolist(), w.tolist(), stride=stride, pad=pad))
    assert np.allclose(got, want, atol=1e-12)


@given(n=st.integers(1, 2), h=st.integers(1, 7), wd=st.integers(1, 7),
       cin=st.integers(1, 3), cout=st.integers(1, 3), kh=st.integers(1, 4),
       kw=st.integers(1, 4), stride=st.integers(1, 3), pad=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, h=4, wd=5, cin=2, cout=3, kh=2, kw=2, stride=3, pad=2, seed=0)
@example(n=2, h=6, wd=3, cin=1, cout=2, kh=3, kw=1, stride=2, pad=3, seed=1)
# transposed-conv phases without taps (kh < stride) and with unequal tap counts
@example(n=1, h=5, wd=4, cin=2, cout=3, kh=2, kw=2, stride=3, pad=0, seed=2)
@example(n=1, h=5, wd=4, cin=2, cout=3, kh=2, kw=3, stride=3, pad=1, seed=3)
@example(n=1, h=5, wd=4, cin=2, cout=3, kh=3, kw=3, stride=2, pad=0, seed=4)
@example(n=1, h=5, wd=4, cin=2, cout=3, kh=3, kw=2, stride=2, pad=1, seed=5)
@example(n=1, h=5, wd=4, cin=2, cout=3, kh=3, kw=3, stride=2, pad=2, seed=6)
@example(n=1, h=5, wd=4, cin=2, cout=3, kh=1, kw=1, stride=2, pad=0, seed=7)
@settings(max_examples=80)
def test_conv_input_gradient_is_exactly_the_transpose(n, h, wd, cin, cout, kh, kw,
                                                     stride, pad, seed):
    # <conv2d(x, w), g> differentiated in x is the scatter-form transposed
    # convolution of g over the padded input, cropped to x. When the
    # strided windows do not fit the padded input exactly, the oracle's
    # own symmetric crop cuts rows the windows still read, so the
    # reference is the uncropped oracle (pad 0) placed on the padded
    # canvas; conv2d_transpose's forward is the oracle with its padding
    assume(pad <= max(kh, kw) and h + 2 * pad >= kh and wd + 2 * pad >= kw)
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(n, h, wd, cin)), requires_grad=True)
    w = rng.normal(size=(kh, kw, cin, cout))
    out = ad.conv2d(x, ad.Tensor(w), stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
    canvas = np.zeros((n, h + 2 * pad, wd + 2 * pad, cin))
    for i, gi in enumerate(g):
        full = np.array(conv2d_transpose_naive(gi.tolist(), w.tolist(), stride=stride, pad=0))
        canvas[i, :full.shape[0], :full.shape[1]] = full
    want = canvas[:, pad:pad + h, pad:pad + wd]
    assert np.max(np.abs(x.grad - want)) <= 1e-12
    if (out.shape[1] - 1) * stride + kh > 2 * pad and (out.shape[2] - 1) * stride + kw > 2 * pad:
        fwd = ad.conv2d_transpose(ad.Tensor(g), ad.Tensor(w), stride=stride, pad=pad).data
        want = np.array([conv2d_transpose_naive(gi.tolist(), w.tolist(), stride=stride, pad=pad)
                         for gi in g])
        assert fwd.shape == want.shape
        assert np.max(np.abs(fwd - want)) <= 1e-12


# ---------------------------------------------------------------------------
# op bodies against their method-call references, bit for bit

# last-axis lengths around numpy's 8-wide unrolled and 128-wide pairwise sum blocks
LENGTHS = (1, 2, 7, 8, 9, 64, 127, 128, 129, 1004)


def forward_and_grad(op, x, g, **kw):
    """``op(x)`` and the gradient it passes back for upstream ``g``:
    the dot_loss projection hands ``g`` through unchanged."""
    t = ad.Tensor(x, requires_grad=True)
    out = op(t, **kw)
    ad.backward(dot_loss(out, g))
    return out.data, t.grad


@pytest.mark.parametrize("n", LENGTHS)
def test_layer_norm_equals_method_reference(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, 4, n)) * 3 + 1
    g = rng.normal(size=x.shape)
    got, want = forward_and_grad(ad.layer_norm, x, g), layer_norm_naive(x, g)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("n", LENGTHS)
def test_softmax_equals_method_reference(n, axis):
    rng = np.random.default_rng(n)
    shape = [3, 4, 5]
    shape[axis] = n
    x = rng.normal(size=shape) * 4
    g = rng.normal(size=x.shape)
    got = forward_and_grad(ad.softmax, x, g, axis=axis)
    want = softmax_naive(x, g, axis=axis)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("axes", list(itertools.permutations(range(4))))
def test_permute_gradient_returns_each_entry_to_its_source(axes):
    # the input holds its own flat indices, so the output says where each
    # upstream gradient entry must land
    x = np.arange(120.0).reshape(2, 3, 4, 5)
    g = np.random.default_rng(0).normal(size=x.transpose(axes).shape)
    out, grad = forward_and_grad(ad.permute, x, g, axes=axes)
    want = np.empty(x.size)
    want[out.astype(int).ravel()] = g.ravel()
    assert np.array_equal(grad, want.reshape(x.shape))


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_concat_gradient_splits_at_each_part(axis):
    rng = np.random.default_rng(1)
    sizes = (1, 3, 2)
    parts = []
    for size in sizes:
        shape = [2, 3, 4]
        shape[axis] = size
        parts.append(ad.Tensor(rng.normal(size=shape), requires_grad=True))
    out = ad.concat(parts, axis=axis)
    g = rng.normal(size=out.shape)
    ad.backward(dot_loss(out, g))
    start = 0
    for part, size in zip(parts, sizes):
        assert np.array_equal(part.grad, np.take(g, range(start, start + size), axis=axis))
        start += size


def test_op_bodies_call_ufunc_reductions_and_leave_backward_work_to_bwd():
    """The op-body rule: reductions call the ufunc's ``reduce``, so no
    ``.mean(``/``.sum(`` call (method or ``np.``) appears in the engine,
    and ``np.argsort``/``np.cumsum``, which only a backward needs, run
    only inside a nested ``bwd``, so inference never pays for them. The
    integer id-range checks' ``.min()``/``.max()`` are not linted."""
    tree = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    in_bwd = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for inner in ast.walk(fn):
                if isinstance(inner, ast.FunctionDef) and inner is not fn and inner.name == "bwd":
                    in_bwd.update(id(node) for node in ast.walk(inner))
    found, deferred = [], set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "attr", None)
        if name not in ("mean", "sum", "argsort", "cumsum"):
            continue
        if name in ("argsort", "cumsum") and id(call) in in_bwd:
            deferred.add(name)
        else:
            found.append(f"autodiff.py:{call.lineno} .{name}(")
    assert found == [] and deferred == {"argsort", "cumsum"}


# ---------------------------------------------------------------------------
# graph mechanics


def test_diamond_graph_accumulates_once():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)        # x^2
    z = ad.add(y, y)        # 2 x^2, two paths through y
    ad.backward(ad.tsum(z))
    assert np.allclose(x.grad, [8.0], atol=1e-15)


def test_topo_order_visits_each_node_once():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    y = ad.mul(x, x)
    z = ad.add(y, y)
    order = ad.topo_order(ad.tsum(z))
    assert len(order) == len({id(n) for n in order})
    pos = {id(n): i for i, n in enumerate(order)}
    assert pos[id(x)] < pos[id(y)] < pos[id(z)]


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValidationError):
        ad.backward(ad.mul(x, x))


def test_unused_leaf_gets_no_gradient():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    y = ad.Tensor(np.array([5.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert y.grad is None  # read as zero downstream


def test_no_grad_suppresses_graph():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ad.no_grad():
        y = ad.relu(x)
    assert not y.requires_grad and y._parents == ()
    # flag restored on exit: graph construction works again
    z = ad.tsum(ad.mul(x, x))
    ad.backward(z)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_consumes_its_graph():
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.mul(x, x)
    loss = ad.tsum(y)
    ad.backward(loss)
    with pytest.raises(ValidationError, match="consumed"):
        ad.backward(loss)
    # a fresh loss that reaches the consumed intermediate fails the same way
    with pytest.raises(ValidationError, match="consumed"):
        ad.backward(ad.tsum(ad.scale(y, 2.0)))
    assert np.array_equal(x.grad, [6.0])


def test_second_backward_accumulates_into_leaves():
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    first = x.grad.copy()
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert np.allclose(x.grad, 2 * first)
    ad.zero_grads([x])
    assert x.grad is None


# convolution memory: the heatmap read-out shape, 8 images of 64x64x8
# under a 3x3 kernel with pad 1. Each such array is 2 MiB; a batch-sized
# im2col of it is 18 MiB.


@pytest.fixture(scope="module")
def conv_memory():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(8, 64, 64, 8)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 3, 8, 8)), requires_grad=True)
    c = ad.Tensor(rng.normal(size=(8, 64, 64, 8)))
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, stride=1, pad=1)
        after_forward = tracemalloc.get_traced_memory()[0]
        loss = ad.tsum(ad.mul(out, c))
        ad.backward(loss)  # measured while out and loss are still held
        after_backward, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"after_forward": after_forward, "peak": peak, "after_backward": after_backward}


@pytest.mark.parametrize("measure,mib", [("after_forward", 6), ("peak", 25),
                                         ("after_backward", 6)])
def test_conv2d_keeps_no_batch_sized_windows(conv_memory, measure, mib):
    assert conv_memory[measure] < mib * 2**20


# ---------------------------------------------------------------------------
# error paths


def test_non_finite_values_raise_at_boundaries():
    with pytest.raises(NumericError, match="produced by tensor construction"):
        ad.Tensor([np.nan])

    def forward():
        return ad.scale(ad.mul(ad.Tensor([1e308]), ad.Tensor([1e308])), 0.5)

    with np.errstate(over="ignore"):
        # outside a boundary's re-run, an op's non-finite output passes on
        out = forward()
        assert np.isinf(out.data).all()
        with pytest.raises(NumericError, match="produced by mul$"):
            ad.check_finite(out.data, "the test forward", forward)
    assert ad._CHECK_OPS is False
    # a re-run that raises nothing leaves the boundary to name itself
    with pytest.raises(NumericError, match="produced by the heads$"):
        ad.check_finite(np.array([1.0, np.nan]), "the heads", lambda: None)
    ad.check_finite(np.ones(3), "finite data", lambda: pytest.fail("re-ran finite data"))


def test_non_finite_gradient_names_its_parameter_before_adam_moves():
    # finite forward (1e-10 * 1e300 * 1e10 = 1e300), infinite gradient for a
    params = make_params({"a": [1e-10], "b": [1e300]})
    loss = ad.scale(ad.tsum(ad.mul(params["a"], params["b"])), 1e10)
    assert np.isfinite(loss.data).all()
    with np.errstate(over="ignore"):
        ad.backward(loss)
    assert np.isinf(params["a"].grad).all() and np.isfinite(params["b"].grad).all()
    state = ad.adam_init(params)
    with pytest.raises(NumericError, match="produced by the backward pass for a$"):
        ad.adam_step(params, {k: p.grad for k, p in params.items()}, state)
    assert state["t"] == 0
    assert params["a"].data[0] == 1e-10 and params["b"].data[0] == 1e300
    assert not state["m"]["b"].any() and not state["v"]["b"].any()


def test_shape_errors():
    with pytest.raises(ValidationError):
        ad.matmul(ad.Tensor([1.0, 2.0]), ad.Tensor([[1.0], [2.0]]))
    with pytest.raises(ValidationError):
        ad.narrow(ad.Tensor(np.ones((2, 3))), 1, 2, 2)
    with pytest.raises(ValidationError):
        ad.embedding(ad.Tensor(np.ones((4, 2))), np.array([4]))
    with pytest.raises(ValidationError):
        ad.embedding(ad.Tensor(np.ones((4, 2))), np.array([0.5]))
    with pytest.raises(ValidationError):
        ad.cross_entropy_with_logits(ad.Tensor(np.ones((2, 5))), np.array([5, 0]))
    with pytest.raises(ValidationError):
        ad.conv2d(ad.Tensor(np.ones((1, 4, 4, 2))), ad.Tensor(np.ones((3, 3, 3, 1))))


# ---------------------------------------------------------------------------
# optimizer


def make_params(values):
    return {k: ad.Tensor(np.array(v), requires_grad=True) for k, v in values.items()}


def test_adam_zero_gradient_fresh_state_is_identity():
    params = make_params({"w": [1.0, -2.0]})
    before = params["w"].data.copy()
    state = ad.adam_init(params)
    ad.adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"].data, before)
    assert state["t"] == 1
    assert np.array_equal(state["m"]["w"], np.zeros(2))


def test_adam_moments_decay_under_zero_gradient():
    params = make_params({"w": [1.0]})
    state = ad.adam_init(params)
    state["m"]["w"][:] = 1.0
    state["v"]["w"][:] = 2.0
    ad.adam_step(params, {"w": np.zeros(1)}, state)
    assert np.allclose(state["m"]["w"], [0.9], atol=1e-15)
    assert np.allclose(state["v"]["w"], [1.998], atol=1e-15)


def test_adam_first_step_closed_form():
    # bias correction cancels the (1 - beta) factors, so step one is
    # -lr * g / (|g| + eps) exactly
    params = make_params({"w": [2.0, -1.0, 0.5]})
    before = params["w"].data.copy()
    g = np.array([0.5, -0.25, 2.0])
    state = ad.adam_init(params)
    ad.adam_step(params, {"w": g}, state, lr=1e-3)
    want = before - 1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["w"].data, want, atol=1e-15)


def test_adam_quadratic_bowl_decreases():
    params = make_params({"w": [2.0, -3.0]})
    state = ad.adam_init(params)
    losses = []
    for _ in range(100):
        ad.zero_grads(params)
        loss = ad.scale(ad.tsum(ad.mul(params["w"], params["w"])), 0.5)
        ad.backward(loss)
        losses.append(loss.item())
        ad.adam_step(params, {"w": params["w"].grad}, state, lr=0.05)
    for i in range(5, 99):
        assert losses[i + 1] < losses[i]


def test_adam_shape_mismatch_raises():
    # the bad gradient is the second one: the first parameter, the
    # moments and the step count must stay as they were
    params = make_params({"w": [1.0, 2.0], "b": [3.0]})
    state = ad.adam_init(params)
    with pytest.raises(ValidationError, match="does not match b"):
        ad.adam_step(params, {"w": np.ones(2), "b": np.zeros(3)}, state)
    assert state["t"] == 0
    assert params["w"].data.tolist() == [1.0, 2.0] and params["b"].data.tolist() == [3.0]
    for k in ("w", "b"):
        assert not state["m"][k].any() and not state["v"][k].any()


def test_adam_missing_gradient_entry_decays_only():
    params = make_params({"w": [1.0], "b": [4.0], "c": [4.0]})
    state = ad.adam_init(params)
    ad.adam_step(params, {"w": np.array([1.0]), "c": np.array([1.0])}, state)
    assert params["b"].data[0] == 4.0
    assert params["c"].data[0] == pytest.approx(3.999, abs=1e-9)
    # not left untouched: with momentum, a step without its gradient
    # still moves a parameter
    ad.adam_step(params, {}, state)
    assert params["c"].data[0] == pytest.approx(3.99833, abs=1e-5)
    assert params["b"].data[0] == 4.0


def test_training_loop_is_deterministic():
    def run():
        rng = np.random.default_rng(0)
        params = {
            "w1": ad.Tensor(rng.normal(size=(3, 4)) * 0.1, requires_grad=True),
            "w2": ad.Tensor(rng.normal(size=(4, 1)) * 0.1, requires_grad=True),
        }
        x = ad.Tensor(rng.normal(size=(8, 3)))
        t = ad.Tensor(rng.normal(size=(8, 1)))
        state = ad.adam_init(params)
        for _ in range(20):
            ad.zero_grads(params)
            pred = ad.matmul(ad.relu(ad.matmul(x, params["w1"])), params["w2"])
            loss = ad.mean(ad.squared_error(pred, t))
            ad.backward(loss)
            ad.adam_step(params, {k: p.grad for k, p in params.items()}, state)
        return {k: p.data.tobytes() for k, p in params.items()}

    assert run() == run()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    params = {
        "enc.w": ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "bias": ad.Tensor(rng.normal(size=(7,))),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, params)
    loaded = ad.load_checkpoint(path)
    assert list(loaded.keys()) == ["enc.w", "bias", "scalar"]
    for k in params:
        v = params[k].data if isinstance(params[k], ad.Tensor) else params[k]
        assert np.array_equal(loaded[k], v)
        assert loaded[k].shape == v.shape


def test_checkpoint_byte_layout(tmp_path):
    path = tmp_path / "tiny.ckpt"
    arr = np.arange(6.0).reshape(2, 3)
    ad.save_checkpoint(path, {"ab": arr})
    blob = path.read_bytes()
    assert blob[:8] == b"UARCKPT1"
    assert struct.unpack_from("<I", blob, 8)[0] == 1
    assert struct.unpack_from("<I", blob, 12)[0] == 2  # name length
    assert blob[16:18] == b"ab"
    assert struct.unpack_from("<Q", blob, 18)[0] == 2  # rank
    assert struct.unpack_from("<2Q", blob, 26) == (2, 3)
    assert blob[42:] == arr.astype("<f8").tobytes()
    assert len(blob) == 42 + 48


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValidationError):
        ad.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ParseError) as e:
        ad.load_checkpoint(path)
    assert e.value.path == path and str(e.value) == (
        f"{path}: truncated or corrupt checkpoint: tensor 'w': 128 payload bytes, 123 left")


def test_checkpoint_missing_names_the_path(tmp_path):
    path = tmp_path / "run" / "model.ckpt"
    with pytest.raises(ParseError) as e:
        ad.load_checkpoint(path)
    assert e.value.path == path and str(e.value) == f"{path}: No such file or directory"


def test_checkpoint_unknown_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(b"UARCKPT1" + struct.pack("<I", 9))
    with pytest.raises(ValidationError):
        ad.load_checkpoint(path)


def _record(name, dims, payload=b""):
    nb = name.encode("utf-8")
    return (struct.pack("<I", len(nb)) + nb + struct.pack("<Q", len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


@pytest.mark.parametrize("blob,message", [
    (b"UARCKPT1\x01", "requires a buffer"),                       # version cut short
    (b"UARCKPT1" + struct.pack("<I", 1) + _record("w", (2**33, 2**33)), "payload bytes"),
    (b"UARCKPT1" + struct.pack("<I", 1) + _record("w", (2**63, 2)), "payload bytes"),
    (b"UARCKPT1" + struct.pack("<I", 1) + _record("w", (0, 2**63)), "dimension"),
    (b"UARCKPT1" + struct.pack("<I", 1) + _record("w", (1,) * 100, bytes(8)), "dimension"),
    (b"UARCKPT1" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
     + struct.pack("<Q", 2**62), "overruns the file"),
    (b"UARCKPT1" + struct.pack("<I", 1) + struct.pack("<I", 2) + b"\xff\xfe", "utf-8"),
], ids=["short-version", "dims-2^66", "dims-2^64", "zero-by-2^63", "rank-100", "rank-2^62",
        "name-not-utf8"])
def test_checkpoint_corrupt_header_is_validation_error(tmp_path, blob, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(ValidationError, match="truncated or corrupt checkpoint") as e:
        ad.load_checkpoint(path)
    assert message in str(e.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_payload_names_the_tensor(tmp_path, bad):
    path = tmp_path / "nan.ckpt"
    w = np.ones((2, 3))
    w[1, 2] = bad
    ad.save_checkpoint(path, {"enc.w": np.ones(4), "out.w": w})
    with pytest.raises(ValidationError, match="checkpoint tensor 'out.w' holds non-finite"):
        ad.load_checkpoint(path)


@settings(max_examples=300)
@given(edits=st.lists(st.tuples(st.sampled_from(["set", "ins", "del", "cut", "u64"]),
                                st.integers(0, 10**6), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=3))
def test_mutated_checkpoint_only_raises_uniar_errors(tmp_path_factory, edits):
    """Byte mutations and truncations of a saved checkpoint either load
    or raise a UniarError; nothing else escapes."""
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    rng = np.random.default_rng(4)
    ad.save_checkpoint(path, {"enc.w": rng.normal(size=(3, 4)), "bias": rng.normal(size=(7,)),
                              "scalar": np.array(2.5), "conv.w": rng.normal(size=(2, 2, 1, 3))})
    raw = path.read_bytes()
    for op, pos, value in edits:
        pos %= len(raw) + 1
        if op == "set" and pos < len(raw):
            raw = raw[:pos] + bytes([value % 256]) + raw[pos + 1:]
        elif op == "ins":
            raw = raw[:pos] + bytes([value % 256]) + raw[pos:]
        elif op == "del":
            raw = raw[:pos] + raw[pos + 1:]
        elif op == "cut":
            raw = raw[:pos]
        elif op == "u64":  # a wild size or rank field
            raw = raw[:pos] + struct.pack("<Q", value) + raw[pos + 8:]
    path.write_bytes(raw)
    try:
        ad.load_checkpoint(path)
    except UniarError:
        pass
