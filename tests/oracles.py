"""Independent reference implementations used to cross-check the
package. Everything here is deliberately naive: pure-Python loops,
explicit threshold sweeps, pairwise counting, direct per-pixel kernel
sums. No code is shared with the library paths under test; the grid
reader oracle, which reads a grid's header a character at a time and
its payload a value at a time with `struct`, only borrows the package's
error and map types, so its results compare directly with `read_grid`'s,
and `grad_check` only calls `backward` to get the gradients it checks
against central differences. The `*_ref` scanpath functions are the
library's earlier loops over numpy scalars, kept as they were; they
borrow only the result types and `default_bandwidth`."""

import math
import struct

import numpy as np

from uniar import autodiff as ad
from uniar.errors import ParseError, ValidationError
from uniar.metrics.scanpath import MeanShiftResult, MultiMatchScores, default_bandwidth
from uniar.types import FixationSet, GrayMap, Scanpath, SegmentationMap


def _flat(values2d):
    return [float(v) for row in values2d for v in row]


def _round_half_away(v):
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def pixel_of(x, y, width, height):
    c = min(max(_round_half_away(x), 0), width - 1)
    r = min(max(_round_half_away(y), 0), height - 1)
    return c, r


def mean(xs):
    return sum(xs) / len(xs)


def cc_naive(pred2d, gt2d):
    p, g = _flat(pred2d), _flat(gt2d)
    mp, mg = mean(p), mean(g)
    cov = mean([(a - mp) * (b - mg) for a, b in zip(p, g)])
    sp = math.sqrt(mean([(a - mp) ** 2 for a in p]))
    sg = math.sqrt(mean([(b - mg) ** 2 for b in g]))
    return cov / (sp * sg)


def kld_naive(pred2d, gt2d, eps=1e-12):
    p, g = _flat(pred2d), _flat(gt2d)
    sp, sg = sum(p), sum(g)
    total = 0.0
    for a, b in zip(p, g):
        gb = b / sg
        if gb > 0:
            total += gb * math.log(gb / (a / sp + eps))
    return total


def sim_naive(pred2d, gt2d):
    p, g = _flat(pred2d), _flat(gt2d)
    sp, sg = sum(p), sum(g)
    return sum(min(a / sp, b / sg) for a, b in zip(p, g))


def rmse_naive(pred2d, gt2d):
    p, g = _flat(pred2d), _flat(gt2d)
    return math.sqrt(mean([(a - b) ** 2 for a, b in zip(p, g)]))


def r2_naive(pred2d, gt2d):
    p, g = _flat(pred2d), _flat(gt2d)
    mg = mean(g)
    ss_res = sum((a - b) ** 2 for a, b in zip(p, g))
    ss_tot = sum((b - mg) ** 2 for b in g)
    return 1.0 - ss_res / ss_tot


def nss_naive(pred2d, fixations, width, height):
    v = _flat(pred2d)
    mu = mean(v)
    sd = math.sqrt(mean([(a - mu) ** 2 for a in v]))
    vals = []
    for x, y in fixations:
        c, r = pixel_of(x, y, width, height)
        vals.append((pred2d[r][c] - mu) / sd)
    return mean(vals)


def auc_judd_naive(pred2d, fixations, width, height):
    """Explicit ROC sweep: thresholds at every distinct fixated value,
    TPR over fixations, FPR over the non-fixated pixels, trapezoid
    with (0,0) and (1,1) endpoints."""
    fixated = set()
    pos = []
    for x, y in fixations:
        c, r = pixel_of(x, y, width, height)
        fixated.add((c, r))
        pos.append(float(pred2d[r][c]))
    neg = [float(pred2d[r][c]) for r in range(height) for c in range(width)
           if (c, r) not in fixated]
    thresholds = sorted(set(pos), reverse=True)
    pts = [(0.0, 0.0)]
    for t in thresholds:
        tpr = sum(1 for v in pos if v >= t) / len(pos)
        fpr = sum(1 for v in neg if v >= t) / len(neg)
        pts.append((fpr, tpr))
    pts.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_pairwise(pos, neg):
    """Probability a positive outranks a negative, ties counted half."""
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def gaussian_map_naive(fixations, width, height, sigma):
    """Direct per-pixel sum of truncated Gaussians (square support of
    radius ceil(3 sigma)) around each rounded fixation pixel, then
    max-rescaled."""
    r = int(math.ceil(3 * sigma))
    out = [[0.0] * width for _ in range(height)]
    centers = [pixel_of(x, y, width, height) for x, y in fixations]
    for py in range(height):
        for px in range(width):
            total = 0.0
            for cx, cy in centers:
                dx, dy = px - cx, py - cy
                if abs(dx) <= r and abs(dy) <= r:
                    total += math.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma))
            out[py][px] = total
    peak = max(max(row) for row in out)
    return [[v / peak for v in row] for row in out]


def bilinear_naive(values2d, src_w, src_h, dst_w, dst_h):
    out = [[0.0] * dst_w for _ in range(dst_h)]
    for j in range(dst_h):
        for i in range(dst_w):
            sx = min(max((i + 0.5) * src_w / dst_w - 0.5, 0.0), src_w - 1)
            sy = min(max((j + 0.5) * src_h / dst_h - 0.5, 0.0), src_h - 1)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, src_w - 1), min(y0 + 1, src_h - 1)
            wx, wy = sx - x0, sy - y0
            top = values2d[y0][x0] * (1 - wx) + values2d[y0][x1] * wx
            bot = values2d[y1][x0] * (1 - wx) + values2d[y1][x1] * wx
            out[j][i] = top * (1 - wy) + bot * wy
    return out


def ranks_naive(xs):
    """Each value's rank from a count of the values below it and equal
    to it, counted once per distinct value. NaN equals nothing, so it
    ranks 0.5 and counts toward no other value's rank."""
    xs = list(xs)
    counted = {}  # equal floats (0.0 and -0.0 too) share their counts
    ranks = [0.0] * len(xs)
    for i, v in enumerate(xs):
        if v not in counted:
            below = sum(1 for u in xs if u < v)
            ties = sum(1 for u in xs if u == v)
            counted[v] = below + (ties + 1) / 2.0
        ranks[i] = counted[v]
    return ranks


def pearson_naive(xs, ys):
    mx, my = mean(xs), mean(ys)
    cov = mean([(a - mx) * (b - my) for a, b in zip(xs, ys)])
    sx = math.sqrt(mean([(a - mx) ** 2 for a in xs]))
    sy = math.sqrt(mean([(b - my) ** 2 for b in ys]))
    return cov / (sx * sy)


def srcc_naive(pred, obs):
    return pearson_naive(ranks_naive(pred), ranks_naive(obs))


def lcs_naive(a, b):
    """Longest common subsequence by memoized recursion."""
    from functools import lru_cache

    a, b = list(a), list(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def levenshtein_naive(a, b):
    from functools import lru_cache

    a, b = list(a), list(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        sub = go(i + 1, j + 1) + (0 if a[i] == b[j] else 1)
        return min(sub, go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


def meanshift_naive(points, bandwidth, move_tol=1e-3, max_iter=300):
    """Fixed-point iteration per point, then first-come mode merging.
    Returns (centers, labels)."""
    pts = [(float(x), float(y)) for x, y in points]
    modes = []
    for x, y in pts:
        cx, cy = x, y
        for _ in range(max_iter):
            nx, ny, n = 0.0, 0.0, 0
            for px, py in pts:
                if math.hypot(px - cx, py - cy) <= bandwidth:
                    nx += px
                    ny += py
                    n += 1
            nx, ny = nx / n, ny / n
            moved = math.hypot(nx - cx, ny - cy)
            cx, cy = nx, ny
            if moved < move_tol:
                break
        modes.append((cx, cy))
    centers = []
    labels = []
    for cx, cy in modes:
        for k, (ox, oy) in enumerate(centers):
            if math.hypot(cx - ox, cy - oy) < bandwidth / 2.0:
                labels.append(k)
                break
        else:
            labels.append(len(centers))
            centers.append((cx, cy))
    return centers, labels


def conv2d_naive(x, w, stride=1, pad=0):
    """Quadruple-loop 2D convolution (cross-correlation), NHWC input
    (single image HWC here), weight (kh, kw, cin, cout)."""
    H = len(x)
    W = len(x[0])
    C = len(x[0][0])
    kh = len(w)
    kw = len(w[0])
    cout = len(w[0][0][0])
    oh = (H + 2 * pad - kh) // stride + 1
    ow = (W + 2 * pad - kw) // stride + 1
    out = [[[0.0] * cout for _ in range(ow)] for _ in range(oh)]
    for oy in range(oh):
        for ox in range(ow):
            for co in range(cout):
                acc = 0.0
                for ky in range(kh):
                    for kx in range(kw):
                        iy = oy * stride + ky - pad
                        ix = ox * stride + kx - pad
                        if 0 <= iy < H and 0 <= ix < W:
                            for ci in range(C):
                                acc += x[iy][ix][ci] * w[ky][kx][ci][co]
                out[oy][ox][co] = acc
    return out


def conv2d_transpose_naive(x, w, stride=2, pad=0):
    """Scatter form of the transposed convolution: every input pixel
    adds its kernel-weighted value into the (padded) output. Weight is
    (kh, kw, cout, cin)."""
    H = len(x)
    W = len(x[0])
    cin = len(x[0][0])
    kh = len(w)
    kw = len(w[0])
    cout = len(w[0][0])
    oh = (H - 1) * stride + kh - 2 * pad
    ow = (W - 1) * stride + kw - 2 * pad
    out = [[[0.0] * cout for _ in range(ow)] for _ in range(oh)]
    for iy in range(H):
        for ix in range(W):
            for ky in range(kh):
                for kx in range(kw):
                    oy = iy * stride + ky - pad
                    ox = ix * stride + kx - pad
                    if 0 <= oy < oh and 0 <= ox < ow:
                        for co in range(cout):
                            for ci in range(cin):
                                out[oy][ox][co] += x[iy][ix][ci] * w[ky][kx][co][ci]
    return out


def layer_norm_naive(x, g, eps=1e-5):
    """Layer norm over the last axis and its input gradient for the
    upstream gradient ``g``, written with ndarray's ``mean`` method.
    The engine calls the ufunc reduction in its place, which must give
    the same bits."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    m = g.mean(axis=-1, keepdims=True)
    mx = (g * xhat).mean(axis=-1, keepdims=True)
    return xhat, inv * (g - m - xhat * mx)


def softmax_naive(x, g, axis=-1):
    """Softmax along ``axis`` and its input gradient for the upstream
    gradient ``g``, written with ndarray's ``max`` and ``sum`` methods."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out, out * (g - inner)


def grad_check(f, x, h: float = 1e-5, sample: int | None = None, seed: int = 0) -> float:
    """Max relative error between backward gradients and central
    differences, over all (or ``sample`` per-tensor seeded random)
    coordinates of the leaf tensors in ``x``.

    ``f`` must rebuild its graph on each call and return a scalar
    Tensor. Relative error = |a - b| / max(1e-8, |a| + |b|).
    """
    if not (h > 0):
        raise ValidationError("step size must be positive")
    leaves = [x] if isinstance(x, ad.Tensor) else list(x)
    for t in leaves:
        t.requires_grad = True
    ad.zero_grads(leaves)
    loss = f(*leaves)
    ad.backward(loss)
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


def read_grid_naive(path):
    """Value-at-a-time reader of UARGRID files: the header line, cut at
    the first `\\n`, `\\r` or `\\r\\n`, split into tokens by a character
    loop; then the byte count; then each value in row-major order with
    `struct.unpack_from`, stopping at the first non-finite float or
    negative label. Its ParseErrors name no file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = start = len(raw)
    for i, b in enumerate(raw):
        if b in b"\r\n":
            end, start = i, i + (2 if raw[i:i + 2] == b"\r\n" else 1)
            break
    line = raw[:end].decode("utf-8", "replace")
    header, tok = [], None  # tok: [text, column] of the token being read
    for col, ch in enumerate(line, start=1):
        if ch.isspace():
            tok = None
        elif tok is None:
            tok = [ch, col]
            header.append(tok)
        else:
            tok[0] += ch
    if not header or header[0][0] != "UARGRID":
        raise ParseError("expected UARGRID magic", line=1, column=header[0][1] if header else 1)
    if len(header) < 4:
        raise ParseError("header needs `UARGRID <width> <height> <mode>`",
                         line=1, column=len(line) + 1)
    if len(header) > 4:
        raise ParseError("trailing tokens after grid mode", line=1, column=header[4][1])
    dims = []
    for text, col in header[1:3]:
        try:
            v = int(text)
        except ValueError:
            raise ParseError(f"expected an integer dimension, got {text!r}", line=1, column=col)
        if v <= 0:
            raise ParseError(f"dimensions must be positive, got {v}", line=1, column=col)
        dims.append(v)
    width, height = dims
    mode, col = header[3]
    if mode not in ("float64le", "int64le"):
        raise ParseError(f"mode must be float64le or int64le, got {mode!r}", line=1, column=col)
    need = 8 * width * height
    if len(raw) - start != need:
        raise ParseError(f"{mode} payload has {len(raw) - start} bytes, "
                         f"expected {need} for {width}x{height}")
    fmt = "<d" if mode == "float64le" else "<q"
    values = []
    for r in range(height):
        for c in range(width):
            (v,) = struct.unpack_from(fmt, raw, start + 8 * len(values))
            if mode == "float64le" and not math.isfinite(v):
                raise ParseError(f"row {r + 1}, column {c + 1}: non-finite value {v!r}")
            if mode == "int64le" and v < 0:
                raise ParseError(f"row {r + 1}, column {c + 1}: "
                                 f"segmentation labels must be >= 0, got {v!r}")
            values.append(v)
    dtype = np.int64 if mode == "int64le" else np.float64
    grid = np.array(values, dtype=dtype).reshape(height, width)
    return SegmentationMap(width, height, grid) if mode == "int64le" else GrayMap(width, height, grid)


# ---------------------------------------------------------------------------
# scanpath metrics as they ran on numpy scalars, kept verbatim; the
# library's Python-float loops must equal them bit for bit


def meanshift_clusters_ref(points, bandwidth: float | None = None,
                           move_tol: float = 1e-3, max_iter: int = 300) -> MeanShiftResult:
    """Flat-kernel mean shift.

    Every point walks to the mean of the original points within
    ``bandwidth`` of its current position, until it moves less than
    ``move_tol`` or ``max_iter`` iterations pass. Converged modes
    closer than bandwidth/2 to an earlier mode are merged into it.

    ``points`` may be a FixationSet (bandwidth defaults to a tenth of
    its frame diagonal) or an (N, 2) array (bandwidth required).
    """
    if isinstance(points, FixationSet):
        if bandwidth is None:
            bandwidth = default_bandwidth(points.frame)
        pts = points.points
    else:
        pts = np.asarray(points, dtype=np.float64)
        if bandwidth is None:
            raise ValidationError("bandwidth required when points carry no frame")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValidationError(f"points must have shape (N, 2) with N >= 1, got {pts.shape}")
    if not (bandwidth > 0):
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")

    walkers = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        cur = walkers[active]
        d2 = ((cur[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        near = d2 <= bandwidth * bandwidth
        counts = near.sum(axis=1)
        means = (near.astype(np.float64) @ pts) / counts[:, None]
        moved = np.sqrt(((means - cur) ** 2).sum(axis=1))
        walkers[active] = means
        still = moved >= move_tol
        idx = np.flatnonzero(active)
        active[idx[~still]] = False

    centers: list[np.ndarray] = []
    labels = np.empty(len(pts), dtype=np.int64)
    half = bandwidth / 2.0
    for i, mode in enumerate(walkers):
        for k, c in enumerate(centers):
            if math.hypot(mode[0] - c[0], mode[1] - c[1]) < half:
                labels[i] = k
                break
        else:
            labels[i] = len(centers)
            centers.append(mode.copy())
    return MeanShiftResult(centers=np.asarray(centers), labels=labels, bandwidth=float(bandwidth))


def nw_similarity_ref(a, b) -> float:
    """Global alignment score with match 1, mismatch 0, gap 0,
    normalized by the longer sequence length."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValidationError("alignment needs two non-empty sequences")
    n, m = len(a), len(b)
    score = np.zeros((n + 1, m + 1))
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = score[i - 1, j - 1] + (1.0 if a[i - 1] == b[j - 1] else 0.0)
            score[i, j] = max(diag, score[i - 1, j], score[i, j - 1])
    return float(score[n, m]) / max(n, m)


def align_vectors_ref(u: np.ndarray, v: np.ndarray):
    """Minimum-cost monotone lattice path over the |u_i - v_j| cost
    matrix, stepping diagonal/down/right from (0,0) to (n-1,m-1).
    Returns the aligned index pairs along the path. Ties prefer the
    diagonal, then the u-advancing step."""
    n, m = len(u), len(v)
    cost = np.sqrt(((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
    total = np.full((n, m), np.inf)
    total[0, 0] = cost[0, 0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            best = np.inf
            if i > 0 and j > 0:
                best = total[i - 1, j - 1]
            if i > 0:
                best = min(best, total[i - 1, j])
            if j > 0:
                best = min(best, total[i, j - 1])
            total[i, j] = cost[i, j] + best
    pairs = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i > 0 and j > 0 and total[i - 1, j - 1] <= min(total[i - 1, j], total[i, j - 1]):
            i, j = i - 1, j - 1
        elif i > 0 and (j == 0 or total[i - 1, j] <= total[i, j - 1]):
            i = i - 1
        else:
            j = j - 1
        pairs.append((i, j))
    pairs.reverse()
    return pairs


def _angle_between_ref(u, v) -> float:
    # atan2 form stays exact for parallel vectors where acos of a
    # rounded dot product would not.
    if (u[0] == 0.0 and u[1] == 0.0) or (v[0] == 0.0 and v[1] == 0.0):
        return 0.0
    dot = u[0] * v[0] + u[1] * v[1]
    cross = u[0] * v[1] - u[1] * v[0]
    return math.atan2(abs(cross), dot)


def multimatch_ref(pred: Scanpath, gt: Scanpath) -> MultiMatchScores:
    """Geometric scanpath similarity on aligned saccade pairs.

    Both paths need at least two fixations. Saccade vectors are
    aligned by minimum-cost monotone matching; per pair the shape
    (vector difference), length (amplitude difference) and position
    (distance between the aligned saccades' start fixations) are
    normalized by twice the frame diagonal, direction by pi, averaged,
    and reported as 1 - dissimilarity."""
    if pred.frame != gt.frame:
        raise ValidationError(f"scanpath frames differ: {pred.frame} vs {gt.frame}")
    if len(pred) < 2 or len(gt) < 2:
        raise ValidationError("MultiMatch needs at least two fixations per path")
    w, h = pred.frame
    diag2 = 2.0 * math.hypot(w, h)
    u = np.diff(pred.fixations, axis=0)
    v = np.diff(gt.fixations, axis=0)
    pairs = align_vectors_ref(u, v)

    d_shape = d_len = d_dir = d_pos = 0.0
    for i, j in pairs:
        d_shape += math.hypot(*(u[i] - v[j])) / diag2
        d_len += abs(math.hypot(*u[i]) - math.hypot(*v[j])) / diag2
        d_dir += _angle_between_ref(u[i], v[j]) / math.pi
        d_pos += math.hypot(*(pred.fixations[i] - gt.fixations[j])) / diag2
    k = len(pairs)
    return MultiMatchScores(
        shape=1.0 - d_shape / k,
        length=1.0 - d_len / k,
        direction=1.0 - d_dir / k,
        position=1.0 - d_pos / k,
    )
