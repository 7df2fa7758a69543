"""Prompt-conditioned multimodal model with three behavior heads.

A small vision-transformer encoder fuses image patches with embedded
prompt tokens; a causal cross-attending decoder emits scanpath token
strings; convolutional heads read the encoded image tokens back out
as a full-resolution heatmap or a scalar rating. Everything runs on
the float64 autodiff engine, so runs are deterministic and every
gradient is finite-difference checkable.

Conventions: image tokens come first in the fused sequence and the
heads read only those positions; the decoder attends to the whole
fused sequence. Attention masks are additive with -1e30, never -inf,
which ``Tensor(...)`` rejects (op outputs are checked at boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codec import (
    BINS,
    END_SENTINEL,
    SEPARATOR,
    START_SENTINEL,
    decode_robust,
    encode_target,
    quantize,
)
from .data import read_key_values, reads_file, write_key_values
from .errors import ParseError, ValidationError
from .types import (
    INPUT_TYPES,
    OUTPUT_TYPES,
    GrayMap,
    ImageGrid,
    PromptSpec,
    RatingSample,
    TokenString,
    render_prompt,
)

MASK_VALUE = -1e30

# Decoder vocabulary: bin tokens "0".."999" at their own ids, then the
# separator, the two sentinels, and a start-of-sequence token that only
# ever appears as the first decoder input.
SEP_ID = BINS
START_ID = BINS + 1
END_ID = BINS + 2
BOS_ID = BINS + 3
VOCAB_SIZE = BINS + 4

DECODER_VOCAB = tuple(str(i) for i in range(BINS)) + (
    SEPARATOR, START_SENTINEL, END_SENTINEL, "<s>")

_TOKEN_TO_ID = {tok: i for i, tok in enumerate(DECODER_VOCAB)}


def token_id(token: str) -> int:
    try:
        return _TOKEN_TO_ID[token]
    except KeyError:
        raise ValidationError(f"token outside vocabulary: {token!r}")


def id_token(i: int) -> str:
    if not (0 <= i < VOCAB_SIZE):
        raise ValidationError(f"token id outside vocabulary: {i}")
    return DECODER_VOCAB[i]


def target_token_ids(target: TokenString) -> np.ndarray:
    return np.array([token_id(t) for t in target.tokens], dtype=np.int64)


def _prompt_vocabulary() -> tuple:
    words = ["<pad>", "INPUT_TYPE:", "OUTPUT_TYPE:"]
    for phrase in INPUT_TYPES + OUTPUT_TYPES:
        for w in phrase.split():
            if w not in words:
                words.append(w)
    words.append("QUERY:brightest")
    return tuple(words)


DEFAULT_PROMPT_VOCAB = _prompt_vocabulary()
_PROMPT_WORD_TO_ID = {w: i for i, w in enumerate(DEFAULT_PROMPT_VOCAB)}
PROMPT_PAD_ID = 0
MAX_PROMPT_TOKENS = 8


def tokenize_prompt(prompt) -> list:
    """Whitespace-split a prompt (PromptSpec or rendered string) into
    vocabulary ids. Unknown words are an error, not an UNK bucket: the
    prompt side of the model is closed-world."""
    text = render_prompt(prompt) if isinstance(prompt, PromptSpec) else str(prompt)
    ids = []
    for word in text.split():
        if word not in _PROMPT_WORD_TO_ID:
            raise ValidationError(f"unknown prompt token: {word!r}")
        ids.append(_PROMPT_WORD_TO_ID[word])
    if not ids:
        raise ValidationError("empty prompt")
    if len(ids) > MAX_PROMPT_TOKENS:
        raise ValidationError(f"prompt has {len(ids)} tokens, limit {MAX_PROMPT_TOKENS}")
    return ids


_CONFIG_INT_FIELDS = ("image_size", "patch_size", "embed_dim", "encoder_layers",
                      "decoder_layers", "heads", "max_output_tokens")


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale hyperparameters. Loss weights order is
    (sequence, heatmap, score)."""

    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    encoder_layers: int = 2
    decoder_layers: int = 2
    heads: int = 4
    max_output_tokens: int = 64
    loss_weights: tuple = (1.0, 500.0, 50.0)

    def __post_init__(self):
        for name in _CONFIG_INT_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if self.image_size % self.patch_size:
            raise ValidationError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        p = self.patch_size
        if p & (p - 1):
            raise ValidationError(f"patch_size must be a power of two, got {p}")
        if self.embed_dim % self.heads:
            raise ValidationError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.embed_dim < 16 or self.embed_dim % 8:
            raise ValidationError("embed_dim must be a multiple of 8, at least 16")
        if self.grid_size < 5:
            raise ValidationError(
                "image_size / patch_size must be at least 5 (rating head shrinks the grid by 4)")
        if self.max_output_tokens < 4:
            raise ValidationError("max_output_tokens must be at least 4")
        w = tuple(float(x) for x in self.loss_weights)
        if len(w) != 3 or any(x <= 0 or not np.isfinite(x) for x in w):
            raise ValidationError(f"loss_weights must be 3 positive reals, got {self.loss_weights!r}")
        object.__setattr__(self, "loss_weights", w)

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_size ** 2

    @property
    def n_upsample(self) -> int:
        return self.patch_size.bit_length() - 1


def write_config(path, cfg: ModelConfig) -> None:
    """Plain-text `key = value` lines, one per field."""
    write_key_values(path, [(name, getattr(cfg, name)) for name in _CONFIG_INT_FIELDS]
                     + [("loss_weights", ",".join(repr(w) for w in cfg.loss_weights))])


@reads_file
def read_config(path) -> ModelConfig:
    """Parse `key = value` lines; unset keys keep their defaults, blank
    lines and #-comments are skipped."""
    fields = {}
    for key, value, lineno in read_key_values(path, _CONFIG_INT_FIELDS + ("loss_weights",),
                                              "config"):
        if key == "loss_weights":
            try:
                fields[key] = tuple(float(v) for v in value.split(","))
            except ValueError:
                raise ParseError(f"loss_weights needs comma-separated reals, got {value!r}",
                                 line=lineno)
        else:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ParseError(f"{key} needs an integer, got {value!r}", line=lineno)
    return ModelConfig(**fields)


# ---------------------------------------------------------------------------
# parameters

def param_shapes(cfg: ModelConfig) -> dict:
    """Names and shapes of every parameter tensor, in a stable order
    (the checkpoint record order)."""
    d = cfg.embed_dim
    ff = 4 * d
    patch_dim = cfg.patch_size * cfg.patch_size * 3
    shapes: dict[str, tuple] = {}

    def ln(prefix):
        shapes[f"{prefix}.g"] = (d,)
        shapes[f"{prefix}.b"] = (d,)

    def attn(prefix):
        for m in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{m}"] = (d, d)

    def ffn(prefix):
        shapes[f"{prefix}.w1"] = (d, ff)
        shapes[f"{prefix}.b1"] = (ff,)
        shapes[f"{prefix}.w2"] = (ff, d)
        shapes[f"{prefix}.b2"] = (d,)

    shapes["patch_proj.w"] = (patch_dim, d)
    shapes["patch_proj.b"] = (d,)
    shapes["pos_img"] = (cfg.n_patches, d)
    shapes["prompt_embed"] = (len(DEFAULT_PROMPT_VOCAB), d)
    shapes["pos_prompt"] = (MAX_PROMPT_TOKENS, d)
    for i in range(cfg.encoder_layers):
        ln(f"enc{i}.ln1");  attn(f"enc{i}.attn")
        ln(f"enc{i}.ln2");  ffn(f"enc{i}.ffn")
    ln("enc_ln")

    shapes["dec_embed"] = (VOCAB_SIZE, d)
    shapes["pos_dec"] = (cfg.max_output_tokens, d)
    for i in range(cfg.decoder_layers):
        ln(f"dec{i}.ln1");  attn(f"dec{i}.self")
        ln(f"dec{i}.ln2");  attn(f"dec{i}.cross")
        ln(f"dec{i}.ln3");  ffn(f"dec{i}.ffn")
    ln("dec_ln")
    shapes["out.w"] = (d, VOCAB_SIZE)
    shapes["out.b"] = (VOCAB_SIZE,)

    # heatmap head: two read-in convs at grid resolution, stride-2
    # transposed convs back to pixel resolution, two read-out convs
    c = d // 2
    shapes["heat.conv1.w"] = (3, 3, d, c)
    shapes["heat.conv1.b"] = (c,)
    shapes["heat.hln1.g"] = (c,)
    shapes["heat.hln1.b"] = (c,)
    shapes["heat.conv2.w"] = (3, 3, c, c)
    shapes["heat.conv2.b"] = (c,)
    shapes["heat.hln2.g"] = (c,)
    shapes["heat.hln2.b"] = (c,)
    for k in range(cfg.n_upsample):
        c_next = max(c // 2, 8)
        shapes[f"heat.deconv{k}.w"] = (4, 4, c_next, c)
        shapes[f"heat.deconv{k}.b"] = (c_next,)
        shapes[f"heat.dln{k}.g"] = (c_next,)
        shapes[f"heat.dln{k}.b"] = (c_next,)
        c = c_next
    shapes["heat.read1.w"] = (3, 3, c, 8)
    shapes["heat.read1.b"] = (8,)
    shapes["heat.read2.w"] = (3, 3, 8, 1)
    shapes["heat.read2.b"] = (1,)

    # rating head: four 2x2 valid convs, then three dense layers.
    # no normalization inside: the score rides on token magnitude
    # statistics that layer norm would erase.
    rc = [d, 32, 16, 8, 8]
    for k in range(4):
        shapes[f"rate.conv{k}.w"] = (2, 2, rc[k], rc[k + 1])
        shapes[f"rate.conv{k}.b"] = (rc[k + 1],)
    side = cfg.grid_size - 4
    flat = side * side * 8
    shapes["rate.fc1.w"] = (flat, 64)
    shapes["rate.fc1.b"] = (64,)
    shapes["rate.fc2.w"] = (64, 32)
    shapes["rate.fc2.b"] = (32,)
    shapes["rate.fc3.w"] = (32, 1)
    shapes["rate.fc3.b"] = (1,)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict:
    """Seeded initialization: unit layer-norm gains, zero biases,
    fan-in-scaled normals for weights, 0.02 normals for embeddings."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    embeds = {"pos_img", "prompt_embed", "pos_prompt", "dec_embed", "pos_dec"}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".g"):
            data = np.ones(shape)
        elif len(shape) == 1:
            # biases of every flavor start at zero
            data = np.zeros(shape)
        elif name in embeds:
            data = 0.02 * rng.standard_normal(shape)
        elif len(shape) == 2:
            data = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:
            kh, kw = shape[0], shape[1]
            cin = shape[3] if name.startswith("heat.deconv") else shape[2]
            data = rng.standard_normal(shape) / np.sqrt(kh * kw * cin)
        params[name] = Tensor(data, requires_grad=True)
    return params


@reads_file
def load_params(path, cfg: ModelConfig) -> dict:
    """Read a checkpoint and validate it against the config's
    parameter inventory; a mismatch is a ParseError naming the file."""
    arrays = ad.load_checkpoint(path)
    shapes = param_shapes(cfg)
    if set(arrays) != set(shapes):
        missing = sorted(set(shapes) - set(arrays))
        extra = sorted(set(arrays) - set(shapes))
        raise ParseError(f"tensors do not match the config "
                         f"(missing {missing[:3]}, unexpected {extra[:3]})")
    params = {}
    for name in shapes:
        if arrays[name].shape != shapes[name]:
            raise ParseError(f"tensor {name} has shape {arrays[name].shape}, "
                             f"but the config expects {shapes[name]}")
        params[name] = Tensor(arrays[name], requires_grad=True)
    return params


def save_params(path, params: dict) -> None:
    ad.save_checkpoint(path, params)


# ---------------------------------------------------------------------------
# building blocks

def _ln(x, params, prefix):
    return ad.add(ad.mul(ad.layer_norm(x), params[f"{prefix}.g"]), params[f"{prefix}.b"])


def _ffn(x, params, prefix):
    h = ad.relu(ad.add(ad.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return ad.add(ad.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _split_heads(x, heads):
    b, t, d = x.shape
    hd = d // heads
    return ad.permute(ad.reshape(x, (b, t, heads, hd)), (0, 2, 1, 3))


def _merge_heads(x):
    b, h, t, hd = x.shape
    return ad.reshape(ad.permute(x, (0, 2, 1, 3)), (b, t, h * hd))


def _keys_values(kv_in, params, prefix, heads) -> tuple:
    """Per-head keys, already transposed for the score product, and
    values: (B, heads, hd, T) and (B, heads, T, hd)."""
    b, t, d = kv_in.shape
    k = ad.reshape(ad.matmul(kv_in, params[f"{prefix}.wk"]), (b, t, heads, d // heads))
    return (ad.permute(k, (0, 2, 3, 1)),
            _split_heads(ad.matmul(kv_in, params[f"{prefix}.wv"]), heads))


def _attention(q_in, kv_in, params, prefix, heads, mask=None, cache=None, grow=False):
    """Multi-head scaled dot-product attention. ``mask`` is an additive
    numpy array broadcastable to (B, heads, Tq, Tk), or None.

    With a ``cache`` dict, the keys and values are kept under ``prefix``.
    A growing (self-attention) cache appends those of ``kv_in`` to the
    cached ones; any other cache computes them from its first ``kv_in``
    and reuses them on later calls."""
    q = _split_heads(ad.matmul(q_in, params[f"{prefix}.wq"]), heads)
    if cache is not None and prefix in cache and not grow:
        k_t, v = cache[prefix]
    else:
        k_t, v = _keys_values(kv_in, params, prefix, heads)
        if cache is not None:
            if prefix in cache:
                old_k, old_v = cache[prefix]
                k_t, v = ad.concat([old_k, k_t], axis=3), ad.concat([old_v, v], axis=2)
            cache[prefix] = (k_t, v)
    hd = q.shape[-1]
    scores = ad.scale(ad.matmul(q, k_t), 1.0 / np.sqrt(hd))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask))
    att = ad.softmax(scores, axis=-1)
    return ad.matmul(_merge_heads(ad.matmul(att, v)), params[f"{prefix}.wo"])


def _causal_mask(length: int, start: int = 0):
    """Additive mask for ``length`` queries at positions start, start+1,
    ... over the keys of positions 0 .. start+length-1. None for a single
    query, which may see every key."""
    if length == 1:
        return None
    m = np.triu(np.full((length, start + length), MASK_VALUE), k=start + 1)
    return m[None, None]


def pad_image(image: ImageGrid, size: int) -> np.ndarray:
    """Place the image at the top-left of a zero (size, size, 3) canvas.
    Images larger than the canvas are an error, not a resize."""
    if image.width > size or image.height > size:
        raise ValidationError(
            f"image {image.width}x{image.height} exceeds the model resolution {size}")
    out = np.zeros((size, size, 3))
    out[:image.height, :image.width] = image.pixels
    return out


def _prompt_batch(prompts, cfg) -> tuple:
    """Tokenize and right-pad prompts; returns (ids (B, P), additive
    key mask (B, 1, 1, P))."""
    token_lists = [tokenize_prompt(p) for p in prompts]
    p_max = max(len(t) for t in token_lists)
    ids = np.full((len(prompts), p_max), PROMPT_PAD_ID, dtype=np.int64)
    mask = np.full((len(prompts), 1, 1, p_max), MASK_VALUE)
    for i, toks in enumerate(token_lists):
        ids[i, :len(toks)] = toks
        mask[i, 0, 0, :len(toks)] = 0.0
    return ids, mask


def _encode_batch(images: np.ndarray, prompt_ids: np.ndarray,
                  prompt_mask: np.ndarray, params, cfg) -> tuple:
    """Encoder over a batch: patchify + project + positions, embed the
    prompt, concatenate, run pre-norm transformer layers. Returns the
    fused sequence (B, n_patches + P, D) and the additive key mask
    (B, 1, 1, n_patches + P) for downstream cross-attention."""
    b = images.shape[0]
    g, p = cfg.grid_size, cfg.patch_size
    x = Tensor(images)
    x = ad.reshape(x, (b, g, p, g, p, 3))
    x = ad.permute(x, (0, 1, 3, 2, 4, 5))
    patches = ad.reshape(x, (b, g * g, p * p * 3))
    tok_img = ad.add(ad.add(ad.matmul(patches, params["patch_proj.w"]),
                            params["patch_proj.b"]),
                     params["pos_img"])

    p_len = prompt_ids.shape[1]
    tok_prompt = ad.add(ad.embedding(params["prompt_embed"], prompt_ids),
                        ad.narrow(params["pos_prompt"], 0, 0, p_len))

    seq = ad.concat([tok_img, tok_prompt], axis=1)
    key_mask = np.concatenate(
        [np.zeros((b, 1, 1, cfg.n_patches)), prompt_mask], axis=3)

    for i in range(cfg.encoder_layers):
        h = _ln(seq, params, f"enc{i}.ln1")
        seq = ad.add(seq, _attention(h, h, params, f"enc{i}.attn", cfg.heads, mask=key_mask))
        seq = ad.add(seq, _ffn(_ln(seq, params, f"enc{i}.ln2"), params, f"enc{i}.ffn"))
    return _ln(seq, params, "enc_ln"), key_mask


def encode_inputs(image: ImageGrid, prompt: PromptSpec, params, cfg: ModelConfig) -> Tensor:
    """Single-sample inference encoder: pads the image onto the model
    canvas, tokenizes the prompt and runs _encode_batch without a graph.
    Returns the fused (1, n_patches + P, D) sequence, which the
    predict_* functions, next_token_logits and scanpath_generate take
    as is."""
    images = pad_image(image, cfg.image_size)[None]
    prompt_ids, prompt_mask = _prompt_batch([prompt], cfg)
    return _inference(lambda: _encode_batch(images, prompt_ids, prompt_mask, params, cfg)[0],
                      "the encoder")


def _inference(forward, what: str) -> Tensor:
    """Run ``forward`` without a graph; check its output (ad.check_finite)."""
    with ad.no_grad():
        out = forward()
        ad.check_finite(out.data, what, forward)
    return out


# ---------------------------------------------------------------------------
# heads

def _image_tokens(fused, cfg):
    return ad.narrow(fused, 1, 0, cfg.n_patches)


def _heatmap_batch(img_tokens, params, cfg) -> Tensor:
    """(B, n_patches, D) image tokens -> (B, S, S) unit-range maps."""
    b = img_tokens.shape[0]
    g = cfg.grid_size
    x = ad.reshape(img_tokens, (b, g, g, cfg.embed_dim))
    x = ad.add(ad.conv2d(x, params["heat.conv1.w"], stride=1, pad=1), params["heat.conv1.b"])
    x = ad.relu(_ln(x, params, "heat.hln1"))
    x = ad.add(ad.conv2d(x, params["heat.conv2.w"], stride=1, pad=1), params["heat.conv2.b"])
    x = ad.relu(_ln(x, params, "heat.hln2"))
    for k in range(cfg.n_upsample):
        x = ad.add(ad.conv2d_transpose(x, params[f"heat.deconv{k}.w"], stride=2, pad=1),
                   params[f"heat.deconv{k}.b"])
        x = ad.relu(_ln(x, params, f"heat.dln{k}"))
    x = ad.relu(ad.add(ad.conv2d(x, params["heat.read1.w"], stride=1, pad=1),
                       params["heat.read1.b"]))
    x = ad.add(ad.conv2d(x, params["heat.read2.w"], stride=1, pad=1), params["heat.read2.b"])
    s = cfg.image_size
    return ad.reshape(ad.sigmoid(x), (b, s, s))


def _rating_batch(img_tokens, params, cfg) -> Tensor:
    """(B, n_patches, D) image tokens -> (B,) scores in (0, 1)."""
    b = img_tokens.shape[0]
    g = cfg.grid_size
    x = ad.reshape(img_tokens, (b, g, g, cfg.embed_dim))
    for k in range(4):
        x = ad.add(ad.conv2d(x, params[f"rate.conv{k}.w"], stride=1, pad=0),
                   params[f"rate.conv{k}.b"])
        x = ad.relu(x)
    side = g - 4
    x = ad.reshape(x, (b, side * side * 8))
    x = ad.relu(ad.add(ad.matmul(x, params["rate.fc1.w"]), params["rate.fc1.b"]))
    x = ad.relu(ad.add(ad.matmul(x, params["rate.fc2.w"]), params["rate.fc2.b"]))
    x = ad.sigmoid(ad.add(ad.matmul(x, params["rate.fc3.w"]), params["rate.fc3.b"]))
    return ad.reshape(x, (b,))


# ---------------------------------------------------------------------------
# decoder

def _decode_batch(enc_out, enc_mask, dec_ids: np.ndarray, params, cfg, cache=None) -> Tensor:
    """Decoder logits (B, L, vocab) under a causal mask. ``enc_mask`` is
    the additive key mask over ``enc_out``, or None.

    Without a cache (teacher forcing), ``dec_ids`` start with BOS;
    padding (any id) past a sample's length is harmless as long as the
    caller zero-weights those positions. With a ``cache`` dict (one per
    decoded sequence and encoder output, empty at first), ``dec_ids`` are
    only the positions the cache has not seen yet: they attend to the
    cached self-attention keys and values, which grow by these positions,
    and cross-attention keys and values over ``enc_out`` are computed on
    the first call only."""
    b, length = dec_ids.shape
    start = cache.get("length", 0) if cache is not None else 0
    if start + length > cfg.max_output_tokens:
        raise ValidationError(
            f"decoder input length {start + length} exceeds max_output_tokens "
            f"{cfg.max_output_tokens}")
    y = ad.add(ad.embedding(params["dec_embed"], dec_ids),
               ad.narrow(params["pos_dec"], 0, start, length))
    causal = _causal_mask(length, start)
    for i in range(cfg.decoder_layers):
        h = _ln(y, params, f"dec{i}.ln1")
        y = ad.add(y, _attention(h, h, params, f"dec{i}.self", cfg.heads, mask=causal,
                                 cache=cache, grow=True))
        ca = _attention(_ln(y, params, f"dec{i}.ln2"), enc_out,
                        params, f"dec{i}.cross", cfg.heads, mask=enc_mask, cache=cache)
        y = ad.add(y, ca)
        y = ad.add(y, _ffn(_ln(y, params, f"dec{i}.ln3"), params, f"dec{i}.ffn"))
    if cache is not None:
        cache["length"] = start + length
    y = _ln(y, params, "dec_ln")
    return ad.add(ad.matmul(y, params["out.w"]), params["out.b"])


def next_token_logits(fused, params, cfg: ModelConfig, prefix_ids=(BOS_ID,),
                      cache=None) -> np.ndarray:
    """Logits over the vocabulary for the next position after
    ``prefix_ids``, given encode_inputs' (1, T, D) output. Inference-only.
    Without a cache, ``prefix_ids`` is the whole prefix and must start
    with BOS; it is recomputed in full. With a ``cache`` dict (see
    _decode_batch), ``prefix_ids`` are the positions after those the
    cache has seen, BOS first on an empty one."""
    ids = np.asarray(list(prefix_ids), dtype=np.int64)
    with ad.no_grad():
        # one unpadded sequence: every encoder position is a key
        logits = _decode_batch(fused, None, ids[None], params, cfg, cache=cache)
    return logits.data[0, -1].copy()


def scanpath_generate(fused, params, cfg: ModelConfig, max_tokens=None) -> str:
    """Greedy decode of encode_inputs' (1, T, D) output, starting from
    BOS; stops after emitting the end sentinel or max_tokens tokens. The
    raw string may be malformed, downstream decoding is fault-tolerant.
    Each step decodes only the newest token, against a key/value cache
    of the earlier ones."""
    if max_tokens is None:
        max_tokens = cfg.max_output_tokens
    if not (1 <= max_tokens <= cfg.max_output_tokens):
        raise ValidationError(
            f"max_tokens must lie in [1, {cfg.max_output_tokens}], got {max_tokens}")
    cache: dict = {}
    out = [BOS_ID]
    for _ in range(max_tokens):
        logits = next_token_logits(fused, params, cfg, out[-1:], cache=cache)
        ad.check_finite(logits, "the decoder",
                        lambda: next_token_logits(fused, params, cfg, out, cache={}))
        out.append(int(np.argmax(logits)))
        if out[-1] == END_ID:
            break
    return " ".join(id_token(i) for i in out[1:])


# ---------------------------------------------------------------------------
# losses and training

def _batch_loss(batch, params, cfg: ModelConfig):
    """Mean of a (B,) vector of per-sample losses, each scaled by its
    kind's loss weight. Each kind (scanpath, heatmap, score) runs as one
    batch: token cross-entropy averaged over the sample's own tokens,
    pixel-wise l2 averaged over its image's unpadded region, or the
    squared score error."""
    if not batch:
        raise ValidationError("empty batch")
    order = {"scanpath": 0, "heatmap": 1, "score": 2}
    samples = sorted(batch, key=lambda s: order[s.kind])
    kinds = [s.kind for s in samples]
    n_seq, n_heat = kinds.count("scanpath"), kinds.count("heatmap")
    w_seq, w_heat, w_score = cfg.loss_weights

    images = np.stack([pad_image(s.image, cfg.image_size) for s in samples])
    prompt_ids, prompt_mask = _prompt_batch([s.prompt for s in samples], cfg)
    fused, key_mask = _encode_batch(images, prompt_ids, prompt_mask, params, cfg)

    per_sample = []
    if n_seq:
        targets = [target_token_ids(encode_target(quantize(s.target)))
                   for s in samples[:n_seq]]
        lmax = max(t.size for t in targets)
        if lmax > cfg.max_output_tokens:
            raise ValidationError(
                f"scanpath target needs {lmax} tokens, limit {cfg.max_output_tokens}")
        dec_in = np.zeros((n_seq, lmax), dtype=np.int64)
        labels = np.zeros((n_seq, lmax), dtype=np.int64)
        weight = np.zeros((n_seq, lmax))
        for i, ids in enumerate(targets):
            dec_in[i, 0] = BOS_ID
            dec_in[i, 1:ids.size] = ids[:-1]
            labels[i, :ids.size] = ids
            weight[i, :ids.size] = 1.0 / ids.size
        logits = _decode_batch(ad.narrow(fused, 0, 0, n_seq), key_mask[:n_seq], dec_in,
                               params, cfg)
        ce = ad.cross_entropy_with_logits(logits, labels)
        per_sample.append(ad.scale(ad.tsum(ad.mul(ce, Tensor(weight)), axis=1), w_seq))

    i0 = n_seq
    if n_heat:
        preds = _heatmap_batch(_image_tokens(ad.narrow(fused, 0, i0, n_heat), cfg), params, cfg)
        gt = np.zeros(preds.shape)
        weight = np.zeros(preds.shape)
        for i, sample in enumerate(samples[i0:i0 + n_heat]):
            h, w = sample.target.height, sample.target.width
            gt[i, :h, :w] = sample.target.values
            weight[i, :h, :w] = 1.0 / (h * w)
        err = ad.mul(ad.squared_error(preds, Tensor(gt)), Tensor(weight))
        per_sample.append(ad.scale(ad.tsum(err, axis=(1, 2)), w_heat))

    i0 += n_heat
    n_score = len(samples) - i0
    if n_score:
        preds = _rating_batch(_image_tokens(ad.narrow(fused, 0, i0, n_score), cfg), params, cfg)
        obs = np.array([sample.target.score for sample in samples[i0:]])
        per_sample.append(ad.scale(ad.squared_error(preds, Tensor(obs)), w_score))

    return ad.mean(ad.concat(per_sample))


def train_step(batch, params, opt_state, cfg: ModelConfig, lr: float = 1e-3):
    """One optimization step over a list of Samples. Returns
    (params, opt_state, loss) with the loss as a plain float."""
    ad.zero_grads(params)
    loss = _batch_loss(batch, params, cfg)
    ad.check_finite(loss.data, "the training loss", lambda: _batch_loss(batch, params, cfg))
    ad.backward(loss)
    grads = {k: p.grad for k, p in params.items() if p.grad is not None}
    params, opt_state = ad.adam_step(params, grads, opt_state, lr=lr)
    return params, opt_state, float(loss.data.reshape(()))


def run_training(params, cfg: ModelConfig, next_sample, steps: int,
                 batch_size: int = 8, lr: float = 1e-3, gen_every: int = 5,
                 opt_state=None):
    """Drive train_step for ``steps`` batches drawn from the
    ``next_sample`` callable. Every ``gen_every`` steps the most recent
    scanpath-kind sample is re-encoded and greedily decoded, and the
    decode validity is logged (the valid-rate signal).

    Returns (params, opt_state, rows) where rows are
    (step, loss, valid) tuples; valid is None on non-generation steps.
    """
    if steps < 1 or batch_size < 1 or gen_every < 1:
        raise ValidationError("steps, batch_size and gen_every must be positive")
    if opt_state is None:
        opt_state = ad.adam_init(params)
    rows = []
    probe = None
    for step in range(1, steps + 1):
        batch = [next_sample() for _ in range(batch_size)]
        for s in batch:
            if s.kind == "scanpath":
                probe = s
        params, opt_state, loss = train_step(batch, params, opt_state, cfg, lr=lr)
        valid = None
        if step % gen_every == 0 and probe is not None:
            raw = predict_scanpath(probe.image, probe.prompt, params, cfg)[0]
            result = decode_robust(raw, (probe.image.width, probe.image.height))
            valid = int(result.valid)
        rows.append((step, loss, valid))
    return params, opt_state, rows


# ---------------------------------------------------------------------------
# inference

def predict_heatmap(image: ImageGrid, prompt: PromptSpec, params, cfg: ModelConfig) -> GrayMap:
    """Unit-range map cropped to the image's own dimensions."""
    if prompt.kind != "heatmap":
        raise ValidationError(f"prompt output type {prompt.output_type!r} is not a heatmap task")
    fused = encode_inputs(image, prompt, params, cfg)
    full = _inference(lambda: _heatmap_batch(_image_tokens(fused, cfg), params, cfg),
                      "the heatmap head")
    values = full.data[0, :image.height, :image.width]
    return GrayMap(image.width, image.height, values, kind="unit-range")


def predict_rating(image: ImageGrid, prompt: PromptSpec, params, cfg: ModelConfig) -> RatingSample:
    if prompt.kind != "score":
        raise ValidationError(f"prompt output type {prompt.output_type!r} is not a rating task")
    fused = encode_inputs(image, prompt, params, cfg)
    out = _inference(lambda: _rating_batch(_image_tokens(fused, cfg), params, cfg),
                     "the rating head")
    return RatingSample(float(out.data[0]))


def predict_scanpath(image: ImageGrid, prompt: PromptSpec, params, cfg: ModelConfig,
                     max_tokens=None):
    """Returns (raw_string, DecodeResult) decoded against the image's
    own frame."""
    if prompt.kind != "scanpath":
        raise ValidationError(f"prompt output type {prompt.output_type!r} is not a scanpath task")
    fused = encode_inputs(image, prompt, params, cfg)
    raw = scanpath_generate(fused, params, cfg, max_tokens=max_tokens)
    return raw, decode_robust(raw, (image.width, image.height))
