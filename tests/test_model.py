import dataclasses

import numpy as np
import pytest

from uniar import autodiff as ad
from uniar import model as M
from uniar.codec import decode_robust, encode_target, quantize
from uniar.errors import NumericError, ParseError, ValidationError
from uniar.types import GrayMap, ImageGrid, PromptSpec, RatingSample, Sample, Scanpath

from oracles import grad_check

CFG = M.ModelConfig()
# small config for gradient sweeps: 20px image, 4px patches, 16-dim embed
SMALL = M.ModelConfig(image_size=20, patch_size=4, embed_dim=16,
                      encoder_layers=1, decoder_layers=1, heads=2,
                      max_output_tokens=16)


def rand_image(rng, size):
    return ImageGrid(size, size, rng.uniform(0.0, 1.0, size=(size, size, 3)))


def heat_prompt(q=None):
    return PromptSpec("natural image", "saliency heatmap", q)


def path_prompt(q=None):
    return PromptSpec("natural image", "scanpath", q)


def score_prompt():
    return PromptSpec("natural image", "aesthetics score")


def zeroed(params):
    for p in params.values():
        p.data[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# vocabulary and prompt tokenization


def test_decoder_vocab_layout():
    assert M.VOCAB_SIZE == 1004
    assert M.token_id("0") == 0
    assert M.token_id("999") == 999
    assert M.token_id("and") == M.SEP_ID == 1000
    assert M.token_id("<extra_id_01>") == M.START_ID == 1001
    assert M.token_id("<extra_id_02>") == M.END_ID == 1002
    assert M.id_token(M.BOS_ID) == "<s>"
    with pytest.raises(ValidationError):
        M.token_id("007")  # non-canonical digits are out of vocabulary
    with pytest.raises(ValidationError):
        M.token_id("1000")
    with pytest.raises(ValidationError):
        M.id_token(1004)


def test_target_token_ids_round_trip():
    ts = encode_target(quantize(Scanpath(frame=(640, 480), fixations=[[320, 240], [10, 20]])))
    ids = M.target_token_ids(ts)
    assert ids[0] == M.START_ID and ids[-1] == M.END_ID
    assert [M.id_token(i) for i in ids] == list(ts.tokens)


def test_prompt_tokenizer_known_words():
    ids = M.tokenize_prompt(heat_prompt())
    assert len(ids) == 6  # INPUT_TYPE: natural image OUTPUT_TYPE: saliency heatmap
    assert M.tokenize_prompt(path_prompt("brightest")) == M.tokenize_prompt(
        "INPUT_TYPE: natural image OUTPUT_TYPE: scanpath QUERY:brightest")
    with pytest.raises(ValidationError):
        M.tokenize_prompt("INPUT_TYPE: cartoon OUTPUT_TYPE: scanpath")
    with pytest.raises(ValidationError):
        M.tokenize_prompt("")


def test_prompt_vocab_covers_every_prompt():
    for it in ("natural image", "webpage", "graphic design", "mobile user interface"):
        for ot in ("saliency heatmap", "importance heatmap", "scanpath", "aesthetics score"):
            M.tokenize_prompt(PromptSpec(it, ot))
    M.tokenize_prompt(PromptSpec("natural image", "scanpath", "brightest"))


# ---------------------------------------------------------------------------
# config


def test_config_defaults_and_derived():
    assert CFG.grid_size == 8 and CFG.n_patches == 64 and CFG.n_upsample == 3
    assert CFG.loss_weights == (1.0, 500.0, 50.0)
    assert len(M.DECODER_VOCAB) == M.VOCAB_SIZE


@pytest.mark.parametrize("kw", [
    {"image_size": 60},             # not divisible by patch
    {"patch_size": 6},              # not a power of two
    {"embed_dim": 60},              # not divisible by heads=4... also not by 8
    {"embed_dim": 12},              # below minimum
    {"heads": 5},
    {"image_size": 32},             # grid 4 < 5
    {"loss_weights": (1.0, -2.0, 3.0)},
    {"loss_weights": (1.0, 2.0)},
    {"encoder_layers": 0},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValidationError):
        M.ModelConfig(**kw)


def test_config_file_round_trip(tmp_path):
    cfg = M.ModelConfig(image_size=40, patch_size=8, embed_dim=32, heads=2,
                        encoder_layers=1, decoder_layers=1,
                        max_output_tokens=16, loss_weights=(2.0, 100.0, 10.0))
    path = tmp_path / "model.cfg"
    M.write_config(path, cfg)
    assert M.read_config(path) == cfg


def test_config_file_defaults_and_comments(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("# comment\n\nembed_dim = 32\n")
    cfg = M.read_config(path)
    assert cfg.embed_dim == 32 and cfg.image_size == 64


def test_config_file_errors_name_the_line(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("embed_dim = 32\nwat = 7\n")
    with pytest.raises(ParseError) as e:
        M.read_config(path)
    assert "line 2" in str(e.value)
    path.write_text("embed_dim = many\n")
    with pytest.raises(ParseError) as e:
        M.read_config(path)
    assert "line 1" in str(e.value)


# ---------------------------------------------------------------------------
# encoder


def encode_ids(image, ids, params, cfg):
    """_encode_batch over one image and raw prompt ids, every key visible."""
    ids = np.asarray(ids, dtype=np.int64)[None]
    fused, _ = M._encode_batch(image.pixels[None], ids, np.zeros((1, 1, 1, ids.shape[1])),
                               params, cfg)
    return fused


def test_fused_length_is_patches_plus_prompt():
    params = M.init_params(CFG, seed=0)
    img = rand_image(np.random.default_rng(0), 64)
    fused = M.encode_inputs(img, heat_prompt(), params, CFG)
    assert fused.shape == (1, 64 + 6, 64)
    assert np.all(np.isfinite(fused.data))


def test_zero_image_still_encodes():
    params = M.init_params(CFG, seed=1)
    img = ImageGrid(64, 64, np.zeros((64, 64, 3)))
    fused = M.encode_inputs(img, heat_prompt(), params, CFG)
    assert fused.shape == (1, 70, 64)


def test_prompt_token_order_matters():
    params = M.init_params(CFG, seed=2)
    img = rand_image(np.random.default_rng(3), 64)
    ids = M.tokenize_prompt(heat_prompt())
    swapped = list(ids)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    a = encode_ids(img, ids, params, CFG)
    b = encode_ids(img, swapped, params, CFG)
    assert np.abs(a.data - b.data).max() > 1e-9


def test_encode_rejects_wrong_size_and_bad_ids():
    params = M.init_params(CFG, seed=0)
    with pytest.raises(ValidationError):
        M.encode_inputs(rand_image(np.random.default_rng(0), 72), heat_prompt(), params, CFG)
    img = rand_image(np.random.default_rng(0), 64)
    with pytest.raises(ValidationError, match="embedding id outside table"):
        encode_ids(img, [0, len(M.DEFAULT_PROMPT_VOCAB)], params, CFG)


def test_encode_inputs_pads_smaller_images():
    params = M.init_params(CFG, seed=0)
    img = rand_image(np.random.default_rng(0), 40)
    canvas = ImageGrid(64, 64, M.pad_image(img, 64))
    ids = M.tokenize_prompt(heat_prompt())
    want = encode_ids(canvas, ids, params, CFG)
    assert np.array_equal(M.encode_inputs(img, heat_prompt(), params, CFG).data, want.data)


def test_pad_image_places_top_left():
    img = ImageGrid(3, 2, np.full((2, 3, 3), 0.5))
    padded = M.pad_image(img, 8)
    assert padded.shape == (8, 8, 3)
    assert np.all(padded[:2, :3] == 0.5)
    assert padded[2:].sum() == 0.0 and padded[:, 3:].sum() == 0.0
    with pytest.raises(ValidationError):
        M.pad_image(rand_image(np.random.default_rng(0), 16), 8)


# ---------------------------------------------------------------------------
# heads


def test_heatmap_head_dims_and_range():
    params = M.init_params(CFG, seed=4)
    img = rand_image(np.random.default_rng(5), 64)
    out = M.predict_heatmap(img, heat_prompt(), params, CFG)
    assert (out.width, out.height) == (64, 64)
    assert out.values.min() > 0.0 and out.values.max() < 1.0
    assert out.kind == "unit-range"


def test_heads_with_zero_weights_emit_half():
    params = zeroed(M.init_params(CFG, seed=0))
    img = rand_image(np.random.default_rng(1), 64)
    heat = M.predict_heatmap(img, heat_prompt(), params, CFG)
    assert np.all(heat.values == 0.5)
    rating = M.predict_rating(img, score_prompt(), params, CFG)
    assert rating.score == 0.5


def test_rating_bounded_for_random_weights():
    # bounds hold by construction even for inflated weights (float64
    # sigmoid may saturate to the closed endpoints)
    for seed in range(3):
        params = M.init_params(CFG, seed=seed)
        for p in params.values():
            p.data *= 3.0
        img = rand_image(np.random.default_rng(seed), 64)
        r = M.predict_rating(img, score_prompt(), params, CFG)
        assert 0.0 <= r.score <= 1.0


def test_predict_heatmap_crops_to_input_dims():
    params = M.init_params(CFG, seed=0)
    img = ImageGrid(40, 30, np.random.default_rng(2).uniform(size=(30, 40, 3)))
    out = M.predict_heatmap(img, heat_prompt(), params, CFG)
    assert (out.width, out.height) == (40, 30)


def test_predict_prompt_kind_checked():
    params = M.init_params(CFG, seed=0)
    img = rand_image(np.random.default_rng(0), 64)
    with pytest.raises(ValidationError):
        M.predict_heatmap(img, score_prompt(), params, CFG)
    with pytest.raises(ValidationError):
        M.predict_rating(img, path_prompt(), params, CFG)
    with pytest.raises(ValidationError):
        M.predict_scanpath(img, heat_prompt(), params, CFG)


# ---------------------------------------------------------------------------
# decoder: teacher-forced loss of a one-sample scanpath batch


def test_uniform_logits_loss_is_log_vocab():
    params = zeroed(M.init_params(CFG, seed=0))
    img = rand_image(np.random.default_rng(1), 64)
    target = Scanpath(frame=(64, 64), fixations=[[10, 10], [50, 40]])
    loss = M._batch_loss([Sample(img, path_prompt(), target)], params, CFG)
    assert abs(loss.item() - np.log(M.VOCAB_SIZE)) < 1e-12


def test_teacher_loss_rejects_bad_targets():
    params = M.init_params(CFG, seed=0)
    img = rand_image(np.random.default_rng(1), 64)
    # 3n + 1 tokens for n fixations: 21 fill the 64-token budget, 22 overflow it
    pts = np.linspace(1.0, 60.0, 44).reshape(22, 2)
    M._batch_loss([Sample(img, path_prompt(), Scanpath((64, 64), pts[:21]))], params, CFG)
    with pytest.raises(ValidationError, match="needs 67 tokens, limit 64"):
        M._batch_loss([Sample(img, path_prompt(), Scanpath((64, 64), pts))], params, CFG)


def test_teacher_loss_matches_numpy_replay():
    """Step-by-step reimplementation of the training forward pass on a
    one-sample scanpath batch with raw numpy, no engine, compared to
    1e-10."""
    cfg = SMALL
    params = M.init_params(cfg, seed=11)
    P = {k: t.data for k, t in params.items()}
    rng = np.random.default_rng(12)
    image = rng.uniform(size=(cfg.image_size, cfg.image_size, 3))
    prompt_ids = np.array(M.tokenize_prompt(path_prompt()), dtype=np.int64)
    path = Scanpath(frame=(20, 20), fixations=[[3, 4], [10, 15]])
    target_ids = M.target_token_ids(encode_target(quantize(path)))

    D, g, p, heads = cfg.embed_dim, cfg.grid_size, cfg.patch_size, cfg.heads

    def ln(x, pre):
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        v = (xc * xc).mean(-1, keepdims=True)
        return (xc / np.sqrt(v + 1e-5)) * P[pre + ".g"] + P[pre + ".b"]

    def attn(qx, kvx, pre, mask=None):
        q = qx @ P[pre + ".wq"]
        k = kvx @ P[pre + ".wk"]
        v = kvx @ P[pre + ".wv"]
        tq, tk, hd = q.shape[0], k.shape[0], D // heads
        q = q.reshape(tq, heads, hd).transpose(1, 0, 2)
        k = k.reshape(tk, heads, hd).transpose(1, 0, 2)
        v = v.reshape(tk, heads, hd).transpose(1, 0, 2)
        s = q @ k.transpose(0, 2, 1) / np.sqrt(hd)
        if mask is not None:
            s = s + mask
        s = s - s.max(-1, keepdims=True)
        a = np.exp(s)
        a = a / a.sum(-1, keepdims=True)
        o = (a @ v).transpose(1, 0, 2).reshape(tq, D)
        return o @ P[pre + ".wo"]

    def ffn(x, pre):
        h = np.maximum(x @ P[pre + ".w1"] + P[pre + ".b1"], 0.0)
        return h @ P[pre + ".w2"] + P[pre + ".b2"]

    patches = image.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4).reshape(g * g, p * p * 3)
    x = patches @ P["patch_proj.w"] + P["patch_proj.b"] + P["pos_img"]
    tp = P["prompt_embed"][prompt_ids] + P["pos_prompt"][:len(prompt_ids)]
    x = np.concatenate([x, tp], axis=0)
    for i in range(cfg.encoder_layers):
        h = ln(x, f"enc{i}.ln1")
        x = x + attn(h, h, f"enc{i}.attn")
        x = x + ffn(ln(x, f"enc{i}.ln2"), f"enc{i}.ffn")
    x = ln(x, "enc_ln")

    dec_in = np.concatenate([[M.BOS_ID], target_ids[:-1]])
    L = len(dec_in)
    y = P["dec_embed"][dec_in] + P["pos_dec"][:L]
    causal = np.triu(np.full((L, L), -1e30), k=1)
    for i in range(cfg.decoder_layers):
        h = ln(y, f"dec{i}.ln1")
        y = y + attn(h, h, f"dec{i}.self", mask=causal)
        y = y + attn(ln(y, f"dec{i}.ln2"), x, f"dec{i}.cross")
        y = y + ffn(ln(y, f"dec{i}.ln3"), f"dec{i}.ffn")
    y = ln(y, "dec_ln")
    logits = y @ P["out.w"] + P["out.b"]
    sh = logits - logits.max(-1, keepdims=True)
    lse = np.log(np.exp(sh).sum(-1))
    want = (lse - sh[np.arange(L), target_ids]).mean()

    img = ImageGrid(cfg.image_size, cfg.image_size, image)
    got = M._batch_loss([Sample(img, path_prompt(), path)], params, cfg).item()
    assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# generation


def test_generation_stops_at_end_sentinel():
    params = zeroed(M.init_params(CFG, seed=0))
    params["out.b"].data[M.END_ID] = 10.0
    img = rand_image(np.random.default_rng(0), 64)
    raw, result = M.predict_scanpath(img, path_prompt(), params, CFG)
    assert raw == "<extra_id_02>"
    assert not result.valid


def test_generation_respects_max_tokens():
    params = zeroed(M.init_params(CFG, seed=0))
    params["out.b"].data[M.token_id("7")] = 10.0  # END never wins
    img = rand_image(np.random.default_rng(0), 64)
    raw, result = M.predict_scanpath(img, path_prompt(), params, CFG, max_tokens=9)
    assert raw.split() == ["7"] * 9
    # sentinel-free digit runs still decode pairwise, odd leftover dropped
    assert result.valid and result.fixations_recovered == 4
    with pytest.raises(ValidationError):
        M.predict_scanpath(img, path_prompt(), params, CFG,
                           max_tokens=CFG.max_output_tokens + 1)


def test_untrained_generation_never_crashes_decoding():
    params = M.init_params(CFG, seed=13)
    img = rand_image(np.random.default_rng(14), 64)
    raw, result = M.predict_scanpath(img, path_prompt(), params, CFG)
    assert isinstance(raw, str)
    assert result.valid in (True, False)


# a 64-token decoder on the small encoder, for the key/value cache checks
DECODE = M.ModelConfig(image_size=20, patch_size=4, embed_dim=16,
                       encoder_layers=1, decoder_layers=2, heads=2,
                       max_output_tokens=64)


def _decode_case(i):
    """Seeded input i: four init_params seeds, the fourth with a raised
    END bias so that its paths stop early; caps cycle through 1, 9, 64."""
    params = M.init_params(DECODE, seed=i % 4)
    if i % 4 == 3:
        params["out.b"].data[M.END_ID] += 3.0
    rng = np.random.default_rng(1000 + i)
    img = ImageGrid(20, 20, rng.uniform(size=(20, 20, 3)))
    fused = M.encode_inputs(img, path_prompt("brightest" if i % 2 else None), params, DECODE)
    return fused, params, (1, 9, 64)[i % 3]


def _greedy_full_recompute(fused, params, cfg, max_tokens):
    """Greedy decode that reruns the whole prefix every step, with the
    logits of each step."""
    prefix, steps = [M.BOS_ID], []
    for _ in range(max_tokens):
        logits = M.next_token_logits(fused, params, cfg, prefix)
        steps.append(logits)
        nxt = int(np.argmax(logits))
        prefix.append(nxt)
        if nxt == M.END_ID:
            break
    return prefix[1:], steps


def test_cached_logits_match_full_recompute_at_every_step():
    for i in range(8):
        fused, params, _ = _decode_case(i)
        ids, full = _greedy_full_recompute(fused, params, DECODE, 64)
        cache = {}
        for step, prev in enumerate([M.BOS_ID] + ids[:-1]):
            cached = M.next_token_logits(fused, params, DECODE, [prev], cache=cache)
            assert np.abs(cached - full[step]).max() <= 1e-12
        assert cache["length"] == len(ids)


def test_cached_generation_matches_full_recompute_strings():
    stopped_early = 0
    for i in range(102):
        fused, params, cap = _decode_case(i)
        ids, _ = _greedy_full_recompute(fused, params, DECODE, cap)
        want = " ".join(M.id_token(t) for t in ids)
        assert M.scanpath_generate(fused, params, DECODE, max_tokens=cap) == want
        stopped_early += 1 < len(ids) < cap and ids[-1] == M.END_ID
    assert stopped_early >= 3


def test_cache_accepts_several_new_positions_at_once():
    fused, params, _ = _decode_case(5)
    ids = [M.BOS_ID, 7, M.SEP_ID, 300, 12, 999]
    cache = {}
    M.next_token_logits(fused, params, DECODE, ids[:1], cache=cache)
    chunk = M.next_token_logits(fused, params, DECODE, ids[1:4], cache=cache)
    last = M.next_token_logits(fused, params, DECODE, ids[4:], cache=cache)
    assert np.abs(chunk - M.next_token_logits(fused, params, DECODE, ids[:4])).max() <= 1e-12
    assert np.abs(last - M.next_token_logits(fused, params, DECODE, ids)).max() <= 1e-12


def test_cache_at_max_output_tokens_raises():
    fused, params, _ = _decode_case(0)
    cache = {}
    M.next_token_logits(fused, params, DECODE, [M.BOS_ID] + [5] * 62, cache=cache)
    M.next_token_logits(fused, params, DECODE, [5], cache=cache)
    assert cache["length"] == DECODE.max_output_tokens
    with pytest.raises(ValidationError, match="exceeds max_output_tokens"):
        M.next_token_logits(fused, params, DECODE, [5], cache=cache)
    with pytest.raises(ValidationError, match="exceeds max_output_tokens"):
        M.next_token_logits(fused, params, DECODE, [M.BOS_ID] + [5] * 64)


def test_prompt_conditioning_changes_logits():
    params = M.init_params(CFG, seed=15)
    img = rand_image(np.random.default_rng(16), 64)
    logits = {}
    for ot in ("saliency heatmap", "scanpath"):
        prompt = PromptSpec("natural image", ot)
        fused = M.encode_inputs(img, prompt, params, CFG)
        logits[ot] = M.next_token_logits(fused, params, CFG)
    diff = np.abs(logits["saliency heatmap"] - logits["scanpath"]).max()
    assert diff > 1e-9


# ---------------------------------------------------------------------------
# batch loss


def test_batch_loss_weights_and_averages_per_sample_losses():
    # zero weights: uniform logits, every heatmap pixel and score at 0.5
    params = zeroed(M.init_params(CFG, seed=0))
    rng = np.random.default_rng(30)
    w_seq, w_heat, w_score = CFG.loss_weights
    gt = rng.uniform(size=(37, 40))
    obs = 0.2
    batch = [
        Sample(rand_image(rng, 64), path_prompt(),
               Scanpath(frame=(64, 64), fixations=[[10, 10], [50, 40]])),
        Sample(ImageGrid(40, 37, rng.uniform(size=(37, 40, 3))), heat_prompt(),
               GrayMap(40, 37, gt, kind="unit-range")),
        Sample(rand_image(rng, 64), score_prompt(), RatingSample(obs)),
    ]
    terms = [w_seq * np.log(M.VOCAB_SIZE), w_heat * np.mean((0.5 - gt) ** 2),
             w_score * (0.5 - obs) ** 2]
    assert abs(M._batch_loss(batch, params, CFG).item() - sum(terms) / 3) < 1e-12
    assert abs(M._batch_loss(batch[:2], params, CFG).item() - sum(terms[:2]) / 2) < 1e-12


# ---------------------------------------------------------------------------
# training


def make_batch(rng, cfg, kinds):
    size = cfg.image_size
    out = []
    for kind in kinds:
        img = rand_image(rng, size)
        if kind == "heatmap":
            gm = rng.uniform(size=(size, size))
            out.append(Sample(img, heat_prompt(), GrayMap(size, size, gm, kind="unit-range")))
        elif kind == "scanpath":
            pts = rng.uniform(0, size, size=(3, 2))
            out.append(Sample(img, path_prompt(), Scanpath((size, size), pts)))
        else:
            out.append(Sample(img, score_prompt(), RatingSample(rng.uniform())))
    return out


def test_batch_loss_is_order_invariant():
    rng = np.random.default_rng(20)
    batch = make_batch(rng, SMALL, ["heatmap", "scanpath", "score", "heatmap", "scanpath", "score"])
    params = M.init_params(SMALL, seed=21)
    a = M._batch_loss(batch, params, SMALL).item()
    b = M._batch_loss(batch[::-1], params, SMALL).item()
    assert abs(a - b) < 1e-12


def test_zero_learning_rate_freezes_loss():
    rng = np.random.default_rng(22)
    batch = make_batch(rng, SMALL, ["scanpath", "heatmap", "score"])
    params = M.init_params(SMALL, seed=23)
    state = ad.adam_init(params)
    _, state, loss1 = M.train_step(batch, params, state, SMALL, lr=0.0)
    _, state, loss2 = M.train_step(batch, params, state, SMALL, lr=0.0)
    assert loss1 == loss2


def test_single_sample_overfit():
    rng = np.random.default_rng(24)
    batch = make_batch(rng, SMALL, ["scanpath"])
    params = M.init_params(SMALL, seed=25)
    state = ad.adam_init(params)
    first = None
    last = None
    for _ in range(200):
        params, state, loss = M.train_step(batch, params, state, SMALL, lr=3e-3)
        first = loss if first is None else first
        last = loss
    assert last <= 0.1 * first


def test_end_to_end_gradient_check():
    rng = np.random.default_rng(26)
    batch = make_batch(rng, SMALL, ["scanpath", "heatmap"])
    params = M.init_params(SMALL, seed=27)
    leaves = list(params.values())

    def f(*_):
        return M._batch_loss(batch, params, SMALL)

    err = grad_check(f, leaves, sample=1, seed=0)
    assert err < 1e-4


def test_empty_batch_rejected():
    params = M.init_params(SMALL, seed=0)
    with pytest.raises(ValidationError):
        M._batch_loss([], params, SMALL)


def test_run_training_logs_and_determinism():
    def source(seed):
        rng = np.random.default_rng(seed)
        pool = make_batch(rng, SMALL, ["scanpath", "heatmap", "score", "scanpath"])
        i = 0

        def nxt():
            nonlocal i
            s = pool[i % len(pool)]
            i += 1
            return s
        return nxt

    def run():
        params = M.init_params(SMALL, seed=30)
        params, state, rows = M.run_training(params, SMALL, source(31), steps=6,
                                             batch_size=2, lr=1e-3, gen_every=3)
        return params, rows

    p1, rows1 = run()
    p2, rows2 = run()
    assert rows1 == rows2
    assert all(p1[k].data.tobytes() == p2[k].data.tobytes() for k in p1)
    assert [r[0] for r in rows1] == [1, 2, 3, 4, 5, 6]
    assert all(r[2] is None for r in rows1 if r[0] % 3)
    assert all(r[2] in (0, 1) for r in rows1 if r[0] % 3 == 0)


# ---------------------------------------------------------------------------
# checkpoint integration


def test_params_checkpoint_round_trip(tmp_path):
    params = M.init_params(SMALL, seed=33)
    path = tmp_path / "model.ckpt"
    M.save_params(path, params)
    loaded = M.load_params(path, SMALL)
    assert list(loaded) == list(params)
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data)
        assert loaded[k].requires_grad


def test_params_load_takes_its_config_by_keyword(tmp_path):
    path = tmp_path / "model.ckpt"
    M.save_params(path, M.init_params(SMALL, seed=33))
    assert list(M.load_params(path, cfg=SMALL)) == list(M.param_shapes(SMALL))
    with pytest.raises(ParseError, match="model.ckpt"):
        M.load_params(path, cfg=CFG)


def test_params_checkpoint_config_mismatch(tmp_path):
    params = M.init_params(SMALL, seed=0)
    path = tmp_path / "model.ckpt"
    M.save_params(path, params)
    with pytest.raises(ValidationError):
        M.load_params(path, CFG)


def test_params_checkpoint_inventory_mismatch_names_the_file(tmp_path):
    params = M.init_params(SMALL, seed=0)
    params["extra.w"] = params.pop("out.w")
    path = tmp_path / "model.ckpt"
    M.save_params(path, params)
    with pytest.raises(ParseError) as e:
        M.load_params(path, SMALL)
    assert str(e.value) == (f"{path}: tensors do not match the config "
                            "(missing ['out.w'], unexpected ['extra.w'])")


# ---------------------------------------------------------------------------
# finiteness boundaries: finite weights that overflow one op


def overflowing(name, cfg=SMALL):
    params = M.init_params(cfg, seed=0)
    params[name].data[...] = 1e308
    return params


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight,boundary,op", [
    ("patch_proj.w", "encoder", "matmul"),
    ("heat.read1.w", "heatmap", "conv2d"),
    ("rate.fc2.w", "rating", "matmul"),
    ("out.w", "logits", "matmul"),
])
def test_inference_boundary_names_the_overflowing_op(weight, boundary, op):
    rng = np.random.default_rng(40)
    img = rand_image(rng, SMALL.image_size)
    params = overflowing(weight)
    calls = {
        "encoder": lambda: M.encode_inputs(img, heat_prompt(), params, SMALL),
        "heatmap": lambda: M.predict_heatmap(img, heat_prompt(), params, SMALL),
        "rating": lambda: M.predict_rating(img, score_prompt(), params, SMALL),
        "logits": lambda: M.scanpath_generate(
            M.encode_inputs(img, path_prompt(), params, SMALL), params, SMALL),
    }
    with pytest.raises(NumericError, match=f"non-finite values produced by {op}$"):
        calls[boundary]()
    assert ad._CHECK_OPS is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_head_overflow_mapped_back_to_finite_is_not_reported():
    # conv1 overflows, layer norm turns the infinities into NaN and relu
    # maps NaN to 0: the heatmap leaving the model is finite, so no check
    # fires (op outputs are only checked inside a boundary's re-run)
    rng = np.random.default_rng(41)
    img = rand_image(rng, SMALL.image_size)
    out = M.predict_heatmap(img, heat_prompt(), overflowing("heat.conv1.w"), SMALL)
    assert np.isfinite(out.values).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight,weights,op", [
    ("out.w", SMALL.loss_weights, "matmul"),
    (None, (1e308, 1e308, 1e308), "scale"),
])
def test_training_loss_boundary_names_the_op_before_any_update(weight, weights, op):
    rng = np.random.default_rng(42)
    batch = make_batch(rng, SMALL, ["scanpath", "heatmap", "score"])
    cfg = dataclasses.replace(SMALL, loss_weights=weights)
    params = overflowing(weight, cfg) if weight else M.init_params(cfg, seed=0)
    before = {k: p.data.copy() for k, p in params.items()}
    state = ad.adam_init(params)
    with pytest.raises(NumericError, match=f"non-finite values produced by {op}$"):
        M.train_step(batch, params, state, cfg)
    assert state["t"] == 0
    assert all(np.array_equal(params[k].data, before[k]) for k in params)
