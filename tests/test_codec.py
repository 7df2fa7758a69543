import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uniar.codec import (
    END_SENTINEL,
    SEPARATOR,
    START_SENTINEL,
    decode_robust,
    dequantize,
    encode_target,
    quantize,
)
from uniar.errors import ValidationError
from uniar.types import BinnedScanpath, Scanpath


class TestQuantize:
    def test_hand_values(self):
        p = Scanpath(frame=(640, 480), fixations=[[320.0, 240.0]])
        b = quantize(p)
        assert b.bins.tolist() == [[500, 500]]

    def test_origin_and_edge(self):
        p = Scanpath(frame=(640, 480), fixations=[[0.0, 0.0], [639.999, 479.999]])
        b = quantize(p)
        assert b.bins[0].tolist() == [0, 0]
        assert b.bins[1].tolist() == [999, 999]

    def test_clamp_guards_roundoff(self):
        w = 640
        x = w * (1 - 1e-16)  # rounds to w/w == 1.0 in float
        p = Scanpath(frame=(w, 480), fixations=[[x, 0.0]])
        assert quantize(p).bins[0, 0] == 999

    def test_dequantize_hand_values(self):
        path = dequantize(BinnedScanpath([[500, 500]]), (640, 480))
        assert path.fixations[0, 0] == pytest.approx(320.32, abs=1e-12)
        assert path.fixations[0, 1] == pytest.approx(240.24, abs=1e-12)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 12), st.integers(0, 2**31))
    def test_round_trip_within_half_bin(self, w, h, n, seed):
        rng = np.random.default_rng(seed)
        pts = np.stack([rng.uniform(0, w, n), rng.uniform(0, h, n)], axis=1)
        # keep strictly inside the frame
        pts = np.minimum(pts, [np.nextafter(float(w), 0), np.nextafter(float(h), 0)])
        path = Scanpath(frame=(w, h), fixations=pts)
        out = decode_robust(encode_target(quantize(path)).text, (w, h))
        assert out.valid and out.fixations_recovered == n
        err = np.abs(out.scanpath.fixations - path.fixations)
        assert np.all(err[:, 0] <= w / 2000 + 1e-9)
        assert np.all(err[:, 1] <= h / 2000 + 1e-9)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 8), st.integers(0, 2**31))
    def test_bins_stable_under_requantization(self, w, h, n, seed):
        rng = np.random.default_rng(seed)
        bins = BinnedScanpath(rng.integers(0, 1000, size=(n, 2)))
        again = quantize(dequantize(bins, (w, h)))
        assert np.array_equal(again.bins, bins.bins)


class TestEncode:
    def test_exact_token_layout(self):
        t = encode_target(BinnedScanpath([[500, 500], [10, 999]]))
        assert t.text == "<extra_id_01> 500 500 and 10 999 <extra_id_02>"
        assert len(t) == 3 * 2 + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_total_length_is_3n_plus_1(self, n):
        t = encode_target(BinnedScanpath([[i, i] for i in range(n)]))
        assert len(t) == 3 * n + 1
        assert t.tokens[0] == START_SENTINEL
        assert t.tokens[-1] == END_SENTINEL
        assert t.tokens.count(SEPARATOR) == n - 1


class TestDecodeRobust:
    def test_well_formed_round_trip(self):
        t = "<extra_id_01> 500 500 and 10 999 <extra_id_02>"
        out = decode_robust(t, (640, 480))
        assert out.valid and out.fixations_recovered == 2

    def test_partial_garbage_keeps_prefix(self):
        out = decode_robust("<extra_id_01> 12 34 and foo 78 <extra_id_02>", (100, 100))
        assert out.valid
        assert out.fixations_recovered == 1

    def test_pure_garbage_is_invalid(self):
        out = decode_robust("garbage with no numbers", (100, 100))
        assert not out.valid and out.fixations_recovered == 0
        assert out.scanpath is None

    def test_empty_string_is_invalid(self):
        assert not decode_robust("", (100, 100)).valid

    def test_missing_end_sentinel(self):
        out = decode_robust("<extra_id_01> 12 34 and 56 78", (100, 100))
        assert out.fixations_recovered == 2

    def test_missing_start_sentinel(self):
        out = decode_robust("12 34 and 56 78 <extra_id_02>", (100, 100))
        assert out.fixations_recovered == 2

    def test_no_sentinels_at_all(self):
        assert decode_robust("12 34", (100, 100)).fixations_recovered == 1

    def test_out_of_range_number_stops_decoding(self):
        out = decode_robust("<extra_id_01> 12 34 and 1000 5 <extra_id_02>", (100, 100))
        assert out.fixations_recovered == 1

    @pytest.mark.parametrize("tok", ["-3", "+3", "3.5", "1e2", "0x1f", "٣"])
    def test_non_plain_integers_rejected(self, tok):
        out = decode_robust(f"<extra_id_01> {tok} 34 <extra_id_02>", (100, 100))
        assert not out.valid

    def test_leading_zeros_accepted(self):
        out = decode_robust("<extra_id_01> 007 034 <extra_id_02>", (100, 100))
        assert out.fixations_recovered == 1

    def test_odd_trailing_token_dropped(self):
        out = decode_robust("<extra_id_01> 12 34 and 56 <extra_id_02>", (100, 100))
        assert out.fixations_recovered == 1

    def test_double_separator_stops(self):
        out = decode_robust("<extra_id_01> 12 34 and and 56 78 <extra_id_02>", (100, 100))
        assert out.fixations_recovered == 1

    def test_text_after_end_sentinel_ignored(self):
        out = decode_robust("<extra_id_01> 12 34 <extra_id_02> 99 99", (100, 100))
        assert out.fixations_recovered == 1

    def test_text_before_start_sentinel_ignored(self):
        out = decode_robust("junk 1 2 <extra_id_01> 12 34 <extra_id_02>", (100, 100))
        assert out.fixations_recovered == 1

    def test_decoded_coordinates_are_bin_centers(self):
        out = decode_robust("<extra_id_01> 0 999 <extra_id_02>", (1000, 1000))
        assert out.scanpath.fixations[0].tolist() == [0.5, 999.5]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_truncation_after_complete_pair_keeps_pairs(self, k):
        full = encode_target(BinnedScanpath([[10 * i, 10 * i] for i in range(4)]))
        toks = list(full.tokens)
        cut = toks[: 1 + 3 * (k - 1) + 2]  # start sentinel + k pairs with separators
        out = decode_robust(" ".join(cut), (50, 50))
        assert out.valid and out.fixations_recovered == k

    def test_zero_frame_rejected(self):
        with pytest.raises(ValidationError):
            decode_robust("12 34", (0, 100))

    @given(st.text(max_size=80))
    def test_never_raises_on_arbitrary_text(self, raw):
        out = decode_robust(raw, (100, 100))
        assert out.valid == (out.fixations_recovered > 0)

    @given(raw=st.text(max_size=40), w=st.integers(-3, 3), h=st.integers(-3, 3))
    def test_contract_text_never_raises_invalid_frame_always_does(self, raw, w, h):
        # the docstring's two halves: whatever the string, a frame with a
        # non-positive side raises, and a valid frame never does
        if w > 0 and h > 0:
            assert decode_robust(raw, (w, h)).valid in (True, False)
        else:
            with pytest.raises(ValidationError, match="frame dimensions must be positive"):
                decode_robust(raw, (w, h))

    def test_fuzz_near_format_strings(self):
        rng = np.random.default_rng(99)
        pieces = ["<extra_id_01>", "<extra_id_02>", "and", "12", "999", "1000",
                  "-5", "x", "", " ", "\t", "NaN", "<extra_id_03>", "3.7"]
        for _ in range(500):
            k = rng.integers(0, 12)
            raw = " ".join(pieces[i] for i in rng.integers(0, len(pieces), k))
            out = decode_robust(raw, (640, 480))
            assert out.valid == (out.fixations_recovered > 0)

