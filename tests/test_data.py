import ast
import dataclasses
import re
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import read_grid_naive
from uniar import data
from uniar.data import (
    BLOB_MARGIN,
    MixtureConfig,
    blob_scene,
    contrast_score,
    gen_rating_task,
    gen_saliency_task,
    gen_scanpath_task,
    load_handle,
    mixture_next,
    mixture_start,
    noise_scene,
    read_grid,
    read_pgm,
    read_ppm,
    read_ratings,
    read_scanpaths,
    sample_rng,
    save_handle,
    write_grid,
    write_pgm,
    write_ppm,
    write_ratings,
    write_scanpaths,
)
from uniar.errors import ParseError, UniarError, ValidationError
from uniar.model import ModelConfig, read_config, write_config
from uniar.types import (
    DatasetHandle,
    GrayMap,
    ImageGrid,
    PromptSpec,
    Sample,
    Scanpath,
    SegmentationMap,
)


def same_samples(a, b, image_atol=0.0, map_atol=0.0):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.prompt == sb.prompt
        assert np.allclose(sa.image.pixels, sb.image.pixels, atol=image_atol, rtol=0)
        if sa.kind == "heatmap":
            assert np.allclose(sa.target.values, sb.target.values, atol=map_atol, rtol=0)
        elif sa.kind == "scanpath":
            assert np.array_equal(sa.target.fixations, sb.target.fixations)
            assert sa.target.frame == sb.target.frame
        else:
            assert sa.target.score == sb.target.score


# ---------------------------------------------------------------------------
# synthetic generators


class TestBlobScene:
    def test_gt_max_is_exactly_one(self):
        for i in range(20):
            scene = blob_scene(sample_rng(3, "saliency", i))
            assert scene.gt.values.max() == 1.0

    def test_global_argmax_is_brightest_center(self):
        for i in range(30):
            scene = blob_scene(sample_rng(4, "saliency", i))
            r, c = np.unravel_index(np.argmax(scene.gt.values), scene.gt.values.shape)
            bx, by = scene.centers[int(np.argmax(scene.amps))]
            assert (c, r) == (bx, by)

    def test_every_center_is_a_local_argmax(self):
        for i in range(30):
            scene = blob_scene(sample_rng(5, "saliency", i))
            v = scene.gt.values
            for cx, cy in scene.centers:
                window = v[cy - 3:cy + 4, cx - 3:cx + 4]
                r, c = np.unravel_index(np.argmax(window), window.shape)
                assert (r, c) == (3, 3)

    def test_geometry_constraints(self):
        for i in range(30):
            scene = blob_scene(sample_rng(6, "saliency", i))
            assert 1 <= len(scene.centers) <= 3
            for cx, cy in scene.centers:
                assert BLOB_MARGIN <= cx < 64 - BLOB_MARGIN
                assert BLOB_MARGIN <= cy < 64 - BLOB_MARGIN
            for j, p in enumerate(scene.centers):
                for q in scene.centers[j + 1:]:
                    assert (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= 18.0 ** 2

    def test_image_is_gray_and_bounded(self):
        scene = blob_scene(sample_rng(7, "saliency", 0))
        px = scene.image.pixels
        assert np.array_equal(px[:, :, 0], px[:, :, 1])
        assert np.array_equal(px[:, :, 0], px[:, :, 2])
        assert px.min() >= 0.0 and px.max() <= 1.0

    def test_too_small_frame_rejected(self):
        with pytest.raises(ValidationError):
            blob_scene(sample_rng(0, "saliency", 0), size=16)


class TestGenerators:
    def test_regeneration_is_bit_identical(self):
        a = gen_saliency_task(11, 6)
        b = gen_saliency_task(11, 6)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.image.pixels.tobytes() == sb.image.pixels.tobytes()
            assert sa.target.values.tobytes() == sb.target.values.tobytes()

    def test_datasets_are_prefix_closed(self):
        short = gen_scanpath_task(2, 4)
        long = gen_scanpath_task(2, 9)
        same_samples(short.samples, long.samples[:4])

    def test_handle_metadata(self):
        h = gen_saliency_task(0, 3)
        assert h.output_type == "saliency heatmap"
        assert h.input_type == "natural image"
        assert all(s.prompt.output_type == "saliency heatmap" for s in h.samples)

    def test_importance_flavour_same_stimuli(self):
        sal = gen_saliency_task(9, 3)
        imp = gen_saliency_task(9, 3, output_type="importance heatmap")
        assert imp.output_type == "importance heatmap"
        for a, b in zip(sal.samples, imp.samples):
            assert np.array_equal(a.image.pixels, b.image.pixels)
            assert np.array_equal(a.target.values, b.target.values)

    def test_saliency_rejects_non_heatmap_output(self):
        with pytest.raises(ValidationError):
            gen_saliency_task(0, 2, output_type="scanpath")

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            gen_rating_task(0, 0)
        with pytest.raises(ValidationError):
            gen_scanpath_task(0, 2, input_type="photograph")
        with pytest.raises(ValidationError):
            sample_rng(0, "speech", 0)

    def test_scanpath_visits_centers_by_decreasing_brightness(self):
        h = gen_scanpath_task(13, 12)
        saw_multi = False
        for i in range(0, 12, 2):  # even indices free-view
            scene = blob_scene(sample_rng(13, "scanpath", i))
            order = np.argsort(-np.asarray(scene.amps), kind="stable")
            want = np.asarray([scene.centers[k] for k in order], dtype=np.float64)
            got = h.samples[i].target.fixations
            assert np.array_equal(got, want)
            assert h.samples[i].prompt.query is None
            saw_multi = saw_multi or len(scene.centers) >= 2
        assert saw_multi

    def test_query_samples_fixate_brightest_only(self):
        h = gen_scanpath_task(13, 12)
        for i in range(1, 12, 2):
            scene = blob_scene(sample_rng(13, "scanpath", i))
            bx, by = scene.centers[int(np.argmax(scene.amps))]
            s = h.samples[i]
            assert s.prompt.query == "brightest"
            assert len(s.target) == 1
            assert s.target.fixations[0].tolist() == [bx, by]

    def test_single_blob_gives_single_fixation(self):
        found = 0
        h = gen_scanpath_task(21, 40)
        for i in range(0, 40, 2):
            scene = blob_scene(sample_rng(21, "scanpath", i))
            if len(scene.centers) == 1:
                assert len(h.samples[i].target) == 1
                found += 1
        assert found > 0

    def test_rating_scores_match_contrast(self):
        h = gen_rating_task(5, 8)
        for i, s in enumerate(h.samples):
            assert s.target.score == contrast_score(s.image)
            image, a, u = noise_scene(sample_rng(5, "rating", i))
            assert np.array_equal(image.pixels, s.image.pixels)


class TestContrastScore:
    def test_constant_image_scores_zero(self):
        img = ImageGrid(8, 8, np.full((8, 8, 3), 0.37))
        assert contrast_score(img) == 0.0

    def test_checkerboard_scores_one(self):
        board = (np.indices((8, 8)).sum(axis=0) % 2).astype(np.float64)
        img = ImageGrid(8, 8, np.repeat(board[:, :, None], 3, axis=2))
        assert contrast_score(img) == 1.0

    def test_monotone_in_amplitude(self):
        for i in range(10):
            _, a, u = noise_scene(sample_rng(8, "rating", i))
            lo = 0.5 + a * u
            hi = 0.5 + min(0.5, 1.3 * a) * u
            assert contrast_score(hi) >= contrast_score(lo)

    def test_strictly_monotone_below_ceiling(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-1.0, 1.0, size=(32, 32))
        assert contrast_score(0.5 + 0.2 * u) < contrast_score(0.5 + 0.3 * u)


# ---------------------------------------------------------------------------
# mixture


class TestMixture:
    def test_single_handle_always_selected(self):
        h = gen_rating_task(0, 3)
        cfg = MixtureConfig((h,), seed=1)
        rng = mixture_start(cfg)
        for _ in range(20):
            s, rng = mixture_next(cfg, rng)
            assert any(s is x for x in h.samples)

    def test_equal_rate_despite_size_skew(self):
        # two handles, 10 vs 10,000 samples: binomial(10000, 1/2) count
        # stays within 3 sigma of 5,000
        small = gen_rating_task(1, 10)
        big = gen_rating_task(2, 10_000, size=8)
        cfg = MixtureConfig((small, big), seed=7)
        rng = mixture_start(cfg)
        small_ids = set(map(id, small.samples))
        n_small = 0
        for _ in range(10_000):
            s, rng = mixture_next(cfg, rng)
            n_small += id(s) in small_ids
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(n_small - 5_000) <= 3 * sigma

    def test_eleven_handles_uniform_chi_square(self):
        handles = tuple(gen_rating_task(s, 2, size=8) for s in range(11))
        cfg = MixtureConfig(handles, seed=3)
        rng = mixture_start(cfg)
        owner = {id(s): k for k, h in enumerate(handles) for s in h.samples}
        counts = np.zeros(11)
        for _ in range(10_000):
            s, rng = mixture_next(cfg, rng)
            counts[owner[id(s)]] += 1
        p = scipy.stats.chisquare(counts).pvalue
        assert p > 0.001

    def test_deterministic_given_seed(self):
        handles = (gen_rating_task(0, 4), gen_saliency_task(1, 4))
        cfg = MixtureConfig(handles, seed=42)
        draws = []
        for _ in range(2):
            rng = mixture_start(cfg)
            run = []
            for _ in range(30):
                s, rng = mixture_next(cfg, rng)
                run.append(id(s))
            draws.append(run)
        assert draws[0] == draws[1]

    def test_empty_handle_list_rejected(self):
        with pytest.raises(ValidationError):
            MixtureConfig((), seed=0)

    def test_transfer_scenario_is_pure_configuration(self):
        # mixing a scanpath task from one domain with a heatmap task
        # from another needs nothing but the handle list
        a = gen_scanpath_task(0, 4, input_type="webpage")
        b = gen_saliency_task(1, 4, input_type="graphic design")
        cfg = MixtureConfig((a, b), seed=9)
        rng = mixture_start(cfg)
        seen = set()
        for _ in range(40):
            s, rng = mixture_next(cfg, rng)
            seen.add(s.prompt.input_type)
        assert seen == {"webpage", "graphic design"}


# ---------------------------------------------------------------------------
# grids


class TestGrid:
    def test_float_round_trip_is_exact(self, tmp_path, rng):
        m = GrayMap(7, 5, rng.standard_normal((5, 7)))
        p = tmp_path / "m.grid"
        write_grid(p, m)
        back = read_grid(p)
        assert isinstance(back, GrayMap)
        assert np.array_equal(back.values, m.values)
        # 10^5 values from every binade, edges of float64 first, read back
        # bit for bit
        fi = np.finfo(np.float64)
        edges = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                 fi.smallest_normal - fi.smallest_subnormal, fi.smallest_normal,
                 -fi.smallest_normal, fi.max, -fi.max, 1.0, 0.1, 1 / 3]
        bits = rng.integers(0, 2**64, size=10**5 - len(edges), dtype=np.uint64).view(np.float64)
        bits[~np.isfinite(bits)] = 0.5
        values = np.concatenate([edges, bits]).reshape(250, 400)
        write_grid(p, GrayMap(400, 250, values))
        assert read_grid(p).values.tobytes() == values.tobytes()

    @given(vals=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=6, max_size=6))
    @example(vals=[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, 1 / 3])
    def test_float_round_trip_property(self, vals, tmp_path_factory):
        p = tmp_path_factory.mktemp("grid") / "m.grid"
        m = GrayMap(3, 2, np.asarray(vals).reshape(2, 3))
        write_grid(p, m)
        assert read_grid(p).values.tobytes() == m.values.tobytes()

    @given(labels=st.lists(st.integers(0, 2**63 - 1), min_size=6, max_size=6))
    @example(labels=[0, 2**63 - 1, 0, 1, 2**62, 2**63 - 1])
    def test_int_round_trip_property(self, labels, tmp_path_factory):
        p = tmp_path_factory.mktemp("grid") / "s.grid"
        seg = SegmentationMap(2, 3, np.asarray(labels, dtype=np.int64).reshape(3, 2))
        write_grid(p, seg)
        back = read_grid(p)
        assert isinstance(back, SegmentationMap)
        assert back.labels.tobytes() == seg.labels.tobytes()

    def test_int_round_trip(self, tmp_path):
        seg = SegmentationMap(4, 3, np.arange(12).reshape(3, 4))
        p = tmp_path / "s.grid"
        write_grid(p, seg)
        back = read_grid(p)
        assert isinstance(back, SegmentationMap)
        assert np.array_equal(back.labels, seg.labels)
        write_grid(p, SegmentationMap(2, 1, np.array([[0, 2**63 - 1]])))
        assert read_grid(p).labels.tolist() == [[0, 2**63 - 1]]

    @pytest.mark.parametrize("grid", [
        GrayMap(3, 2, [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, 1 / 3, -2.5]]),
        GrayMap(1, 1, [[0.0]]),
        GrayMap(16, 8, np.random.default_rng(0).standard_normal((8, 16)) * 1e3),
        SegmentationMap(3, 2, [[0, 2**62, 7], [2**62, 0, 1]]),
        SegmentationMap(1, 1, [[0]]),
    ], ids=["float", "float-1x1", "float-16x8", "int", "int-1x1"])
    def test_write_grid_bytes_equal_per_value_writer(self, grid, tmp_path):
        # the byte layout: one ASCII header line, then each value in
        # row-major order as 8 little-endian bytes, and nothing more
        if isinstance(grid, GrayMap):
            mode, fmt, rows = "float64le", "<d", grid.values.tolist()
        else:
            mode, fmt, rows = "int64le", "<q", grid.labels.tolist()
        want = f"UARGRID {grid.width} {grid.height} {mode}\n".encode("ascii") + b"".join(
            struct.pack(fmt, v) for row in rows for v in row)
        write_grid(tmp_path / "g.grid", grid)
        assert (tmp_path / "g.grid").read_bytes() == want

    def test_every_truncation_and_one_extra_byte_rejected(self, tmp_path):
        p = tmp_path / "g.grid"
        write_grid(p, GrayMap(3, 2, np.arange(6.0).reshape(2, 3)))
        raw = p.read_bytes()
        for cut in [*range(len(raw)), len(raw) + 1]:
            p.write_bytes(raw[:cut] if cut < len(raw) else raw + b"\x00")
            with pytest.raises(ParseError) as e:
                read_grid(p)
            assert e.value.path == p and str(e.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("value,row,col", [(np.nan, 2, 3), (np.inf, 1, 2), (-np.inf, 2, 1)])
    def test_binary_non_finite_value_names_row_and_column(self, tmp_path, value, row, col):
        values = np.zeros((2, 3))
        values[row - 1, col - 1] = value
        values[1, 2] = value  # a later bad value is not the one reported
        p = tmp_path / "bad.grid"
        p.write_bytes(b"UARGRID 3 2 float64le\n" + values.astype("<f8").tobytes())
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert str(e.value) == f"{p}: row {row}, column {col}: non-finite value {value!r}"

    def test_binary_negative_label_names_row_and_column(self, tmp_path):
        p = tmp_path / "neg.grid"
        labels = np.array([[0, 3], [-7, -1], [2, 0]], dtype="<i8")
        p.write_bytes(b"UARGRID 2 3 int64le\n" + labels.tobytes())
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert str(e.value) == f"{p}: row 2, column 1: segmentation labels must be >= 0, got -7"

    def test_huge_binary_header_fails_on_byte_count_without_allocating(self, tmp_path):
        p = tmp_path / "huge.grid"
        p.write_bytes(b"UARGRID 4000000000 4000000000 float64le\n" + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="payload has 64 bytes, expected 128000000000000000000"):
                read_grid(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_binary_header_errors_name_line_and_column(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_bytes(b"UARGRID 2 0 int64le\n")
        with pytest.raises(ParseError, match="dimensions must be positive") as e:
            read_grid(p)
        assert (e.value.line, e.value.column) == (1, 11)
        p.write_bytes(b"UARGRID 1 1 float64le extra\n" + bytes(8))
        with pytest.raises(ParseError, match="trailing tokens") as e:
            read_grid(p)
        assert (e.value.line, e.value.column) == (1, 23)

    @pytest.mark.parametrize("reader", [read_grid, read_grid_naive])
    def test_rows_past_the_header_height_rejected(self, tmp_path, reader):
        p = tmp_path / "long.grid"
        write_grid(p, GrayMap(2, 1, [[0.0, 0.0]]))
        p.write_bytes(p.read_bytes() + bytes(16))  # a second row of two zeros
        with pytest.raises(ParseError) as e:
            reader(p)
        assert e.value.args[0] == "float64le payload has 32 bytes, expected 16 for 2x1"

    def test_wrong_magic_names_line_and_column(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_text("GRID 2 2 float\n0 0\n0 0\n")
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert e.value.line == 1 and e.value.column == 1
        assert "line 1" in str(e.value) and "column 1" in str(e.value)

    def test_bad_width_column(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_text("UARGRID two 2 float\n")
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert e.value.line == 1 and e.value.column == 9

    def test_bad_mode(self, tmp_path):
        # text grids, with a `float` or `int` mode and rows of numbers, are
        # not read: they fail at their mode like any other unknown one
        p = tmp_path / "bad.grid"
        for text, mode in [("UARGRID 2 2 double\n0 0\n0 0\n", "double"),
                           ("UARGRID 2 1 float\n0 0\n", "float"),
                           ("UARGRID 2 1 int\n0 0\n", "int")]:
            p.write_text(text)
            with pytest.raises(ParseError) as e:
                read_grid(p)
            assert e.value.line == 1 and e.value.column == 13
            assert e.value.args[0] == f"mode must be float64le or int64le, got {mode!r}"

    def test_trailing_header_token(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_text("UARGRID 2 2 float extra\n0 0\n0 0\n")
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert e.value.line == 1 and e.value.column == 19

    def test_missing_rows(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_bytes(b"UARGRID 2 3 int64le\n" + bytes(16))
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert e.value.args[0] == "int64le payload has 16 bytes, expected 48 for 2x3"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_text("")
        with pytest.raises(ParseError):
            read_grid(p)

    def test_write_rejects_other_types(self, tmp_path):
        with pytest.raises(ValidationError):
            write_grid(tmp_path / "x.grid", np.zeros((2, 2)))

    def test_first_error_in_reading_order_wins(self, tmp_path):
        # row-major order: a bad value in row 1 comes before one in row 2,
        # whatever their columns
        p = tmp_path / "bad.grid"
        values = np.zeros((2, 3))
        values[1, 0], values[0, 2] = np.nan, np.inf
        p.write_bytes(b"UARGRID 3 2 float64le\n" + values.astype("<f8").tobytes())
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert e.value.args[0] == "row 1, column 3: non-finite value inf"
        p.write_bytes(b"UARGRID 3 2 int64le\n" + np.array([[0, 0, -2], [-1, 0, 0]], "<i8").tobytes())
        with pytest.raises(ParseError) as e:
            read_grid(p)
        assert e.value.args[0] == "row 1, column 3: segmentation labels must be >= 0, got -2"


# NaN, +Inf, -Inf, all ones (a NaN, or the label -1) and the sign bit
# alone (-0.0, or the label -2**63)
_ODD_VALUES = [struct.pack("<d", v) for v in (np.nan, np.inf, -np.inf)] + [
    b"\xff" * 8, struct.pack("<q", -2**63)]


@st.composite
def _grid_case(draw):
    """A grid of up to 40x40 seeded values, floats from every binade or
    labels of every bit width; up to two of its values to overwrite with
    8 bytes that are NaN, +-Inf or a negative label in one of the modes;
    and byte edits to make to its file after that, one of them perhaps
    in its header."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        bits = rng.integers(0, 2**64, size=(h, w), dtype=np.uint64).view(np.float64)
        grid = GrayMap(w, h, np.where(np.isfinite(bits), bits, -0.0))
    else:
        shifts = rng.integers(0, 63, size=(h, w))
        grid = SegmentationMap(w, h, rng.integers(0, 2**63 - 1, size=(h, w)) >> shifts)
    values = draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_ODD_VALUES)),
                           max_size=2))
    header_edits = st.lists(st.tuples(st.sampled_from(["set", "ins", "del"]),
                                      st.integers(0, 25), _BYTE), max_size=1)
    return grid, values, draw(header_edits) + draw(_EDITS)


# up to three byte edits: set, insert or delete one byte, or cut the file
_BYTE = st.one_of(st.sampled_from(b" \t\r\n.-+e_x019"), st.integers(0, 255))
_EDITS = st.lists(st.tuples(st.sampled_from(["set", "ins", "del", "cut"]),
                            st.integers(0, 10**6), _BYTE), max_size=3)


def _mutate(raw: bytes, edits) -> bytes:
    for op, pos, b in edits:
        pos %= len(raw) + 1
        if op == "set" and pos < len(raw):
            raw = raw[:pos] + bytes([b]) + raw[pos + 1:]
        elif op == "ins":
            raw = raw[:pos] + bytes([b]) + raw[pos:]
        elif op == "del":
            raw = raw[:pos] + raw[pos + 1:]
        elif op == "cut":
            raw = raw[:pos]
    return raw


def _outcome(reader, path):
    try:
        return reader(path), None
    except Exception as e:  # every kind is compared below
        return None, e


class TestGridMatchesOracle:
    """The reader, which checks a whole payload at once and maps it with
    `np.frombuffer`, against the value-at-a-time oracle on `write_grid`
    output with odd values written in, bytes set, inserted or deleted,
    and cuts: bit-identical maps, or the same ParseError message."""

    @settings(max_examples=400)
    @given(case=_grid_case())
    @example(case=(SegmentationMap(2, 1, [[0, 1]]), [(1, b"\xff" * 8)], []))
    @example(case=(GrayMap(2, 1, [[0.0, 1.0]]), [], [("del", 21, 0)]))  # the header's \n
    @example(case=(GrayMap(2, 1, [[0.0, 1.0]]), [], [("set", 21, ord("\r"))]))
    @example(case=(GrayMap(2, 1, [[0.0, 1.0]]), [], [("ins", 21, ord("\r"))]))
    @example(case=(GrayMap(2, 1, [[0.0, 1.0]]), [], [("ins", 9, 0xff)]))
    @example(case=(GrayMap(2, 1, [[0.0, 1.0]]), [], [("cut", 0, 0)]))
    def test_same_result_or_same_error(self, case, tmp_path_factory):
        grid, values, edits = case
        path = tmp_path_factory.getbasetemp() / "fuzz.grid"
        write_grid(path, grid)
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1
        for slot, value in values:
            pos = start + 8 * (slot % (grid.width * grid.height))
            raw = raw[:pos] + value + raw[pos + 8:]
        path.write_bytes(_mutate(raw, edits))
        want, want_err = _outcome(read_grid_naive, path)
        got, got_err = _outcome(read_grid, path)
        if want_err is not None:
            assert type(want_err) is ParseError and type(got_err) is ParseError
            want_err.path = path  # the reader names its file; the oracle does not
            assert str(got_err) == str(want_err)
            return
        assert got_err is None and type(got) is type(want)
        a, b = ((want.labels, got.labels) if isinstance(want, SegmentationMap)
                else (want.values, got.values))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# binary rasters


class TestPnm:
    def test_pgm_round_trip_on_grid_points(self, tmp_path, rng):
        # multiples of 1/65535 survive the 16-bit quantization exactly
        q = rng.integers(0, 65536, size=(6, 9)) / 65535.0
        m = GrayMap(9, 6, q)
        p = tmp_path / "m.pgm"
        write_pgm(p, m)
        assert np.array_equal(read_pgm(p).values, m.values)

    def test_pgm_quantization_error_bound(self, tmp_path, rng):
        m = GrayMap(8, 8, rng.uniform(0, 1, size=(8, 8)))
        p = tmp_path / "m.pgm"
        write_pgm(p, m)
        assert np.max(np.abs(read_pgm(p).values - m.values)) <= 0.5 / 65535 + 1e-12

    def test_pgm_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "m.pgm", GrayMap(2, 2, [[0.0, 1.0], [2.0, 0.5]]))

    def test_pgm_eight_bit_readable(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        m = read_pgm(p)
        assert m.values[0, 0] == 0.0 and m.values[0, 1] == 1.0
        assert m.values[1, 0] == pytest.approx(128 / 255)

    def test_header_comments_tolerated(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        m = read_pgm(p)
        assert m.shape == (1, 2)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 5)
        with pytest.raises(ParseError):
            read_pgm(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ParseError):
            read_pgm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n0\n\x00\x00\x00\x00")
        with pytest.raises(ParseError):
            read_pgm(p)

    def test_ppm_round_trip_on_grid_points(self, tmp_path, rng):
        q = rng.integers(0, 256, size=(4, 5, 3)) / 255.0
        img = ImageGrid(5, 4, q)
        p = tmp_path / "i.ppm"
        write_ppm(p, img)
        assert np.array_equal(read_ppm(p).pixels, img.pixels)

    def test_ppm_quantization_error_bound(self, tmp_path, rng):
        img = ImageGrid(6, 6, rng.uniform(0, 1, size=(6, 6, 3)))
        p = tmp_path / "i.ppm"
        write_ppm(p, img)
        assert np.max(np.abs(read_ppm(p).pixels - img.pixels)) <= 0.5 / 255 + 1e-12


# ---------------------------------------------------------------------------
# scanpath JSON lines


class TestScanpathFile:
    def test_round_trip_identity(self, tmp_path):
        items = [
            (Scanpath((640, 480), [[0.125, 3.5], [639.0, 479.0]]),
             PromptSpec("natural image", "scanpath")),
            (Scanpath((64, 64), [[13.0, 29.0]]),
             PromptSpec("webpage", "scanpath", query="brightest")),
        ]
        p = tmp_path / "paths.jsonl"
        write_scanpaths(p, items)
        back = read_scanpaths(p)
        assert len(back) == 2
        for (pa, qa), (pb, qb) in zip(items, back):
            assert pa.frame == pb.frame
            assert np.array_equal(pa.fixations, pb.fixations)
            assert qa == qb

    def test_full_precision_floats(self, tmp_path, rng):
        fix = rng.uniform(0, 64, size=(5, 2))
        items = [(Scanpath((64, 64), fix), PromptSpec("natural image", "scanpath"))]
        p = tmp_path / "paths.jsonl"
        write_scanpaths(p, items)
        assert np.array_equal(read_scanpaths(p)[0][0].fixations, fix)

    def test_empty_fixations_rejected(self, tmp_path):
        p = tmp_path / "paths.jsonl"
        p.write_text('{"frame": [64, 64], "fixations": [], '
                     '"input_type": "natural image", "output_type": "scanpath", '
                     '"query": null}\n')
        with pytest.raises(ValidationError):
            read_scanpaths(p)

    def test_out_of_frame_fixation_rejected(self, tmp_path):
        p = tmp_path / "paths.jsonl"
        p.write_text('{"frame": [64, 64], "fixations": [[64.0, 1.0]], '
                     '"input_type": "natural image", "output_type": "scanpath", '
                     '"query": null}\n')
        with pytest.raises(ValidationError):
            read_scanpaths(p)

    def test_fractional_frame_is_parse_error_at_its_line(self, tmp_path):
        p = tmp_path / "paths.jsonl"
        good = ('{"frame": [64, 64], "fixations": [[64.5, 1.0]], '
                '"input_type": "natural image", "output_type": "scanpath", "query": null}')
        p.write_text(good.replace("[64, 64]", "[65, 64]") + "\n\n"
                     + good.replace("[64, 64]", "[64.9, 64]") + "\n")
        with pytest.raises(ParseError, match="whole numbers") as e:
            read_scanpaths(p)
        assert e.value.line == 3

    def test_missing_field_named(self, tmp_path):
        p = tmp_path / "paths.jsonl"
        p.write_text('{"frame": [64, 64], "fixations": [[1.0, 1.0]], '
                     '"input_type": "natural image", "output_type": "scanpath"}\n')
        with pytest.raises(ParseError) as e:
            read_scanpaths(p)
        assert "query" in str(e.value)

    def test_bad_json_carries_line_number(self, tmp_path):
        p = tmp_path / "paths.jsonl"
        good = ('{"frame": [8, 8], "fixations": [[1.0, 1.0]], '
                '"input_type": "natural image", "output_type": "scanpath", "query": null}')
        p.write_text(good + "\n{not json}\n")
        with pytest.raises(ParseError) as e:
            read_scanpaths(p)
        assert e.value.line == 2

    def test_writer_rejects_wrong_types(self, tmp_path):
        with pytest.raises(ValidationError):
            write_scanpaths(tmp_path / "p.jsonl", [("path", "prompt")])

    def test_empty_list_round_trip(self, tmp_path):
        p = tmp_path / "paths.jsonl"
        write_scanpaths(p, [])
        assert read_scanpaths(p) == []


# ---------------------------------------------------------------------------
# rating CSV


class TestRatingFile:
    def test_round_trip(self, tmp_path):
        rows = [("a", 0.123456789012345, 1.0), ("b", 0.5, 0.25)]
        p = tmp_path / "r.csv"
        write_ratings(p, rows)
        assert read_ratings(p) == rows

    def test_header_line(self, tmp_path):
        p = tmp_path / "r.csv"
        write_ratings(p, [("x", 0.0, 1.0)])
        assert p.read_text().splitlines()[0] == "id,predicted,observed"

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("id,pred,obs\nx,0.0,1.0\n")
        with pytest.raises(ParseError) as e:
            read_ratings(p)
        assert e.value.line == 1

    def test_bad_float_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("id,predicted,observed\nx,zero,1.0\n")
        with pytest.raises(ParseError) as e:
            read_ratings(p)
        assert e.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("id,predicted,observed\nx,inf,1.0\n")
        with pytest.raises(ParseError):
            read_ratings(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_ratings(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        write_ratings(p, [])
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: line 2: no rows below"):
            read_ratings(p)

    @pytest.mark.parametrize("reader,text,count", [
        (read_ratings, "id,predicted,observed\nx,0.5\n", 2),
        (read_ratings, "id,predicted,observed\nx,0.5,0.25,1\n", 4),
        (data._read_scores, "id,score\n000000\n", 1),
        (data._read_scores, "id,score\n000000,0.5,0.5\n", 3),
    ])
    def test_wrong_field_count_rejected(self, tmp_path, reader, text, count):
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"got {count}") as e:
            reader(p)
        assert e.value.line == 2

    def test_first_error_in_file_order_wins(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("id,predicted,observed\nx,zero,1.0\ny,0.5\n")
        with pytest.raises(ParseError, match="bad numeric field") as e:
            read_ratings(p)
        assert e.value.line == 2

    @pytest.mark.parametrize("reader,text,message", [
        (read_ratings, "id,predicted,observed\nx,0.5,0.25\ny,,0.25\n",
         "empty field in ratings row 'y'"),
        (data._read_scores, "id,score\n000000,0.5\n000001,\n",
         "empty field in scores row '000001'"),
    ])
    def test_empty_cell_rejected(self, tmp_path, reader, text, message):
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as e:
            reader(p)
        assert str(e.value) == f"{p}: {message}"

    def test_table_empty_cell_reads_as_none(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [("1", 2.5, None), ("2", None, 0.0)]
        data.write_table(p, ("step", "loss", "valid"), rows)
        assert p.read_bytes() == b"step,loss,valid\n1,2.5,\n2,,0.0\n"
        assert data.read_table(p, ("step", "loss", "valid"), "log") == rows

    def test_field_over_the_csv_size_limit_is_parse_error(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("id,predicted,observed\nx,0.5,0.25\n" + "y" * 200_000 + ",0.5,0.25\n")
        with pytest.raises(ParseError, match="field limit") as e:
            read_ratings(p)
        assert e.value.line == 3


# ---------------------------------------------------------------------------
# bytes that are not UTF-8, in every text reader

_PATH_LINE = (b'{"frame": [8, 8], "fixations": [[1.0, 1.0]], '
              b'"input_type": "natural image", "output_type": "scanpath", "query": null}')


@pytest.mark.parametrize("reader,raw,line,column", [
    (read_scanpaths, _PATH_LINE + b"\r\n" + _PATH_LINE[:11] + b"\xff" + _PATH_LINE[11:], 2, 12),
    (read_scanpaths, _PATH_LINE + b"\r" + _PATH_LINE + b"\r" + b"\xc3(", 3, 1),
    (read_scanpaths, b'{"a": "x\x0cy\xff"}\n', 1, 11),  # a form feed ends no line here
    (read_ratings, b"id,predicted,observed\nx,0.5,0.25\ny,0.\xff5,1\n", 3, 5),
    (data._read_scores, b"id,score\r\n000000,0.5\r\n\xe2\x82,0.25\n", 3, 1),
    (data._read_meta, b"name = x\ninput_type = natural \xffimage\n", 2, 22),
    (read_config, b"# c\xf0\x9f\x98\x80mment\nembed_dim = 3\xa02\n", 2, 14),
], ids=["jsonl-crlf", "jsonl-cr", "jsonl-formfeed", "ratings", "scores", "meta", "config"])
def test_non_utf8_bytes_are_parse_errors_at_their_position(tmp_path, reader, raw, line, column):
    p = tmp_path / "bad.txt"
    p.write_bytes(raw)
    with pytest.raises(ParseError, match="invalid UTF-8") as e:
        reader(p)
    assert (e.value.line, e.value.column) == (line, column)


def test_csv_readers_keep_quoted_newlines(tmp_path):
    p = tmp_path / "r.csv"
    rows = [("a\r\nb", 0.5, 0.25), ("c\nd", 1.0, 0.0)]
    write_ratings(p, rows)
    assert read_ratings(p) == rows


def test_table_errors_name_the_physical_line(tmp_path):
    # the quoted id spans lines 2-3, so the bad number sits on line 4
    p = tmp_path / "r.csv"
    p.write_text('id,predicted,observed\n"a\nb",0.5,0.25\nc,zz,0.1\n')
    with pytest.raises(ParseError, match="line 4") as e:
        read_ratings(p)
    assert e.value.line == 4


# ---------------------------------------------------------------------------
# malformed bytes in every reader


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per reader."""
    tmp_path = tmp_path_factory.mktemp("valid")
    files = {}
    files["ratings"] = tmp_path / "r.csv"
    write_ratings(files["ratings"], [("a", 0.5, 0.25), ('b,"c', 1e-3, 1.0)])
    files["scores"] = tmp_path / "scores.csv"
    files["scores"].write_text("id,score\n000000,0.5\n000001,3.25\n")
    files["scanpaths"] = tmp_path / "p.jsonl"
    write_scanpaths(files["scanpaths"], [
        (Scanpath((8, 8), [[1.0, 2.5], [7.0, 0.0]]), PromptSpec("webpage", "scanpath", "q")),
        (Scanpath((8, 6), [[3.0, 3.0]]), PromptSpec("natural image", "scanpath"))])
    files["pgm"] = tmp_path / "m.pgm"
    write_pgm(files["pgm"], GrayMap(3, 2, [[0.0, 0.5, 1.0], [0.25, 0.75, 0.125]]))
    files["ppm"] = tmp_path / "i.ppm"
    write_ppm(files["ppm"], ImageGrid(2, 2, np.full((2, 2, 3), 0.5)))
    files["config"] = tmp_path / "config.txt"
    write_config(files["config"], ModelConfig(image_size=40, embed_dim=16, heads=2))
    files["meta"] = tmp_path / "meta.txt"
    files["meta"].write_text("name = h\ninput_type = webpage\noutput_type = scanpath\n")
    files["grid"] = tmp_path / "s.grid"
    write_grid(files["grid"], SegmentationMap(3, 2, [[0, 1, 2], [3, 0, 1]]))
    files["map"] = tmp_path / "m.grid"  # read_map picks the format by extension
    write_grid(files["map"], GrayMap(2, 2, [[0.0, 0.5], [1.0, 1 / 3]]))
    for name, path in files.items():
        _READERS[name](path)  # each reads unedited
    return files


_READERS = {"ratings": read_ratings, "scores": data._read_scores,
            "scanpaths": read_scanpaths, "pgm": read_pgm, "ppm": read_ppm,
            "config": read_config, "meta": data._read_meta,
            "grid": read_grid, "map": data.read_map}


def _assert_names_file_once(err, path):
    assert err.path == path
    assert str(err).startswith(f"{path}: ") and str(err).count(str(path)) == 1


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=150)
@given(edits=_EDITS)
def test_mutated_files_only_raise_uniar_errors(tmp_path_factory, valid_files, name, edits):
    """Byte edits and truncations of a valid file either read or raise a
    UniarError; nothing else escapes a reader, and a ParseError names the
    file it was raised for, once."""
    path = tmp_path_factory.getbasetemp() / f"fuzz-{name}{valid_files[name].suffix}"
    path.write_bytes(_mutate(valid_files[name].read_bytes(), edits))
    try:
        _READERS[name](path)
    except ParseError as e:
        _assert_names_file_once(e, path)
    except UniarError:
        pass


# ---------------------------------------------------------------------------
# whole handle directories

_HANDLE_EDITS = st.lists(st.tuples(st.sampled_from(["mutate", "delete", "add", "rename"]),
                                   st.integers(0, 10**6), _EDITS), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def saved_handles(tmp_path_factory):
    root = tmp_path_factory.mktemp("handles")
    save_handle(root / "heatmap", gen_saliency_task(0, 2))
    save_handle(root / "scanpath", gen_scanpath_task(0, 2))
    save_handle(root / "score", gen_rating_task(0, 2, size=16))
    return root


@pytest.mark.parametrize("kind", ["heatmap", "scanpath", "score"])
@settings(max_examples=60, deadline=None)
@given(edits=_HANDLE_EDITS)
def test_damaged_handles_only_raise_uniar_errors(tmp_path_factory, saved_handles, kind, edits):
    """Files of a saved handle byte-edited, deleted, copied under a new
    id or renamed so ids disagree: load_handle reads the handle or
    raises a UniarError, and a ParseError names the file inside the
    handle that it was raised for."""
    d = tmp_path_factory.getbasetemp() / "fuzz-handle"
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(saved_handles / kind, d)
    for op, pick, byte_edits in edits:
        files = sorted(p for p in d.rglob("*") if p.is_file())
        if not files:
            break
        f = files[pick % len(files)]
        if op == "mutate":
            f.write_bytes(_mutate(f.read_bytes(), byte_edits))
        elif op == "delete":
            f.unlink()
        elif op == "add":
            shutil.copyfile(f, f.with_name("9" + f.name))
        else:
            f.rename(f.with_name("x" + f.name))
    try:
        load_handle(d)
    except ParseError as e:
        assert Path(e.path).is_relative_to(d)
        _assert_names_file_once(e, e.path)
    except UniarError:
        pass


def test_only_the_two_file_helpers_open_files():
    """One way in and one way out: `data._read_input` is the one function
    that opens a file for reading and `data._write_output` the one that
    opens a file for writing, in any mode, checkpoints and the CLI's
    output files included, so decoding, line ends and naming the file in
    errors each have one owner."""
    allowed = {("data.py", "_read_input"), ("data.py", "_write_output")}
    src = Path(data.__file__).parent
    found, seen = [], set()
    for py in sorted(src.rglob("*.py")):
        tree = ast.parse(py.read_text(encoding="utf-8"))
        owner = {}  # node -> its innermost enclosing function (walk goes outside in)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name in ("open", "read_text", "read_bytes", "write_text", "write_bytes"):
                where = (py.name, owner.get(id(call)))
                if where in allowed:
                    seen.add(where)
                else:
                    found.append(f"{py.name}:{call.lineno} {where[1]}")
    assert found == [] and seen == allowed


# ---------------------------------------------------------------------------
# shared file helpers


class TestSharedHelpers:
    def test_list_files_first_extension_wins_in_name_order(self, tmp_path):
        for f in ("b.pgm", "b.grid", "a.pgm", "a-1.jsonl", "a.jsonl", "c.txt"):
            (tmp_path / f).write_text("")
        maps = data.list_files(tmp_path, data.MAP_EXTS)
        assert maps == {"a": str(tmp_path / "a.pgm"), "b": str(tmp_path / "b.grid")}
        assert list(data.list_files(tmp_path, (".jsonl",))) == ["a-1", "a"]

    def test_list_files_needs_a_directory(self, tmp_path):
        with pytest.raises(ValidationError, match="not a directory"):
            data.list_files(tmp_path / "missing", (".jsonl",))

    def test_read_map_reads_both_formats_and_rejects_int_grids(self, tmp_path):
        m = GrayMap(2, 1, [[0.0, 1.0]])  # exact in 16-bit PGM too
        write_grid(tmp_path / "m.grid", m)
        write_pgm(tmp_path / "m.pgm", m)
        assert np.array_equal(data.read_map(tmp_path / "m.grid").values, m.values)
        assert np.array_equal(data.read_map(tmp_path / "m.pgm").values, m.values)
        write_grid(tmp_path / "s.grid", SegmentationMap(2, 1, [[0, 1]]))
        with pytest.raises(ValidationError, match="expected a float map"):
            data.read_map(tmp_path / "s.grid")

    @pytest.mark.parametrize("count", [0, 2])
    def test_read_scanpath_needs_exactly_one_line(self, tmp_path, count):
        item = (Scanpath((8, 8), [[1.0, 1.0]]), PromptSpec("webpage", "scanpath"))
        write_scanpaths(tmp_path / "p.jsonl", [item] * count)
        with pytest.raises(ValidationError, match=f"exactly one scanpath, found {count}"):
            data.read_scanpath(tmp_path / "p.jsonl")

    def test_key_values_round_trip(self, tmp_path):
        pairs = [("name", "h 1"), ("input_type", "webpage"), ("output_type", "scanpath")]
        data.write_key_values(tmp_path / "meta.txt", pairs)
        assert (tmp_path / "meta.txt").read_text() == (
            "name = h 1\ninput_type = webpage\noutput_type = scanpath\n")
        back = [(k, v) for k, v, _ in data.read_key_values(tmp_path / "meta.txt",
                                                           data._META_KEYS, "meta")]
        assert back == pairs

    @pytest.mark.parametrize("key,value", [
        ("name", "two\nlines"), ("name", "car\rriage"), ("name", " padded "),
        ("name", "trailing\t"), ("", "x"), ("a=b", "x"), ("#name", "x"), (" name", "x"),
    ])
    def test_key_values_that_would_not_read_back_are_rejected(self, tmp_path, key, value):
        with pytest.raises(ValidationError, match="would not read back unchanged"):
            data.write_key_values(tmp_path / "meta.txt", [("input_type", "webpage"),
                                                          (key, value)])
        assert not (tmp_path / "meta.txt").exists()


# ---------------------------------------------------------------------------
# handle directories


class TestHandleIO:
    def test_heatmap_round_trip(self, tmp_path):
        h = gen_saliency_task(0, 3)
        save_handle(tmp_path / "h", h)
        back = load_handle(tmp_path / "h")
        assert (back.name, back.input_type, back.output_type) == (
            h.name, h.input_type, h.output_type)
        same_samples(h.samples, back.samples,
                     image_atol=0.5 / 255 + 1e-12, map_atol=0.5 / 65535 + 1e-12)

    @pytest.mark.parametrize("name", ["two\nlines", " padded "])
    def test_names_that_would_not_read_back_are_rejected(self, tmp_path, name):
        h = dataclasses.replace(gen_rating_task(0, 2, size=8), name=name)
        with pytest.raises(ValidationError, match="would not read back unchanged"):
            save_handle(tmp_path / "h", h)

    @pytest.mark.parametrize("name", ["h 1", "a = b", "#tag", "tab\tinside", "ünï"])
    def test_accepted_names_round_trip(self, tmp_path, name):
        h = dataclasses.replace(gen_rating_task(0, 2, size=8), name=name)
        save_handle(tmp_path / "h", h)
        assert load_handle(tmp_path / "h").name == name

    def test_scanpath_round_trip_exact(self, tmp_path):
        h = gen_scanpath_task(1, 4)
        save_handle(tmp_path / "h", h)
        back = load_handle(tmp_path / "h")
        for sa, sb in zip(h.samples, back.samples):
            assert np.array_equal(sa.target.fixations, sb.target.fixations)
            assert sa.prompt == sb.prompt

    def test_rating_round_trip_exact(self, tmp_path):
        h = gen_rating_task(2, 5, size=16)
        save_handle(tmp_path / "h", h)
        back = load_handle(tmp_path / "h")
        for sa, sb in zip(h.samples, back.samples):
            assert sa.target.score == sb.target.score

    def test_out_of_range_scores_min_max_normalized(self, tmp_path):
        h = gen_rating_task(3, 3, size=16)
        d = tmp_path / "h"
        save_handle(d, h)
        (d / "scores.csv").write_text("id,score\n000000,1.0\n000001,3.0\n000002,5.0\n")
        back = load_handle(d)
        assert [s.target.score for s in back.samples] == [0.0, 0.5, 1.0]

    def test_constant_out_of_range_scores_become_half(self, tmp_path):
        h = gen_rating_task(4, 2, size=16)
        d = tmp_path / "h"
        save_handle(d, h)
        (d / "scores.csv").write_text("id,score\n000000,7.0\n000001,7.0\n")
        back = load_handle(d)
        assert [s.target.score for s in back.samples] == [0.5, 0.5]

    def test_in_range_scores_pass_through(self, tmp_path):
        h = gen_rating_task(5, 2, size=16)
        d = tmp_path / "h"
        save_handle(d, h)
        (d / "scores.csv").write_text("id,score\n000000,0.25\n000001,0.75\n")
        back = load_handle(d)
        assert [s.target.score for s in back.samples] == [0.25, 0.75]

    def test_header_only_scores_rejected(self, tmp_path):
        d = tmp_path / "h"
        save_handle(d, gen_rating_task(5, 2, size=16))
        (d / "scores.csv").write_text("id,score\n")
        with pytest.raises(ParseError, match="no rows below its header"):
            load_handle(d)

    def test_grid_map_target_accepted(self, tmp_path):
        h = gen_saliency_task(6, 2)
        d = tmp_path / "h"
        save_handle(d, h)
        # replace one PGM with a lossless grid; the grid wins when both exist
        write_grid(d / "maps" / "000000.grid", h.samples[0].target)
        back = load_handle(d)
        assert np.array_equal(back.samples[0].target.values, h.samples[0].target.values)

    def test_map_of_another_size_than_its_image_rejected_at_load(self, tmp_path):
        d = tmp_path / "h"
        save_handle(d, gen_saliency_task(6, 2))
        write_grid(d / "maps" / "000001.grid", GrayMap(32, 32, np.full((32, 32), 0.5)))
        with pytest.raises(ValidationError, match="heatmap target 32x32 does not match its "
                                                  "image 64x64") as e:
            load_handle(d)
        assert isinstance(e.value, ParseError)
        assert e.value.path == str(d / "maps" / "000001.grid")

    @pytest.mark.parametrize("key,line", [("input_type", 2), ("output_type", 3)])
    def test_unknown_meta_type_is_an_error_at_its_line(self, tmp_path, key, line):
        d = tmp_path / "h"
        save_handle(d, gen_saliency_task(6, 1))
        meta = d / "meta.txt"
        meta.write_text(re.sub(f"{key} = .*", f"{key} = nat", meta.read_text()))
        with pytest.raises(ParseError, match=f"unknown {key.replace('_', ' ')}: 'nat'") as e:
            load_handle(d)
        assert (e.value.path, e.value.line) == (str(meta), line)

    def test_a_repeated_meta_type_is_checked_where_it_last_appears(self, tmp_path):
        d = tmp_path / "h"
        save_handle(d, gen_saliency_task(6, 1))
        meta = d / "meta.txt"
        meta.write_text("input_type = nat\n" + meta.read_text())
        assert load_handle(d).input_type == "natural image"

    def test_missing_target_rejected(self, tmp_path):
        h = gen_saliency_task(7, 2)
        d = tmp_path / "h"
        save_handle(d, h)
        (d / "maps" / "000001.pgm").unlink()
        with pytest.raises(ValidationError):
            load_handle(d)

    def test_meta_prompt_disagreement_rejected(self, tmp_path):
        h = gen_scanpath_task(8, 2)
        d = tmp_path / "h"
        save_handle(d, h)
        meta = (d / "meta.txt").read_text().replace("natural image", "webpage")
        (d / "meta.txt").write_text(meta)
        with pytest.raises(ValidationError):
            load_handle(d)

    def test_bad_meta_key(self, tmp_path):
        d = tmp_path / "h"
        d.mkdir()
        (d / "meta.txt").write_text("name = x\nflavour = sweet\n")
        with pytest.raises(ParseError) as e:
            load_handle(d)
        assert e.value.line == 2

    def test_no_images_rejected(self, tmp_path):
        d = tmp_path / "h"
        (d / "images").mkdir(parents=True)
        (d / "meta.txt").write_text(
            "name = x\ninput_type = natural image\noutput_type = scanpath\n")
        with pytest.raises(ValidationError):
            load_handle(d)
