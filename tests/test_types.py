import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uniar.errors import ParseError, ValidationError
from uniar.metrics import MeanShiftResult
from uniar.types import (
    INPUT_TYPES,
    OUTPUT_TYPES,
    BinnedScanpath,
    DatasetHandle,
    FixationSet,
    GrayMap,
    ImageGrid,
    PromptSpec,
    RatingSample,
    Sample,
    Scanpath,
    SegmentationMap,
    TokenString,
    fixation_pixels,
    parse_prompt,
    render_prompt,
    round_halfaway,
    target_kind,
)


class TestGrayMap:
    def test_basic_and_flat_construction(self):
        m = GrayMap(3, 2, [[0.0, 0.5, 1.0], [0.1, 0.2, 0.3]])
        assert m.shape == (2, 3)
        flat = GrayMap(3, 2, [0.0, 0.5, 1.0, 0.1, 0.2, 0.3])
        assert np.array_equal(m.values, flat.values)

    def test_values_are_read_only(self):
        m = GrayMap(2, 2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 1.0

    def test_copies_input(self):
        buf = np.zeros((2, 2))
        m = GrayMap(2, 2, buf)
        buf[0, 0] = 9.0
        assert m.values[0, 0] == 0.0

    @pytest.mark.parametrize("w,h", [(0, 2), (2, 0), (-1, 3)])
    def test_zero_sized_rejected(self, w, h):
        with pytest.raises(ValidationError):
            GrayMap(w, h, np.zeros((max(h, 1), max(w, 1))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            GrayMap(3, 2, np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            GrayMap(3, 2, np.zeros(5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            GrayMap(2, 1, [[np.nan, 0.0]])
        with pytest.raises(ValidationError):
            GrayMap(2, 1, [[np.inf, 0.0]])

    def test_unit_range_tag(self):
        GrayMap(2, 1, [[0.0, 1.0]], kind="unit-range")
        with pytest.raises(ValidationError):
            GrayMap(2, 1, [[0.0, 1.5]], kind="unit-range")

    def test_normalized_prob_tag(self):
        GrayMap(2, 1, [[0.25, 0.75]], kind="normalized-prob")
        with pytest.raises(ValidationError):
            GrayMap(2, 1, [[0.5, 0.75]], kind="normalized-prob")
        with pytest.raises(ValidationError):
            GrayMap(2, 1, [[-0.5, 1.5]], kind="normalized-prob")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            GrayMap(2, 1, [[0.0, 1.0]], kind="probability")


class TestSegmentationMap:
    def test_labels_and_lookup(self):
        seg = SegmentationMap(2, 2, [[0, 1], [2, 3]])
        assert seg.label_at(1.2, 0.2) == 1
        assert seg.label_at(0.0, 1.9) == 2

    def test_negative_label_rejected(self):
        with pytest.raises(ValidationError):
            SegmentationMap(2, 1, [[0, -1]])

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            SegmentationMap(2, 1, [[0.5, 1.0]])

    def test_out_of_frame_lookup_rejected(self):
        seg = SegmentationMap(2, 2, [[0, 1], [2, 3]])
        with pytest.raises(ValidationError):
            seg.label_at(2.0, 0.0)


class TestFixationsAndScanpaths:
    def test_empty_fixation_set_allowed(self):
        f = FixationSet(frame=(10, 10))
        assert len(f) == 0

    def test_bounds_enforced(self):
        FixationSet(frame=(10, 5), points=[[9.999, 4.999], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            FixationSet(frame=(10, 5), points=[[10.0, 0.0]])
        with pytest.raises(ValidationError):
            FixationSet(frame=(10, 5), points=[[-0.1, 0.0]])

    def test_zero_frame_rejected(self):
        with pytest.raises(ValidationError):
            FixationSet(frame=(0, 5))

    def test_scanpath_requires_a_fixation(self):
        with pytest.raises(ValidationError):
            Scanpath(frame=(10, 10), fixations=np.zeros((0, 2)))

    def test_scanpath_ordering_preserved(self):
        p = Scanpath(frame=(10, 10), fixations=[[1, 2], [3, 4], [5, 6]])
        assert len(p) == 3
        assert p.fixations[1].tolist() == [3.0, 4.0]

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            Scanpath(frame=(10, 10), fixations=[[np.nan, 0.0]])

    @pytest.mark.parametrize("frame", [(np.nan, 10), (10, np.inf), (1e400, 10), ("ten", 10)])
    def test_non_numeric_or_non_finite_frame_rejected(self, frame):
        with pytest.raises(ValidationError, match="frame"):
            Scanpath(frame=frame, fixations=[[1.0, 1.0]])
        with pytest.raises(ValidationError, match="frame"):
            FixationSet(frame=frame)

    @pytest.mark.parametrize("frame", [(10.9, 10), (10, 9.5), (np.float64(64.25), 64), ("10", 10)])
    def test_fractional_frame_rejected_not_truncated(self, frame):
        # 10.9 used to become 10, which rejected a fixation at x = 10.5 as
        # outside the frame
        with pytest.raises(ValidationError, match="whole numbers"):
            Scanpath(frame=frame, fixations=[[9.5, 1.0]])
        with pytest.raises(ValidationError, match="whole numbers"):
            FixationSet(frame=frame)

    def test_whole_float_frame_accepted(self):
        p = Scanpath(frame=(64.0, np.float64(32.0)), fixations=[[63.5, 31.5]])
        assert p.frame == (64, 32) and all(type(v) is int for v in p.frame)


class TestBinnedScanpath:
    def test_range(self):
        BinnedScanpath([[0, 0], [999, 999]])
        with pytest.raises(ValidationError):
            BinnedScanpath([[1000, 0]])
        with pytest.raises(ValidationError):
            BinnedScanpath([[-1, 0]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BinnedScanpath(np.zeros((0, 2), dtype=np.int64))


class TestTokenString:
    def test_text_joins_with_single_spaces(self):
        t = TokenString(("a", "b", "c"))
        assert t.text == "a b c"
        assert len(t) == 3

    def test_rejects_empty_and_whitespace(self):
        with pytest.raises(ValidationError):
            TokenString(())
        with pytest.raises(ValidationError):
            TokenString(("a b",))
        with pytest.raises(ValidationError):
            TokenString(("",))


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_halfaway(0.5) == 1.0
        assert round_halfaway(1.5) == 2.0
        assert round_halfaway(2.49) == 2.0
        assert round_halfaway(-0.5) == -1.0
        assert round_halfaway(-1.5) == -2.0

    def test_fixation_pixels_clip_to_frame(self):
        cols, rows = fixation_pixels([[63.7, 0.2]], 64, 64)
        assert cols[0] == 63 and rows[0] == 0
        cols, rows = fixation_pixels([[63.4, 63.9]], 64, 64)
        assert cols[0] == 63 and rows[0] == 63


class TestPrompts:
    def test_rendering_with_query(self):
        s = PromptSpec("natural image", "scanpath", "searching a bowl")
        assert render_prompt(s) == (
            "INPUT_TYPE: natural image OUTPUT_TYPE: scanpath QUERY:searching a bowl")

    def test_rendering_without_query(self):
        s = PromptSpec("webpage", "saliency heatmap")
        assert render_prompt(s) == "INPUT_TYPE: webpage OUTPUT_TYPE: saliency heatmap"

    def test_unknown_enum_values_rejected(self):
        with pytest.raises(ValidationError):
            PromptSpec("photo", "scanpath")
        with pytest.raises(ValidationError):
            PromptSpec("webpage", "fixation map")

    def test_newline_query_rejected(self):
        with pytest.raises(ValidationError):
            PromptSpec("webpage", "scanpath", "line1\nline2")

    @pytest.mark.parametrize("query", [None, "", "brightest", "a QUERY:b", "x OUTPUT_TYPE: y"])
    def test_parse_inverts_render(self, query):
        for it in INPUT_TYPES:
            for ot in OUTPUT_TYPES:
                spec = PromptSpec(it, ot, query)
                assert parse_prompt(render_prompt(spec)) == spec

    @given(st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=40))
    def test_parse_inverts_render_any_query(self, query):
        spec = PromptSpec("graphic design", "importance heatmap", query)
        assert parse_prompt(render_prompt(spec)) == spec

    def test_distinct_specs_render_distinctly(self):
        seen = {}
        for it in INPUT_TYPES:
            for ot in OUTPUT_TYPES:
                for q in (None, "", "q"):
                    text = render_prompt(PromptSpec(it, ot, q))
                    assert text not in seen
                    seen[text] = (it, ot, q)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ParseError):
            parse_prompt("OUTPUT_TYPE: scanpath")
        with pytest.raises(ParseError):
            parse_prompt("INPUT_TYPE: webpage")
        with pytest.raises(ValidationError):
            parse_prompt("INPUT_TYPE: webpage OUTPUT_TYPE: nonsense")


class TestSamplesAndHandles:
    def _image(self):
        return ImageGrid(4, 4, np.zeros((4, 4, 3)))

    def test_target_kind_mapping(self):
        assert target_kind("saliency heatmap") == "heatmap"
        assert target_kind("importance heatmap") == "heatmap"
        assert target_kind("scanpath") == "scanpath"
        assert target_kind("aesthetics score") == "score"
        with pytest.raises(ValidationError):
            target_kind("saliency")

    def test_target_type_must_match_prompt(self):
        img = self._image()
        heat = GrayMap(4, 4, np.zeros((4, 4)))
        path = Scanpath(frame=(4, 4), fixations=[[1, 1]])
        Sample(img, PromptSpec("webpage", "importance heatmap"), heat)
        Sample(img, PromptSpec("natural image", "scanpath"), path)
        Sample(img, PromptSpec("natural image", "aesthetics score"), 0.5)
        with pytest.raises(ValidationError):
            Sample(img, PromptSpec("webpage", "importance heatmap"), path)
        with pytest.raises(ValidationError):
            Sample(img, PromptSpec("natural image", "scanpath"), heat)
        with pytest.raises(ValidationError):
            Sample(img, PromptSpec("natural image", "aesthetics score"), 1.5)

    def test_score_targets_become_rating_samples(self):
        img = self._image()
        prompt = PromptSpec("natural image", "aesthetics score")
        s = Sample(img, prompt, 0.5)
        assert s.target == RatingSample(0.5)
        assert Sample(img, prompt, RatingSample(0.25)).target.score == 0.25
        with pytest.raises(ValidationError):
            RatingSample(-0.01)
        with pytest.raises(ValidationError):
            RatingSample(float("nan"))
        with pytest.raises(ValidationError):
            Sample(img, prompt, "0.5")

    def test_image_range_checked(self):
        with pytest.raises(ValidationError):
            ImageGrid(2, 2, np.full((2, 2, 3), 1.5))
        with pytest.raises(ValidationError):
            ImageGrid(2, 2, np.zeros((2, 2)))

    def test_handle_requires_samples(self):
        with pytest.raises(ValidationError):
            DatasetHandle("empty", "natural image", "aesthetics score", ())
        s = Sample(self._image(), PromptSpec("natural image", "aesthetics score"), 0.2)
        h = DatasetHandle("one", "natural image", "aesthetics score", (s,))
        assert len(h) == 1
        assert h.kind == "score"

    def test_handle_prompt_consistency_enforced(self):
        s = Sample(self._image(), PromptSpec("natural image", "aesthetics score"), 0.2)
        with pytest.raises(ValidationError):
            DatasetHandle("mismatch", "webpage", "aesthetics score", (s,))
        with pytest.raises(ValidationError):
            DatasetHandle("badtype", "natural image", "saliency", (s,))


# Each array-backed type makes one private copy of its input while it
# coerces the dtype, then freezes that copy.
_ARRAY_TYPES = [
    ("GrayMap", lambda a: GrayMap(2, 2, a), "values", np.zeros((2, 2))),
    ("SegmentationMap", lambda a: SegmentationMap(2, 2, a), "labels",
     np.zeros((2, 2), dtype=np.int64)),
    ("ImageGrid", lambda a: ImageGrid(2, 1, a), "pixels", np.zeros((1, 2, 3))),
    ("FixationSet", lambda a: FixationSet((4, 4), a), "points", np.ones((3, 2))),
    ("Scanpath", lambda a: Scanpath((4, 4), a), "fixations", np.ones((3, 2))),
    ("BinnedScanpath", BinnedScanpath, "bins", np.ones((3, 2), dtype=np.int64)),
    ("MeanShiftResult.centers", lambda a: MeanShiftResult(a, np.zeros(3, dtype=np.int64), 1.0),
     "centers", np.ones((3, 2))),
    ("MeanShiftResult.labels", lambda a: MeanShiftResult(np.ones((1, 2)), a, 1.0), "labels",
     np.zeros(3, dtype=np.int64)),
]


@pytest.mark.parametrize("make,attr,arr", [t[1:] for t in _ARRAY_TYPES],
                         ids=[t[0] for t in _ARRAY_TYPES])
def test_instance_owns_a_read_only_copy(make, attr, arr):
    obj = make(arr)
    held = getattr(obj, attr)
    before = held.copy()
    arr[...] = 3  # the caller keeps writing to its own array
    assert np.array_equal(held, before) and not np.shares_memory(held, arr)
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held.flat[0] = 1
