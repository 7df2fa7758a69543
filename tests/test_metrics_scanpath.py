import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    align_vectors_ref,
    lcs_naive,
    levenshtein_naive,
    meanshift_clusters_ref,
    meanshift_naive,
    multimatch_ref,
    nw_similarity_ref,
)
from uniar import cli
from uniar.data import write_grid, write_scanpaths
from uniar.errors import NumericError, ValidationError
from uniar.metrics import (
    assign_to_clusters,
    default_bandwidth,
    levenshtein,
    meanshift_clusters,
    multimatch,
    nw_similarity,
    semfed,
    semss,
    sequence_score,
)
from uniar.metrics import scanpath
from uniar.metrics.scanpath import MeanShiftResult, _align_vectors, _seg_labels
from uniar import types
from uniar.types import FixationSet, PromptSpec, Scanpath, SegmentationMap, fixation_pixels

seqs = st.lists(st.integers(0, 4), min_size=1, max_size=10)
# longer strings over a smaller alphabet, so the DPs meet many ties
seqs30 = st.lists(st.integers(0, 3), min_size=1, max_size=30)


class TestAlignmentScores:
    def test_nw_hand_example(self):
        assert nw_similarity([1, 2, 3, 4], [1, 3, 4]) == pytest.approx(0.75)

    def test_nw_equal_and_disjoint(self):
        assert nw_similarity("abc", "abc") == 1.0
        assert nw_similarity("abc", "xyz") == 0.0

    @given(seqs, seqs)
    def test_nw_equals_normalized_lcs(self, a, b):
        expect = lcs_naive(tuple(a), tuple(b)) / max(len(a), len(b))
        assert nw_similarity(a, b) == pytest.approx(expect, abs=1e-12)

    @given(seqs, seqs)
    def test_nw_symmetric(self, a, b):
        assert nw_similarity(a, b) == pytest.approx(nw_similarity(b, a), abs=1e-12)

    def test_nw_empty_rejected(self):
        with pytest.raises(ValidationError):
            nw_similarity([], [1])

    def test_levenshtein_classic(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0

    @given(seqs30, seqs30)
    def test_levenshtein_matches_naive(self, a, b):
        assert levenshtein(a, b) == levenshtein_naive(tuple(a), tuple(b))

    @given(seqs, seqs, seqs)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestMeanShift:
    def test_single_tight_cluster(self):
        pts = [[10.0, 10.0], [10.5, 9.5], [9.8, 10.2], [10.1, 10.1]]
        res = meanshift_clusters(np.asarray(pts), bandwidth=5.0)
        assert res.n_clusters == 1
        assert np.all(res.labels == 0)
        assert np.allclose(res.centers[0], np.mean(pts, axis=0), atol=0.5)

    def test_two_far_groups(self):
        pts = [[0.0, 0.0], [1.0, 0.5], [0.5, 1.0], [100.0, 100.0], [101.0, 99.0]]
        res = meanshift_clusters(np.asarray(pts), bandwidth=10.0)
        assert res.n_clusters == 2
        assert res.labels.tolist() == [0, 0, 0, 1, 1]

    def test_matches_naive_fixed_point_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 200, size=(30, 2))
        res = meanshift_clusters(pts, bandwidth=50.0)
        centers, labels = meanshift_naive(pts.tolist(), 50.0)
        assert res.labels.tolist() == labels
        assert np.allclose(res.centers, np.asarray(centers), atol=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, size=(25, 2))
        a = meanshift_clusters(pts, bandwidth=20.0)
        b = meanshift_clusters(pts, bandwidth=20.0)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.labels, b.labels)

    def test_default_bandwidth_from_frame(self):
        f = FixationSet(frame=(300, 400), points=[[10, 10], [20, 20]])
        res = meanshift_clusters(f)
        assert res.bandwidth == pytest.approx(math.hypot(300, 400) / 10)
        assert default_bandwidth((300, 400)) == pytest.approx(50.0)

    def test_bandwidth_required_for_bare_points(self):
        with pytest.raises(ValidationError):
            meanshift_clusters(np.zeros((3, 2)))

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            meanshift_clusters(np.zeros((0, 2)), bandwidth=5.0)
        with pytest.raises(ValidationError):
            meanshift_clusters(np.zeros((3, 2)), bandwidth=0.0)

    def test_assignment_tie_prefers_lowest_index(self):
        res = MeanShiftResult(centers=[[0.0, 0.0], [2.0, 0.0]], labels=[0, 1], bandwidth=1.0)
        assert assign_to_clusters(res, [[1.0, 0.0]]).tolist() == [0]


class TestSequenceScore:
    def _clusters(self):
        gt_pool = FixationSet(frame=(100, 100),
                              points=[[10, 10], [11, 9], [50, 50], [49, 51], [90, 90], [91, 89]])
        return meanshift_clusters(gt_pool, bandwidth=15.0)

    def test_three_cluster_example(self):
        clusters = self._clusters()
        pred = Scanpath(frame=(100, 100), fixations=[[10, 10], [50, 50]])
        gt = Scanpath(frame=(100, 100), fixations=[[10, 11], [51, 50], [90, 90]])
        assert sequence_score(pred, gt, clusters) == pytest.approx(2.0 / 3.0)

    def test_identical_paths_score_one(self):
        clusters = self._clusters()
        p = Scanpath(frame=(100, 100), fixations=[[10, 10], [90, 90], [50, 50]])
        assert sequence_score(p, p, clusters) == 1.0

    def test_no_clusters_rejected(self):
        empty = MeanShiftResult(centers=np.zeros((0, 2)), labels=np.zeros(0, dtype=int),
                                bandwidth=1.0)
        p = Scanpath(frame=(100, 100), fixations=[[10, 10]])
        with pytest.raises(NumericError):
            sequence_score(p, p, empty)

    def test_frame_mismatch_rejected(self):
        clusters = self._clusters()
        a = Scanpath(frame=(100, 100), fixations=[[1, 1]])
        b = Scanpath(frame=(50, 100), fixations=[[1, 1]])
        with pytest.raises(ValidationError):
            sequence_score(a, b, clusters)


def _count_pixel_maps(monkeypatch):
    """The fixation arrays that `types.fixation_pixels` maps from now on."""
    mapped = []

    def counted(points, width, height):
        mapped.append(points)
        return fixation_pixels(points, width, height)

    monkeypatch.setattr(types, "fixation_pixels", counted)
    return mapped


class TestSemanticScores:
    def _seg(self):
        lab = np.zeros((10, 10), dtype=int)
        lab[:, 5:] = 1
        lab[5:, :5] = 2
        return SegmentationMap(10, 10, lab)

    def test_semss_collapses_consecutive_duplicates(self):
        seg = self._seg()
        pred = Scanpath(frame=(10, 10), fixations=[[1, 1], [2, 2], [7, 1]])  # 0,0,1 -> 0,1
        gt = Scanpath(frame=(10, 10), fixations=[[0, 0], [8, 0]])  # 0,1
        assert semss(pred, gt, seg) == 1.0

    def test_semfed_does_not_collapse(self):
        seg = self._seg()
        pred = Scanpath(frame=(10, 10), fixations=[[1, 1], [2, 2], [7, 1]])  # 0,0,1
        gt = Scanpath(frame=(10, 10), fixations=[[0, 0], [8, 0]])  # 0,1
        assert semfed(pred, gt, seg) == 1.0

    def test_semfed_disjoint_regions_gives_longer_length(self):
        seg = self._seg()
        pred = Scanpath(frame=(10, 10), fixations=[[1, 1], [1, 2], [2, 1]])  # 0,0,0
        gt = Scanpath(frame=(10, 10), fixations=[[7, 1], [8, 1], [7, 2], [8, 2], [6, 1]])  # 1x5
        assert semfed(pred, gt, seg) == 5.0

    def test_identity_semantics(self):
        seg = self._seg()
        p = Scanpath(frame=(10, 10), fixations=[[1, 1], [7, 1], [2, 7]])
        assert semss(p, p, seg) == 1.0
        assert semfed(p, p, seg) == 0.0

    def test_each_path_is_mapped_to_pixels_once(self, monkeypatch):
        seg = self._seg()
        pred = Scanpath(frame=(10, 10), fixations=[[1, 1], [2, 2], [7, 1], [2, 7]])
        gt = Scanpath(frame=(10, 10), fixations=[[0, 0], [8, 0], [8, 8]])
        mapped = _count_pixel_maps(monkeypatch)
        assert (semss(pred, gt, seg), semfed(pred, gt, seg)) == (2 / 3, 2.0)
        assert len(mapped) == 2 and mapped[0] is pred.fixations and mapped[1] is gt.fixations
        assert pred.pixels[1].tolist() == [1, 2, 1, 7] and not pred.pixels[1].flags.writeable

    def test_frame_must_match_segmentation(self):
        seg = self._seg()
        p = Scanpath(frame=(12, 10), fixations=[[11, 1]])
        with pytest.raises(ValidationError):
            semss(p, p, seg)

    @given(st.lists(st.tuples(st.floats(0, 12, exclude_max=True),
                              st.floats(0, 9, exclude_max=True)), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_labels_match_per_point_lookup(self, points, seed):
        labels = np.random.default_rng(seed).integers(0, 5, size=(9, 12))
        seg = SegmentationMap(12, 9, labels)
        path = Scanpath(frame=(12, 9), fixations=points)
        expect = [seg.label_at(x, y) for x, y in path.fixations]
        got = _seg_labels(path, seg)
        assert got == expect
        assert all(type(v) is int for v in got)


def _brute_force_align(u, v):
    """Enumerate every monotone lattice path and return the cheapest
    (ties resolved by total cost only; callers use generic floats)."""
    n, m = len(u), len(v)
    best = (math.inf, None)

    def walk(i, j, acc, path):
        acc = acc + math.hypot(*(u[i] - v[j]))
        path = path + [(i, j)]
        nonlocal best
        if (i, j) == (n - 1, m - 1):
            if acc < best[0]:
                best = (acc, path)
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc, path)
        if i + 1 < n:
            walk(i + 1, j, acc, path)
        if j + 1 < m:
            walk(i, j + 1, acc, path)

    walk(0, 0, 0.0, [])
    return best


class TestMultiMatch:
    def test_identical_paths_all_ones(self):
        p = Scanpath(frame=(100, 100), fixations=[[10, 10], [50, 20], [30, 80]])
        s = multimatch(p, p)
        assert s.shape == s.length == s.direction == s.position == 1.0
        assert s.mean == 1.0

    def test_translation_keeps_vector_components(self):
        a = Scanpath(frame=(100, 100), fixations=[[10, 10], [50, 20], [30, 80]])
        b = Scanpath(frame=(100, 100), fixations=[[20, 10], [60, 20], [40, 80]])
        s = multimatch(a, b)
        assert s.shape == pytest.approx(1.0)
        assert s.length == pytest.approx(1.0)
        assert s.direction == pytest.approx(1.0)
        assert s.position < 1.0

    def test_reversed_direction_penalized(self):
        a = Scanpath(frame=(100, 100), fixations=[[10, 50], [90, 50]])
        b = Scanpath(frame=(100, 100), fixations=[[90, 50], [10, 50]])
        s = multimatch(a, b)
        assert s.direction == pytest.approx(0.0)

    def test_alignment_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n, m = rng.integers(2, 6), rng.integers(2, 6)
            u = rng.uniform(-50, 50, size=(n, 2))
            v = rng.uniform(-50, 50, size=(m, 2))
            pairs = _align_vectors(u, v)
            cost = sum(math.hypot(*(u[i] - v[j])) for i, j in pairs)
            best_cost, _ = _brute_force_align(u, v)
            assert cost == pytest.approx(best_cost, abs=1e-9)

    def test_all_components_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = Scanpath(frame=(200, 100), fixations=np.stack(
                [rng.uniform(0, 200, n), rng.uniform(0, 100, n)], axis=1))
            b = Scanpath(frame=(200, 100), fixations=np.stack(
                [rng.uniform(0, 200, m), rng.uniform(0, 100, m)], axis=1))
            s = multimatch(a, b)
            for v in (s.shape, s.length, s.direction, s.position):
                assert 0.0 <= v <= 1.0

    def test_zero_length_saccade_handled(self):
        a = Scanpath(frame=(100, 100), fixations=[[10, 10], [10, 10], [50, 50]])
        b = Scanpath(frame=(100, 100), fixations=[[10, 10], [50, 50]])
        s = multimatch(a, b)
        assert 0.0 <= s.direction <= 1.0

    def test_too_short_rejected(self):
        a = Scanpath(frame=(100, 100), fixations=[[10, 10]])
        b = Scanpath(frame=(100, 100), fixations=[[10, 10], [50, 50]])
        with pytest.raises(ValidationError):
            multimatch(a, b)

    def test_frame_mismatch_rejected(self):
        a = Scanpath(frame=(100, 100), fixations=[[10, 10], [20, 20]])
        b = Scanpath(frame=(100, 50), fixations=[[10, 10], [20, 20]])
        with pytest.raises(ValidationError):
            multimatch(a, b)


# ---------------------------------------------------------------------------
# the Python-float loops against the numpy-scalar loops they replaced, bit
# for bit (levenshtein's oracle is levenshtein_naive, above); small
# alphabets and integer-valued vectors make ties common

vectors30 = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                     min_size=1, max_size=30).map(lambda v: np.array(v, dtype=np.float64))
points31 = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5)), min_size=2, max_size=31)


class TestMatchesNumpyScalarOracles:
    @given(seqs30, seqs30)
    def test_nw_similarity(self, a, b):
        assert nw_similarity(a, b) == nw_similarity_ref(a, b)

    @given(vectors30, vectors30)
    @settings(max_examples=300)
    # backtrack ties: the u step beats the v step when their totals are equal
    @example(np.array([[-1.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]),
             np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0]]))
    def test_align_vectors_pairs(self, u, v):
        assert _align_vectors(u, v) == align_vectors_ref(u, v)

    @given(points31, points31)
    def test_multimatch_all_four_scores(self, a, b):
        pred, gt = Scanpath((8, 6), a), Scanpath((8, 6), b)
        assert multimatch(pred, gt) == multimatch_ref(pred, gt)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=30),
           st.sampled_from([2.0, 3.0, 10.0]), st.sampled_from([0, 300]))
    @example([(0, 0), (1, 0), (6, 8)], 2.0, 0)
    @example([(0, 0), (3, 4), (1, 1)], 10.0, 0)
    def test_meanshift_centers_and_labels(self, points, bandwidth, max_iter):
        # max_iter 0 merges the grid points themselves, so modes exactly
        # half a bandwidth apart (1 or 5) occur
        pts = np.array(points, dtype=np.float64)
        got = meanshift_clusters(pts, bandwidth=bandwidth, max_iter=max_iter)
        want = meanshift_clusters_ref(pts, bandwidth=bandwidth, max_iter=max_iter)
        assert got.centers.shape == want.centers.shape
        assert np.all(got.centers == want.centers)
        assert got.labels.tolist() == want.labels.tolist()

    def test_eval_scanpath_csv_equals_oracle_csv(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(15)
        prompt = PromptSpec("natural image", "scanpath")
        for name in ("pred", "gt", "seg"):
            (tmp_path / name).mkdir()
        for i in range(12):
            for name in ("pred", "gt"):
                n = int(rng.integers(2, 26))
                fix = rng.integers(0, 64, size=(n, 2)).astype(np.float64)
                write_scanpaths(tmp_path / name / f"{i:02d}.jsonl", [(Scanpath((64, 64), fix), prompt)])
            labels = rng.integers(0, 4, size=(8, 8)).repeat(8, axis=0).repeat(8, axis=1)
            write_grid(tmp_path / "seg" / f"{i:02d}.grid", SegmentationMap(64, 64, labels))

        def eval_csv(out):
            argv = ["eval-scanpath", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                    "--seg", str(tmp_path / "seg"), "--out", str(out)]
            assert cli.run(argv) == 0
            return out.read_bytes()

        mapped = _count_pixel_maps(monkeypatch)
        fast = eval_csv(tmp_path / "fast.csv")
        assert len(mapped) == 2 * 12  # each path of each sample mapped to pixels once
        monkeypatch.setattr(cli, "meanshift_clusters", meanshift_clusters_ref)
        monkeypatch.setattr(cli, "multimatch", multimatch_ref)
        monkeypatch.setattr(scanpath, "nw_similarity", nw_similarity_ref)
        monkeypatch.setattr(scanpath, "levenshtein", levenshtein_naive)
        assert eval_csv(tmp_path / "oracle.csv") == fast


def test_alignment_loops_index_no_numpy_array():
    """The loop rule: no loop in the alignment DPs or MultiMatch's sums
    subscripts with a tuple (``x[i, j]``) or calls ``np.*``, so those
    loops stay on Python floats and lists."""
    tree = ast.parse(Path(scanpath.__file__).read_text(encoding="utf-8"))
    checked, found = set(), []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in (
                "nw_similarity", "levenshtein", "_align_vectors", "multimatch"):
            continue
        checked.add(fn.name)
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
                    found.append(f"{fn.name}:{node.lineno} tuple subscript")
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                    found.append(f"{fn.name}:{node.lineno} np.{node.func.attr}(")
    assert checked == {"nw_similarity", "levenshtein", "_align_vectors", "multimatch"}
    assert found == []
