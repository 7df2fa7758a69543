import csv
import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

import uniar.autodiff as ad
import uniar.cli as cli
from uniar.cli import render_overlay, report_table, run
from uniar.data import (
    gen_rating_task,
    gen_saliency_task,
    gen_scanpath_task,
    read_pgm,
    read_ppm,
    read_scanpaths,
    read_table,
    save_handle,
    write_grid,
    write_pgm,
    write_ppm,
    write_ratings,
    write_scanpaths,
    write_table,
)
from uniar.errors import ValidationError
from uniar.model import ModelConfig, write_config
from uniar.metrics import evaluate_heatmap
from uniar.types import FixationSet, GrayMap, PromptSpec, Scanpath, SegmentationMap


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# report_table


class TestReportTable:
    def test_single_row_starred_everywhere(self):
        text = report_table([("a", [0.5, 0.25])], ("cc+", "kld-"))
        assert text.splitlines()[1].count("*") == 2

    def test_tie_stars_both_rows(self):
        text = report_table([("a", [0.5]), ("b", [0.5])], ("cc+",))
        lines = text.splitlines()
        assert "*0.500" in lines[1] and "*0.500" in lines[2]

    def test_direction_suffix_picks_winner(self):
        text = report_table([("a", [0.8, 0.8]), ("b", [0.2, 0.2])], ("up+", "down-"))
        lines = text.splitlines()
        assert "*0.800" in lines[1] and "*0.200" in lines[2]
        assert "*0.200" not in lines[1] and "*0.800" not in lines[2]

    def test_three_decimals(self):
        text = report_table([("a", [1 / 3])], ("m+",))
        assert "0.333" in text

    def test_missing_cells_render_na_and_never_win(self):
        text = report_table([("a", [None]), ("b", [0.1])], ("m+",))
        lines = text.splitlines()
        assert "n/a" in lines[1] and "*0.100" in lines[2]

    def test_columns_fit_widest_cell(self):
        rows = [("a-very-long-label", [1234.5]), ("b", [0.5])]
        text = report_table(rows, ("m+",))
        header, r1, r2 = text.splitlines()
        assert len(header) == len(r1) == len(r2)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            report_table([], ("m+",))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            report_table([("a", [1.0, 2.0])], ("m+",))


# ---------------------------------------------------------------------------
# exit codes and dispatch


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert run(["mixture-check", "--bogus", "x"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["eval-rating", "--pairs", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "pairs.csv"
        bad.write_text("wrong,header,here\n")
        assert run(["eval-rating", "--pairs", str(bad)]) == 2

    def test_numeric_failure_is_exit_three(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_ratings(pairs, [("a", 0.5, 0.1), ("b", 0.5, 0.9)])
        assert run(["eval-rating", "--pairs", str(pairs)]) == 3
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_help_exits_zero_twice_in_one_process(self, capsys):
        # the parser is built once a process, so a second --help reuses it
        for _ in range(2):
            assert run(["--help"]) == 0
            assert "usage" in capsys.readouterr().out

    def test_parser_built_once_parses_each_argv_afresh(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        first = parser.parse_args(["train", "--data", "a", "--data", "b", "--out", "o"])
        second = parser.parse_args(["train", "--data", "c", "--out", "o"])
        third = parser.parse_args(["train", "--synthetic", "--out", "o"])
        assert (first.data, second.data, third.data) == (["a", "b"], ["c"], [])
        assert first.data is not second.data

    def test_bad_log_level_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("UNIAR_LOG", "verbose")
        assert run(["--help"]) == 1

    def test_info_logging_to_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("UNIAR_LOG", "info")
        out = tmp_path / "mix.csv"
        assert run(["mixture-check", "--draws", "50", "--out", str(out)]) == 0
        assert "mixture-check" in capsys.readouterr().err

    def test_python_dash_m_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "uniar", "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"usage" in proc.stdout

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import uniar.cli as c; raise SystemExit(c.run(['--help']))"],
                              capture_output=True)
        assert proc.returncode == 0


# ---------------------------------------------------------------------------
# codec


class TestCodecCommand:
    def test_decode_malformed_prints_invalid_and_exits_zero(self, capsys):
        assert run(["codec", "decode", "and and and", "--frame", "64", "64"]) == 0
        assert capsys.readouterr().out.strip() == "INVALID"

    def test_decode_valid_prints_fixations(self, capsys):
        code = run(["codec", "decode", "<extra_id_01> 500 500 and <extra_id_02>",
                    "--frame", "1000", "1000"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[[500.5, 500.5]]"

    def test_encode_then_decode_round_trip(self, tmp_path, capsys):
        path = Scanpath((640, 480), [[320.0, 240.0], [10.0, 20.0]])
        src = tmp_path / "in.jsonl"
        write_scanpaths(src, [(path, PromptSpec("natural image", "scanpath"))])
        assert run(["codec", "encode", str(src)]) == 0
        tokens = capsys.readouterr().out.strip()
        assert tokens.startswith("<extra_id_01>") and tokens.endswith("<extra_id_02>")
        assert run(["codec", "decode", tokens, "--frame", "640", "480"]) == 0
        got = np.asarray(eval(capsys.readouterr().out))
        assert np.max(np.abs(got - path.fixations)) <= 640 / 2000 + 1e-9

    def test_encode_to_file(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_scanpaths(src, [(Scanpath((64, 64), [[1.0, 2.0]]),
                               PromptSpec("natural image", "scanpath"))])
        out = tmp_path / "tokens.txt"
        assert run(["codec", "encode", str(src), "--out", str(out)]) == 0
        assert out.read_text().count("<extra_id_01>") == 1

    def test_encode_file_matches_stdout_byte_for_byte(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        write_scanpaths(src, [(Scanpath((64, 64), [[1.0, 2.0], [60.5, 3.25]]),
                               PromptSpec("natural image", "scanpath")),
                              (Scanpath((640, 480), [[320.0, 240.0]]),
                               PromptSpec("webpage", "scanpath", "q"))])
        out = tmp_path / "tokens.txt"
        assert run(["codec", "encode", str(src), "--out", str(out)]) == 0
        assert run(["codec", "encode", str(src)]) == 0
        printed = capsys.readouterr().out
        assert out.read_bytes() == printed.encode("utf-8")
        assert printed.count("\n") == 2 and printed.endswith("<extra_id_02>\n")
        assert "\r" not in printed

    def test_huge_integer_coordinate_is_data_error(self, tmp_path, capsys):
        # a 400-digit integer overflows float64; it used to escape as OverflowError
        src = tmp_path / "in.jsonl"
        src.write_text('{"frame": [64, 64], "fixations": [[1.0, 2.0], [3.0, ' + "9" * 400
                       + ']], "input_type": "natural image", "output_type": "scanpath", '
                       '"query": null}\n')
        assert run(["codec", "encode", str(src)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            f"error: {src}: line 1: fixations: int too large to convert to float"]


# ---------------------------------------------------------------------------
# evaluation commands


@pytest.fixture(scope="module")
def heatmap_dirs(tmp_path_factory):
    """pred = gt maps for three blob samples plus fixation files."""
    root = tmp_path_factory.mktemp("heval")
    (root / "pred").mkdir(), (root / "gt").mkdir(), (root / "fix").mkdir()
    h = gen_saliency_task(5, 3)
    rng = np.random.default_rng(1)
    prompt = PromptSpec("natural image", "scanpath")
    for i, s in enumerate(h.samples):
        write_grid(root / "pred" / f"{i:03d}.grid", s.target)
        write_grid(root / "gt" / f"{i:03d}.grid", s.target)
        pts = rng.uniform(4, 60, size=(5, 2))
        write_scanpaths(root / "fix" / f"{i:03d}.jsonl",
                        [(Scanpath((64, 64), pts), prompt)])
    return root


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-1])
    return path


class TestEvalHeatmap:
    def test_identity_metrics(self, heatmap_dirs, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                    "--gt", str(heatmap_dirs / "gt"), "--fix", str(heatmap_dirs / "fix"),
                    "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        rows = read_csv(out)
        assert rows[0] == ["id", "cc", "kld", "auc_judd", "sauc", "nss", "sim",
                           "rmse", "r2"]
        assert [r[0] for r in rows[1:]] == ["000", "001", "002", "mean"]
        for r in rows[1:]:
            assert abs(float(r[1]) - 1.0) < 1e-9      # cc
            assert abs(float(r[2])) < 1e-12           # kld
            assert float(r[7]) == 0.0                 # rmse
        assert "*1.000" in table

    def test_jobs_do_not_change_output(self, heatmap_dirs, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"scores{jobs}.csv"
            assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                        "--gt", str(heatmap_dirs / "gt"),
                        "--fix", str(heatmap_dirs / "fix"),
                        "--out", str(out), "--jobs", jobs]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_reruns_are_byte_identical(self, heatmap_dirs, tmp_path):
        het = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                        "--gt", str(heatmap_dirs / "gt"),
                        "--fix", str(heatmap_dirs / "fix"), "--seed", "3",
                        "--out", str(out)]) == 0
            het.append(out.read_bytes())
        assert het[0] == het[1]

    def test_without_fixations_roc_columns_empty(self, heatmap_dirs, tmp_path):
        out = tmp_path / "noroc.csv"
        assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                    "--gt", str(heatmap_dirs / "gt"), "--out", str(out)]) == 0
        rows = read_csv(out)
        for r in rows[1:]:
            assert r[3] == "" and r[4] == "" and r[5] == ""  # auc, sauc, nss

    def test_sigma_builds_missing_gt_from_fixations(self, heatmap_dirs, tmp_path):
        import shutil
        gt2 = tmp_path / "gt2"
        shutil.copytree(heatmap_dirs / "gt", gt2)
        (gt2 / "000.grid").unlink()
        assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                    "--gt", str(gt2), "--fix", str(heatmap_dirs / "fix"),
                    "--sigma", "6"]) == 0
        # without --sigma the same hole is a data error
        assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                    "--gt", str(gt2), "--fix", str(heatmap_dirs / "fix")]) == 2

    def test_sauc_negatives_are_other_files_in_file_order(self, tmp_path):
        # samples with one or two fixations against ~75 pooled negatives, so
        # the seeded thinning to 10 per positive depends on the pool's order
        rng = np.random.default_rng(4)
        prompt = PromptSpec("natural image", "saliency heatmap")
        for d in ("pred", "gt", "fix"):
            (tmp_path / d).mkdir()
        # id: (frame, observers, fixations each); 004 has no prediction
        fix_ids = {"000": ((64, 64), 3, 9), "001": ((48, 32), 1, 1), "002": ((64, 64), 2, 12),
                   "003": ((64, 64), 1, 2), "004": ((40, 40), 4, 6)}
        maps = {}
        for sid, ((w, h), observers, n) in fix_ids.items():
            write_scanpaths(tmp_path / "fix" / f"{sid}.jsonl",
                            [(Scanpath((w, h), rng.uniform(0, [w, h], size=(n, 2))), prompt)
                             for _ in range(observers)])
            if sid != "004":
                maps[sid] = [GrayMap(w, h, rng.uniform(0.01, 1.0, size=(h, w)),
                                     kind="unit-range") for _ in range(2)]
                write_grid(tmp_path / "pred" / f"{sid}.grid", maps[sid][0])
                write_grid(tmp_path / "gt" / f"{sid}.grid", maps[sid][1])
        out = tmp_path / "scores.csv"
        assert run(["eval-heatmap", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                    "--fix", str(tmp_path / "fix"), "--seed", "3", "--out", str(out)]) == 0
        got = {r[0]: r[4] for r in read_csv(out)[1:]}

        def pooled(sid):
            paths = [p for p, _ in read_scanpaths(tmp_path / "fix" / f"{sid}.jsonl")]
            return FixationSet(paths[0].frame, np.vstack([p.fixations for p in paths]))

        for sid, (pred, gt) in maps.items():
            others = [pooled(k) for k in fix_ids if k != sid]
            neg = np.vstack([fs.points / np.array(fs.frame, dtype=np.float64) for fs in others])
            negatives = FixationSet((gt.width, gt.height), neg * np.array([gt.width, gt.height]))
            want = evaluate_heatmap(pred, gt, pooled(sid), negatives, seed=3).sauc
            assert got[sid] == repr(want)

    def test_truncated_binary_grid_is_data_error(self, heatmap_dirs, tmp_path, capsys):
        import shutil
        gt = tmp_path / "gt"
        shutil.copytree(heatmap_dirs / "gt", gt)
        bad = _truncate(gt / "001.grid")
        assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                    "--gt", str(gt), "--fix", str(heatmap_dirs / "fix")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: float64le payload has 32767 bytes, expected 32768 for 64x64"]

    def test_missing_gt_is_data_error(self, heatmap_dirs, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["eval-heatmap", "--pred", str(heatmap_dirs / "pred"),
                    "--gt", str(empty)]) == 2


class TestEvalScanpath:
    @pytest.fixture()
    def dirs(self, tmp_path):
        rng = np.random.default_rng(2)
        prompt = PromptSpec("natural image", "scanpath")
        for name in ("pred", "gt", "seg"):
            (tmp_path / name).mkdir()
        for i in range(3):
            gt = Scanpath((64, 64), rng.uniform(2, 62, size=(4, 2)))
            pred = gt if i == 0 else Scanpath((64, 64), rng.uniform(2, 62, size=(3, 2)))
            write_scanpaths(tmp_path / "gt" / f"{i}.jsonl", [(gt, prompt)])
            write_scanpaths(tmp_path / "pred" / f"{i}.jsonl", [(pred, prompt)])
            labels = np.indices((64, 64)).sum(axis=0) // 16
            write_grid(tmp_path / "seg" / f"{i}.grid", SegmentationMap(64, 64, labels))
        return tmp_path

    def test_identity_row_and_csv(self, dirs, capsys):
        out = dirs / "scores.csv"
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt"), "--seg", str(dirs / "seg"),
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][:4] == ["id", "seq_score", "semss", "semfed"]
        first = [float(v) for v in rows[1][1:]]
        assert first[0] == 1.0 and first[2] == 0.0
        assert all(abs(v - 1.0) < 1e-12 for v in first[3:])

    def test_segmentation_optional(self, dirs, tmp_path, capsys):
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt")]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_jobs_invariant(self, dirs, capsys):
        texts = []
        for jobs in ("1", "2"):
            assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                        "--gt", str(dirs / "gt"), "--seg", str(dirs / "seg"),
                        "--jobs", jobs]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_stray_pgm_in_segmentation_dir_is_ignored(self, dirs, capsys):
        # --seg reads .grid segmentations only: a .pgm there is not read
        argv = ["eval-scanpath", "--pred", str(dirs / "pred"), "--gt", str(dirs / "gt"),
                "--seg", str(dirs / "seg")]
        (dirs / "seg" / "2.grid").unlink()
        assert run(argv) == 0
        want = capsys.readouterr().out
        write_pgm(dirs / "seg" / "2.pgm", GrayMap(64, 64, np.full((64, 64), 0.5)))
        assert run(argv) == 0
        assert capsys.readouterr().out == want

    def test_text_segmentation_grid_is_data_error(self, dirs, capsys):
        bad = dirs / "seg" / "1.grid"
        bad.write_text("UARGRID 64 1 int\n" + "0 " * 63 + "0\n")
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt"), "--seg", str(dirs / "seg")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: line 1, column 14: mode must be float64le or int64le, got 'int'"]

    def test_truncated_binary_segmentation_is_data_error(self, dirs, capsys):
        bad = _truncate(dirs / "seg" / "1.grid")
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt"), "--seg", str(dirs / "seg")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: int64le payload has 32767 bytes, expected 32768 for 64x64"]

    def test_malformed_segmentation_error_names_the_file(self, dirs, capsys):
        bad = dirs / "seg" / "1.grid"
        bad.write_text("not a grid\n")
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt"), "--seg", str(dirs / "seg")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: line 1, column 1: expected UARGRID magic"]

    def test_non_finite_frame_is_data_error(self, dirs, capsys):
        line = (dirs / "gt" / "1.jsonl").read_text()
        (dirs / "gt" / "1.jsonl").write_text(line.replace('"frame": [64, 64]',
                                                          '"frame": [1e400, 64]'))
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "frame" in err[0]

    @pytest.mark.parametrize("old,new", [
        ('"frame": [64, 64]', '"frame": [' + "9" * 400 + ", 64]"),
        ('"fixations": [[', '"fixations": [[' + "9" * 400 + ", 1.0], ["),
    ], ids=["frame", "fixation"])
    def test_huge_integer_is_data_error(self, dirs, capsys, old, new):
        path = dirs / "gt" / "1.jsonl"
        path.write_text(path.read_text().replace(old, new, 1))
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: line 1: ")

    def test_fractional_frame_is_data_error(self, dirs, capsys):
        line = (dirs / "gt" / "1.jsonl").read_text()
        (dirs / "gt" / "1.jsonl").write_text(line.replace('"frame": [64, 64]',
                                                          '"frame": [64.9, 64]'))
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "line 1" in err[0] and "whole numbers" in err[0]

    def test_missing_gt_id(self, dirs):
        (dirs / "gt" / "2.jsonl").unlink()
        assert run(["eval-scanpath", "--pred", str(dirs / "pred"),
                    "--gt", str(dirs / "gt")]) == 2


class TestEvalRating:
    def test_correlations_and_csv(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_ratings(pairs, [("a", 0.1, 0.2), ("b", 0.4, 0.3), ("c", 0.9, 0.8)])
        out = tmp_path / "out.csv"
        assert run(["eval-rating", "--pairs", str(pairs), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["id", "srcc", "plcc"]
        assert float(rows[1][1]) == 1.0  # rank order matches exactly
        assert "srcc+" in capsys.readouterr().out

    def test_perfect_line_scores_one(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_ratings(pairs, [(str(i), 0.1 * i, 0.2 * i + 0.05) for i in range(5)])
        assert run(["eval-rating", "--pairs", str(pairs)]) == 0
        assert "*1.000  *1.000" in capsys.readouterr().out

    def test_field_over_the_csv_size_limit_is_data_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("id,predicted,observed\n" + "a" * 200_000 + ",0.5,0.25\n")
        assert run(["eval-rating", "--pairs", str(pairs)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {pairs}: line 2")
        assert "field limit" in err[0]


# ---------------------------------------------------------------------------
# train / predict


SLIM = ModelConfig(image_size=64, patch_size=8, embed_dim=16, encoder_layers=1,
                   decoder_layers=1, heads=2, max_output_tokens=16)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A short slim-model training run shared by the predict tests."""
    root = tmp_path_factory.mktemp("train")
    cfg_path = root / "slim.txt"
    write_config(cfg_path, SLIM)
    out = root / "run"
    code = run(["train", "--synthetic", "--steps", "12", "--seed", "7",
                "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return out


def _no_maps_dir(d):
    for f in (d / "maps").iterdir():
        f.unlink()
    (d / "maps").rmdir()


def _int_grid_map(d):
    write_grid(d / "maps" / "000001.grid", SegmentationMap(64, 64, np.zeros((64, 64), int)))


def _two_line_path(d):
    text = (d / "paths" / "000000.jsonl").read_text()
    (d / "paths" / "000000.jsonl").write_text(text + text)


def _prompt_disagrees_with_meta(d):
    text = (d / "paths" / "000001.jsonl").read_text()
    (d / "paths" / "000001.jsonl").write_text(text.replace("natural image", "webpage"))


def _meta_with_unknown_input_type(d):
    meta = d / "meta.txt"
    meta.write_text(meta.read_text().replace("input_type = natural image", "input_type = nat"))
    return meta, "line 2: unknown input type: 'nat'"


def _map_smaller_than_its_image(d):
    path = d / "maps" / "000001.grid"
    write_grid(path, GrayMap(32, 32, np.full((32, 32), 0.5)))
    return path, "heatmap target 32x32 does not match its image 64x64"


class TestTrain:
    def test_outputs_exist(self, trained):
        for name in ("model.ckpt", "config.txt", "train_log.csv"):
            assert (trained / name).exists()
        rows = read_csv(trained / "train_log.csv")
        assert rows[0] == ["step", "loss", "valid"]
        assert len(rows) == 13
        assert rows[5][2] in ("0", "1")  # generation probe at step 5

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "slim.txt"
        write_config(cfg_path, SLIM)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["train", "--synthetic", "--steps", "6", "--seed", "3",
                        "--config", str(cfg_path), "--out", str(out)]) == 0
            blobs.append(((out / "model.ckpt").read_bytes(),
                          (out / "train_log.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_train_log_round_trip(self, tmp_path):
        # a step without a decode probe leaves its `valid` cell empty
        cfg_path = tmp_path / "slim.txt"
        write_config(cfg_path, SLIM)
        out = tmp_path / "run"
        assert run(["train", "--synthetic", "--steps", "20", "--seed", "3",
                    "--config", str(cfg_path), "--out", str(out)]) == 0
        header = ("step", "loss", "valid")
        rows = read_table(out / "train_log.csv", header, "training log")
        assert [step for step, _, _ in rows] == [str(k) for k in range(1, 21)]
        assert all(valid is None for step, _, valid in rows if int(step) % 5)
        assert {valid for step, _, valid in rows if int(step) % 5 == 0} <= {0.0, 1.0, None}
        write_table(tmp_path / "again.csv", header,
                    [(int(step), loss, None if valid is None else int(valid))
                     for step, loss, valid in rows])
        assert (tmp_path / "again.csv").read_bytes() == (out / "train_log.csv").read_bytes()

    def test_seed_changes_the_run(self, tmp_path):
        cfg_path = tmp_path / "slim.txt"
        write_config(cfg_path, SLIM)
        logs = []
        for seed in ("3", "4"):
            out = tmp_path / seed
            assert run(["train", "--synthetic", "--steps", "4", "--seed", seed,
                        "--config", str(cfg_path), "--out", str(out)]) == 0
            logs.append((out / "train_log.csv").read_bytes())
        assert logs[0] != logs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_numeric_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "huge.txt"
        write_config(cfg_path, dataclasses.replace(SLIM, loss_weights=(1e308, 1e308, 1e308)))
        out = tmp_path / "run"
        assert run(["train", "--synthetic", "--steps", "2", "--seed", "3",
                    "--config", str(cfg_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite values produced by scale"]
        assert not out.exists()

    def test_synthetic_and_data_are_exclusive(self, tmp_path):
        assert run(["train", "--synthetic", "--data", str(tmp_path),
                    "--out", str(tmp_path / "o")]) == 1
        assert run(["train", "--out", str(tmp_path / "o")]) == 1

    def test_train_on_disk_handle(self, tmp_path):
        cfg_path = tmp_path / "slim.txt"
        write_config(cfg_path, SLIM)
        save_handle(tmp_path / "d", gen_rating_task(0, 6, size=16))
        out = tmp_path / "run"
        assert run(["train", "--data", str(tmp_path / "d"), "--steps", "2",
                    "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "model.ckpt").exists()

    @pytest.mark.parametrize("scores", ["id,score\n", "id,score\n000000,high\n"])
    def test_train_on_bad_scores_is_data_error(self, tmp_path, capsys, scores):
        save_handle(tmp_path / "d", gen_rating_task(0, 2, size=16))
        (tmp_path / "d" / "scores.csv").write_text(scores)
        assert run(["train", "--data", str(tmp_path / "d"), "--steps", "1",
                    "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "line 2" in err[0]

    @pytest.mark.parametrize("task,damage,message", [
        (gen_saliency_task, _no_maps_dir, "not a directory"),
        (gen_saliency_task, _int_grid_map, "expected a float map"),
        (gen_scanpath_task, _two_line_path, "exactly one scanpath, found 2"),
        (gen_scanpath_task, _prompt_disagrees_with_meta, "does not match handle"),
    ], ids=["no-maps-dir", "int-grid-map", "two-line-path", "prompt-vs-meta"])
    def test_train_on_malformed_handle_is_data_error(self, tmp_path, capsys, task, damage,
                                                     message):
        save_handle(tmp_path / "d", task(0, 2))
        damage(tmp_path / "d")
        assert run(["train", "--data", str(tmp_path / "d"), "--steps", "1",
                    "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("damage", [_meta_with_unknown_input_type,
                                        _map_smaller_than_its_image],
                             ids=["unknown-input-type", "map-size"])
    def test_train_on_handle_breaking_a_rule_names_the_file(self, tmp_path, capsys, damage):
        save_handle(tmp_path / "d", gen_saliency_task(0, 2))
        bad, message = damage(tmp_path / "d")
        assert run(["train", "--data", str(tmp_path / "d"), "--steps", "1",
                    "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: {message}"]
        assert err[0].count(bad.name) == 1

    def test_train_on_truncated_image_names_the_file(self, tmp_path, capsys):
        save_handle(tmp_path / "d", gen_rating_task(0, 2, size=16))
        bad = tmp_path / "d" / "images" / "000001.ppm"
        bad.write_bytes(bad.read_bytes()[:-1])
        assert run(["train", "--data", str(tmp_path / "d"), "--steps", "1",
                    "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: raster truncated (767 of 768 bytes)"]


class TestPredict:
    def test_heatmap(self, trained, tmp_path):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        out = tmp_path / "pred.pgm"
        assert run(["predict", str(img_path), "--ckpt", str(trained / "model.ckpt"),
                    "--config", str(trained / "config.txt"),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: saliency heatmap",
                    "--out", str(out)]) == 0
        m = read_pgm(out)
        assert m.shape == (64, 64)

    def test_scanpath_with_overlay(self, trained, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        out = tmp_path / "pred.jsonl"
        overlay = tmp_path / "overlay.ppm"
        assert run(["predict", str(img_path), "--ckpt", str(trained / "model.ckpt"),
                    "--config", str(trained / "config.txt"),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: scanpath",
                    "--out", str(out), "--overlay", str(overlay)]) == 0
        stdout = capsys.readouterr().out
        if stdout.strip() == "INVALID":  # undecodable generation is data
            assert not out.exists()
        else:
            path, prompt = read_scanpaths(out)[0]
            assert path.frame == (64, 64)
            assert prompt.output_type == "scanpath"
            assert overlay.exists()

    @pytest.mark.parametrize("keep", [9, 30, -5, None])  # None: no checkpoint file at all
    def test_truncated_checkpoint_is_data_error(self, trained, tmp_path, capsys, keep):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        ckpt = tmp_path / "run" / "model.ckpt"
        if keep is not None:
            ckpt.parent.mkdir()
            ckpt.write_bytes((trained / "model.ckpt").read_bytes()[:keep])
        assert run(["predict", str(img_path), "--ckpt", str(ckpt),
                    "--config", str(trained / "config.txt"),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: scanpath",
                    "--out", str(tmp_path / "pred.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        expected = ("truncated or corrupt checkpoint: " if keep is not None
                    else "No such file or directory")
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: {expected}")

    def test_non_finite_checkpoint_is_data_error(self, trained, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        arrays = ad.load_checkpoint(trained / "model.ckpt")
        arrays["out.w"][3, 5] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        ad.save_checkpoint(ckpt, arrays)
        assert run(["predict", str(img_path), "--ckpt", str(ckpt),
                    "--config", str(trained / "config.txt"),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: scanpath",
                    "--out", str(tmp_path / "pred.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'out.w'" in err[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("weight,output,op", [
        ("patch_proj.w", "saliency heatmap", "matmul"),
        ("heat.read1.w", "saliency heatmap", "conv2d"),
        ("rate.fc2.w", "aesthetics score", "matmul"),
        ("out.w", "scanpath", "matmul"),
    ])
    def test_overflowing_checkpoint_is_numeric_error(self, trained, tmp_path, capsys,
                                                     weight, output, op):
        # finite weights whose products overflow: exit 3, one line naming the op
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        arrays = ad.load_checkpoint(trained / "model.ckpt")
        arrays[weight][...] = 1e308
        ckpt = tmp_path / "big.ckpt"
        ad.save_checkpoint(ckpt, arrays)
        out = tmp_path / "pred.out"
        assert run(["predict", str(img_path), "--ckpt", str(ckpt),
                    "--config", str(trained / "config.txt"),
                    "--prompt", f"INPUT_TYPE: natural image OUTPUT_TYPE: {output}",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: non-finite values produced by {op}"]
        assert not out.exists()

    def test_overflow_warnings_do_not_reach_stderr(self, trained, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        arrays = ad.load_checkpoint(trained / "model.ckpt")
        arrays["heat.read1.w"][...] = 1e308
        ckpt = tmp_path / "big.ckpt"
        ad.save_checkpoint(ckpt, arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["predict", str(img_path), "--ckpt", str(ckpt),
                        "--config", str(trained / "config.txt"),
                        "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: saliency heatmap",
                        "--out", str(tmp_path / "pred.pgm")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite values produced by conv2d"]

    def test_score_stdout_matches_file(self, trained, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_rating_task(9, 1, size=64).samples[0].image)
        out = tmp_path / "score.txt"
        assert run(["predict", str(img_path), "--ckpt", str(trained / "model.ckpt"),
                    "--config", str(trained / "config.txt"),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: aesthetics score",
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_bytes() == printed.encode("ascii")  # repr(score) and one "\n"
        assert printed == repr(float(printed)) + "\n" and 0.0 <= float(printed) <= 1.0

    def test_overlay_rejected_for_heatmap_prompt(self, trained, tmp_path):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        assert run(["predict", str(img_path), "--ckpt", str(trained / "model.ckpt"),
                    "--config", str(trained / "config.txt"),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: saliency heatmap",
                    "--out", str(tmp_path / "x.pgm"),
                    "--overlay", str(tmp_path / "o.ppm")]) == 1

    def test_checkpoint_config_mismatch(self, trained, tmp_path, capsys):
        # a 16-wide checkpoint under a 24-wide config: the one error line
        # names the checkpoint, not the config
        cfg_path = tmp_path / "other.txt"
        write_config(cfg_path, dataclasses.replace(SLIM, embed_dim=24))
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, gen_saliency_task(9, 1).samples[0].image)
        ckpt = trained / "model.ckpt"
        assert run(["predict", str(img_path), "--ckpt", str(ckpt),
                    "--config", str(cfg_path),
                    "--prompt", "INPUT_TYPE: natural image OUTPUT_TYPE: aesthetics score"
                    ]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: tensor patch_proj.w has shape (192, 16), "
            "but the config expects (192, 24)"]


class TestOverlayDrawing:
    def test_discs_and_digits_drawn(self):
        img = gen_saliency_task(9, 1).samples[0].image
        path = Scanpath((64, 64), [[16.0, 16.0], [48.0, 48.0]])
        out = render_overlay(img, path)
        # red disc rim at both fixations, white digit pixels near the centers
        assert out.pixels[16, 13, 0] > 0.8 and out.pixels[16, 13, 2] < 0.2
        assert out.pixels[48, 45, 0] > 0.8
        assert (out.pixels == 1.0).all(axis=2).any()

    def test_clipping_at_the_border(self):
        img = gen_saliency_task(9, 1).samples[0].image
        out = render_overlay(img, Scanpath((64, 64), [[0.0, 0.0], [63.0, 63.0]]))
        assert out.pixels.shape == (64, 64, 3)


class TestMixtureCheck:
    def test_counts_sum_to_draws(self, tmp_path):
        out = tmp_path / "mix.csv"
        assert run(["mixture-check", "--draws", "500", "--seed", "1",
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["handle", "size", "draws"]
        assert len(rows) == 12
        assert sum(int(r[2]) for r in rows[1:]) == 500
        assert sorted(int(r[1]) for r in rows[1:]) == [1] * 10 + [1000]

    def test_deterministic(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert run(["mixture-check", "--draws", "300", "--seed", "5",
                        "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
