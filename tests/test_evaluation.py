import hashlib

import numpy as np
import pytest

from loopclose.config import ConfigError, RunConfig, config_from_dict, parse_config
from loopclose.detector import ACCEPTED, PATH_GEOMETRY, PATH_SHORTCUT, REJECTED, SKIPPED, LoopResult
from loopclose.evaluation import (
    compute_pr,
    load_ground_truth,
    run_sequence,
    summary_lines,
    sweep_pr,
)


def accepted(frame, matched, inliers=50, path=PATH_GEOMETRY):
    return LoopResult(
        frame=frame, status=ACCEPTED, matched=matched, candidate=matched,
        inliers=None if path == PATH_SHORTCUT else inliers, path=path,
    )


def rejected(frame, candidate=None, inliers=None):
    return LoopResult(
        frame=frame, status=REJECTED, candidate=candidate, inliers=inliers,
        path=PATH_GEOMETRY if inliers is not None else None,
    )


def skipped(frame):
    return LoopResult(frame=frame, status=SKIPPED)


class TestComputePr:
    def test_nothing_accepted_vacuous_precision(self):
        results = [skipped(i) for i in range(10)]
        gt = {i: [0] for i in range(10)}
        point = compute_pr(results, gt, 0)
        assert (point.precision, point.recall) == (1.0, 0.0)
        assert point.fn == 10

    def test_perfect_run(self):
        results = [accepted(i, i - 50) for i in range(50, 60)]
        gt = {i: [i - 50] for i in range(50, 60)}
        point = compute_pr(results, gt, 0)
        assert (point.precision, point.recall) == (1.0, 1.0)

    def test_one_correct_one_spurious(self):
        gt = {i: [i - 50] for i in range(50, 60)}
        results = [accepted(50, 0), accepted(70, 3)]  # frame 70 is not a GT positive
        point = compute_pr(results, gt, 0)
        assert point.tp == 1 and point.fp == 1 and point.fn == 9
        assert point.precision == pytest.approx(0.5)
        assert point.recall == pytest.approx(0.1)

    def test_tolerance_window(self):
        gt = {100: [40]}
        assert compute_pr([accepted(100, 43)], gt, 3).tp == 1
        assert compute_pr([accepted(100, 44)], gt, 3).fp == 1

    def test_wrong_match_on_positive_frame_is_fp_not_fn(self):
        gt = {100: [40]}
        point = compute_pr([accepted(100, 90)], gt, 3)
        assert point.fp == 1 and point.fn == 0 and point.tp == 0


class TestSweep:
    def test_rethresholding_recorded_counts(self):
        gt = {10: [2], 11: [3], 12: [4]}
        results = [
            accepted(10, 2, inliers=100),
            rejected(11, candidate=3, inliers=30),  # accepted once threshold <= 30
            rejected(12, candidate=90, inliers=20),  # wrong candidate, fp at low thresholds
        ]
        points, max_recall = sweep_pr(results, gt, 1, thresholds=[10, 25, 50, 150])
        by_threshold = {p.threshold: p for p in points}
        assert by_threshold[150].tp == 0 and by_threshold[150].precision == 1.0
        assert by_threshold[50] == compute_pr(results, gt, 1, threshold=50)
        assert by_threshold[25].tp == 2 and by_threshold[25].fp == 0
        assert by_threshold[10].fp == 1
        assert max_recall == pytest.approx(2 / 3)

    def test_shortcut_accepted_at_every_threshold(self):
        gt = {10: [2]}
        results = [accepted(10, 2, path=PATH_SHORTCUT)]
        points, max_recall = sweep_pr(results, gt, 0, thresholds=[10, 10_000])
        assert all(p.tp == 1 for p in points)
        assert max_recall == 1.0

    def test_low_threshold_equals_no_threshold_acceptance(self):
        results = [rejected(i, candidate=i - 30, inliers=9 + i) for i in range(40, 50)]
        gt = {i: [i - 30] for i in range(40, 50)}
        points, _ = sweep_pr(results, gt, 0, thresholds=[1])
        assert points[0].recall == 1.0


class TestGroundTruthLoading:
    def test_pair_list(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("100 3\n100 7\n101 4\n")
        assert load_ground_truth(path) == {100: [3, 7], 101: [4]}

    def test_square_matrix(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        assert load_ground_truth(path) == {1: [0], 2: [1]}

    def test_two_column_matrix_vs_pairs(self, tmp_path):
        # a 2x2 block of 0/1 values parses as a matrix, not as pairs
        path = tmp_path / "gt.txt"
        path.write_text("0 1\n1 0\n")
        assert load_ground_truth(path) == {1: [0]}

    def test_symmetric_matrix_keeps_backward_links_only(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0 0 1\n0 0 0\n1 0 0\n")
        assert load_ground_truth(path) == {2: [0]}

    def test_forward_pairs_ignored(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("5 90\n90 5\n")
        assert load_ground_truth(path) == {90: [5]}


class TestConfig:
    def test_defaults_follow_reference_table(self):
        config = RunConfig()
        assert config.branching == 16
        assert config.leaf_capacity == 150
        assert config.num_trees == 4
        assert config.buffer_size == 50
        assert config.features == 1000
        assert config.probation_frames == 2
        assert config.required_matches == 2
        assert config.score_threshold == pytest.approx(0.3)
        assert config.island_halfwidth == 5
        assert config.shortcut_after == 20
        assert config.budget == 64

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nmode=synthetic\ninput=new:20,revisit:0:10\nK=8\nS=40\nT_i=2\n"
            "p=10\nfeatures=50\nP_f=2\nP_o=2\ntau_im=0.25\nb=3\ntau_c=4\nseed=5\n"
        )
        config = parse_config(path)
        assert config.branching == 8
        assert config.leaf_capacity == 40
        assert config.num_trees == 2
        assert config.buffer_size == 10
        assert config.score_threshold == pytest.approx(0.25)
        assert config.island_halfwidth == 3
        assert config.shortcut_after == 4
        assert config.seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode=synthetic\nbogus=1\n")
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            parse_config(path)

    def test_infinite_shortcut_threshold(self):
        config = config_from_dict({"tau_c": "inf"})
        assert config.shortcut_after == float("inf")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mode": "video"})

    def test_corner_threshold_range(self):
        for bad in (-1, 256):
            with pytest.raises(ConfigError, match=f"corner_threshold must be in 0..255, got {bad}"):
                RunConfig(corner_threshold=bad)
        assert config_from_dict({"corner_threshold": "255"}).corner_threshold == 255
        assert RunConfig(corner_threshold=0).corner_threshold == 0


def small_config(**overrides):
    values = dict(
        mode="synthetic",
        input="new:40,revisit:5:20",
        features=60,
        buffer_size=15,
        min_inliers=12,
        noise_bits=15,
        seed=3,
        island_halfwidth=4,
        shortcut_after=1e9,
    )
    values.update(overrides)
    config = RunConfig()
    for key, value in values.items():
        setattr(config, key, value)
    config.gt_tolerance = config.island_halfwidth
    return config


class TestRunSequence:
    def test_three_frame_sequence(self):
        config = small_config(input="new:3", buffer_size=50)
        output = run_sequence(config, write=False)
        assert len(output.results) == 3
        assert all(r.status in (SKIPPED, REJECTED) for r in output.results)

    def test_deterministic_csvs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            config = small_config()
            config.out = str(tmp_path / name)
            run_sequence(config)
            outs.append(
                (
                    (tmp_path / name / "results.csv").read_bytes(),
                    (tmp_path / name / "diagnostics.csv").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_outputs_written(self, tmp_path):
        config = small_config()
        config.out = str(tmp_path / "out")
        output = run_sequence(config)
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results[0] == "frame,status,matched,inliers,path,island_m,island_n,G"
        assert len(results) == len(output.results) + 1
        diag = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "frame,vocab_size,temp_count,merged,added,deleted"
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "mean_frame_time_ms:" in summary
        assert "p95_frame_time_ms:" in summary
        assert "final_vocab_size:" in summary

    def test_detects_loops_with_gt(self):
        config = small_config()
        output = run_sequence(config, write=False)
        assert output.ground_truth
        point = compute_pr(output.results, output.ground_truth, config.gt_tolerance)
        assert point.tp >= 5

    def test_rethreshold_matches_fresh_runs_without_shortcut(self):
        # With the shortcut disabled, re-thresholding one recorded run must
        # agree with a fresh live run at each threshold.
        base = run_sequence(small_config(), write=False)
        gt = base.ground_truth
        points, _ = sweep_pr(base.results, gt, 4, thresholds=[12, 25, 45])
        for point in points:
            fresh = run_sequence(small_config(min_inliers=point.threshold), write=False)
            live = compute_pr(fresh.results, gt, 4)
            assert (live.tp, live.fp, live.fn) == (point.tp, point.fp, point.fn)

    def test_feature_directory_mode(self, tmp_path):
        from loopclose.imgproc import write_features
        from loopclose.synthetic import generate_synthetic

        frames, _ = generate_synthetic("new:25,revisit:2:10", n_features=50, seed=4)
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        for i, frame in enumerate(frames):
            write_features(feat_dir / f"frame_{i:04d}.feat", frame)
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("\n".join(f"{25 + i} {2 + i}" for i in range(10)) + "\n")

        config = small_config(mode="features", input=str(feat_dir))
        config.gt = str(gt_path)
        output = run_sequence(config, write=False)
        assert len(output.results) == 35
        assert output.ground_truth == {25 + i: [2 + i] for i in range(10)}

    def test_image_directory_mode(self, tmp_path):
        from loopclose.imgproc import write_pgm

        rng = np.random.default_rng(8)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for i in range(4):
            write_pgm(img_dir / f"im_{i:03d}.pgm", rng.integers(0, 256, size=(80, 100), dtype=np.uint8))
        config = small_config(mode="images", input=str(img_dir), features=50)
        output = run_sequence(config, write=False)
        assert len(output.results) == 4

    def test_width_mismatch_aborts(self, tmp_path):
        from loopclose.imgproc import FeatureSet, write_features

        rng = np.random.default_rng(9)
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        fs = FeatureSet(
            keypoints=np.zeros((4, 2), dtype=np.float32),
            responses=np.zeros(4, dtype=np.float32),
            descriptors=rng.integers(0, 256, size=(4, 16), dtype=np.uint8),
        )
        write_features(feat_dir / "frame_0000.feat", fs)
        config = small_config(mode="features", input=str(feat_dir))
        with pytest.raises(Exception, match="width"):
            run_sequence(config, write=False)


# Six fixed-seed synthetic runs (p=10, seed 0) and the sha256 prefixes of
# their results.csv and diagnostics.csv.  A refactor must leave them
# byte-identical; a deliberate behaviour change updates them and says so.
FIXED_SEED_RUNS = [
    ("new:60,revisit:0:30", 300, {}, "c34d8c6fba2cc561", "3b1d52cad400e5fc"),
    ("new:40,revisit:0:40", 20, {}, "0c0fdf151afd13b3", "d84d816e732343ea"),
    ("new:40,revisit:0:20", 1000, {}, "19245fa81008711d", "ca3d18525b74b90e"),
    ("new:30,revisit:0:20", 40, {"budget": "1000"}, "831e5c75c7b74b76", "ad1239085751de81"),
    ("new:50,revisit:0:25", 200, {"T_i": "1"}, "001a78dd1a299b28", "21c05e6f0e220baf"),
    (
        "new:80,revisit:0:40,revisit:40:40", 200, {"K": "4", "S": "20"},
        "e007af28f0275f03", "ca41e76ea37f5d8a",
    ),
]


def test_fixed_seed_outputs_unchanged(tmp_path):
    got, expected = [], []
    for i, (plan, features, extra, results, diagnostics) in enumerate(FIXED_SEED_RUNS):
        out = tmp_path / str(i)
        values = {"mode": "synthetic", "input": plan, "features": str(features), "p": "10", **extra}
        run_sequence(config_from_dict({**values, "out": str(out)}))
        digests = [
            hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
            for name in ("results.csv", "diagnostics.csv")
        ]
        got.append((plan, features, extra, *digests))
        expected.append((plan, features, extra, results, diagnostics))
    assert got == expected


def test_summary_reports_timing_fields():
    config = small_config(input="new:20", buffer_size=5)
    output = run_sequence(config, write=False)
    lines = summary_lines(output)
    keys = {line.split(":")[0] for line in lines}
    assert {"frames", "accepted", "mean_frame_time_ms", "p95_frame_time_ms", "final_vocab_size"} <= keys
