import numpy as np
import pytest

from loopclose.cli import main
from loopclose.imgproc import read_features, write_features, write_pgm


def write_config(path, **values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return str(path)


SMALL_RUN = dict(
    mode="synthetic",
    input="new:35,revisit:5:15",
    features=50,
    p=12,
    b=4,
    tau_c=3,
    min_inliers=12,
    noise_bits=15,
    seed=2,
)


def test_unknown_config_key_fails(tmp_path, capsys):
    config = write_config(tmp_path / "c.cfg", mode="synthetic", wat="1")
    assert main(["run", config]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_run_synthetic(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.cfg", out=str(out), **SMALL_RUN)
    assert main(["run", config]) == 0
    captured = capsys.readouterr().out
    assert "final_vocab_size" in captured
    assert (out / "results.csv").exists()
    assert (out / "diagnostics.csv").exists()
    assert (out / "summary.txt").exists()


def test_run_determinism(tmp_path):
    for name in ("x", "y"):
        config = write_config(tmp_path / f"{name}.cfg", out=str(tmp_path / name), **SMALL_RUN)
        assert main(["run", config]) == 0
    assert (tmp_path / "x" / "results.csv").read_bytes() == (tmp_path / "y" / "results.csv").read_bytes()
    assert (tmp_path / "x" / "diagnostics.csv").read_bytes() == (tmp_path / "y" / "diagnostics.csv").read_bytes()


def test_sweep_writes_curve(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.cfg", out=str(out), **SMALL_RUN)
    assert main(["sweep", config, "--thresholds", "10,20,40,200"]) == 0
    captured = capsys.readouterr().out
    assert "max_recall_at_p1" in captured
    curve = (out / "pr_curve.csv").read_text().splitlines()
    assert curve[0] == "threshold,precision,recall,tp,fp,fn"
    assert len(curve) == 5
    assert "max_recall_at_p1" in (out / "summary.txt").read_text()


def test_synth_then_run_features(tmp_path):
    feat_dir = tmp_path / "seq"
    assert main([
        "synth", "new:30,revisit:4:10", str(feat_dir),
        "--features", "40", "--noise-bits", "12", "--seed", "7",
    ]) == 0
    files = sorted(feat_dir.glob("*.feat"))
    assert len(files) == 40
    assert (feat_dir / "gt.txt").exists()
    fs = read_features(files[0], expected_bits=256)
    assert len(fs) == 40

    config = write_config(
        tmp_path / "c.cfg",
        mode="features",
        input=str(feat_dir),
        gt=str(feat_dir / "gt.txt"),
        p=10,
        b=4,
        tau_c=3,
        min_inliers=12,
        seed=7,
        out=str(tmp_path / "out"),
    )
    assert main(["run", config]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "recall:" in summary


def test_run_rejects_non_finite_keypoint(tmp_path, capsys):
    feat_dir = tmp_path / "seq"
    assert main(["synth", "new:12", str(feat_dir), "--features", "30", "--seed", "3"]) == 0
    bad = sorted(feat_dir.glob("*.feat"))[5]
    fs = read_features(bad)
    fs.keypoints[0, 0] = np.nan
    write_features(bad, fs, pattern_seed=3)
    capsys.readouterr()

    config = write_config(
        tmp_path / "c.cfg", mode="features", input=str(feat_dir), p=4, out=str(tmp_path / "out")
    )
    assert main(["run", config]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and bad.name in err and "non-finite x" in err


def test_extract_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(4)
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(3):
        write_pgm(img_dir / f"f{i}.pgm", rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
    feat_dir = tmp_path / "feats"
    assert main(["extract", str(img_dir), str(feat_dir), "--features", "30"]) == 0
    files = sorted(feat_dir.glob("*.feat"))
    assert len(files) == 3
    for path in files:
        read_features(path, expected_bits=256, expected_seed=42)


def test_missing_input_reports_error(tmp_path, capsys):
    config = write_config(
        tmp_path / "c.cfg", mode="features", input=str(tmp_path / "nope")
    )
    assert main(["run", config]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_out_naming_a_file_fails_in_one_line(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    config = write_config(tmp_path / "c.cfg", out=str(out), **SMALL_RUN)
    assert main(["run", config]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "taken" in err


def test_extract_truncated_pgm_names_file(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    (img_dir / "short.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    assert main(["extract", str(img_dir), str(tmp_path / "feats")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "short.pgm" in err and "truncated P5 payload" in err


def test_run_unreadable_image_fails_in_one_line(tmp_path, capsys, monkeypatch):
    import loopclose.evaluation as evaluation

    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    write_pgm(img_dir / "locked.pgm", np.zeros((32, 32), dtype=np.uint8))

    def deny(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(evaluation, "load_pgm", deny)
    config = write_config(tmp_path / "c.cfg", mode="images", input=str(img_dir))
    assert main(["run", config]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: frame 0 (locked.pgm): ")


def _image_dir(tmp_path, count=2):
    rng = np.random.default_rng(4)
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(count):
        write_pgm(img_dir / f"f{i}.pgm", rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
    return img_dir


def test_extract_reads_only_pgm_files(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    (img_dir / "README.txt").write_text("hello\n")
    (img_dir / "F2.PGM").write_bytes((img_dir / "f0.pgm").read_bytes())
    feat_dir = tmp_path / "feats"
    assert main(["extract", str(img_dir), str(feat_dir), "--features", "30"]) == 0
    assert sorted(p.name for p in feat_dir.iterdir()) == ["F2.feat", "f0.feat", "f1.feat"]
    assert (feat_dir / "F2.feat").read_bytes() == (feat_dir / "f0.feat").read_bytes()


def test_empty_image_directory_fails_in_one_line(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    (img_dir / "README.txt").write_text("hello\n")
    config = write_config(tmp_path / "c.cfg", mode="images", input=str(img_dir))
    for argv in (["extract", str(img_dir), str(tmp_path / "feats")], ["run", config]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: no .pgm files in {img_dir}\n"


def test_extract_rejects_width_not_a_multiple_of_64(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    feat_dir = tmp_path / "feats"
    assert main(["extract", str(img_dir), str(feat_dir), "--bits", "100"]) == 2
    err = capsys.readouterr().err
    assert err == "error: descriptor width 100 is not a positive multiple of 64\n"
    assert not list(feat_dir.glob("*.feat"))


def test_extract_rejects_threshold_outside_0_255(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    feat_dir = tmp_path / "feats"
    for threshold in ("100000", "-5", "256"):
        assert main(["extract", str(img_dir), str(feat_dir), "--threshold", threshold]) == 2
        err = capsys.readouterr().err
        assert err == f"error: corner threshold {threshold} is not an integer in 0..255\n"
    assert not list(feat_dir.glob("*.feat"))
    assert main(["extract", str(img_dir), str(feat_dir), "--threshold", "255"]) == 0


def test_run_rejects_corner_threshold_outside_0_255(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    for threshold in (100000, -5, 256):
        config = write_config(
            tmp_path / "c.cfg", mode="images", input=str(img_dir), corner_threshold=threshold
        )
        assert main(["run", config]) == 2
        err = capsys.readouterr().err
        assert err == f"error: corner_threshold must be in 0..255, got {threshold}\n"


def test_extract_rejects_feature_count_below_1(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    feat_dir = tmp_path / "feats"
    for count in ("-5", "0"):
        assert main(["extract", str(img_dir), str(feat_dir), "--features", count]) == 2
        assert capsys.readouterr().err == f"error: features must be at least 1, got {count}\n"
    assert not list(feat_dir.glob("*.feat"))


def test_run_images_rejects_feature_count_below_1(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    config = write_config(tmp_path / "c.cfg", mode="images", input=str(img_dir), features=-5)
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == "error: features must be at least 1, got -5\n"


def test_run_synthetic_rejects_feature_count_below_1(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.cfg", **{**SMALL_RUN, "features": 0, "out": str(out)})
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == "error: features must be at least 1, got 0\n"
    assert not out.exists()


def test_synth_rejects_feature_count_below_1(tmp_path, capsys):
    out = tmp_path / "synth"
    assert main(["synth", "new:3", str(out), "--features", "-2"]) == 2
    assert capsys.readouterr().err == "error: features must be at least 1, got -2\n"
    assert not out.exists()


def test_synth_rejects_width_not_a_multiple_of_64(tmp_path, capsys):
    expected = "error: descriptor width 100 is not a positive multiple of 64\n"
    out = tmp_path / "synth"
    assert main(["synth", "new:3", str(out), "--bits", "100"]) == 2
    assert capsys.readouterr().err == expected
    assert not out.exists()
    config = write_config(tmp_path / "c.cfg", **{**SMALL_RUN, "descriptor_bits": 100})
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == expected


def test_negative_noise_bits_refused(tmp_path, capsys):
    # Before, a negative count flipped all but one bit of every revisit
    # descriptor, and the run exited 0.
    out = tmp_path / "synth"
    assert main(["synth", "new:3,revisit:0:2", str(out), "--noise-bits", "-1"]) == 2
    assert capsys.readouterr().err == "error: noise_bits must be >= 0, got -1\n"
    assert not out.exists()
    config = write_config(
        tmp_path / "c.cfg", **{**SMALL_RUN, "noise_bits": -1, "out": str(tmp_path / "out")}
    )
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == "error: noise_bits must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_negative_gt_tolerance_refused(tmp_path, capsys):
    # Before, a negative tolerance counted every true loop as a false one.
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.cfg", **{**SMALL_RUN, "gt_tolerance": -1, "out": str(out)})
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == "error: gt_tolerance must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("x y", "expected integers, got 'x y'"),
        ("1 0 3", "ground truth pair line must have 2 fields, got 3"),
    ],
    ids=["not-integers", "three-fields"],
)
def test_malformed_ground_truth_names_file_and_line(tmp_path, capsys, line, message):
    gt = tmp_path / "gt.txt"
    gt.write_text(f"# pairs\n5 1\n\n{line}\n")
    config = write_config(tmp_path / "c.cfg", **{**SMALL_RUN, "gt": str(gt)})
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == f"error: {gt}:4: {message}\n"


def test_nan_ransac_threshold_refused(tmp_path, capsys):
    # Before, a NaN threshold passed the `<= 0` check and accepted no
    # inlier, so geometry turned every candidate down and the run exited 0.
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "c.cfg",
        mode="synthetic", input="new:60,revisit:0:20", features=100, seed=3,
        ransac_threshold="nan", out=str(out),
    )
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == "error: inlier_threshold must be > 0, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["inf", "1e200"])
def test_ransac_threshold_with_infinite_square_refused(tmp_path, capsys, threshold):
    # Before, an infinite threshold made every match an inlier, so the run
    # exited 0 with 20 loops accepted instead of 13, and 1e200 ended in an
    # OverflowError traceback from squaring it inside RANSAC.
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "c.cfg",
        mode="synthetic", input="new:60,revisit:0:20", features=100, seed=3,
        ransac_threshold=threshold, out=str(out),
    )
    assert main(["run", config]) == 2
    err = capsys.readouterr().err
    assert err == f"error: inlier_threshold must have a finite square, got {float(threshold)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, field, value, least",
    [
        ("K", "branching", 1, 2),
        ("S", "leaf_capacity", 0, 1),
        ("T_i", "num_trees", 0, 1),
        ("budget", "budget", 0, 1),
        ("P_f", "probation_frames", 0, 1),
        ("P_o", "required_matches", -3, 1),
    ],
)
def test_vocabulary_parameter_errors_name_field_and_value(tmp_path, capsys, key, field, value, least):
    # Before, K, S and T_i all gave "invalid forest parameters", and P_f
    # and P_o one message for both, naming neither the field nor the value.
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.cfg", **{**SMALL_RUN, key: value, "out": str(out)})
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == f"error: {field} must be >= {least}, got {value}\n"
    assert not out.exists()


# The feature header stores the pattern seed in 64 bits.  Before, a larger
# seed ended `synth` and `extract` in a struct.error traceback.
TOO_LARGE_SEED = "error: pattern seed 18446744073709551616 is outside 0..2**64-1\n"


def test_synth_rejects_pattern_seed_outside_64_bits(tmp_path, capsys):
    out = tmp_path / "synth"
    assert main(["synth", "new:2", str(out), "--seed", str(1 << 64)]) == 2
    assert capsys.readouterr().err == TOO_LARGE_SEED
    assert not list(out.glob("*.feat"))
    assert main(["synth", "new:2", str(out), "--seed", str((1 << 64) - 1)]) == 0
    read_features(out / "frame_000000.feat", expected_seed=(1 << 64) - 1)


def test_extract_rejects_pattern_seed_outside_64_bits(tmp_path, capsys):
    img_dir = _image_dir(tmp_path)
    feat_dir = tmp_path / "feats"
    assert main(["extract", str(img_dir), str(feat_dir), "--seed", str(1 << 64)]) == 2
    assert capsys.readouterr().err == TOO_LARGE_SEED
    assert not list(feat_dir.glob("*.feat"))


NEGATIVE_SEED = "error: seed must be >= 0, got -1\n"
NEGATIVE_PATTERN_SEED = "error: pattern seed -1 is outside 0..2**64-1\n"


@pytest.mark.parametrize(
    "verb, key, expected",
    [
        ("run synthetic", "seed", NEGATIVE_SEED),
        ("run images", "seed", NEGATIVE_SEED),
        ("run images", "pattern_seed", NEGATIVE_PATTERN_SEED),
        ("extract", "--seed", NEGATIVE_PATTERN_SEED),
        ("synth", "--seed", NEGATIVE_SEED),
    ],
    ids=["run-synthetic-seed", "run-images-seed", "run-images-pattern_seed", "extract-seed", "synth-seed"],
)
def test_negative_seeds_named(tmp_path, capsys, verb, key, expected):
    # Before, each of these exited 2 with numpy's "expected non-negative
    # integer", which names no key.
    img_dir = _image_dir(tmp_path)
    out = tmp_path / "out"
    if verb == "run synthetic":
        argv = ["run", write_config(tmp_path / "c.cfg", **{**SMALL_RUN, key: -1})]
    elif verb == "run images":
        argv = ["run", write_config(tmp_path / "c.cfg", mode="images", input=str(img_dir), **{key: -1})]
    elif verb == "extract":
        argv = ["extract", str(img_dir), str(out), key, "-1"]
    else:
        argv = ["synth", "new:2", str(out), key, "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == expected
    assert not list(out.glob("*.feat"))


# Each size or seed a run, `synth` or `extract` takes, with the name its
# refusal must give.  A value past a size bound used to end in a traceback
# from the first allocation it drove, or in numpy's message naming nothing.
BOUNDED_KEYS = {
    "K": "branching",
    "S": "leaf_capacity",
    "T_i": "num_trees",
    "features": "features",
    "descriptor_bits": "descriptor width",
    "seed": "seed",
    "pattern_seed": "pattern seed",
    "budget": "budget",
    "p": "buffer_size",
    "b": "island_halfwidth",
    "P_f": "probation_frames",
    "P_o": "required_matches",
}
BOUNDED_FLAGS = [
    ("synth", "--features", "features"),
    ("synth", "--bits", "descriptor width"),
    ("synth", "--seed", "seed"),
    ("extract", "--bits", "descriptor width"),
    ("extract", "--seed", "pattern seed"),
]
SWEPT_VALUES = (-1, 0, 10**12, 2**63, 2**64)


def _runs_or_names(capsys, argv, name):
    code = main(argv)
    err = capsys.readouterr().err
    if code == 0:
        assert err == "", argv
    else:
        assert code == 2 and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: ") and name in err, (argv, err)


@pytest.mark.parametrize("key", BOUNDED_KEYS)
def test_config_key_boundaries_run_or_are_named(tmp_path, capsys, key):
    for value in SWEPT_VALUES:
        config = write_config(tmp_path / "c.cfg", **{"mode": "synthetic", "input": "new:3", "features": 20, key: value})
        _runs_or_names(capsys, ["run", config], BOUNDED_KEYS[key])


@pytest.mark.parametrize("verb, flag, name", BOUNDED_FLAGS)
def test_flag_boundaries_run_or_are_named(tmp_path, capsys, verb, flag, name):
    img_dir = _image_dir(tmp_path, count=1)
    for value in SWEPT_VALUES:
        given = [str(img_dir), str(tmp_path / "feats")] if verb == "extract" else ["new:3", str(tmp_path / "synth")]
        _runs_or_names(capsys, [verb, *given, "--features", "20", flag, str(value)], name)


@pytest.mark.parametrize("thresholds, token", [("", "''"), (",", "''"), ("10,x", "'x'")])
def test_sweep_bad_thresholds_named(tmp_path, capsys, thresholds, token):
    # Before, the error named only int()'s message, not the option.
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.cfg", out=str(out), **SMALL_RUN)
    assert main(["sweep", config, "--thresholds", thresholds]) == 2
    assert capsys.readouterr().err == f"error: --thresholds: {token} is not an integer inlier count\n"
    assert not out.exists()
