import numpy as np

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
