import tracemalloc

import numpy as np
import pytest

from loopclose.bits import random_descriptors
from loopclose.imgproc import (
    BORDER_MARGIN,
    FeatureFileError,
    FeatureSet,
    PgmFormatError,
    detect_corners,
    extract_descriptors,
    load_pgm,
    read_features,
    sampling_pattern,
    write_features,
    write_pgm,
)

from helpers import segment_test_corners


class TestPgm:
    def test_p5_direct_encoding(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert img.shape == (2, 2)
        assert img.tolist() == [[0, 255], [128, 64]]

    def test_p2_matches_p5(self, tmp_path):
        p5 = tmp_path / "a.pgm"
        p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        p2 = tmp_path / "b.pgm"
        p2.write_text("P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        assert np.array_equal(load_pgm(p5), load_pgm(p2))

    def test_16bit_maxval_rejected(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmFormatError, match="unsupported maxval"):
            load_pgm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(PgmFormatError, match="byte offset"):
            load_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PgmFormatError):
            load_pgm(path)

    def test_p2_value_above_maxval(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n1 1\n100\n101\n")
        with pytest.raises(PgmFormatError, match="exceeds maxval"):
            load_pgm(path)

    def test_roundtrip_random_images(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(5):
            img = rng.integers(0, 256, size=(rng.integers(1, 40), rng.integers(1, 40)), dtype=np.uint8)
            path = tmp_path / f"r{i}.pgm"
            write_pgm(path, img)
            assert np.array_equal(load_pgm(path), img)


class TestDetectCorners:
    def test_uniform_image_has_no_corners(self):
        img = np.full((32, 32), 128, dtype=np.uint8)
        assert len(detect_corners(img, 100)) == 0

    def test_single_bright_dot(self):
        # Oracle: brute-force segment test over every pixel.
        img = np.full((32, 32), 30, dtype=np.uint8)
        img[16, 16] = 255
        expected = segment_test_corners(img, 20)
        assert expected == {(16, 16)}
        corners = detect_corners(img, 100, threshold=20)
        assert len(corners) == 1
        assert (corners[0, 0], corners[0, 1]) == (16, 16)
        assert corners[0, 2] > 0

    def test_matches_bruteforce_segment_test(self):
        # NMS only removes candidates, and every survivor must be a true
        # segment-test corner.
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
        expected = segment_test_corners(img, 20)
        detected = detect_corners(img, 10_000, threshold=20)
        got = {(int(x), int(y)) for x, y in detected[:, :2]}
        assert got <= expected
        # the strongest response in any 3x3 patch survives, so some must remain
        if expected:
            assert got

    def test_top_k_keeps_largest_responses(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        all_corners = detect_corners(img, 10_000, threshold=10)
        assert len(all_corners) > 10
        top = detect_corners(img, 10, threshold=10)
        assert len(top) == 10
        expected = np.sort(all_corners[:, 2])[::-1][:10]
        assert np.array_equal(np.sort(top[:, 2])[::-1], expected)

    def test_small_image_yields_empty(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        assert len(detect_corners(img, 10)) == 0

    def test_count_never_exceeds_target(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        for target in (1, 5, 50):
            assert len(detect_corners(img, target)) <= target


class TestExtractDescriptors:
    def _image(self, seed=0, size=96):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(size, size), dtype=np.uint8)

    def test_deterministic(self):
        img = self._image()
        kps = np.array([[40.0, 40.0, 1.0], [60.0, 50.0, 2.0]], dtype=np.float32)
        a = extract_descriptors(img, kps)
        b = extract_descriptors(img, kps)
        assert np.array_equal(a.descriptors, b.descriptors)

    def test_locality(self):
        img = self._image()
        other = img.copy()
        other[90, 90] ^= 0xFF  # far away from the patch around (40, 40)
        kps = np.array([[40.0, 40.0, 1.0]], dtype=np.float32)
        a = extract_descriptors(img, kps)
        b = extract_descriptors(other, kps)
        assert np.array_equal(a.descriptors, b.descriptors)

    def test_border_keypoints_dropped(self):
        img = self._image()
        kps = np.array([[5.0, 40.0, 1.0], [40.0, 40.0, 2.0]], dtype=np.float32)
        fs = extract_descriptors(img, kps)
        assert len(fs) == 1
        assert fs.keypoints[0].tolist() == [40.0, 40.0]

    def test_margin_boundary(self):
        img = self._image()
        m = BORDER_MARGIN
        kps = np.array([[m, m, 1.0], [m - 1, m, 1.0]], dtype=np.float32)
        fs = extract_descriptors(img, kps)
        assert len(fs) == 1

    def test_pattern_is_seed_stable(self):
        a = sampling_pattern(42)
        b = sampling_pattern(42)
        assert a is b or np.array_equal(a, b)
        c = sampling_pattern(43)
        assert not np.array_equal(a, c)
        # no degenerate pairs
        assert not ((a[:, 0] == a[:, 2]) & (a[:, 1] == a[:, 3])).any()

    def test_descriptor_width(self):
        img = self._image()
        kps = np.array([[48.0, 48.0, 1.0]], dtype=np.float32)
        fs = extract_descriptors(img, kps, width=256)
        assert fs.descriptors.shape == (1, 32)


class TestFeatureFiles:
    def _features(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return FeatureSet(
            keypoints=rng.uniform(0, 640, size=(n, 2)).astype(np.float32),
            responses=rng.uniform(0, 100, size=n).astype(np.float32),
            descriptors=random_descriptors(rng, n),
        )

    def test_roundtrip_1000(self, tmp_path):
        fs = self._features(1000)
        path = tmp_path / "f.feat"
        write_features(path, fs)
        back = read_features(path, expected_bits=256, expected_seed=42)
        assert np.array_equal(back.keypoints, fs.keypoints)
        assert np.array_equal(back.responses, fs.responses)
        assert np.array_equal(back.descriptors, fs.descriptors)

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "e.feat"
        write_features(path, FeatureSet.empty())
        back = read_features(path)
        assert len(back) == 0
        assert back.width_bits == 256

    def test_width_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        fs = FeatureSet(
            keypoints=np.zeros((3, 2), dtype=np.float32),
            responses=np.zeros(3, dtype=np.float32),
            descriptors=random_descriptors(rng, 3, width=128),
        )
        path = tmp_path / "w.feat"
        write_features(path, fs)
        with pytest.raises(FeatureFileError, match="width 128"):
            read_features(path, expected_bits=256)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FeatureFileError, match="magic"):
            read_features(path)

    def test_seed_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s.feat"
        write_features(path, self._features(2), pattern_seed=7)
        with pytest.raises(FeatureFileError, match="seed"):
            read_features(path, expected_seed=42)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.feat"
        write_features(path, self._features(10))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FeatureFileError, match="truncated"):
            read_features(path)

    def test_header_count_checked_against_file_size(self, tmp_path):
        # A header claiming a million features in a ~100-byte file is
        # refused before anything of the claimed size is allocated.
        path = tmp_path / "big.feat"
        write_features(path, self._features(2))
        data = bytearray(path.read_bytes())
        data[20:24] = (1_000_000).to_bytes(4, "little")  # the header's count field
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(FeatureFileError, match=r"big\.feat: truncated payload"):
                read_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak} bytes"

    def test_non_finite_keypoint_rejected(self, tmp_path):
        fs = self._features(10)
        fs.keypoints[4, 1] = np.nan
        path = tmp_path / "nan.feat"
        write_features(path, fs)
        with pytest.raises(FeatureFileError, match=r"nan\.feat: non-finite y in feature 4"):
            read_features(path)

    def test_non_finite_response_rejected(self, tmp_path):
        fs = self._features(10)
        fs.responses[7] = np.inf
        path = tmp_path / "inf.feat"
        write_features(path, fs)
        with pytest.raises(FeatureFileError, match=r"inf\.feat: non-finite response in feature 7"):
            read_features(path)


def test_extraction_pipeline_is_reproducible(tmp_path):
    # Same image + config seed must give byte-identical feature files.
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(120, 160), dtype=np.uint8)
    corners = detect_corners(img, 200)
    fs = extract_descriptors(img, corners)
    assert len(fs) > 0
    a, b = tmp_path / "a.feat", tmp_path / "b.feat"
    write_features(a, fs)
    write_features(b, extract_descriptors(img, detect_corners(img, 200)))
    assert a.read_bytes() == b.read_bytes()
