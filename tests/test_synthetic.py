import numpy as np
import pytest

from loopclose.bits import flip_random_bits, hamming, random_descriptors
from loopclose.geometry import RansacParams, ransac_fundamental, ratio_match
from loopclose.synthetic import PlanStep, generate_synthetic, parse_plan


class TestParsePlan:
    def test_basic(self):
        assert parse_plan("new:200,revisit:0:100") == [
            PlanStep("new", 200),
            PlanStep("revisit", 100, 0),
        ]

    def test_revisit_must_reference_earlier_frames(self):
        with pytest.raises(ValueError, match="references frame"):
            parse_plan("new:10,revisit:5:10")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_plan("loop:10")
        with pytest.raises(ValueError):
            parse_plan("")


class TestGenerate:
    def test_ground_truth_marks_revisits(self):
        frames, gt = generate_synthetic("new:30,revisit:0:30", n_features=40, seed=0)
        assert len(frames) == 60
        assert sorted(gt) == list(range(30, 60))
        for t in range(30, 60):
            assert gt[t] == [t - 30]

    def test_zero_noise_keeps_descriptors(self):
        frames, gt = generate_synthetic("new:10,revisit:3:2", n_features=30, noise_bits=0, seed=1)
        for t, (orig,) in gt.items():
            revisit = frames[t]
            base = frames[orig]
            # every revisit descriptor appears verbatim in the original
            base_rows = {row.tobytes() for row in base.descriptors}
            assert all(row.tobytes() in base_rows for row in revisit.descriptors)

    def test_noise_bits_flip_exactly(self):
        frames, gt = generate_synthetic("new:5,revisit:4:1", n_features=25, noise_bits=25, seed=2)
        (t,) = gt
        revisit, base = frames[t], frames[gt[t][0]]
        # keypoint projection keeps almost all features with small motion
        assert len(revisit) >= 0.8 * len(base)
        # each revisit descriptor is exactly noise_bits away from one original
        for row in revisit.descriptors:
            distances = [hamming(row, b) for b in base.descriptors]
            assert min(distances) == 25

    def test_revisit_geometry_is_consistent(self):
        # correspondences between a revisit frame and its original admit a
        # fundamental matrix with (essentially) full consensus
        frames, gt = generate_synthetic("new:8,revisit:2:1", n_features=120, noise_bits=10, seed=3)
        (t,) = gt
        pa, pb = ratio_match(frames[t], frames[gt[t][0]], 0.8)
        assert len(pa) >= 90
        _, mask = ransac_fundamental(pa, pb, RansacParams(seed=0))
        assert mask.sum() >= 0.95 * len(pa)

    def test_consecutive_new_frames_share_descriptors(self):
        frames, _ = generate_synthetic("new:12", n_features=60, seed=4)
        a = {row.tobytes() for row in frames[5].descriptors}
        # observation noise flips a couple of bits, so compare by near-match
        close = 0
        for row in frames[6].descriptors:
            if min(hamming(row, b) for b in frames[5].descriptors) <= 4:
                close += 1
        assert close >= 0.4 * len(frames[6])
        assert len(a) == 60

    def test_new_segments_do_not_alias_each_other(self):
        frames, _ = generate_synthetic("new:6,new:6", n_features=50, seed=5)
        for row in frames[6].descriptors:
            assert min(hamming(row, b) for b in frames[5].descriptors) > 40

    def test_deterministic(self):
        a, _ = generate_synthetic("new:10,revisit:0:5", n_features=30, seed=9)
        b, _ = generate_synthetic("new:10,revisit:0:5", n_features=30, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.descriptors, fb.descriptors)
            assert np.array_equal(fa.keypoints, fb.keypoints)

    def test_feature_counts(self):
        frames, _ = generate_synthetic("new:10", n_features=75, seed=6)
        assert all(len(f) == 75 for f in frames)


def test_flip_random_bits_refuses_negative_count():
    # Before, a count of -1 sliced all but the last bit position and
    # flipped 255 of 256 bits.
    rng = np.random.default_rng(0)
    descs = random_descriptors(rng, 3)
    with pytest.raises(ValueError, match="cannot flip -1 bits"):
        flip_random_bits(rng, descs, -1)
