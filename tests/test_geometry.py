import tracemalloc

import numpy as np
import pytest

from loopclose.bits import flip_random_bits, random_descriptors
from loopclose.geometry import (
    RANSAC_CHUNK,
    EstimationFailedError,
    RansacParams,
    canonicalize,
    eight_point,
    ransac_fundamental,
    ratio_match,
    sampson_distance,
)
from loopclose.imgproc import FeatureSet

from helpers import (
    canonicalize_reference,
    eight_point_reference,
    greedy_ratio_match,
    random_feature_set,
    ransac_loop,
    sampson_distance_reference,
    synthetic_two_view,
)


class TestRatioMatch:
    def test_identical_sets_match_to_twins(self):
        rng = np.random.default_rng(0)
        fs = random_feature_set(rng, 50)
        pa, pb = ratio_match(fs, fs)
        assert len(pa) == 50
        assert np.array_equal(pa, pb)

    def test_disjoint_random_sets_rarely_match(self):
        # Monte-Carlo: uniform random descriptor pairs have d1/d2 near 1.
        rng = np.random.default_rng(1)
        total = matched = 0
        for _ in range(100):
            a = random_feature_set(rng, 40)
            b = random_feature_set(rng, 40)
            pa, _ = ratio_match(a, b)
            matched += len(pa)
            total += 40
        assert matched / total < 0.05

    def test_empty_b(self):
        rng = np.random.default_rng(2)
        a = random_feature_set(rng, 5)
        pa, pb = ratio_match(a, FeatureSet.empty())
        assert len(pa) == 0 and len(pb) == 0

    def test_one_to_one(self):
        # two near-identical queries競 for one target: best distance wins
        rng = np.random.default_rng(3)
        base = random_descriptors(rng, 1)[0]
        a_desc = np.stack([base, flip_random_bits(rng, base[None], 4)[0]])
        b_desc = np.concatenate([base[None], random_descriptors(rng, 20)])
        a = FeatureSet(
            keypoints=np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32),
            responses=np.ones(2, dtype=np.float32),
            descriptors=a_desc,
        )
        b = FeatureSet(
            keypoints=rng.uniform(0, 100, size=(21, 2)).astype(np.float32),
            responses=np.ones(21, dtype=np.float32),
            descriptors=b_desc,
        )
        pa, pb = ratio_match(a, b)
        assert len(pa) == 1
        assert pa[0].tolist() == [1.0, 1.0]  # the distance-0 claim won

    def test_claims_match_loop_reference(self):
        # Many near-copies of few targets: claims collide and tie on
        # distance, so the greedy (distance, index) order decides.
        rng = np.random.default_rng(6)
        for _ in range(200):
            b = random_feature_set(rng, int(rng.integers(1, 9)))
            n = int(rng.integers(1, 40))
            src = b.descriptors[rng.integers(len(b), size=n)]
            a = random_feature_set(rng, n)
            a.descriptors = np.concatenate(
                [flip_random_bits(rng, d[None], int(rng.integers(0, 4))) for d in src]
            )
            got = ratio_match(a, b)
            want = greedy_ratio_match(a, b)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestEightPoint:
    def test_recovers_synthetic_f(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pa, pb, f_true = synthetic_two_view(rng, 60)
            f = eight_point(pa, pb)
            assert np.abs(f - canonicalize(f_true)).max() < 1e-6

    def test_exactly_eight_points(self):
        rng = np.random.default_rng(42)
        pa, pb, f_true = synthetic_two_view(rng, 8)
        f = eight_point(pa, pb)
        assert np.abs(f - canonicalize(f_true)).max() < 1e-6

    def test_epipolar_residual_zero_on_generating_points(self):
        rng = np.random.default_rng(5)
        pa, pb, _ = synthetic_two_view(rng, 40)
        f = eight_point(pa, pb)
        ha = np.column_stack([pa, np.ones(len(pa))])
        hb = np.column_stack([pb, np.ones(len(pb))])
        residuals = np.abs((hb * (ha @ f.T)).sum(axis=1))
        assert residuals.max() < 1e-9

    def test_unit_norm_rank_two_sign(self):
        rng = np.random.default_rng(6)
        pa, pb, _ = synthetic_two_view(rng, 30)
        f = eight_point(pa, pb)
        assert np.linalg.norm(f) == pytest.approx(1.0)
        sv = np.linalg.svd(f, compute_uv=False)
        assert sv[2] < 1e-9 * sv[0]
        assert f.ravel()[np.argmax(np.abs(f))] > 0

    def test_identical_points_fail(self):
        pts = np.tile([[10.0, 20.0]], (8, 1))
        with pytest.raises(EstimationFailedError):
            eight_point(pts, pts + 5.0)

    def test_collinear_points_fail(self):
        xs = np.linspace(0, 100, 10)
        pts = np.column_stack([xs, 2 * xs + 1])
        with pytest.raises(EstimationFailedError):
            eight_point(pts, pts)

    def test_too_few_points(self):
        pts = np.zeros((7, 2))
        with pytest.raises(ValueError, match=">= 8"):
            eight_point(pts, pts)

    def test_non_finite_points_fail(self):
        rng = np.random.default_rng(6)
        pa, pb, _ = synthetic_two_view(rng, 8)
        for bad in (np.nan, np.inf):
            corrupt = pa.copy()
            corrupt[2, 1] = bad
            with pytest.raises(EstimationFailedError, match="non-finite"):
                eight_point(corrupt, pb)
            with pytest.raises(EstimationFailedError, match="non-finite"):
                eight_point(pb, corrupt)


class TestSampson:
    def test_zero_on_perfect_correspondences(self):
        rng = np.random.default_rng(7)
        pa, pb, f_true = synthetic_two_view(rng, 50)
        d = sampson_distance(canonicalize(f_true), pa, pb)
        assert d.max() < 1e-6

    def test_positive_on_perturbed_points(self):
        rng = np.random.default_rng(8)
        pa, pb, f_true = synthetic_two_view(rng, 50)
        d = sampson_distance(canonicalize(f_true), pa, pb + 3.0)
        assert d.min() > 0.1


class TestRansac:
    def test_all_inliers_all_flagged(self):
        rng = np.random.default_rng(9)
        pa, pb, _ = synthetic_two_view(rng, 100)
        f, mask = ransac_fundamental(pa, pb, RansacParams(seed=0))
        assert f is not None
        assert mask.sum() == 100

    def test_recovery_with_forty_percent_outliers(self):
        # 60 true correspondences + 40 uniform outliers, 20 seeds
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            pa_in, pb_in, _ = synthetic_two_view(rng, 60)
            pa_out = rng.uniform(0, 640, size=(40, 2))
            pb_out = rng.uniform(0, 640, size=(40, 2))
            pa = np.concatenate([pa_in, pa_out])
            pb = np.concatenate([pb_in, pb_out])
            perm = rng.permutation(100)
            pa, pb = pa[perm], pb[perm]
            truth = perm < 60  # true inlier positions after shuffling

            params = RansacParams(max_iterations=500, inlier_threshold=1.0, seed=seed)
            f, mask = ransac_fundamental(pa, pb, params)
            assert f is not None
            assert (mask & truth).sum() >= 55
            assert (mask & ~truth).sum() <= 2

    def test_below_minimal_sample(self):
        pts = np.random.default_rng(10).uniform(0, 100, size=(7, 2))
        f, mask = ransac_fundamental(pts, pts, RansacParams(seed=0))
        assert f is None
        assert mask.sum() == 0

    def test_nan_keypoint_is_an_outlier(self):
        # One NaN correspondence used to make LAPACK raise inside RANSAC.
        rng = np.random.default_rng(9)
        pa, pb, _ = synthetic_two_view(rng, 100)
        pa[3, 0] = np.nan
        f, mask = ransac_fundamental(pa, pb, RansacParams(seed=0))
        assert f is not None
        assert not mask[3] and mask.sum() == 99

    def test_hopeless_data_returns_zero_inliers(self):
        pts = np.tile([[5.0, 5.0]], (20, 1))
        f, mask = ransac_fundamental(pts, pts, RansacParams(seed=0))
        assert f is None and mask.sum() == 0

    def test_inlier_soundness(self):
        rng = np.random.default_rng(11)
        pa, pb, _ = synthetic_two_view(rng, 60)
        pb_noisy = pb + rng.normal(0, 1.5, size=pb.shape)
        params = RansacParams(inlier_threshold=2.0, seed=3)
        f, mask = ransac_fundamental(pa, pb_noisy, params)
        assert f is not None
        d = sampson_distance(f, pa, pb_noisy)
        assert (d[mask] < params.inlier_threshold).all()

    def test_seed_determinism(self):
        rng = np.random.default_rng(12)
        pa, pb, _ = synthetic_two_view(rng, 50)
        pb = pb + rng.normal(0, 2.0, size=pb.shape)
        params = RansacParams(seed=7)
        f1, m1 = ransac_fundamental(pa, pb, params)
        f2, m2 = ransac_fundamental(pa, pb, params)
        assert np.array_equal(m1, m2)
        assert np.array_equal(f1, f2)


def two_view_with_outliers(rng, n, inliers=0.6, noise=0.5):
    """``n`` correspondences: a noisy two-view share, the rest uniform."""
    pa, pb, _ = synthetic_two_view(rng, n)
    pb = pb + rng.normal(0, noise, size=pb.shape)
    k = int(round(n * inliers))
    pb[k:] = rng.uniform(0, 640, size=(n - k, 2))
    perm = rng.permutation(n)
    return pa[perm], pb[perm]


def assert_ransac_matches_loop(pa, pb, params):
    f, mask = ransac_fundamental(pa, pb, params)
    f_ref, mask_ref = ransac_loop(pa, pb, params)
    assert np.array_equal(mask, mask_ref)
    if f_ref is None:
        assert f is None
    else:
        assert np.array_equal(f, f_ref)
    return f, mask


class TestStackedKernels:
    """The stacked solver and Sampson error against their one-model
    forms, bit for bit."""

    def test_eight_point_matches_reference(self):
        rng = np.random.default_rng(20)
        for n in (8, 9, 17, 63, 400, 1000):
            for _ in range(3):
                pa, pb = two_view_with_outliers(rng, n, inliers=1.0, noise=1.0)
                assert np.array_equal(eight_point(pa, pb), eight_point_reference(pa, pb))

    def test_eight_point_raises_as_reference(self):
        rng = np.random.default_rng(21)
        pa, pb, _ = synthetic_two_view(rng, 8)
        xs = np.linspace(0, 100, 10)
        line = np.column_stack([xs, 2 * xs + 1])
        same = np.tile([[10.0, 20.0]], (8, 1))
        nan = pa.copy()
        nan[2, 1] = np.nan
        for a, b in ((same, same + 5.0), (pa, same), (line, line), (nan, pb), (pb, nan)):
            with pytest.raises(EstimationFailedError) as want:
                eight_point_reference(a, b)
            with pytest.raises(EstimationFailedError, match=str(want.value)):
                eight_point(a, b)

    def test_sampson_matches_reference(self):
        rng = np.random.default_rng(22)
        for n in (8, 63, 1000):
            pa, pb = two_view_with_outliers(rng, n)
            for f in rng.normal(size=(20, 3, 3)):
                f = canonicalize_reference(f)
                assert np.array_equal(
                    sampson_distance(f, pa, pb), sampson_distance_reference(f, pa, pb)
                )

    def test_canonicalize_stack_matches_reference(self):
        rng = np.random.default_rng(23)
        stack = rng.normal(size=(200, 3, 3)) * 10.0 ** rng.uniform(-5, 5, size=(200, 1, 1))
        got = canonicalize(stack)
        for f, g in zip(stack, got):
            assert np.array_equal(g, canonicalize_reference(f))
            assert np.array_equal(canonicalize(f), g)

    def test_coordinates_near_the_float_limit_are_refused(self):
        # They overflow in the normalisation; LAPACK used to get the NaNs
        # and raise LinAlgError out of RANSAC.
        rng = np.random.default_rng(24)
        pa, pb = two_view_with_outliers(rng, 20)
        pa[:, 0] = rng.uniform(1e307, 1.7e308, size=20)
        with pytest.raises(EstimationFailedError, match="non-finite"):
            eight_point(pa[:8], pb[:8])
        f, mask = ransac_fundamental(pa, pb, RansacParams(seed=0))
        assert f is None and not mask.any()


class TestRansacMatchesLoop:
    """Chunked RANSAC gives the loop's F and mask bit for bit."""

    def test_geometry_suite_inputs(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            pa_in, pb_in, _ = synthetic_two_view(rng, 60)
            pa = np.concatenate([pa_in, rng.uniform(0, 640, size=(40, 2))])
            pb = np.concatenate([pb_in, rng.uniform(0, 640, size=(40, 2))])
            perm = rng.permutation(100)
            params = RansacParams(max_iterations=500, inlier_threshold=1.0, seed=seed)
            f, _ = assert_ransac_matches_loop(pa[perm], pb[perm], params)
            assert f is not None

    def test_sizes_and_iteration_counts(self):
        rng = np.random.default_rng(25)
        iterations = (1, RANSAC_CHUNK - 1, RANSAC_CHUNK, RANSAC_CHUNK + 1, 500)
        for n in (8, 9, 63, 400, 1000):
            pa, pb = two_view_with_outliers(rng, n)
            for seed, max_iterations in enumerate(iterations):
                params = RansacParams(max_iterations=max_iterations, seed=seed)
                assert_ransac_matches_loop(pa, pb, params)

    def test_nan_keypoint(self):
        rng = np.random.default_rng(9)
        pa, pb, _ = synthetic_two_view(rng, 100)
        pa[3, 0] = np.nan
        _, mask = assert_ransac_matches_loop(pa, pb, RansacParams(seed=0))
        assert not mask[3] and mask.sum() == 99

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_infinite_keypoint_scores_nan(self):
        # An infinite coordinate scores as a NaN one does: an infinite
        # error, so that match is an outlier to every model and the fit is
        # the one with a NaN at the same match.
        rng = np.random.default_rng(26)
        pa, pb = two_view_with_outliers(rng, 100)
        pb_nan = pb.copy()
        pb_nan[7, 1] = np.nan
        pb[7, 1] = np.inf
        f_nan, mask_nan = assert_ransac_matches_loop(pa, pb_nan, RansacParams(seed=0))
        f, mask = ransac_fundamental(pa, pb, RansacParams(seed=0))
        assert f_nan is not None and np.array_equal(f, f_nan)
        assert np.array_equal(mask, mask_nan) and not mask[7] and mask.sum() >= 8

    def test_nan_score_never_wins(self, monkeypatch):
        # The first hypothesis of every chunk scores NaN, in both forms;
        # np.argmin would pick it, and the loop's `<` skips it.
        import helpers
        import loopclose.geometry as geometry

        stacked, one_model = geometry._sampson, helpers.sampson_distance_reference
        calls = iter(range(10**6))

        def stacked_nan(f, ha, hb):
            d = stacked(f, ha, hb)
            if len(f) > 1:
                d[0] = np.nan
            return d

        def one_model_nan(f, pa, pb):
            d = one_model(f, pa, pb)
            if next(calls) % RANSAC_CHUNK == 0:
                d[0] = np.nan
            return d

        monkeypatch.setattr(geometry, "_sampson", stacked_nan)
        monkeypatch.setattr(helpers, "sampson_distance_reference", one_model_nan)
        rng = np.random.default_rng(31)
        pa, pb = two_view_with_outliers(rng, 100)
        # 500 draws, all solvable: the refit is the 501st one-model call.
        f, mask = assert_ransac_matches_loop(pa, pb, RansacParams(max_iterations=500, seed=7))
        assert f is not None and mask.sum() >= 50

    @pytest.mark.parametrize("shape", ["coincident", "collinear"])
    def test_chunks_with_failing_samples(self, shape):
        # Half the correspondences coincide or lie on a line in both views,
        # so some samples of a chunk are refused and others are solved.
        rng = np.random.default_rng(27)
        pa, pb = two_view_with_outliers(rng, 120, inliers=0.8)
        if shape == "coincident":
            pa[:60], pb[:60] = pa[0], pb[0]
        else:
            t = rng.uniform(0, 1, size=(60, 1))
            pa[:60] = [50.0, 40.0] + t * [500.0, 300.0]
            pb[:60] = [80.0, 20.0] + t * [400.0, 350.0]
        params = RansacParams(max_iterations=300, seed=4)
        draws = np.random.default_rng(params.seed)
        refused = 0
        for _ in range(RANSAC_CHUNK):
            idx = draws.choice(len(pa), size=8, replace=False)
            try:
                eight_point_reference(pa[idx], pb[idx])
            except EstimationFailedError:
                refused += 1
        assert 0 < refused < RANSAC_CHUNK
        assert_ransac_matches_loop(pa, pb, params)

    def test_zero_score_stops_early(self):
        # A threshold whose square underflows makes every model score
        # exactly 0: the first solved one wins and nothing can beat it.
        rng = np.random.default_rng(28)
        pa, pb, _ = synthetic_two_view(rng, 100)
        for max_iterations in (RANSAC_CHUNK, 500):
            params = RansacParams(
                max_iterations=max_iterations, inlier_threshold=1e-170, seed=5
            )
            f, mask = assert_ransac_matches_loop(pa, pb, params)
            assert f is None and not mask.any()

    def test_hopeless_data(self):
        pts = np.tile([[5.0, 5.0]], (20, 1))
        assert_ransac_matches_loop(pts, pts, RansacParams(seed=0))
        rng = np.random.default_rng(29)
        noise = rng.uniform(0, 640, size=(2, 200, 2))
        assert_ransac_matches_loop(noise[0], noise[1], RansacParams(seed=1))

    def test_memory_does_not_grow_with_iterations(self):
        rng = np.random.default_rng(30)
        pa, pb = two_view_with_outliers(rng, 1000)
        peaks = []
        for max_iterations in (500, 5000):
            tracemalloc.start()
            try:
                ransac_fundamental(pa, pb, RansacParams(max_iterations=max_iterations, seed=6))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]
