"""Epipolar verification of loop closure candidates.

Putative correspondences between the two images come from an exhaustive
Hamming-distance ratio test, a fundamental matrix is estimated with the
normalised linear eight-point method, and RANSAC counts the inliers that
the loop closure decision thresholds on.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import hamming_matrix
from .imgproc import FeatureSet


class EstimationFailedError(RuntimeError):
    """Raised when a point configuration is too degenerate to estimate from."""


@dataclass(frozen=True)
class RansacParams:
    max_iterations: int = 500
    inlier_threshold: float = 2.0  # first-order epipolar error, pixels
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be > 0")


def ratio_match(
    feats_a: FeatureSet, feats_b: FeatureSet, ratio: float = 0.8
) -> tuple[np.ndarray, np.ndarray]:
    """One-to-one putative matches between two feature sets.

    For every feature of ``feats_a`` the nearest and second-nearest
    descriptors in ``feats_b`` are found by exhaustive Hamming scan; the
    match is kept when ``d1 < ratio * d2``.  When several features claim
    the same target, only the lowest-distance claim survives.

    Returns ``(points_a, points_b)`` as matching ``(n, 2)`` float64 arrays.
    """
    empty = (np.empty((0, 2)), np.empty((0, 2)))
    if len(feats_a) == 0 or len(feats_b) == 0:
        return empty
    dist = hamming_matrix(feats_a.descriptors, feats_b.descriptors)
    nearest = np.argmin(dist, axis=1)
    d1 = dist[np.arange(len(feats_a)), nearest]
    if dist.shape[1] >= 2:
        d2 = np.partition(dist, 1, axis=1)[:, 1]
        keep = d1 < ratio * d2
    else:
        keep = np.ones(len(feats_a), dtype=bool)  # no second candidate to test against
    ia = np.nonzero(keep)[0]
    if len(ia) == 0:
        return empty
    ib = nearest[ia]
    order = np.lexsort((ia, d1[ia]))
    # Each target keeps its first claim in (distance, index) order, and the
    # survivors stay in that order.
    _, first = np.unique(ib[order], return_index=True)
    sel = order[np.sort(first)]
    pa = feats_a.keypoints[ia[sel]].astype(np.float64)
    pb = feats_b.keypoints[ib[sel]].astype(np.float64)
    return pa, pb


def _normalising_transform(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate to the centroid and scale to RMS distance sqrt(2)."""
    centroid = pts.mean(axis=0)
    centred = pts - centroid
    rms = np.sqrt((centred**2).sum(axis=1).mean())
    if rms < 1e-12:
        raise EstimationFailedError("degenerate configuration: points have no spread")
    s = np.sqrt(2.0) / rms
    t = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return centred * s, t


def canonicalize(f: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm with a positive largest-magnitude entry."""
    f = f / np.linalg.norm(f)
    flat = f.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        f = -f
    return f


def eight_point(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Normalised linear estimate of the fundamental matrix.

    Solves ``x_b^T F x_a = 0`` over at least 8 correspondences: both point
    sets are Hartley-normalised, the nine-dimensional homogeneous system
    is solved by smallest singular vector, rank 2 is enforced by zeroing
    the smallest singular value, and the result is denormalised and
    canonicalised to unit norm with a positive leading entry.

    Raises ``ValueError`` for fewer than 8 points and
    :class:`EstimationFailedError` for degenerate configurations or
    non-finite coordinates.
    """
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    n = len(points_a)
    if n < 8 or len(points_b) != n:
        raise ValueError(f"need >= 8 correspondences on both sides, got {n} and {len(points_b)}")
    if not (np.isfinite(points_a).all() and np.isfinite(points_b).all()):
        raise EstimationFailedError("non-finite point coordinates")

    na, ta = _normalising_transform(points_a)
    nb, tb = _normalising_transform(points_b)
    xa, ya = na[:, 0], na[:, 1]
    xb, yb = nb[:, 0], nb[:, 1]
    a = np.column_stack(
        [xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones(n)]
    )
    _, sv, vt = np.linalg.svd(a)
    # A unique null space needs rank 8; collinear or repeated points fail here.
    if sv[7] <= 1e-10 * sv[0]:
        raise EstimationFailedError("degenerate configuration: linear system is rank deficient")
    f = vt[-1].reshape(3, 3)

    uf, sf, vtf = np.linalg.svd(f)
    sf[2] = 0.0
    f = uf @ np.diag(sf) @ vtf
    f = tb.T @ f @ ta
    return canonicalize(f)


def sampson_distance(f: np.ndarray, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """First-order epipolar error of each correspondence, in pixels."""
    n = len(points_a)
    ha = np.column_stack([points_a, np.ones(n)])
    hb = np.column_stack([points_b, np.ones(n)])
    fa = ha @ f.T  # rows are (F x_a)^T
    ftb = hb @ f  # rows are (F^T x_b)^T
    num = (hb * fa).sum(axis=1)
    den = fa[:, 0] ** 2 + fa[:, 1] ** 2 + ftb[:, 0] ** 2 + ftb[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = np.where(den > 0, num**2 / den, np.inf)
    return np.sqrt(d2)


def ransac_fundamental(
    points_a: np.ndarray, points_b: np.ndarray, params: RansacParams
) -> tuple[np.ndarray | None, np.ndarray]:
    """RANSAC fundamental-matrix fit; returns ``(F, inlier_mask)``.

    Samples 8 distinct correspondences per iteration; models are ranked
    by the truncated squared error ``sum(min(d^2, threshold^2))`` rather
    than the raw inlier count, which would prefer slightly tilted models
    that absorb outliers.  The winner is re-estimated on all its inliers
    and the mask is recomputed under that final matrix, so every flagged
    inlier is guaranteed consistent with the returned F.  Fewer than 8
    correspondences, or no model reaching 8 inliers, yields
    ``(None, all-false mask)``.  Deterministic for a fixed seed.
    """
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    n = len(points_a)
    no_result = (None, np.zeros(n, dtype=bool))
    if n < 8:
        return no_result

    rng = np.random.default_rng(params.seed)
    cap = params.inlier_threshold**2
    best_score = np.inf
    best_count = 0
    best_f = None
    best_mask = None
    for _ in range(params.max_iterations):
        idx = rng.choice(n, size=8, replace=False)
        try:
            f = eight_point(points_a[idx], points_b[idx])
        except EstimationFailedError:
            continue
        d = sampson_distance(f, points_a, points_b)
        score = float(np.minimum(d**2, cap).sum())
        if score < best_score:
            mask = d < params.inlier_threshold
            best_score = score
            best_count = int(mask.sum())
            best_f = f
            best_mask = mask
            if best_count == n and score == 0.0:
                break

    if best_count < 8:
        return no_result
    try:
        refined = eight_point(points_a[best_mask], points_b[best_mask])
    except EstimationFailedError:
        return best_f, best_mask
    final_mask = sampson_distance(refined, points_a, points_b) < params.inlier_threshold
    return refined, final_mask
