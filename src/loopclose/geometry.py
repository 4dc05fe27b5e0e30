"""Epipolar verification of loop closure candidates.

Putative correspondences between the two images come from an exhaustive
Hamming-distance ratio test, a fundamental matrix is estimated with the
normalised linear eight-point method, and RANSAC counts the inliers that
the loop closure decision thresholds on.  All operations are pure.

The solver and the Sampson error work on stacks of models: RANSAC draws
its hypotheses in chunks of ``RANSAC_CHUNK``, solves each chunk with one
batched SVD and scores it as one ``(chunk, n)`` error array.
:func:`eight_point` and :func:`sampson_distance` are the one-model cases
of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import hamming_matrix
from .imgproc import FeatureSet

# Hypotheses RANSAC solves and scores together.  A check holds at most
# this many rows of n Sampson errors, whatever ``max_iterations`` is.
RANSAC_CHUNK = 64


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
        if not self.inlier_threshold > 0:  # NaN too, which would accept no inlier
            raise ValueError(f"inlier_threshold must be > 0, got {self.inlier_threshold}")
        # inf would make every match an inlier, and a square past the float
        # range overflows where RANSAC caps its scores.
        if not math.isfinite(float(self.inlier_threshold) * float(self.inlier_threshold)):
            raise ValueError(f"inlier_threshold must have a finite square, got {self.inlier_threshold}")


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


# Failure codes of the stacked solver, each with the message
# :func:`eight_point` raises for it.
_FAILURES = {
    1: "non-finite point coordinates",
    2: "degenerate configuration: points have no spread",
    3: "degenerate configuration: linear system is rank deficient",
}


def _normalise(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hartley normalisation of an ``(m, k, 2)`` stack of point sets.

    Each set is translated to its centroid and scaled to RMS distance
    sqrt(2).  Returns the normalised stack, the ``(m, 3, 3)`` transforms
    and a mask of the sets that have spread.
    """
    # Sets without spread, or with coordinates near the float64 limit,
    # come out non-finite here; the caller drops them.
    with np.errstate(all="ignore"):
        centroid = pts.mean(axis=1)
        centred = pts - centroid[:, None]
        rms = np.sqrt((centred**2).sum(axis=2).mean(axis=1))
        s = np.sqrt(2.0) / rms
        t = np.zeros((len(pts), 3, 3))
        t[:, 0, 0] = t[:, 1, 1] = s
        t[:, :2, 2] = -s[:, None] * centroid
        t[:, 2, 2] = 1.0
        return centred * s[:, None, None], t, ~(rms < 1e-12)


def canonicalize(f: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm with a positive largest-magnitude entry.

    ``f`` is one 3x3 matrix or an ``(m, 3, 3)`` stack, each scaled on its own.
    """
    flat = np.reshape(f, (-1, 9))
    # One dot product per matrix, as np.linalg.norm takes it.
    norm = np.sqrt(flat[:, None, :] @ flat[:, :, None])[:, 0]
    flat = flat / norm
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    flat = np.where(lead[:, None] < 0, -flat, flat)
    return flat.reshape(np.shape(f))


def _solve(points_a: np.ndarray, points_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalised eight-point estimates for ``(m, k, 2)`` stacks, k >= 8.

    Returns the ``(m, 3, 3)`` matrices and an ``(m,)`` array of failure
    codes: 0 for a solved set, else the key in ``_FAILURES`` of the
    first check it failed.  Failed matrices are NaN.  Sets are dropped
    as they fail, so no non-finite value reaches LAPACK.
    """
    m = len(points_a)
    failure = np.zeros(m, dtype=np.int8)
    f = np.full((m, 3, 3), np.nan)
    finite = np.isfinite(points_a).all(axis=(1, 2)) & np.isfinite(points_b).all(axis=(1, 2))
    failure[~finite] = 1
    live = np.flatnonzero(finite)
    na, ta, spread_a = _normalise(points_a[live])
    nb, tb, spread_b = _normalise(points_b[live])
    spread = spread_a & spread_b
    failure[live[~spread]] = 2
    live, na, ta, nb, tb = live[spread], na[spread], ta[spread], nb[spread], tb[spread]

    xa, ya = na[..., 0], na[..., 1]
    xb, yb = nb[..., 0], nb[..., 1]
    a = np.stack([xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones_like(xa)], axis=-1)
    # Coordinates near the float64 limit overflow in the normalisation.
    finite = np.isfinite(a).all(axis=(1, 2))
    failure[live[~finite]] = 1
    live, a, ta, tb = live[finite], a[finite], ta[finite], tb[finite]
    if len(live) == 0:
        return f, failure

    # The null vector is the last row of the full 9x9 V^T.  Past 8 rows
    # the thin SVD returns the same V^T, without the k x k U.
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[1] < 9)
    # A unique null space needs rank 8; collinear or repeated points fail here.
    deficient = sv[:, 7] <= 1e-10 * sv[:, 0]
    failure[live[deficient]] = 3
    full = ~deficient
    live, ta, tb = live[full], ta[full], tb[full]
    if len(live) == 0:
        return f, failure

    uf, sf, vtf = np.linalg.svd(vt[full, -1].reshape(-1, 3, 3))
    sf[:, 2] = 0.0
    rank2 = uf @ (sf[:, :, None] * np.eye(3)) @ vtf
    f[live] = canonicalize(tb.transpose(0, 2, 1) @ rank2 @ ta)
    return f, failure


def eight_point(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Normalised linear estimate of the fundamental matrix.

    Solves ``x_b^T F x_a = 0`` over at least 8 correspondences: both point
    sets are Hartley-normalised, the nine-dimensional homogeneous system
    is solved by smallest singular vector, rank 2 is enforced by zeroing
    the smallest singular value, and the result is denormalised and
    canonicalised to unit norm with a positive leading entry.  This is
    the one-set case of the stacked solver RANSAC runs on its hypotheses.

    Raises ``ValueError`` for fewer than 8 points and
    :class:`EstimationFailedError` for degenerate configurations or
    non-finite coordinates.
    """
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    n = len(points_a)
    if n < 8 or len(points_b) != n:
        raise ValueError(f"need >= 8 correspondences on both sides, got {n} and {len(points_b)}")
    f, failure = _solve(points_a[None], points_b[None])
    if failure[0]:
        raise EstimationFailedError(_FAILURES[failure[0]])
    return f[0]


def _homogeneous(points: np.ndarray) -> np.ndarray:
    return np.column_stack([points, np.ones(len(points))])


def _sampson(f: np.ndarray, ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """``(m, n)`` Sampson errors of an ``(m, 3, 3)`` stack of models
    against ``(n, 3)`` homogeneous correspondences.

    A correspondence with a non-finite coordinate, or a zero gradient,
    gets an infinite error, so it is an outlier to every model.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        fa = f @ ha.T  # (m, 3, n): row j holds (F x_a)_j for every match
        ftb = f.transpose(0, 2, 1) @ hb.T  # rows of F^T x_b
        hb = hb.T
        num = hb[0] * fa[:, 0] + hb[1] * fa[:, 1] + hb[2] * fa[:, 2]
        den = fa[:, 0] ** 2 + fa[:, 1] ** 2 + ftb[:, 0] ** 2 + ftb[:, 1] ** 2
        d2 = num**2 / den
        # NaN (0/0, inf/inf, a NaN input) fails `>= 0` and becomes inf.
        d2 = np.where(d2 >= 0, d2, np.inf)
    return np.sqrt(d2)


def sampson_distance(f: np.ndarray, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """First-order epipolar error of each correspondence, in pixels."""
    return _sampson(np.asarray(f)[None], _homogeneous(points_a), _homogeneous(points_b))[0]


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

    Hypotheses are drawn one by one from the seeded generator but solved
    and scored ``RANSAC_CHUNK`` at a time, so memory stays at chunk x n
    errors whatever ``max_iterations`` is.  Samples the solver refuses
    are never scored, and the winner is the first hypothesis in draw
    order with the strictly lowest score: the answer is the one a loop
    over the hypotheses gives, bit for bit.
    """
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    n = len(points_a)
    no_result = (None, np.zeros(n, dtype=bool))
    if n < 8:
        return no_result

    rng = np.random.default_rng(params.seed)
    ha, hb = _homogeneous(points_a), _homogeneous(points_b)
    cap = params.inlier_threshold**2
    best_score = np.inf
    best_f = None
    best_mask = None
    for start in range(0, params.max_iterations, RANSAC_CHUNK):
        m = min(RANSAC_CHUNK, params.max_iterations - start)
        idx = np.array([rng.choice(n, size=8, replace=False) for _ in range(m)])
        f, failure = _solve(points_a[idx], points_b[idx])
        f = f[failure == 0]
        if len(f) == 0:
            continue
        d = _sampson(f, ha, hb)
        scores = np.minimum(d**2, cap).sum(axis=1)
        scores[np.isnan(scores)] = np.inf  # a NaN score never wins
        j = int(np.argmin(scores))
        if scores[j] < best_score:
            best_score = scores[j]
            best_f = f[j]
            best_mask = d[j] < params.inlier_threshold
            if best_score == 0.0:  # nothing can score lower
                break

    if best_mask is None or best_mask.sum() < 8:
        return no_result
    try:
        refined = eight_point(points_a[best_mask], points_b[best_mask])
    except EstimationFailedError:
        return best_f, best_mask
    final_mask = sampson_distance(refined, points_a, points_b) < params.inlier_threshold
    return refined, final_mask
