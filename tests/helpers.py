"""Independent reference implementations used as test oracles.

Everything here recomputes expected values by brute force (exhaustive
scans, nested loops, direct projective constructions) so the production
paths are checked against genuinely separate code.
"""

from __future__ import annotations

import numpy as np

from loopclose.bits import hamming, hamming_matrix
from loopclose.geometry import EstimationFailedError, RansacParams
from loopclose.hamming_tree import HammingForest, HammingTree, Neighbor, iter_leaves
from loopclose.imgproc import BORDER_MARGIN, FeatureSet, sampling_pattern


# ---------------------------------------------------------------------------
# Nearest neighbour / search oracles
# ---------------------------------------------------------------------------

def linear_nn_distances(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbour distance of each query by full scan."""
    return hamming_matrix(queries, corpus).min(axis=1)


def assign_words_loop(vocab, features: FeatureSet):
    """Loop form of ``Vocabulary.assign_words``: one ``knn_search`` per
    feature, then the ratio test (or, with a single word found, the
    quarter-width accept radius) on its two nearest words."""
    radius = vocab.width // 4
    matches, unmatched = [], []
    for i, q in enumerate(features.descriptors):
        found = vocab.forest.knn_search(q, 2)
        if len(found) >= 2:
            accept = found[0].distance < vocab.params.ratio * found[1].distance
        else:
            accept = len(found) == 1 and found[0].distance <= radius
        if accept:
            matches.append((i, found[0].word_id))
        else:
            unmatched.append(i)
    return matches, unmatched


def walk_answer(forest: HammingForest, q: np.ndarray, k: int, budget: int) -> list[Neighbor]:
    """The ``k`` nearest of the words the best-bin-first walk examines,
    ranked by ``DescriptorStore.top_k``, even where ``knn_search`` would
    rank every live word instead of walking."""
    q64 = np.ascontiguousarray(q).view(np.uint64)[None]
    rows = np.array(forest._best_bin_first(q64, budget), dtype=np.int64)
    ids, dists = forest.store.top_k(q64, rows, min(k, len(rows)))
    return [Neighbor(i, d) for i, d in zip(ids[0].tolist(), dists[0].tolist())]


def initial_leaf_rows(forest: HammingForest, q: np.ndarray) -> set[int]:
    """Store rows of the leaves one query reaches by plain descent, over all trees."""
    return {r for tree in forest.trees for r in tree.descend_nearest(q).rows}


# ---------------------------------------------------------------------------
# Forest invariants
# ---------------------------------------------------------------------------

def check_forest_invariants(forest: HammingForest, leaf_capacity: int) -> None:
    """Walk every tree and assert the structural invariants."""
    live = set(forest.store.word_ids)
    for tree in forest.trees:
        seen: list[int] = []
        for leaf in iter_leaves(tree.root):
            assert len(leaf.rows) <= leaf_capacity, (
                f"leaf holds {len(leaf.rows)} > {leaf_capacity} words"
            )
            seen.extend(forest.store.ids_at(leaf.rows).tolist())
        assert len(seen) == len(set(seen)), "a word id appears in two leaves"
        assert set(seen) == live, "tree membership diverged from the store"
        assert tree.all_ids() == live, "leaf lookup table diverged"
        _check_internal_nodes(tree, live)


def _check_internal_nodes(tree: HammingTree, live: set[int]) -> None:
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        assert node.children, "internal node without children"
        for child in node.children:
            assert child.parent is node, "broken parent link"
            stack.append(child)
        if node is not tree.root:
            # A recorded centre word, while live, must sit in this subtree.
            if node.centre_word in live:
                subtree_rows = [r for leaf in iter_leaves(node) for r in leaf.rows]
                subtree = set(tree.store.ids_at(subtree_rows).tolist())
                assert node.centre_word in subtree, "centre word escaped its subtree"


# ---------------------------------------------------------------------------
# tf-idf scoring oracle
# ---------------------------------------------------------------------------

def brute_force_scores(vocab, matched_word_ids, exclude=()) -> dict[int, float]:
    """Linear tf-idf scan over every indexed image.

    Iterates images on the outside and words on the inside (the opposite
    of the production path) and recomputes tf denominators from the
    posting lists instead of trusting the vocabulary's running totals.
    """
    import math

    excluded = set(exclude)
    words = list(dict.fromkeys(matched_word_ids))
    n_images = vocab.num_images

    totals: dict[int, float] = {}
    for plist in vocab.postings.values():
        for image_id, count in plist:
            totals[image_id] = totals.get(image_id, 0) + count

    scores: dict[int, float] = {}
    for image_id in vocab.images_indexed:
        if image_id in excluded:
            continue
        score = 0.0
        for wid in words:
            plist = vocab.postings[wid]
            count = 0
            for img, c in plist:
                if img == image_id:
                    count = c
                    break
            if count == 0:
                continue
            idf = math.log(n_images / len(plist))
            score += (count / totals[image_id]) * idf
        if score > 0.0:
            scores[image_id] = score
    return scores


# ---------------------------------------------------------------------------
# Corner detection oracle
# ---------------------------------------------------------------------------

_RING = [
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
]


def segment_test_corners(img: np.ndarray, threshold: int) -> set[tuple[int, int]]:
    """Brute-force segment test over all pixels (no NMS), as (x, y) set."""
    h, w = img.shape
    corners = set()
    for y in range(3, h - 3):
        for x in range(3, w - 3):
            c = int(img[y, x])
            ring = [int(img[y + dy, x + dx]) for dx, dy in _RING]
            doubled = ring + ring
            for flags in (
                [v > c + threshold for v in doubled],
                [v < c - threshold for v in doubled],
            ):
                run = 0
                hit = False
                for f in flags:
                    run = run + 1 if f else 0
                    if run >= 9:
                        hit = True
                        break
                if hit:
                    corners.add((x, y))
                    break
    return corners


def detect_corners_reference(img: np.ndarray, target: int, threshold: int) -> np.ndarray:
    """Dense form of ``detect_corners``: int16 ring comparisons and excesses
    at every pixel, a 16-shift arc loop and an 8-neighbour NMS."""
    img = np.asarray(img)
    h, w = img.shape
    if h < 16 or w < 16 or target <= 0:
        return np.empty((0, 3), dtype=np.float32)

    centre = img[3 : h - 3, 3 : w - 3].astype(np.int16)
    lo = centre - threshold
    hi = centre + threshold

    packed_bright = np.zeros(centre.shape, dtype=np.uint32)
    packed_dark = np.zeros(centre.shape, dtype=np.uint32)
    bright_excess = np.zeros(centre.shape, dtype=np.int32)
    dark_excess = np.zeros(centre.shape, dtype=np.int32)
    for i, (dx, dy) in enumerate(_RING):
        ring = img[3 + dy : h - 3 + dy, 3 + dx : w - 3 + dx].astype(np.int16)
        packed_bright |= (ring > hi).astype(np.uint32) << i
        packed_dark |= (ring < lo).astype(np.uint32) << i
        bright_excess += np.maximum(ring - hi, 0)
        dark_excess += np.maximum(lo - ring, 0)

    arc = np.uint32((1 << 9) - 1)
    is_bright = np.zeros(centre.shape, dtype=bool)
    is_dark = np.zeros(centre.shape, dtype=bool)
    wrap_bright = packed_bright | (packed_bright << 16)
    wrap_dark = packed_dark | (packed_dark << 16)
    for s in range(16):
        is_bright |= ((wrap_bright >> s) & arc) == arc
        is_dark |= ((wrap_dark >> s) & arc) == arc

    response = np.zeros((h, w), dtype=np.int32)
    response[3 : h - 3, 3 : w - 3] = is_bright * bright_excess + is_dark * dark_excess

    neigh = np.zeros_like(response)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            shifted = np.zeros_like(response)
            ys = slice(max(0, dy), h + min(0, dy))
            xs = slice(max(0, dx), w + min(0, dx))
            yd = slice(max(0, -dy), h + min(0, -dy))
            xd = slice(max(0, -dx), w + min(0, -dx))
            shifted[yd, xd] = response[ys, xs]
            neigh = np.maximum(neigh, shifted)
    keep = (response > 0) & (response >= neigh)

    ys, xs = np.nonzero(keep)
    if len(ys) == 0:
        return np.empty((0, 3), dtype=np.float32)
    resp = response[ys, xs]
    order = np.lexsort((xs, ys, -resp))[:target]
    out = np.empty((len(order), 3), dtype=np.float32)
    out[:, 0] = xs[order]
    out[:, 1] = ys[order]
    out[:, 2] = resp[order]
    return out


def extract_descriptors_reference(
    img: np.ndarray, corners: np.ndarray, pattern_seed: int = 42, width: int = 256
) -> FeatureSet:
    """2-D form of ``extract_descriptors``: int64 box sums over the whole
    image, sampled with (row, column) fancy indexing."""
    corners = np.asarray(corners, dtype=np.float32).reshape(-1, 3)
    h, w = img.shape
    x, y = corners[:, 0], corners[:, 1]
    ok = (
        (x >= BORDER_MARGIN)
        & (x < w - BORDER_MARGIN)
        & (y >= BORDER_MARGIN)
        & (y < h - BORDER_MARGIN)
    )
    kept = corners[ok]
    if len(kept) == 0:
        return FeatureSet.empty(width)

    padded = np.pad(np.asarray(img).astype(np.int64), 2, mode="edge")
    integral = np.pad(padded.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
    sums = (
        integral[5 : 5 + h, 5 : 5 + w]
        - integral[:h, 5 : 5 + w]
        - integral[5 : 5 + h, :w]
        + integral[:h, :w]
    )
    pattern = sampling_pattern(pattern_seed, width)
    cx = np.rint(kept[:, 0]).astype(np.int64)
    cy = np.rint(kept[:, 1]).astype(np.int64)
    sp = sums[cy[:, None] + pattern[None, :, 1], cx[:, None] + pattern[None, :, 0]]
    sq = sums[cy[:, None] + pattern[None, :, 3], cx[:, None] + pattern[None, :, 2]]
    return FeatureSet(
        keypoints=kept[:, :2].copy(),
        responses=kept[:, 2].copy(),
        descriptors=np.packbits(sp < sq, axis=1),
    )


# ---------------------------------------------------------------------------
# Two-view geometry oracle
# ---------------------------------------------------------------------------

def greedy_ratio_match(feats_a: FeatureSet, feats_b: FeatureSet, ratio: float = 0.8):
    """Loop form of ``ratio_match``: per-feature ratio test, then targets
    granted one claim each, in ascending (distance, feature index) order."""
    claims = []
    for i, qa in enumerate(feats_a.descriptors):
        row = [hamming(qa, qb) for qb in feats_b.descriptors]
        j = min(range(len(row)), key=row.__getitem__)
        if len(row) < 2 or row[j] < ratio * sorted(row)[1]:
            claims.append((row[j], i, j))
    claimed: set[int] = set()
    pairs = []
    for _, i, j in sorted(claims):
        if j not in claimed:
            claimed.add(j)
            pairs.append((i, j))
    ia = [i for i, _ in pairs]
    ib = [j for _, j in pairs]
    return (
        feats_a.keypoints[ia].astype(np.float64).reshape(-1, 2),
        feats_b.keypoints[ib].astype(np.float64).reshape(-1, 2),
    )


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


def canonicalize_reference(f: np.ndarray) -> np.ndarray:
    """One-matrix form of ``canonicalize``."""
    f = f / np.linalg.norm(f)
    flat = f.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        f = -f
    return f


def eight_point_reference(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """One-model form of ``eight_point``: one 2-d SVD per solve."""
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
    return canonicalize_reference(f)


def sampson_distance_reference(
    f: np.ndarray, points_a: np.ndarray, points_b: np.ndarray
) -> np.ndarray:
    """One-model form of ``sampson_distance``."""
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


def ransac_loop(
    points_a: np.ndarray, points_b: np.ndarray, params: RansacParams
) -> tuple[np.ndarray | None, np.ndarray]:
    """Loop form of ``ransac_fundamental``: one hypothesis solved and
    scored at a time, with the one-model references above."""
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
            f = eight_point_reference(points_a[idx], points_b[idx])
        except EstimationFailedError:
            continue
        d = sampson_distance_reference(f, points_a, points_b)
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
        refined = eight_point_reference(points_a[best_mask], points_b[best_mask])
    except EstimationFailedError:
        return best_f, best_mask
    final_mask = (
        sampson_distance_reference(refined, points_a, points_b) < params.inlier_threshold
    )
    return refined, final_mask


def skew(t: np.ndarray) -> np.ndarray:
    return np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]])


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def synthetic_two_view(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projections of one random scene from two random cameras.

    Returns ``(points_a, points_b, F)`` where the fundamental matrix F
    satisfies ``x_b^T F x_a = 0`` exactly for every correspondence.
    """
    k = np.array([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
    r = rotation_matrix(rng.normal(size=3), rng.uniform(0.05, 0.3))
    t = rng.uniform(-1.0, 1.0, size=3)
    t[2] = rng.uniform(0.2, 0.5)

    xs = rng.uniform(-2.5, 2.5, size=n)
    ys = rng.uniform(-2.0, 2.0, size=n)
    zs = rng.uniform(4.0, 12.0, size=n)
    pts3 = np.column_stack([xs, ys, zs])

    pa_h = pts3 @ k.T
    pb_h = (pts3 @ r.T + t) @ k.T
    pa = pa_h[:, :2] / pa_h[:, 2:]
    pb = pb_h[:, :2] / pb_h[:, 2:]

    k_inv = np.linalg.inv(k)
    f = k_inv.T @ skew(t) @ r @ k_inv
    return pa, pb, f


def random_feature_set(rng: np.random.Generator, n: int, width: int = 256) -> FeatureSet:
    from loopclose.bits import random_descriptors

    return FeatureSet(
        keypoints=rng.uniform(30, 600, size=(n, 2)).astype(np.float32),
        responses=rng.uniform(1, 50, size=n).astype(np.float32),
        descriptors=random_descriptors(rng, n, width),
    )
