"""Synthetic feature sequences with known loop closure ground truth.

Frames are produced directly as feature sets, so the full pipeline can be
exercised at desk scale without image data.  A "new" segment simulates a
camera moving through fresh surroundings: scene points carry a fixed
random descriptor and stay observable for a bounded number of frames
(each observation flips a couple of bits), with fresh points spawned as
old ones expire.  Temporal overlap between consecutive frames is what
lets temporary words survive their probation window, while the bounded
lifetime keeps document frequencies low enough for retrieval to localise.
A "revisit" segment replays earlier frames: the original descriptors are
copied with a configurable number of flipped bits, and the original
keypoints are back-projected to random depths and re-projected through a
slightly moved camera, so correspondences between a revisit frame and
its original satisfy a genuine two-view geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import check_width, flip_random_bits, random_descriptors
from .imgproc import BORDER_MARGIN, FeatureSet, check_feature_count

IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480
FOCAL = 500.0
CX = IMAGE_WIDTH / 2.0
CY = IMAGE_HEIGHT / 2.0

DEPTH_RANGE = (4.0, 10.0)
POINT_LIFETIME = (6, 16)  # frames a scene point stays observable, drawn uniformly
OBSERVATION_NOISE_BITS = 2


@dataclass(frozen=True)
class PlanStep:
    kind: str  # "new" or "revisit"
    count: int
    start: int = 0  # first original frame, for revisit steps


def parse_plan(text: str) -> list[PlanStep]:
    """Parse a plan like ``"new:200,revisit:0:100"``.

    ``new:N`` adds N frames of fresh places; ``revisit:S:N`` replays
    originals S .. S+N-1 in order.  Revisits may only reference frames
    produced by earlier steps.
    """
    steps: list[PlanStep] = []
    produced = 0
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            continue
        fields = part.split(":")
        if fields[0] == "new" and len(fields) == 2:
            count = int(fields[1])
            if count < 1:
                raise ValueError(f"bad plan step {part!r}: count must be >= 1")
            steps.append(PlanStep("new", count))
            produced += count
        elif fields[0] == "revisit" and len(fields) == 3:
            start, count = int(fields[1]), int(fields[2])
            if count < 1 or start < 0:
                raise ValueError(f"bad plan step {part!r}")
            if start + count > produced:
                raise ValueError(
                    f"plan step {part!r} references frame {start + count - 1}, "
                    f"but only {produced} frames exist at that point"
                )
            steps.append(PlanStep("revisit", count, start))
            produced += count
        else:
            raise ValueError(f"unrecognised plan step {part!r}")
    if not steps:
        raise ValueError("empty plan")
    return steps


def _random_keypoints(rng: np.random.Generator, n: int) -> np.ndarray:
    kps = np.empty((n, 2), dtype=np.float32)
    kps[:, 0] = rng.uniform(BORDER_MARGIN, IMAGE_WIDTH - BORDER_MARGIN - 1, size=n)
    kps[:, 1] = rng.uniform(BORDER_MARGIN, IMAGE_HEIGHT - BORDER_MARGIN - 1, size=n)
    return kps


def _small_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.01, 0.035)  # radians, roughly 0.6 to 2 degrees
    kx, ky, kz = axis
    k = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _revisit_view(
    rng: np.random.Generator, base: FeatureSet, noise_bits: int
) -> FeatureSet:
    """Re-observe a frame from a slightly moved camera.

    Keypoints are back-projected to random depths (treating the original
    view as the reference camera), transformed by a small rigid motion and
    re-projected; points leaving the usable image area are dropped.
    Descriptors are the originals with ``noise_bits`` flipped bits each.
    """
    n = len(base)
    z = rng.uniform(*DEPTH_RANGE, size=n)
    x = (base.keypoints[:, 0].astype(np.float64) - CX) * z / FOCAL
    y = (base.keypoints[:, 1].astype(np.float64) - CY) * z / FOCAL
    points = np.column_stack([x, y, z])

    rot = _small_rotation(rng)
    trans = rng.uniform(-0.15, 0.15, size=3)
    moved = points @ rot.T + trans

    with np.errstate(divide="ignore", invalid="ignore"):
        u = FOCAL * moved[:, 0] / moved[:, 2] + CX
        v = FOCAL * moved[:, 1] / moved[:, 2] + CY
    ok = (
        (moved[:, 2] > 0.5)
        & (u >= BORDER_MARGIN)
        & (u < IMAGE_WIDTH - BORDER_MARGIN)
        & (v >= BORDER_MARGIN)
        & (v < IMAGE_HEIGHT - BORDER_MARGIN)
    )
    descs = base.descriptors[ok]
    if noise_bits > 0 and len(descs):
        descs = flip_random_bits(rng, descs, noise_bits)
    else:
        descs = descs.copy()
    return FeatureSet(
        keypoints=np.column_stack([u[ok], v[ok]]).astype(np.float32),
        responses=base.responses[ok].copy(),
        descriptors=descs,
    )


def generate_synthetic(
    plan: list[PlanStep] | str,
    n_features: int = 1000,
    noise_bits: int = 25,
    seed: int = 0,
    width: int = 256,
) -> tuple[list[FeatureSet], dict[int, list[int]]]:
    """Generate a feature sequence and its loop closure ground truth.

    Returns ``(frames, ground_truth)`` where ``ground_truth`` maps each
    revisit frame index to the original frame indices it closes a loop
    with.  Deterministic for a fixed seed.  ``n_features`` must be in
    1..``MAX_FEATURES``, ``noise_bits`` and ``seed`` at least 0 and
    ``width`` a multiple of 64 in 64..``MAX_WIDTH``, or ValueError is
    raised.
    """
    check_feature_count(n_features)
    if noise_bits < 0:
        raise ValueError(f"noise_bits must be >= 0, got {noise_bits}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_width(width)
    if isinstance(plan, str):
        plan = parse_plan(plan)
    rng = np.random.default_rng(seed)
    frames: list[FeatureSet] = []
    gt: dict[int, list[int]] = {}

    for step in plan:
        if step.kind == "new":
            # Fresh place per segment: a rolling pool of scene points.
            pool = np.empty((0, width // 8), dtype=np.uint8)
            expiry = np.empty(0, dtype=np.int64)
            for _ in range(step.count):
                alive = expiry > 0
                pool = pool[alive]
                expiry = expiry[alive]
                spawn = n_features - len(pool)
                if spawn > 0:
                    pool = np.concatenate([pool, random_descriptors(rng, spawn, width)])
                    expiry = np.concatenate(
                        [expiry, rng.integers(*POINT_LIFETIME, size=spawn)]
                    )
                expiry = expiry - 1
                descs = flip_random_bits(rng, pool, OBSERVATION_NOISE_BITS)
                frame = FeatureSet(
                    keypoints=_random_keypoints(rng, len(descs)),
                    responses=rng.uniform(1.0, 100.0, size=len(descs)).astype(np.float32),
                    descriptors=descs,
                )
                frames.append(frame)
        else:
            for i in range(step.count):
                original = step.start + i
                frame = _revisit_view(rng, frames[original], noise_bits)
                gt[len(frames)] = [original]
                frames.append(frame)
    return frames, gt
