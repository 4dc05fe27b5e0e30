"""Seeded 640x480 image sequences rendered from a 3D scene, with ground truth.

A camera slides sideways along a corridor of textured square patches
placed at depths of 4 to 10 m.  Each patch is a small grid of random grey
cells, so the segment-test corner detector fires inside it and the binary
descriptor sees a distinctive neighbourhood.  Patches at different depths
shift by different amounts between views (parallax), which is what makes
the fundamental matrix between two views well determined; a flat pan or a
single plane would be refused by the geometric check by design.

A revisit replays the camera position of an earlier frame with a small
random offset and rotation, so it sees the same patches from a slightly
different viewpoint.  Ground truth maps each revisit frame to the
original frame whose position it replays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH = 640
HEIGHT = 480
FOCAL = 500.0
CX = WIDTH / 2.0
CY = HEIGHT / 2.0
DEPTH_RANGE = (4.0, 10.0)
STEP_M = 0.6  # camera travel per frame along the corridor
PATCHES_PER_M = 14.0
CELLS = 4  # a patch is CELLS x CELLS cells
CELL_PX = 3
LEVELS = np.array([30, 80, 175, 225], dtype=np.uint8)
BACKGROUND = 128


def _rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.01, 0.035)
    kx, ky, kz = axis
    k = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class Scene:
    """Patches along a corridor long enough for ``new_frames`` camera steps."""

    def __init__(self, rng: np.random.Generator, new_frames: int):
        span = WIDTH / FOCAL * DEPTH_RANGE[1] / 2.0
        x_lo, x_hi = -span, STEP_M * new_frames + span
        n = int(PATCHES_PER_M * (x_hi - x_lo))
        z = rng.uniform(*DEPTH_RANGE, size=n)
        self.points = np.column_stack(
            [
                rng.uniform(x_lo, x_hi, size=n),
                (rng.uniform(0, HEIGHT, size=n) - CY) * z / FOCAL,
                z,
            ]
        )
        cells = rng.integers(0, len(LEVELS), size=(n, CELLS, CELLS))
        block = np.kron(LEVELS[cells], np.ones((CELL_PX, CELL_PX), dtype=np.uint8))
        self.textures = block.astype(np.uint8)  # (n, CELLS*CELL_PX, CELLS*CELL_PX)

    def render(self, centre: np.ndarray, rot: np.ndarray) -> np.ndarray:
        """Image seen from a camera at ``centre`` with world-to-camera ``rot``."""
        cam = (self.points - centre) @ rot.T
        size = CELLS * CELL_PX
        img = np.full((HEIGHT, WIDTH), BACKGROUND, dtype=np.uint8)
        front = cam[:, 2] > 0.5
        idx = np.nonzero(front)[0]
        u = FOCAL * cam[idx, 0] / cam[idx, 2] + CX
        v = FOCAL * cam[idx, 1] / cam[idx, 2] + CY
        x0 = np.rint(u - size / 2).astype(np.int64)
        y0 = np.rint(v - size / 2).astype(np.int64)
        inside = (x0 >= 0) & (y0 >= 0) & (x0 + size <= WIDTH) & (y0 + size <= HEIGHT)
        idx, x0, y0 = idx[inside], x0[inside], y0[inside]
        # Far to near, so nearer patches occlude farther ones.
        for j in np.argsort(-cam[idx, 2], kind="stable"):
            img[y0[j] : y0[j] + size, x0[j] : x0[j] + size] = self.textures[idx[j]]
        return img


def frame_name(t: int) -> str:
    return f"{t:05d}.pgm"


def render_sequence(
    out_dir: Path, new_frames: int, revisits: int, seed: int
) -> tuple[list[Path], dict[int, list[int]]]:
    """Write ``new_frames`` corridor views then ``revisits`` replays of frames 0.. as P5 PGMs.

    Returns the image paths in frame order and the ground truth.
    """
    from loopclose.imgproc import write_pgm

    rng = np.random.default_rng(seed)
    scene = Scene(rng, new_frames)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    gt: dict[int, list[int]] = {}
    poses = [(np.array([STEP_M * t, 0.0, 0.0]), np.eye(3)) for t in range(new_frames)]
    for original in range(revisits):
        centre = poses[original][0] + rng.uniform(-0.15, 0.15, size=3)
        gt[new_frames + original] = [original]
        poses.append((centre, _rotation(rng)))
    for t, (centre, rot) in enumerate(poses):
        path = out_dir / frame_name(t)
        write_pgm(path, scene.render(centre, rot))
        paths.append(path)
    return paths, gt
