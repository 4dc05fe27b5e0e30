"""The benchmark's workloads: what each one feeds the detector, and why.

A workload is a fixed, seeded frame sequence (one *pass*) plus the
configuration it runs under.  Every pass is long enough that the 90th
percentile frame time has at least ten frames beyond it.  ``toy`` sizes
exist only for the benchmark's self-test.

``BENCHMARKED`` names the workloads ``BENCHMARK.json`` lists and a bare
``run.py`` runs.  The other two stay runnable by name, for tracing the
layers they stress, but are not benchmarked: benchmarked workloads get
runs of a minute, because shorter runs on a small shared machine spread
past the bounds, and twenty such runs of each of four workloads would
take 80 minutes.

The inputs are generated from the benchmark seed here, outside the
program; the detector only ever sees the generated feature sets or
images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import scene

# Seeds a developer tunes on are small; ``--held-out`` shifts the input
# seed into a range that is never used while a change is written, so a
# claimed gain can be re-checked on unseen inputs.
HELD_OUT_OFFSET = 1_000_003


@dataclass(frozen=True)
class Floors:
    """Quality a correct program reaches on every seed of a workload."""

    recall_at_p1: float
    precision: float
    retrieval_hit_rate: float


@dataclass(frozen=True)
class Size:
    """One pass: a synthetic plan, or rendered camera frames (new, revisits)."""

    plan: str | None = None
    camera: tuple[int, int] | None = None
    buffer_size: int = 50  # p


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    features: int
    full: Size
    toy: Size
    floors: Floors
    config: dict = field(default_factory=dict)

    @property
    def is_camera(self) -> bool:
        return self.full.camera is not None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="explore-1000",
            why="fresh places only at 1000 features: forest search dominates and geometry never runs",
            features=1000,
            full=Size(plan="new:111"),
            toy=Size(plan="new:14", buffer_size=4),
            floors=Floors(recall_at_p1=1.0, precision=1.0, retrieval_hit_rate=1.0),
        ),
        Workload(
            name="revisit-1000",
            why="a quarter of frames revisit with the shortcut off, so each pays ratio matching and RANSAC",
            features=1000,
            full=Size(plan="new:76,revisit:0:25"),
            toy=Size(plan="new:10,revisit:0:5", buffer_size=4),
            floors=Floors(recall_at_p1=0.4, precision=0.75, retrieval_hit_rate=0.7),
            config={"shortcut_after": float("inf")},
        ),
        Workload(
            name="lifelong-200",
            why="long run at 200 features: word churn, long posting lists, mostly the shortcut path",
            features=200,
            full=Size(plan="new:200,revisit:0:100,revisit:100:100"),
            toy=Size(plan="new:12,revisit:0:6,revisit:6:6", buffer_size=4),
            floors=Floors(recall_at_p1=0.8, precision=0.95, retrieval_hit_rate=0.9),
        ),
        Workload(
            name="camera-640",
            why="rendered 640x480 images with parallax: the only workload that runs the image front end; revisits run RANSAC",
            features=500,
            full=Size(camera=(60, 41)),
            toy=Size(camera=(8, 4), buffer_size=4),
            floors=Floors(recall_at_p1=0.6, precision=0.9, retrieval_hit_rate=0.8),
        ),
    ]
}

BENCHMARKED = ("explore-1000", "camera-640")


SEED_FEATURES = "seed.feat"  # first synthetic frame, for the set-up probe


@dataclass
class Inputs:
    """Generated inputs of one pass.

    ``frames`` holds feature sets for synthetic workloads and image paths
    for the camera workload.
    """

    frames: list
    ground_truth: dict[int, list[int]]


def run_config(workload: Workload, size: Size, input_seed: int, out_dir: Path):
    """The ``RunConfig`` a user would write for this workload."""
    from loopclose.config import RunConfig

    if size.camera is not None:
        mode, source = "images", str(out_dir / "images")
    else:
        mode, source = "synthetic", size.plan
    return RunConfig(
        mode=mode,
        input=source,
        out=str(out_dir),
        seed=input_seed,
        features=workload.features,
        buffer_size=size.buffer_size,
        **workload.config,
    )


def make_inputs(workload: Workload, size: Size, input_seed: int, out_dir: Path) -> Inputs:
    """Generate a pass's inputs from the seed; the same seed gives the same inputs."""
    from loopclose.imgproc import write_features
    from loopclose.synthetic import generate_synthetic

    out_dir.mkdir(parents=True, exist_ok=True)
    if size.camera is not None:
        new, revisits = size.camera
        paths, gt = scene.render_sequence(out_dir / "images", new, revisits, input_seed)
        return Inputs(frames=paths, ground_truth=gt)
    frames, gt = generate_synthetic(size.plan, n_features=workload.features, seed=input_seed)
    write_features(out_dir / SEED_FEATURES, frames[0])
    return Inputs(frames=frames, ground_truth=gt)


def seed_image(out_dir: Path) -> Path:
    return out_dir / "images" / scene.frame_name(0)


def front_end(config, path: Path):
    """One camera frame through the image front end: load, corners, descriptors.

    Looks the functions up on the module at call time, so a traced run
    sees them.
    """
    from loopclose import imgproc

    img = imgproc.load_pgm(path)
    corners = imgproc.detect_corners(img, config.features, config.corner_threshold)
    return imgproc.extract_descriptors(
        img, corners, pattern_seed=config.pattern_seed, width=config.descriptor_bits
    )
