"""Run configuration: flat key=value files mapped onto typed parameters.

Algorithm keys keep their conventional short names (``K``, ``S``, ``T_i``,
``p``, ``features``, ``P_f``, ``P_o``, ``tau_im``, ``b``, ``tau_c``) so
config files read like the parameter tables commonly published for this
family of systems; harness keys are plain words.  Unknown keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .detector import DetectorParams
from .geometry import RansacParams
from .imgproc import DEFAULT_CORNER_THRESHOLD, DEFAULT_PATTERN_SEED, check_pattern_seed
from .vocabulary import VocabParams

MODES = ("images", "features", "synthetic")


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or missing required fields."""


@dataclass
class RunConfig:
    """Everything one detection run needs.

    Exactly one input mode applies: ``images`` (directory of PGM files),
    ``features`` (directory of feature files) or ``synthetic`` (a plan
    string such as ``"new:200,revisit:0:100"`` in ``input``).
    """

    mode: str = "synthetic"
    input: str = "new:100,revisit:0:50"
    out: str | None = None
    gt: str | None = None
    gt_tolerance: int | None = None  # default: island halfwidth b
    seed: int = 0

    # vocabulary / forest
    branching: int = 16  # K
    leaf_capacity: int = 150  # S
    num_trees: int = 4  # T_i
    budget: int = 64
    ratio: float = 0.8
    probation_frames: int = 2  # P_f
    required_matches: int = 2  # P_o
    purge: bool = True

    # detector
    buffer_size: int = 50  # p
    score_threshold: float = 0.3  # tau_im
    island_halfwidth: int = 5  # b
    shortcut_after: float = 20  # tau_c
    min_inliers: int = 24

    # geometry
    ransac_iterations: int = 500
    ransac_threshold: float = 2.0

    # extraction / synthesis
    features: int = 1000
    corner_threshold: int = DEFAULT_CORNER_THRESHOLD
    descriptor_bits: int = 256
    pattern_seed: int = DEFAULT_PATTERN_SEED
    noise_bits: int = 25

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.corner_threshold <= 255:
            raise ConfigError(f"corner_threshold must be in 0..255, got {self.corner_threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_pattern_seed(self.pattern_seed)
        if self.gt_tolerance is None:
            self.gt_tolerance = self.island_halfwidth
        elif self.gt_tolerance < 0:
            raise ConfigError(f"gt_tolerance must be >= 0, got {self.gt_tolerance}")

    def vocab_params(self) -> VocabParams:
        return VocabParams(
            branching=self.branching,
            leaf_capacity=self.leaf_capacity,
            num_trees=self.num_trees,
            budget=self.budget,
            ratio=self.ratio,
            probation_frames=self.probation_frames,
            required_matches=self.required_matches,
            purge=self.purge,
            seed=self.seed,
        )

    def detector_params(self) -> DetectorParams:
        return DetectorParams(
            buffer_size=self.buffer_size,
            score_threshold=self.score_threshold,
            island_halfwidth=self.island_halfwidth,
            shortcut_after=self.shortcut_after,
            min_inliers=self.min_inliers,
            ransac=RansacParams(
                max_iterations=self.ransac_iterations,
                inlier_threshold=self.ransac_threshold,
                seed=self.seed,
            ),
        )


# config-file key -> (RunConfig field, parser)
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_tau_c(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("tau_c cannot be NaN")
    return value


_KEYMAP: dict[str, tuple[str, object]] = {
    "K": ("branching", int),
    "S": ("leaf_capacity", int),
    "T_i": ("num_trees", int),
    "p": ("buffer_size", int),
    "features": ("features", int),
    "P_f": ("probation_frames", int),
    "P_o": ("required_matches", int),
    "tau_im": ("score_threshold", float),
    "b": ("island_halfwidth", int),
    "tau_c": ("shortcut_after", _parse_tau_c),
    "mode": ("mode", str),
    "input": ("input", str),
    "out": ("out", str),
    "gt": ("gt", str),
    "gt_tolerance": ("gt_tolerance", int),
    "seed": ("seed", int),
    "budget": ("budget", int),
    "ratio": ("ratio", float),
    "purge": ("purge", _parse_bool),
    "min_inliers": ("min_inliers", int),
    "ransac_iterations": ("ransac_iterations", int),
    "ransac_threshold": ("ransac_threshold", float),
    "corner_threshold": ("corner_threshold", int),
    "descriptor_bits": ("descriptor_bits", int),
    "pattern_seed": ("pattern_seed", int),
    "noise_bits": ("noise_bits", int),
}


def config_from_dict(values: dict[str, str]) -> RunConfig:
    """Build a RunConfig from raw key=value strings (all keys validated)."""
    kwargs = {}
    for key, raw in values.items():
        if key not in _KEYMAP:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _KEYMAP[key]
        try:
            kwargs[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> RunConfig:
    """Parse a flat key=value config file; later values override earlier ones."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return config_from_dict(values)
