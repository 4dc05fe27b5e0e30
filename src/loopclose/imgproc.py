"""Image ingestion and binary feature extraction.

This module makes the pipeline self-contained: it reads PGM images, finds
corner keypoints with a segment test, describes them with binary intensity
comparisons over a fixed pseudorandom pattern, and reads/writes feature
files so precomputed descriptors from any other binary extractor can be
dropped in instead.

Images are plain ``(height, width)`` uint8 numpy arrays throughout.  All
operations are pure and never mutate their inputs, so distinct images may
be processed concurrently.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import DEFAULT_WIDTH

logger = logging.getLogger(__name__)

DEFAULT_PATTERN_SEED = 42
DEFAULT_CORNER_THRESHOLD = 20

# Keypoints closer than this to any image border are dropped before
# description; it covers the 31x31 sample patch plus smoothing margin.
BORDER_MARGIN = 24

PATCH_HALF = 15  # sampling offsets live in [-15, 15]

FEATURE_MAGIC = b"IBWF"
FEATURE_VERSION = 1

# Ring of 16 offsets (dx, dy) at radius 3 around a candidate corner,
# starting at 12 o'clock and running clockwise.
_RING = np.array(
    [
        (0, -3), (1, -3), (2, -2), (3, -1),
        (3, 0), (3, 1), (2, 2), (1, 3),
        (0, 3), (-1, 3), (-2, 2), (-3, 1),
        (-3, 0), (-3, -1), (-2, -2), (-1, -3),
    ],
    dtype=np.int64,
)

_ARC_LENGTH = 9  # contiguous ring pixels required by the segment test


class PgmFormatError(ValueError):
    """Raised when a PGM file cannot be parsed; messages carry byte offsets."""


class FeatureFileError(ValueError):
    """Raised when a feature file is malformed or incompatible with the config."""


@dataclass
class FeatureSet:
    """Features of one image as parallel arrays.

    keypoints:  (n, 2) float32, columns x (column) and y (row)
    responses:  (n,)  float32 corner strengths
    descriptors:(n, width // 8) uint8 packed binary descriptors
    """

    keypoints: np.ndarray
    responses: np.ndarray
    descriptors: np.ndarray

    def __len__(self) -> int:
        return len(self.keypoints)

    @property
    def width_bits(self) -> int:
        return int(self.descriptors.shape[1]) * 8

    @classmethod
    def empty(cls, width: int = DEFAULT_WIDTH) -> "FeatureSet":
        return cls(
            keypoints=np.empty((0, 2), dtype=np.float32),
            responses=np.empty(0, dtype=np.float32),
            descriptors=np.empty((0, width // 8), dtype=np.uint8),
        )


# ---------------------------------------------------------------------------
# PGM reading / writing
# ---------------------------------------------------------------------------

class _PgmScanner:
    """Token scanner over raw PGM bytes that tracks the current offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def error(self, message: str) -> PgmFormatError:
        return PgmFormatError(f"{message} (at byte offset {self.pos})")

    def skip_separators(self) -> None:
        # whitespace and '#' comments up to end of line
        data = self.data
        while self.pos < len(data):
            c = data[self.pos]
            if c in b" \t\r\n":
                self.pos += 1
            elif c == ord("#"):
                nl = data.find(b"\n", self.pos)
                self.pos = len(data) if nl < 0 else nl + 1
            else:
                return

    def read_int(self, what: str) -> int:
        self.skip_separators()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected integer for {what}")
        return int(data[start : self.pos])


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) or ASCII (P2) PGM file with maxval <= 255.

    Returns a ``(height, width)`` uint8 array.  The two encodings of the
    same image load identically.  Malformed input raises
    :class:`PgmFormatError` naming the offending byte offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sc = _PgmScanner(data)
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise sc.error(f"not a PGM file, magic {magic!r}")
    sc.pos = 2
    width = sc.read_int("width")
    height = sc.read_int("height")
    maxval = sc.read_int("maxval")
    if width < 1 or height < 1:
        raise sc.error(f"bad dimensions {width}x{height}")
    if maxval > 255:
        raise sc.error(f"unsupported maxval {maxval}")
    if maxval < 1:
        raise sc.error(f"bad maxval {maxval}")
    count = width * height

    if magic == b"P5":
        if sc.pos >= len(data) or data[sc.pos] not in b" \t\r\n":
            raise sc.error("expected single whitespace before P5 payload")
        sc.pos += 1
        payload = data[sc.pos : sc.pos + count]
        if len(payload) < count:
            sc.pos = len(data)
            raise sc.error(f"truncated P5 payload, need {count} bytes")
        img = np.frombuffer(payload, dtype=np.uint8, count=count)
    else:
        values = np.empty(count, dtype=np.uint8)
        for i in range(count):
            v = sc.read_int("pixel value")
            if v > maxval:
                raise sc.error(f"pixel value {v} exceeds maxval {maxval}")
            values[i] = v
        img = values
    return img.reshape(height, width).copy()


def write_pgm(path, img: np.ndarray) -> None:
    """Write a uint8 image as a binary (P5) PGM file."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("image must be a non-empty 2-d uint8 array")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


# ---------------------------------------------------------------------------
# Corner detection (segment test on a radius-3 ring + 3x3 NMS)
# ---------------------------------------------------------------------------

def detect_corners(
    img: np.ndarray,
    target: int,
    threshold: int = DEFAULT_CORNER_THRESHOLD,
) -> np.ndarray:
    """Detect up to ``target`` corners, strongest first.

    A pixel is a corner when a contiguous arc of at least 9 of the 16
    ring pixels at radius 3 is uniformly brighter or uniformly darker
    than the centre by more than ``threshold``.  The response is the sum
    of intensity excesses over the qualifying direction; 3x3
    non-maximum suppression keeps only local maxima.

    Returns an ``(n, 3)`` float32 array with columns x, y, response,
    sorted by descending response (ties broken by row then column).
    Images smaller than 16x16 yield an empty result.
    """
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

    arc = np.uint32((1 << _ARC_LENGTH) - 1)
    is_bright = np.zeros(centre.shape, dtype=bool)
    is_dark = np.zeros(centre.shape, dtype=bool)
    wrap_bright = packed_bright | (packed_bright << 16)
    wrap_dark = packed_dark | (packed_dark << 16)
    for s in range(16):
        is_bright |= ((wrap_bright >> s) & arc) == arc
        is_dark |= ((wrap_dark >> s) & arc) == arc

    response = np.zeros((h, w), dtype=np.int32)
    inner = is_bright * bright_excess + is_dark * dark_excess
    response[3 : h - 3, 3 : w - 3] = inner

    # 3x3 non-maximum suppression; plateau ties are all kept.
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


# ---------------------------------------------------------------------------
# Binary description (intensity comparisons over a fixed random pattern)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def sampling_pattern(seed: int, width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Run-constant pattern of ``width`` point pairs inside the 31x31 patch.

    Returns an ``(width, 4)`` int64 array of (px, py, qx, qy) offsets in
    [-15, 15].  The generator is seeded, so the pattern is identical
    across runs and platforms for the same seed.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.integers(-PATCH_HALF, PATCH_HALF + 1, size=(width, 4))
    same = (pattern[:, 0] == pattern[:, 2]) & (pattern[:, 1] == pattern[:, 3])
    while same.any():
        pattern[same] = rng.integers(-PATCH_HALF, PATCH_HALF + 1, size=(int(same.sum()), 4))
        same = (pattern[:, 0] == pattern[:, 2]) & (pattern[:, 1] == pattern[:, 3])
    pattern.setflags(write=False)
    return pattern


def _box_filter_sums(img: np.ndarray) -> np.ndarray:
    """5x5 box sums via an integral image (exact integer arithmetic)."""
    padded = np.pad(img.astype(np.int64), 2, mode="edge")
    integral = np.pad(padded.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
    h, w = img.shape
    return (
        integral[5 : 5 + h, 5 : 5 + w]
        - integral[:h, 5 : 5 + w]
        - integral[5 : 5 + h, :w]
        + integral[:h, :w]
    )


def extract_descriptors(
    img: np.ndarray,
    corners: np.ndarray,
    pattern_seed: int = DEFAULT_PATTERN_SEED,
    width: int = DEFAULT_WIDTH,
) -> FeatureSet:
    """Describe corners with packed binary intensity comparisons.

    The image is smoothed with a fixed 5x5 box filter, then bit ``i`` of a
    descriptor is set when the smoothed intensity at pattern point ``p_i``
    is below the one at ``q_i``.  Keypoints within ``BORDER_MARGIN`` pixels
    of any border are silently dropped (the count is logged at debug level).
    The result is deterministic for a given image, keypoints and seed.
    """
    corners = np.asarray(corners, dtype=np.float32).reshape(-1, 3)
    h, w = img.shape
    x = corners[:, 0]
    y = corners[:, 1]
    ok = (
        (x >= BORDER_MARGIN)
        & (x < w - BORDER_MARGIN)
        & (y >= BORDER_MARGIN)
        & (y < h - BORDER_MARGIN)
    )
    dropped = int((~ok).sum())
    if dropped:
        logger.debug("extract_descriptors: dropped %d keypoints near the border", dropped)
    kept = corners[ok]
    if len(kept) == 0:
        return FeatureSet.empty(width)

    sums = _box_filter_sums(img)
    pattern = sampling_pattern(pattern_seed, width)
    cx = np.rint(kept[:, 0]).astype(np.int64)
    cy = np.rint(kept[:, 1]).astype(np.int64)
    sp = sums[cy[:, None] + pattern[None, :, 1], cx[:, None] + pattern[None, :, 0]]
    sq = sums[cy[:, None] + pattern[None, :, 3], cx[:, None] + pattern[None, :, 2]]
    descriptors = np.packbits(sp < sq, axis=1)
    return FeatureSet(
        keypoints=kept[:, :2].copy(),
        responses=kept[:, 2].copy(),
        descriptors=descriptors,
    )


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIQI")  # magic, version, descriptor_bits, pattern_seed, count


def _record_dtype(nbytes: int) -> np.dtype:
    return np.dtype(
        [("x", "<f4"), ("y", "<f4"), ("response", "<f4"), ("desc", "u1", (nbytes,))]
    )


def write_features(path, features: FeatureSet, pattern_seed: int = DEFAULT_PATTERN_SEED) -> None:
    """Write features in the binary interchange format (little-endian)."""
    nbytes = features.descriptors.shape[1]
    records = np.empty(len(features), dtype=_record_dtype(nbytes))
    records["x"] = features.keypoints[:, 0]
    records["y"] = features.keypoints[:, 1]
    records["response"] = features.responses
    records["desc"] = features.descriptors
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, nbytes * 8, pattern_seed, len(features)))
        fh.write(records.tobytes())


def read_features(path, expected_bits: int | None = None, expected_seed: int | None = None) -> FeatureSet:
    """Read a feature file, checking magic, width and (optionally) seed.

    Non-finite keypoint coordinates or responses are rejected, naming the file.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FeatureFileError(f"{path}: truncated header")
        magic, version, bits, seed, count = _HEADER.unpack(header)
        if magic != FEATURE_MAGIC:
            raise FeatureFileError(f"{path}: bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise FeatureFileError(f"{path}: unsupported version {version}")
        if bits % 64 != 0 or bits == 0:
            raise FeatureFileError(f"{path}: descriptor width {bits} is not a multiple of 64")
        if expected_bits is not None and bits != expected_bits:
            raise FeatureFileError(
                f"{path}: descriptor width {bits} does not match configured {expected_bits}"
            )
        if expected_seed is not None and seed != expected_seed:
            raise FeatureFileError(
                f"{path}: pattern seed {seed} does not match configured {expected_seed}"
            )
        dtype = _record_dtype(bits // 8)
        # The count is untrusted: check it against the file before reading.
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < count * dtype.itemsize:
            raise FeatureFileError(
                f"{path}: truncated payload, header claims {count} features "
                f"but {available} bytes follow"
            )
        payload = fh.read(count * dtype.itemsize)
    records = np.frombuffer(payload, dtype=dtype, count=count)
    for name in ("x", "y", "response"):
        bad = np.flatnonzero(~np.isfinite(records[name]))
        if len(bad):
            raise FeatureFileError(f"{path}: non-finite {name} in feature {int(bad[0])}")
    kps = np.column_stack([records["x"], records["y"]]).astype(np.float32)
    if count == 0:
        return FeatureSet.empty(bits)
    return FeatureSet(
        keypoints=kps,
        responses=records["response"].astype(np.float32).copy(),
        descriptors=records["desc"].copy(),
    )
