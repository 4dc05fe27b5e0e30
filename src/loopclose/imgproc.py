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
import re
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import DEFAULT_WIDTH, check_width

logger = logging.getLogger(__name__)

DEFAULT_PATTERN_SEED = 42
DEFAULT_CORNER_THRESHOLD = 20
# Most features a frame may ask for: describing them takes int64 sampling
# indices per feature and descriptor bit.
MAX_FEATURES = 1 << 15

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


def check_feature_count(count: int) -> None:
    """Refuse a per-frame feature count outside 1..``MAX_FEATURES``."""
    if count < 1:
        raise ValueError(f"features must be at least 1, got {count}")
    if count > MAX_FEATURES:
        raise ValueError(f"features must be at most {MAX_FEATURES}, got {count}")


def check_pattern_seed(seed: int) -> None:
    """Refuse a pattern seed outside 0..2**64-1, the range feature files store."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"pattern seed {seed} is outside 0..2**64-1")


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

# Separators are space, tab, CR and LF; a '#' comment runs to the end of
# its line.  Other bytes (vertical tab, form feed, signs) are not separators.
_COMMENT = re.compile(rb"#[^\n]*\n?")
_NUMBER = re.compile(rb"(?:[ \t\r\n]|#[^\n]*\n?)*(\d*)")
# A P2 body, comments blanked, as digit runs and runs of other non-separators.
_P2_TOKEN = re.compile(rb"\d+|[^\d \t\r\n]+")


def _pgm_error(message: str, offset: int) -> PgmFormatError:
    return PgmFormatError(f"{message} (at byte offset {offset})")


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Skip separators from ``pos`` and read one decimal number; return it and its end."""
    m = _NUMBER.match(data, pos)
    if not m.group(1):
        raise _pgm_error(f"expected integer for {what}", m.end())
    return int(m.group(1)), m.end()


def _p2_pixels(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The ``count`` values of a P2 body starting at ``pos``; data after them is ignored."""
    # Each value takes a digit and each value after the first a separator.
    if len(data) - pos < 2 * count - 1:
        raise _pgm_error(f"truncated P2 payload, need {count} values", len(data))
    tokens = _P2_TOKEN.findall(_COMMENT.sub(b" ", data[pos:]))[:count]
    if len(tokens) == count and b"".join(tokens).isdigit():
        # Parsing saturates at the int64 maximum, so an overlong value
        # reads as above maxval; memory stays linear in the file size.
        values = np.fromstring(b" ".join(tokens), dtype=np.int64, sep=" ")
        if not (values > maxval).any():
            return values.astype(np.uint8)
    # Some value is missing, not a number or above maxval: scan value by
    # value up to the first such one, to name its byte offset.
    while True:
        value, pos = _read_int(data, pos, "pixel value")
        if value > maxval:
            raise _pgm_error(f"pixel value {value} exceeds maxval {maxval}", pos)


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) or ASCII (P2) PGM file with maxval <= 255.

    Returns a ``(height, width)`` uint8 array.  The two encodings of the
    same image load identically.  Malformed input raises
    :class:`PgmFormatError` naming the offending byte offset; the header's
    size is checked against the file before anything of that size is made.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise _pgm_error(f"not a PGM file, magic {magic!r}", 0)
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise _pgm_error(f"bad dimensions {width}x{height}", pos)
    if maxval > 255:
        raise _pgm_error(f"unsupported maxval {maxval}", pos)
    if maxval < 1:
        raise _pgm_error(f"bad maxval {maxval}", pos)
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in b" \t\r\n":
            raise _pgm_error("expected single whitespace before P5 payload", pos)
        payload = data[pos + 1 : pos + 1 + count]
        if len(payload) < count:
            raise _pgm_error(f"truncated P5 payload, need {count} bytes", len(data))
        img = np.frombuffer(payload, dtype=np.uint8)
    else:
        img = _p2_pixels(data, pos, count, maxval)
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

def _check_image(img) -> np.ndarray:
    """The image as an array, or ValueError naming its shape and dtype."""
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(
            f"image must be a 2-d uint8 array, got shape {img.shape} dtype {img.dtype}"
        )
    return img


@lru_cache(maxsize=1)
def _arc_table() -> np.ndarray:
    """For every 16-bit ring code, whether it holds ``_ARC_LENGTH`` contiguous set bits.

    Bit ``i`` stands for ring position ``i`` and the ring wraps around.
    Built on first use, so importing the package costs nothing.
    """
    codes = np.arange(1 << 16, dtype=np.uint32)
    wrapped = codes | (codes << 16)
    arc = (1 << _ARC_LENGTH) - 1
    table = np.zeros(1 << 16, dtype=bool)
    for shift in range(16):
        table |= ((wrapped >> shift) & arc) == arc
    table.setflags(write=False)
    return table


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

    ``img`` must be a 2-d uint8 array and ``threshold`` an integer in
    0..255; anything else raises ValueError.

    Returns an ``(n, 3)`` float32 array with columns x, y, response,
    sorted by descending response (ties broken by row then column).
    Images smaller than 16x16 yield an empty result.
    """
    img = _check_image(img)
    if not isinstance(threshold, (int, np.integer)) or not 0 <= threshold <= 255:
        raise ValueError(f"corner threshold {threshold!r} is not an integer in 0..255")
    h, w = img.shape
    if h < 16 or w < 16 or target <= 0:
        return np.empty((0, 3), dtype=np.float32)
    img = np.ascontiguousarray(img)
    t = int(threshold)

    # Pack each pixel's ring into a bright and a dark 16-bit code.  For
    # uint8 pixels, ring > min(c + t, 255) exactly when ring > c + t, and
    # ring < max(c - t, 0) exactly when ring < c - t.  Pixels are read from
    # the flat image: ``bright[j]`` and ``dark[j]`` belong to pixel
    # ``start + j``, and the rings of pixels within 3 columns of a side
    # border wrap around rows, so those pixels are dropped below.
    pixels = img.ravel()
    start = 3 * w + 3
    n = (h - 6) * w - 6
    offsets = _RING[:, 1] * w + _RING[:, 0]
    centre = pixels[start : start + n]
    hi = centre + np.minimum(255 - centre, t)
    lo = centre - np.minimum(centre, t)
    bright = np.zeros(n, dtype=np.uint16)
    dark = np.zeros(n, dtype=np.uint16)
    hit = np.empty(n, dtype=bool)
    bit = np.empty(n, dtype=np.uint16)
    for i, offset in enumerate(offsets):
        ring = pixels[start + offset : start + offset + n]
        bright |= np.left_shift(np.greater(ring, hi, out=hit), i, out=bit, dtype=np.uint16)
        dark |= np.left_shift(np.less(ring, lo, out=hit), i, out=bit, dtype=np.uint16)

    # No pixel passes both tests: two 9-pixel arcs of a 16-pixel ring share
    # a pixel, which cannot be both brighter and darker than the centre.
    table = _arc_table()
    is_bright = np.take(table, bright)
    found = np.flatnonzero(is_bright | np.take(table, dark))
    column = (found + start) % w
    found = found[(column >= 3) & (column < w - 3)]
    flat = found + start
    if len(flat) == 0:
        return np.empty((0, 3), dtype=np.float32)

    # Responses of the corners only: the excess over the threshold of the
    # whole ring in the direction of the arc.  A dark corner is scored as
    # a bright one of the inverted image, 255 - v.  Its arc lies above
    # c + t, so c + t < 255 and the uint8 sum does not wrap.
    flip = np.where(is_bright[found], np.uint8(0), np.uint8(255))
    floor = (pixels[flat] ^ flip) + np.uint8(t)
    rings = np.empty((16, len(flat)), dtype=np.uint8)
    for i, offset in enumerate(offsets):
        np.take(pixels, flat + offset, out=rings[i])
    rings ^= flip
    np.maximum(rings, floor, out=rings)
    rings -= floor
    excess = rings.sum(axis=0, dtype=np.int32)

    # 3x3 non-maximum suppression as a separable max over windows that
    # include the centre, which a response never exceeds; plateau ties
    # are all kept.  Responses are zero within 3 pixels of every border,
    # so flat neighbours at +-1 never reach a corner in another row.
    response = np.zeros(h * w, dtype=np.int32)
    response[flat] = excess
    rows = response.copy()
    np.maximum(rows[1:], response[:-1], out=rows[1:])
    np.maximum(rows[:-1], response[1:], out=rows[:-1])
    peak = rows.copy()
    np.maximum(peak[w:], rows[:-w], out=peak[w:])
    np.maximum(peak[:-w], rows[w:], out=peak[:-w])
    keep = excess >= peak[flat]
    flat, excess = flat[keep], excess[keep]

    # Strongest first; ``flat`` ascends, so a stable sort breaks ties by
    # row then column.  Only responses reaching the target-th largest
    # can be selected, so only they are sorted.
    if len(excess) > target:
        kth = np.partition(excess, len(excess) - target)[len(excess) - target]
        strong = np.flatnonzero(excess >= kth)
        flat, excess = flat[strong], excess[strong]
    order = np.argsort(-excess, kind="stable")[:target]
    out = np.empty((len(order), 3), dtype=np.float32)
    out[:, 0] = flat[order] % w
    out[:, 1] = flat[order] // w
    out[:, 2] = excess[order]
    return out


# ---------------------------------------------------------------------------
# Binary description (intensity comparisons over a fixed random pattern)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def sampling_pattern(seed: int, width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Run-constant pattern of ``width`` point pairs inside the 31x31 patch.

    Returns an ``(width, 4)`` int64 array of (px, py, qx, qy) offsets in
    [-15, 15].  The generator is seeded, so the pattern is identical
    across runs and platforms for the same seed, which must be in
    0..2**64-1.
    """
    check_pattern_seed(seed)
    rng = np.random.default_rng(seed)
    pattern = rng.integers(-PATCH_HALF, PATCH_HALF + 1, size=(width, 4))
    same = (pattern[:, 0] == pattern[:, 2]) & (pattern[:, 1] == pattern[:, 3])
    while same.any():
        pattern[same] = rng.integers(-PATCH_HALF, PATCH_HALF + 1, size=(int(same.sum()), 4))
        same = (pattern[:, 0] == pattern[:, 2]) & (pattern[:, 1] == pattern[:, 3])
    pattern.setflags(write=False)
    return pattern


def _box_filter_sums(img: np.ndarray) -> np.ndarray:
    """5x5 box sums via an int32 integral image (exact integer arithmetic).

    Integral entries may wrap for images above about 8 megapixels, but a
    box sum is at most 25 * 255, so the wrapped differences are exact.
    """
    h, w = img.shape
    integral = np.zeros((h + 5, w + 5), dtype=np.int32)
    np.pad(img, 2, mode="edge").cumsum(0, dtype=np.int32).cumsum(1, out=integral[1:, 1:])
    sums = integral[5 : 5 + h, 5 : 5 + w] - integral[:h, 5 : 5 + w]
    sums -= integral[5 : 5 + h, :w]
    sums += integral[:h, :w]
    return sums


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
    ``img`` must be a 2-d uint8 array and ``width`` a multiple of 64 in
    64..``MAX_WIDTH``; anything else raises ValueError.
    """
    img = _check_image(img)
    check_width(width)
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

    sums = _box_filter_sums(img).ravel()
    pattern = sampling_pattern(pattern_seed, width)
    cx = np.rint(kept[:, 0]).astype(np.int64)
    cy = np.rint(kept[:, 1]).astype(np.int64)
    centres = (cy * w + cx)[:, None]
    sp = sums[centres + (pattern[:, 1] * w + pattern[:, 0])]
    sq = sums[centres + (pattern[:, 3] * w + pattern[:, 2])]
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
    """Write features in the binary interchange format (little-endian).

    The header holds the pattern seed in 64 bits, so a seed outside
    0..2**64-1 is refused before the file is opened.
    """
    check_pattern_seed(pattern_seed)
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
