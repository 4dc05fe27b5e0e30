"""Helpers for fixed-width binary descriptors.

A descriptor is a packed ``uint8`` array of ``width // 8`` bytes.  All
functions assume the width is a multiple of 64 and identical for every
descriptor in a run; the default width is 256 bits.
"""

from __future__ import annotations

import numpy as np

DEFAULT_WIDTH = 256
# Widest descriptor accepted where a width drives an allocation: a frame's
# descriptor sampling indices are one int64 per feature and bit.
MAX_WIDTH = 1024


def width_of(desc: np.ndarray) -> int:
    """Bit width of a packed descriptor (or of each row of a matrix)."""
    return int(desc.shape[-1]) * 8


def check_width(width: int) -> None:
    """Refuse a descriptor width that is not a multiple of 64 in 64..``MAX_WIDTH``."""
    if width < 64 or width % 64:
        raise ValueError(f"descriptor width {width} is not a positive multiple of 64")
    if width > MAX_WIDTH:
        raise ValueError(f"descriptor width {width} is above {MAX_WIDTH} bits")


def popcount(desc: np.ndarray) -> int:
    """Number of set bits in a single packed descriptor."""
    return int(np.bitwise_count(desc).sum())


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed descriptors of equal width."""
    if a.shape != b.shape:
        raise ValueError(f"descriptor width mismatch: {width_of(a)} vs {width_of(b)} bits")
    return int(np.bitwise_count(a ^ b).sum())


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two descriptor matrices.

    Returns an ``(len(a), len(b))`` int32 matrix.
    """
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"descriptor width mismatch: {width_of(a)} vs {width_of(b)} bits")
    return plane_distances(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def plane_distances(q64: np.ndarray, table64: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Hamming distances from ``(m, words)`` queries to rows of a ``(n, words)`` table.

    Both are ``uint64`` views.  With ``rows`` omitted every query is
    compared with every table row, an ``(m, n)`` result; a 1-D ``rows``
    selects the table rows compared with every query, and an ``(m, r)``
    ``rows`` gives each query its own ``r`` table rows.  Popcounts of 2-D
    XORs are summed one 64-bit word plane at a time, so no
    ``(m, n, words)`` temporary is built.  Returns int32.
    """
    out = np.zeros((len(q64), len(table64) if rows is None else rows.shape[-1]), dtype=np.int32)
    for w in range(q64.shape[1]):
        plane = table64[:, w] if rows is None else table64[:, w][rows]
        out += np.bitwise_count(plane ^ q64[:, w, None])
    return out


def random_descriptors(rng: np.random.Generator, n: int, width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Uniformly random packed descriptors, shape ``(n, width // 8)``."""
    return rng.integers(0, 256, size=(n, width // 8), dtype=np.uint8)


def flip_random_bits(rng: np.random.Generator, descs: np.ndarray, count: int) -> np.ndarray:
    """Copy of ``descs`` with ``count`` distinct random bits flipped per row."""
    descs = np.atleast_2d(descs)
    n, nbytes = descs.shape
    width = nbytes * 8
    if count < 0:
        raise ValueError(f"cannot flip {count} bits: the count must be >= 0")
    if count == 0:
        return descs.copy()
    if count > width:
        raise ValueError(f"cannot flip {count} bits in a {width}-bit descriptor")
    positions = rng.permuted(np.tile(np.arange(width), (n, 1)), axis=1)[:, :count]
    flips = np.zeros((n, width), dtype=np.uint8)
    np.put_along_axis(flips, positions, 1, axis=1)
    return descs ^ np.packbits(flips, axis=1)
