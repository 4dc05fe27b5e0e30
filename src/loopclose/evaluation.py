"""Evaluation harness: sequence runs, precision-recall, timing reports.

A run feeds frames (from an image directory, a feature-file directory, or
the synthetic generator) through one detector and records per-frame
results, dictionary maintenance counters and wall-clock times.  The
recorded inlier counts allow a whole precision-recall curve to be derived
offline from a single pass by re-thresholding the acceptance count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .config import RunConfig
from .detector import ACCEPTED, PATH_SHORTCUT, LoopDetector, LoopResult
from .imgproc import FeatureSet, detect_corners, extract_descriptors, load_pgm, read_features
from .synthetic import generate_synthetic
from .vocabulary import UpdateStats

RESULT_COLUMNS = "frame,status,matched,inliers,path,island_m,island_n,G"
DIAGNOSTIC_COLUMNS = "frame,vocab_size,temp_count,merged,added,deleted"
PR_COLUMNS = "threshold,precision,recall,tp,fp,fn"

T = TypeVar("T")


@dataclass(frozen=True)
class PrPoint:
    """Precision/recall at one acceptance threshold.

    Precision is 1 by convention when nothing was accepted.
    """

    threshold: int | None
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


@dataclass
class RunOutput:
    results: list[LoopResult]
    diagnostics: list[UpdateStats]
    frame_times: list[float]
    final_vocab_size: int
    ground_truth: dict[int, list[int]] | None


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

def load_ground_truth(path) -> dict[int, list[int]]:
    """Load ground truth, auto-detecting the format.

    Either a square 0/1 matrix (row ``t``, column ``k`` marks a loop
    t -> k) or a pair list with one ``t k`` pair per line.  Loops only
    point backward in time; entries referencing the current or a later
    frame (e.g. the upper triangle of a symmetric matrix) are ignored.
    """
    rows: list[list[int]] = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append([int(tok) for tok in stripped.replace(",", " ").split()])
    if not rows:
        return {}
    is_matrix = (
        len(rows) > 1
        and all(len(r) == len(rows) for r in rows)
        and all(v in (0, 1) for r in rows for v in r)
    )
    gt: dict[int, list[int]] = {}
    if is_matrix:
        for t, row in enumerate(rows):
            loops = [k for k, v in enumerate(row) if v == 1 and k < t]
            if loops:
                gt[t] = loops
    else:
        for row in rows:
            if len(row) != 2:
                raise ValueError(f"ground truth pair line must have 2 fields, got {row}")
            if row[1] < row[0]:
                gt.setdefault(row[0], []).append(row[1])
    return gt


# ---------------------------------------------------------------------------
# Precision / recall
# ---------------------------------------------------------------------------

def _accepted_match(result: LoopResult, threshold: int | None) -> int | None:
    """Image id this frame is accepted against, or None.

    With ``threshold`` None the live decision is used.  Otherwise the
    recorded inlier count is re-thresholded: shortcut acceptances bypass
    geometry by design and count as accepted at every threshold.
    """
    if threshold is None:
        return result.matched if result.status == ACCEPTED else None
    if result.status == ACCEPTED and result.path == PATH_SHORTCUT:
        return result.matched
    if result.inliers is not None and result.candidate is not None:
        return result.candidate if result.inliers >= threshold else None
    return None


def compute_pr(
    results: Iterable[LoopResult],
    gt: dict[int, list[int]],
    tolerance_frames: int,
    threshold: int | None = None,
) -> PrPoint:
    """Precision/recall of a result stream against ground truth.

    An accepted match ``t -> f`` is a true positive when some ground
    truth loop id for ``t`` lies within ``tolerance_frames`` of ``f``.
    Ground-truth-positive frames with no accepted match (including
    skipped frames) count as false negatives.
    """
    tp = fp = 0
    accepted_frames: set[int] = set()
    for result in results:
        matched = _accepted_match(result, threshold)
        if matched is None:
            continue
        accepted_frames.add(result.frame)
        positives = gt.get(result.frame, [])
        if any(abs(matched - g) <= tolerance_frames for g in positives):
            tp += 1
        else:
            fp += 1
    fn = sum(1 for t, positives in gt.items() if positives and t not in accepted_frames)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return PrPoint(threshold, precision, recall, tp, fp, fn)


def sweep_pr(
    results: Iterable[LoopResult],
    gt: dict[int, list[int]],
    tolerance_frames: int,
    thresholds: Iterable[int],
) -> tuple[list[PrPoint], float]:
    """Re-threshold recorded inlier counts into a P-R curve.

    Returns the curve and the maximum recall among points with precision
    exactly 1.  Matches a fresh run at each threshold whenever the
    shortcut path never fired during the recorded run.
    """
    results = list(results)
    points = [compute_pr(results, gt, tolerance_frames, threshold=t) for t in thresholds]
    max_recall = max((p.recall for p in points if p.precision == 1.0), default=0.0)
    return points, max_recall


# ---------------------------------------------------------------------------
# Sequence running
# ---------------------------------------------------------------------------

def frame_source(directory, suffix: str, read: Callable[[Path], T]) -> Iterator[tuple[Path, T]]:
    """Read each ``suffix`` file of ``directory`` in name order, one frame per file.

    Yields ``(path, read(path))``.  ``.pgm`` matches in any letter case,
    other suffixes exactly.  No matching file raises FileNotFoundError; a
    file that fails to read re-raises its error naming the frame and file.
    """
    paths = sorted(
        (p for p in Path(directory).iterdir()
         if p.is_file() and (p.suffix.lower() if suffix == ".pgm" else p.suffix) == suffix),
        key=lambda p: p.name,
    )
    if not paths:
        raise FileNotFoundError(f"no {suffix} files in {directory}")
    for index, path in enumerate(paths):
        try:
            frame = read(path)
        except (OSError, ValueError) as exc:
            raise type(exc)(f"frame {index} ({path.name}): {exc}") from exc
        yield path, frame


def image_frames(
    directory, features: int, threshold: int, pattern_seed: int, width: int
) -> Iterator[tuple[Path, FeatureSet]]:
    """Features of each PGM image of ``directory``, in name order."""
    for path, img in frame_source(directory, ".pgm", load_pgm):
        corners = detect_corners(img, features, threshold)
        yield path, extract_descriptors(img, corners, pattern_seed=pattern_seed, width=width)


def run_sequence(config: RunConfig, write: bool = True) -> RunOutput:
    """Run the detector over a configured sequence.

    Per-frame wall-clock time covers the detector stages (word handling,
    image query, island computation and the loop decision), not image
    loading or feature extraction.  When ``config.out`` is set and
    ``write`` is true, ``results.csv``, ``diagnostics.csv`` and
    ``summary.txt`` are written there.
    """
    gt: dict[int, list[int]] | None = None
    if config.mode == "images":
        images = image_frames(
            config.input, config.features, config.corner_threshold,
            config.pattern_seed, config.descriptor_bits,
        )
        frames: Iterable[FeatureSet] = (features for _, features in images)
    elif config.mode == "features":
        files = frame_source(
            config.input, ".feat", lambda p: read_features(p, expected_bits=config.descriptor_bits)
        )
        frames = (features for _, features in files)
    else:
        frames, gt = generate_synthetic(
            config.input,
            n_features=config.features,
            noise_bits=config.noise_bits,
            seed=config.seed,
            width=config.descriptor_bits,
        )
    if config.gt:
        gt = load_ground_truth(config.gt)

    detector = LoopDetector(config.vocab_params(), config.detector_params())
    results: list[LoopResult] = []
    diagnostics: list[UpdateStats] = []
    frame_times: list[float] = []
    for index, features in enumerate(frames):
        if len(features) and features.width_bits != config.descriptor_bits:
            raise ValueError(
                f"frame {index}: descriptor width {features.width_bits} does not match "
                f"configured {config.descriptor_bits}"
            )
        start = time.perf_counter()
        result = detector.on_frame(features)
        frame_times.append(time.perf_counter() - start)
        results.append(result)
        if detector.vocab is not None:
            diagnostics.append(detector.vocab.last_stats)
        else:
            diagnostics.append(UpdateStats(index, 0, 0, 0, 0, 0))

    output = RunOutput(
        results=results,
        diagnostics=diagnostics,
        frame_times=frame_times,
        final_vocab_size=len(detector.vocab) if detector.vocab else 0,
        ground_truth=gt,
    )
    if write and config.out:
        write_run_outputs(Path(config.out), config, output)
    return output


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def format_result_row(r: LoopResult) -> str:
    matched = "" if r.matched is None else str(r.matched)
    # Rejected frames keep the candidate id visible so curves can be
    # re-derived from the CSV alone.
    if r.matched is None and r.candidate is not None:
        matched = str(r.candidate)
    inliers = "" if r.inliers is None else str(r.inliers)
    path = r.path or ""
    if r.island is not None:
        island_m, island_n, g = str(r.island.start), str(r.island.end), f"{r.island.score:.6f}"
    else:
        island_m = island_n = g = ""
    return f"{r.frame},{r.status},{matched},{inliers},{path},{island_m},{island_n},{g}"


def write_results_csv(path, results: Iterable[LoopResult]) -> None:
    lines = [RESULT_COLUMNS]
    lines.extend(format_result_row(r) for r in results)
    Path(path).write_text("\n".join(lines) + "\n")


def write_diagnostics_csv(path, diagnostics: Iterable[UpdateStats]) -> None:
    lines = [DIAGNOSTIC_COLUMNS]
    lines.extend(
        f"{d.frame},{d.vocab_size},{d.temp_count},{d.merged},{d.added},{d.deleted}"
        for d in diagnostics
    )
    Path(path).write_text("\n".join(lines) + "\n")


def write_pr_csv(path, points: Iterable[PrPoint]) -> None:
    lines = [PR_COLUMNS]
    lines.extend(
        f"{p.threshold},{p.precision:.6f},{p.recall:.6f},{p.tp},{p.fp},{p.fn}"
        for p in points
    )
    Path(path).write_text("\n".join(lines) + "\n")


def summary_lines(
    output: RunOutput,
    live_pr: PrPoint | None = None,
    max_recall_at_p1: float | None = None,
) -> list[str]:
    times_ms = np.asarray(output.frame_times) * 1000.0
    accepted = sum(1 for r in output.results if r.status == ACCEPTED)
    lines = [
        f"frames: {len(output.results)}",
        f"accepted: {accepted}",
        f"mean_frame_time_ms: {times_ms.mean():.3f}" if len(times_ms) else "mean_frame_time_ms: 0.000",
        f"p95_frame_time_ms: {np.percentile(times_ms, 95):.3f}" if len(times_ms) else "p95_frame_time_ms: 0.000",
        f"final_vocab_size: {output.final_vocab_size}",
    ]
    if live_pr is not None:
        lines.append(f"precision: {live_pr.precision:.6f}")
        lines.append(f"recall: {live_pr.recall:.6f}")
    if max_recall_at_p1 is not None:
        lines.append(f"max_recall_at_p1: {max_recall_at_p1:.6f}")
    return lines


def write_run_outputs(
    out_dir: Path,
    config: RunConfig,
    output: RunOutput,
    pr_points: list[PrPoint] | None = None,
    max_recall_at_p1: float | None = None,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", output.results)
    write_diagnostics_csv(out_dir / "diagnostics.csv", output.diagnostics)
    if pr_points is not None:
        write_pr_csv(out_dir / "pr_curve.csv", pr_points)
    live_pr = None
    if output.ground_truth is not None:
        live_pr = compute_pr(output.results, output.ground_truth, config.gt_tolerance)
        if max_recall_at_p1 is None and live_pr.precision == 1.0:
            max_recall_at_p1 = live_pr.recall
    (out_dir / "summary.txt").write_text(
        "\n".join(summary_lines(output, live_pr, max_recall_at_p1)) + "\n"
    )
