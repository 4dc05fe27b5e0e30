"""Command line interface.

Verbs:
  extract <img_dir> <feat_dir>     .pgm images -> feature files
  run <config>                     full detection run
  sweep <config> --thresholds ..   detection run + precision-recall curve
  synth <plan> <out_dir>           synthetic feature sequence + ground truth
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .evaluation import (
    compute_pr,
    image_frames,
    run_sequence,
    summary_lines,
    sweep_pr,
    write_run_outputs,
)
from .imgproc import DEFAULT_CORNER_THRESHOLD, DEFAULT_PATTERN_SEED, write_features
from .synthetic import generate_synthetic, parse_plan


def _cmd_extract(args) -> int:
    feat_dir = Path(args.feat_dir)
    feat_dir.mkdir(parents=True, exist_ok=True)
    frames = image_frames(args.img_dir, args.features, args.threshold, args.seed, args.bits)
    for path, features in frames:
        write_features(feat_dir / (path.stem + ".feat"), features, pattern_seed=args.seed)
        print(f"{path.name}: {len(features)} features")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    output = run_sequence(config)
    gt = output.ground_truth
    if gt is not None:
        live = compute_pr(output.results, gt, config.gt_tolerance)
        print(f"precision {live.precision:.4f}  recall {live.recall:.4f}  "
              f"(tp {live.tp} fp {live.fp} fn {live.fn})")
    for line in summary_lines(output):
        print(line)
    if config.out:
        print(f"outputs written to {config.out}")
    return 0


def _threshold(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--thresholds: {token!r} is not an integer inlier count") from None


def _cmd_sweep(args) -> int:
    thresholds = sorted(map(_threshold, args.thresholds.split(",")))
    config = parse_config(args.config)
    output = run_sequence(config, write=False)
    if output.ground_truth is None:
        print("sweep: no ground truth available (set gt= or use synthetic mode)", file=sys.stderr)
        return 1
    points, max_recall = sweep_pr(
        output.results, output.ground_truth, config.gt_tolerance, thresholds
    )
    for point in points:
        print(f"threshold {point.threshold:4d}  precision {point.precision:.4f}  "
              f"recall {point.recall:.4f}")
    print(f"max_recall_at_p1: {max_recall:.6f}")
    if config.out:
        write_run_outputs(Path(config.out), config, output, points, max_recall)
        print(f"outputs written to {config.out}")
    return 0


def _cmd_synth(args) -> int:
    plan = parse_plan(args.plan)
    frames, gt = generate_synthetic(
        plan, n_features=args.features, noise_bits=args.noise_bits, seed=args.seed, width=args.bits
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_features(out_dir / f"frame_{i:06d}.feat", frame, pattern_seed=args.seed)
    gt_lines = [f"{t} {g}" for t in sorted(gt) for g in gt[t]]
    (out_dir / "gt.txt").write_text("\n".join(gt_lines) + "\n")
    print(f"wrote {len(frames)} frames and {len(gt_lines)} ground truth pairs to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopclose",
        description="Online binary bag-of-words loop closure detection harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract feature files from PGM images")
    p_extract.add_argument("img_dir")
    p_extract.add_argument("feat_dir")
    p_extract.add_argument("--features", type=int, default=1000)
    p_extract.add_argument("--threshold", type=int, default=DEFAULT_CORNER_THRESHOLD)
    p_extract.add_argument("--bits", type=int, default=256)
    p_extract.add_argument("--seed", type=int, default=DEFAULT_PATTERN_SEED)
    p_extract.set_defaults(func=_cmd_extract)

    p_run = sub.add_parser("run", help="run loop closure detection")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once and sweep the inlier threshold")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--thresholds", required=True, help="comma separated inlier counts")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic feature sequence")
    p_synth.add_argument("plan", help='e.g. "new:200,revisit:0:100"')
    p_synth.add_argument("out_dir")
    p_synth.add_argument("--features", type=int, default=1000)
    p_synth.add_argument("--noise-bits", type=int, default=25)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--bits", type=int, default=256)
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
