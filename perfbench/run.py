#!/usr/bin/env python3
"""Frame-latency benchmark of the loop closure pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload explore-1000 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --seed 0     # every benchmarked workload, each in its own process

A run generates one seeded pass of the workload (``workloads.py``), then
feeds the pass to a new ``LoopDetector`` again and again while whole
passes fit into ``--seconds`` (at least one pass).  Each frame is timed
from outside the program; the seed frame is set-up, not a timed frame.
Only whole passes are timed, so the mix of frame kinds never depends on
speed.  Set-up is timed in fresh interpreters, a few before each pass and
after the last, so its median samples the machine across the whole run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` feeds each
pass to two detectors frame by frame, one untraced and one traced, and
prints the per-layer metrics of ``tracer.py``.

Every run also checks the outputs: quality floors, byte-identical
``results.csv`` and ``diagnostics.csv`` across passes and across runs of
the same seed on the same sources, and no frame raising.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (frames) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread.  With more, a BLAS worker spins on the second of a
# small machine's cores after each call and competes with the frame being
# timed.  Set before numpy is first imported; set-up probes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PER_PASS = 3  # set-up probes before each pass, and after the last
PR_THRESHOLDS = (8, 16, 24, 48, 96, 192, 384)
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10  # frames that must lie beyond the tail percentile

END_TO_END = {
    "frame_ms_mean": "ms",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recall_at_p1": "ratio",
    "precision": "ratio",
    "retrieval_hit_rate": "ratio",
    "frame_success_rate": "ratio",
}

_SHARE = "ratio"
PER_LAYER = {
    "hamming_tree.knn_search.calls": "count/frame",
    "hamming_tree.knn_search.us": "us",
    "hamming_tree.knn_search.share": _SHARE,
    "hamming_tree.insert.calls": "count/frame",
    "hamming_tree.insert.us": "us",
    "hamming_tree.insert.share": _SHARE,
    "hamming_tree.remove.calls": "count/frame",
    "hamming_tree.remove.us": "us",
    "hamming_tree.remove.share": _SHARE,
    "hamming_tree.build.ms": "ms",
    "hamming_tree.build.share": _SHARE,
    "vocabulary.assign_words.ms": "ms",
    "vocabulary.assign_words.share": _SHARE,
    "vocabulary.assign_words.exact_rate": "ratio",
    "vocabulary.merge_word.ms": "ms",
    "vocabulary.merge_word.share": _SHARE,
    "vocabulary.add_temporary_words.ms": "ms",
    "vocabulary.add_temporary_words.share": _SHARE,
    "vocabulary.purge_temporaries.ms": "ms",
    "vocabulary.purge_temporaries.share": _SHARE,
    "vocabulary.index_self.ms": "ms",
    "vocabulary.index_self.share": _SHARE,
    "vocabulary.match_rate": "ratio",
    "vocabulary.words": "count",
    "vocabulary.temp_words": "count",
    "geometry.ratio_match.ms": "ms",
    "geometry.ratio_match.share": _SHARE,
    "geometry.ransac_fundamental.ms": "ms",
    "geometry.ransac_fundamental.share": _SHARE,
    "geometry.eight_point.calls": "count/frame",
    "geometry.eight_point.failed": "count/frame",
    "geometry.eight_point.share": _SHARE,
    "geometry.putative_matches": "count",
    "geometry.inlier_ratio": "ratio",
    "detector.on_frame_self.ms": "ms",
    "detector.on_frame_self.share": _SHARE,
    "detector.build_islands.us": "us",
    "detector.build_islands.share": _SHARE,
    "detector.candidates": "count",
    "detector.islands": "count",
    "detector.geometry_checks": "count",
    "detector.shortcuts": "count",
    "imgproc.load_pgm.ms": "ms",
    "imgproc.load_pgm.share": _SHARE,
    "imgproc.detect_corners.ms": "ms",
    "imgproc.detect_corners.share": _SHARE,
    "imgproc.extract_descriptors.ms": "ms",
    "imgproc.extract_descriptors.share": _SHARE,
    "imgproc.kept_ratio": "ratio",
    "evaluation.write_run_outputs.ms": "ms",
    "evaluation.write_run_outputs.share": _SHARE,
    "trace.overhead_pct": "%",
    **{f"{m}.{kind}": _SHARE for m in (
        "hamming_tree", "vocabulary", "detector", "geometry", "imgproc"
    ) for kind in ("share", "check_share")},
}


@dataclass
class Pass:
    results: list
    diagnostics: list
    frame_s: list[float]  # timed frames, the seed frame excluded
    failures: list[str]
    traced: bool
    digests: dict[str, str]


@dataclass
class Report:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    checks: list[tuple[str, bool, str]]
    env: dict = field(default_factory=dict)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def tree_digest(directory: Path) -> str:
    """sha256 over the Python sources under a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    # Without this check git would look for a repository above the checkout.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- running passes ------------------------------------------------------------


def run_passes(workload, config, inputs, out_dir: Path, tracers: list) -> list[Pass]:
    """Feed one pass to a fresh detector per lane; time every frame but the seed frame.

    A lane is untraced (``None``) or traced (a ``Tracer``).  Lanes take each
    frame in turn, so an untraced and a traced lane see the machine in the
    same state and their difference is the tracing overhead.  A traced
    lane's wrappers are installed only around its own frames.
    """
    from loopclose import evaluation
    from loopclose.detector import LoopDetector, LoopResult
    from loopclose.vocabulary import UpdateStats

    import tracer as tracing
    import workloads

    clock = time.perf_counter
    lanes = [
        (tracer, LoopDetector(config.vocab_params(), config.detector_params()), [], [], [], [], [])
        for tracer in tracers
    ]
    for index, item in enumerate(inputs.frames):
        for tracer, detector, results, diagnostics, frame_s, all_s, failures in lanes:
            if tracer:
                tracer.install()
                span = tracer.open(tracing.FRAME if index else tracing.SEED_FRAME)
                hooks_before = tracer.excluded
            start = clock()
            raised = False
            try:
                features = workloads.front_end(config, item) if workload.is_camera else item
                result = detector.on_frame(features)
            except Exception as exc:  # a failing frame is counted, never skipped
                raised = True
                failures.append(f"frame {index}: {type(exc).__name__}: {exc}")
                result = LoopResult(frame=index, status="failed")
            elapsed = clock() - start
            if tracer:
                tracer.close(span, raised)
                tracer.restore()
                elapsed -= tracer.excluded - hooks_before
            all_s.append(elapsed)
            if index:
                frame_s.append(elapsed)
            results.append(result)
            stats = detector.vocab.last_stats if detector.vocab else UpdateStats(index, 0, 0, 0, 0, 0)
            diagnostics.append(stats)

    passes = []
    for tracer, detector, results, diagnostics, frame_s, all_s, failures in lanes:
        output = evaluation.RunOutput(
            results=results,
            diagnostics=diagnostics,
            frame_times=all_s,
            final_vocab_size=len(detector.vocab) if detector.vocab else 0,
            ground_truth=inputs.ground_truth,
        )
        points, max_recall = evaluation.sweep_pr(
            results, inputs.ground_truth, config.gt_tolerance, PR_THRESHOLDS
        )
        # Written through the program's own writer, so the digests are those
        # of the files a user gets; a traced lane times the writer too.
        if tracer:
            tracer.install()
        try:
            evaluation.write_run_outputs(out_dir, config, output, points, max_recall)
        finally:
            if tracer:
                tracer.restore()
        digests = {name: file_digest(out_dir / name) for name in ("results.csv", "diagnostics.csv")}
        passes.append(Pass(results, diagnostics, frame_s, failures, tracer is not None, digests))
    return passes


def measure_setup(workload, toy: bool, input_seed: int, out_dir: Path, repeats: int) -> list[float]:
    """Set-up seconds, each taken in a fresh interpreter."""
    cmd = [
        sys.executable, str(BENCH_DIR / "setup_probe.py"),
        str(SRC), workload.name, "1" if toy else "0", str(input_seed), str(out_dir),
    ]
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


# -- quality and checks ---------------------------------------------------------


def quality(results, gt: dict[int, list[int]], tolerance: int) -> dict[str, float]:
    """Recall at precision 1, live precision and retrieval hit rate.

    With no ground-truth loops nothing can be missed, so recall and hit
    rate read 1; precision reads 1 when nothing was accepted, as in
    ``compute_pr``.  Any false accept then drops precision below 1.
    """
    from loopclose.evaluation import compute_pr, sweep_pr

    precision = compute_pr(results, gt, tolerance).precision
    if not gt:
        return {"recall_at_p1": 1.0, "precision": precision, "retrieval_hit_rate": 1.0}
    _, recall = sweep_pr(results, gt, tolerance, PR_THRESHOLDS)
    hits = 0
    for t, originals in gt.items():
        candidate = results[t].candidate if t < len(results) else None
        if candidate is not None and any(abs(candidate - g) <= tolerance for g in originals):
            hits += 1
    return {"recall_at_p1": recall, "precision": precision, "retrieval_hit_rate": hits / len(gt)}


def check_digests(key: str, passes: list[Pass], store: Path) -> tuple[bool, str]:
    """Digests must agree across this run's passes and with earlier runs of ``key``."""
    first = passes[0].digests
    if any(p.digests != first for p in passes[1:]):
        return False, "outputs differ between passes of this run"
    store.parent.mkdir(parents=True, exist_ok=True)
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != first:
        return False, f"outputs differ from an earlier run of the same seed and sources ({key})"
    verdict = "matches an earlier run" if key in known else "first run of this seed and sources"
    known[key] = first
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return True, f"{len(passes)} pass(es) identical; {verdict}"


# -- one workload -----------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    held_out: bool = False,
    toy: bool = False,
    out_root: Path = OUT,
) -> Report:
    import numpy as np

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    size = workload.toy if toy else workload.full
    input_seed = seed + workloads.HELD_OUT_OFFSET if held_out else seed
    out_dir = out_root / name / f"seed-{input_seed}{'-toy' if toy else ''}"
    config = workloads.run_config(workload, size, input_seed, out_dir)
    inputs = workloads.make_inputs(workload, size, input_seed, out_dir)
    setup: list[float] = []
    probes = 0 if trace else SETUP_PER_PASS

    before = tracing.current_bindings()
    passes: list[Pass] = []
    tracers = []
    measured = 0.0  # seconds spent in passes; set-up probes are not counted
    while True:
        setup += measure_setup(workload, toy, input_seed, out_dir, probes)
        lanes = [None, tracing.Tracer()] if trace else [None]
        began = time.perf_counter()
        passes += run_passes(workload, config, inputs, out_dir / "outputs", lanes)
        tracers += lanes[1:]
        took = time.perf_counter() - began
        measured += took
        if measured + took > seconds:
            break
    setup += measure_setup(workload, toy, input_seed, out_dir, probes)
    restored = tracing.current_bindings() == before
    # Rendered images are large and regenerated from the seed on every run.
    shutil.rmtree(out_dir / "images", ignore_errors=True)

    first = passes[0]
    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    q = quality(first.results, inputs.ground_truth, config.gt_tolerance)
    plain_s = np.array([t for p in passes if not p.traced for t in p.frame_s])
    frames_per_pass = len(first.frame_s)

    checks: list[tuple[str, bool, str]] = []
    if not toy:
        for metric, floor in vars(workload.floors).items():
            checks.append((f"{metric} >= {floor}", q[metric] >= floor, f"{q[metric]:.4f}"))
    # The same seed on the same program and benchmark sources must give the same files.
    key = "|".join(
        [name, str(input_seed), "toy" if toy else "full",
         tree_digest(SRC / "loopclose")[:16], tree_digest(BENCH_DIR)[:16]]
    )
    checks.append(("digests identical", *check_digests(key, passes, out_root / "digests.json")))
    checks.append(("no frame raised", failed == 0, "; ".join(sum((p.failures for p in passes), []))[:500]))
    beyond = int(frames_per_pass * (100 - TAIL_PERCENTILE) / 100)
    checks.append((
        f"p{TAIL_PERCENTILE} has >= {TAIL_BEYOND} frames beyond",
        toy or beyond >= TAIL_BEYOND,
        f"{frames_per_pass} frames per pass, {beyond} beyond",
    ))
    if trace:
        checks.append(("traced bindings restored", restored, ""))

    if not trace:
        values = {
            "frame_ms_mean": float(plain_s.mean() * 1e3),
            "frame_ms_p50": float(np.percentile(plain_s, 50) * 1e3),
            "frame_ms_p90": float(np.percentile(plain_s, TAIL_PERCENTILE) * 1e3),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **q,
            "frame_success_rate": 1.0 - failed / attempted,
        }
    else:
        values = layer_values(tracers, passes, plain_s)
    declared = PER_LAYER if trace else END_TO_END
    metrics = {k: (values[k], unit) for k, unit in declared.items()}

    env = {
        "workload": name,
        "seed": seed,
        "input_seed": input_seed,
        "held_out": held_out,
        "size": "toy" if toy else "full",
        "pass": size.plan or f"camera new:{size.camera[0]},revisit:0:{size.camera[1]}",
        "features": workload.features,
        "passes": len(passes),
        "traced_passes": len(tracers),
        "frames_per_pass": frames_per_pass,
        "frames_timed": int(len(plain_s)),
        "setup_runs": [round(s, 6) for s in setup],
        "measured_s": round(measured, 3),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": tree_digest(SRC / "loopclose"),
        "benchmark_sha256": tree_digest(BENCH_DIR),
    }
    return Report(
        workload=name,
        correct=all(ok for _, ok, _ in checks),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        checks=checks,
        env=env,
    )


def layer_values(tracers, passes: list[Pass], plain_s) -> dict[str, float]:
    """Per-layer metrics: spans of the traced passes plus counts from their results."""
    import numpy as np

    from loopclose.detector import PATH_GEOMETRY, PATH_SHORTCUT

    per = [t.layer_metrics() for t in tracers]
    values = {k: float(np.mean([m[k] for m in per])) for k in per[0]}
    traced = next(p for p in passes if p.traced)
    timed = traced.results[1:]
    with_candidates = [r.num_candidates for r in timed if r.num_candidates]
    values["detector.candidates"] = float(np.mean(with_candidates)) if with_candidates else 0.0
    values["detector.geometry_checks"] = sum(r.path == PATH_GEOMETRY for r in timed)
    values["detector.shortcuts"] = sum(r.path == PATH_SHORTCUT for r in timed)
    merged = sum(d.merged for d in traced.diagnostics[1:])
    added = sum(d.added for d in traced.diagnostics[1:])
    values["vocabulary.match_rate"] = merged / (merged + added) if merged + added else 0.0
    values["vocabulary.words"] = traced.diagnostics[-1].vocab_size
    values["vocabulary.temp_words"] = traced.diagnostics[-1].temp_count
    plain_ms = float(np.mean(plain_s)) * 1e3
    values["trace.overhead_pct"] = (values["trace.frame_ms_mean"] - plain_ms) / plain_ms * 100.0
    return values


# -- output -------------------------------------------------------------------------


def print_report(report: Report) -> None:
    env = report.env
    print(
        f"workload {report.workload}  seed {env['seed']} (inputs from seed {env['input_seed']})  "
        f"{env['passes']} pass(es) x {env['frames_per_pass']} frames, {env['frames_timed']} frames timed untraced"
    )
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    if "frame_success_rate" in report.metrics:
        rate = report.failed / report.attempted
        print(f"  {'frame_error_rate':40s} {rate:14.6f} ratio ({report.failed} of {report.attempted} frames raised)")
    for what, ok, detail in report.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {what}  {detail}".rstrip())
    print("env " + json.dumps(env, sort_keys=True))


def run_all(args) -> int:
    """Run every benchmarked workload in its own process and print one combined result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BENCHMARKED:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--held-out"] if args.held_out else []) + (["--toy"] if args.toy else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all' (default): the benchmarked ones")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="draw inputs from a seed range never used while tuning (seed + HELD_OUT_OFFSET)",
    )
    parser.add_argument("--toy", action="store_true", help="self-test sizes; measures nothing useful")
    args = parser.parse_args(argv)

    if not (SRC / "loopclose" / "__init__.py").is_file():
        print(f"error: no loopclose sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.held_out, args.toy
    )
    print_report(report)
    print(report.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
