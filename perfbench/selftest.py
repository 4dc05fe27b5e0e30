#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that:

- ``BENCHMARK.json`` names exactly the benchmarked workloads and the
  metrics the benchmark emits, with the same units;
- every workload, benchmarked or not, untraced and traced, prints a last line with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and every
  metric is a finite number with its unit;
- a traced run leaves every traced ``loopclose`` binding as it found it;
- in a directory that holds only ``BENCHMARK.json`` and the benchmark,
  the command fails without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARKED), "workload names match")
    check(set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS), "benchmarked workloads are defined")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == declared, f"{key} names and units match the benchmark's tables")

    for name in workloads.WORKLOADS:
        for trace, declared in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
            done = run_cli(ROOT, "--workload", name, "--seed", "5", "--seconds", "0",
                           "--trace", trace, "--toy")
            what = f"{name} --trace {trace}"
            check(done.returncode == 0, f"{what} exits 0 {done.stderr[-300:]}".rstrip())
            if done.returncode:
                continue
            result = json.loads(done.stdout.strip().split("\n")[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what} result keys")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{what} frames attempted, none failed")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared, f"{what} emits every declared metric with its unit")
            finite = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in result["metrics"].values()
            )
            check(finite, f"{what} values are finite numbers")
            check(result["correct"], f"{what} passes its checks")

    before = tracer.current_bindings()
    report = run.run_workload("revisit-1000", 7, 0, trace=True, toy=True)
    check(tracer.current_bindings() == before, "traced run restores every binding")
    check(any(c[0] == "traced bindings restored" and c[1] for c in report.checks),
          "traced run reports its bindings restored")
    probe = tracer.Tracer()
    probe.install()
    try:
        check(tracer.current_bindings() != before, "installing the tracer replaces the bindings")
    finally:
        probe.restore()
    check(tracer.current_bindings() == before, "restore after install puts the originals back")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli(bare, "--workload", "explore-1000", "--seed", "0", "--seconds", "1", "--trace", "0")
    last = done.stdout.strip().split("\n")[-1] if done.stdout.strip() else ""
    check(done.returncode != 0 and not last.startswith("{"), "without the program the command fails, printing no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
