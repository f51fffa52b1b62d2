"""Self-test of the benchmark: schema and metric names, never timings.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs the smallest run of every workload (one pass, ``--seconds 1``) with
``--trace 0`` and ``--trace 1`` and checks that the last line of output is
the result object with exactly the metric names and units that
``BENCHMARK.json`` declares, that every check passed, and that a directory
without the ``qha`` sources makes the benchmark fail without a result.
Exits 1 and lists the problems if any check fails.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int, timeout: int = 600) -> subprocess.CompletedProcess:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr[-1000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"{label}: last line is not JSON ({exc})"]
    if set(result) != RESULT_KEYS:
        return [f"{label}: result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: checks failed: {proc.stdout[-2000:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted = {result['attempted']!r}")
    expected = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != expected.get(name):
            problems.append(f"{label}: {name} entry {entry}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def check_bare_directory(workload: str) -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must fail with no result."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, workload, 0, timeout=180)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    if proc.returncode == 0 or printed_result:
        return [f"bare directory: exit code {proc.returncode}, result printed: {printed_result}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            found = check_result(_run(ROOT, workload, trace), declared, label)
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare_directory(bench["workloads"][0]["name"])
    for problem in problems:
        print(problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
