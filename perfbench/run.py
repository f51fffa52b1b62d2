"""End-to-end and per-layer benchmark of the ``qha`` workbench.

Usage, from the repository root::

    python3 perfbench/run.py --workload phase-space --seed 1 --seconds 40 --trace 0

Load is a closed loop with one client: the operations of a workload run
one at a time, each in a fresh ``qha`` process started after the previous
one exits, and passes over the workload repeat while one more pass still
fits in ``--seconds``.  Every output is checked (see :mod:`workloads`).

``--trace 0`` reports the end-to-end metrics (medians over the run):

* ``setup_s``: launch of a process to a ready ``qha.cli`` (import plus
  parser build), median over every launch of the run;
* ``study_s``: wall time of one pass: the sum over its operations of
  each one's median launch-to-exit time over the run's passes (the
  parent's checks between operations are excluded);
* ``compute_s``: the same sum for the time around the call into ``qha``,
  measured inside each child after import;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any child of a pass;
* ``ok_ratio``: operations that passed every check over operations run.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :mod:`spans`, the import times of numpy and qha from
``python -X importtime``, and ``trace.overhead_s`` (traced minus untraced
``compute_s``).  The last line of standard output is the JSON result; the
full record (environment, seed, per-operation times and checks) goes to
``.perfbench_work/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every child.  On a shared 2-CPU host,
# interleaved runs spread (quartile distance over median of compute_s)
# 6% with one OpenBLAS thread and 22% with two on phase-space, 8% and 10%
# on lattice.  OpenBLAS reads the setting when numpy loads, so it is set
# before anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
IMPORTTIME_LAUNCHES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "compute_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=root, capture_output=True,
            text=True, timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        git = described.stdout.strip() if described.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        git = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "git_describe": git,
    }


class Runner:
    """Launches operations in fresh processes and checks their results."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.cmd = [sys.executable, str(HERE / "child.py")]
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def launch(self, op, op_id: int, traced: bool) -> dict:
        tag = f"{op_id:02d}-{op.name}"
        spec = {"op_id": op_id, "report": f"{tag}.report.json"}
        if op.argv is not None:
            spec["argv"] = op.argv
        else:
            spec.update(lib=op.lib, params=op.params)
        if traced:
            spec["spans"] = f"{tag}.spans.json"
        for suffix in ("report", "spans"):
            (self.work / f"{tag}.{suffix}.json").unlink(missing_ok=True)
        (self.work / f"{tag}.spec.json").write_text(json.dumps(spec))
        result = {"op": op.name, "problems": []}
        if op.before is not None:
            try:
                op.before(self.work)
            except (OSError, ValueError) as exc:
                result["problems"].append(f"cannot prepare: {exc!r}")
                return result
        with open(self.work / f"{tag}.stdout", "wb") as out, open(self.work / f"{tag}.stderr", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(self.cmd + [f"{tag}.spec.json"], cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            _pid, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result.update(wall_s=exited - launched, rss_mb=usage.ru_maxrss / 1024.0, rc=proc.returncode)
        if traced and (self.work / spec["spans"]).exists():
            result["spans"] = self.work / spec["spans"]
        report_path = self.work / f"{tag}.report.json"
        if not report_path.exists():
            tail = (self.work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
            result["problems"].append(f"no report (exit {proc.returncode}): {tail}")
            return result
        report = json.loads(report_path.read_text())
        result.update(setup_s=report["ready"] - launched, compute_s=report["compute_s"],
                      values=report.get("values", {}))
        outcome = workloads.Outcome(report["rc"], (self.work / f"{tag}.stdout").read_text(),
                                    report.get("values", {}))
        try:
            result["problems"] += workloads.check_outcome(op, self.work, outcome)
        except Exception as exc:  # a malformed output fails its operation, not the run
            result["problems"].append(f"unreadable output: {exc!r}")
        return result

    def run_pass(self, ops, traced: bool) -> dict:
        results = [self.launch(op, k, traced) for k, op in enumerate(ops)]
        timed = [r for r in results if "compute_s" in r]
        return {
            "traced": traced,
            "ops": results,
            "study_s": sum(r.get("wall_s", 0.0) for r in results),
            "compute_s": sum(r["compute_s"] for r in timed),
            "peak_rss_mb": max((r.get("rss_mb", 0.0) for r in results), default=0.0),
            "setups": [r["setup_s"] for r in timed],
        }


def import_times(root: Path, env: dict) -> dict[str, float]:
    """Median cumulative import time of numpy and of qha (without numpy)."""
    samples: dict[str, list[float]] = {"setup.numpy_import_s": [], "setup.qha_import_s": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy; import qha.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importtime launch failed: {proc.stderr[-2000:]}")
        numpy_us = qha_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            if name == "numpy":
                numpy_us += int(parts[1])
            elif name == "qha" or name.startswith("qha."):
                qha_us += int(parts[1])
        samples["setup.numpy_import_s"].append(numpy_us / 1e6)
        samples["setup.qha_import_s"].append(qha_us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _pass_time(passes: list[dict], key: str) -> float:
    """One pass's time as the sum over operations of each one's median over passes."""
    per_op = zip(*(p["ops"] for p in passes))
    return sum(statistics.median(r.get(key, 0.0) for r in results) for results in per_op)


def summarize(passes: list[dict]) -> dict[str, float]:
    results = [r for p in passes for r in p["ops"]]
    failed = sum(1 for r in results if r["problems"])
    return {
        "setup_s": statistics.median(s for p in passes for s in p["setups"]),
        "study_s": _pass_time(passes, "wall_s"),
        "compute_s": _pass_time(passes, "compute_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1.0 - failed / len(results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qha" / "cli.py").is_file():
        print(f"error: no qha sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    work = scratch / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](work, args.seed)
    runner = Runner(root, work)

    # Warm the bytecode and file caches; a failure here means qha cannot run.
    warm = runner.launch(workloads.Op("warm-up", argv=["bound", "certify", "--tails", "0.1",
                                                       "--eps", "0.05", "--c", "3"]), 99, False)
    if warm["problems"]:
        print(f"error: qha does not start: {warm['problems']}", file=sys.stderr)
        return 2

    # Start another cycle (a pass, or an untraced and a traced pass) only
    # while one more of average length still ends within --seconds.
    passes: list[dict] = []
    cycles = 0
    start = time.monotonic()
    while not cycles or (time.monotonic() - start) * (cycles + 1) / cycles <= args.seconds:
        cycles += 1
        passes.append(runner.run_pass(ops, traced=False))
        if args.trace:
            passes.append(runner.run_pass(ops, traced=True))
            passes[-1]["layers"] = spans.layer_metrics(r["spans"] for r in passes[-1]["ops"]
                                                        if "spans" in r)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    summary = summarize(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"] if r["problems"])

    if args.trace:
        units = spans.per_layer_names()
        first = traced[0]["layers"]
        metrics = {
            name: (statistics.median(p["layers"][name] for p in traced) if unit in ("s", "1")
                   else first[name])
            for name, unit in units.items()
        }
        metrics.update(import_times(root, runner.env))
        units.update({"setup.numpy_import_s": "s", "setup.qha_import_s": "s", "trace.overhead_s": "s"})
        metrics["trace.overhead_s"] = (statistics.median(p["compute_s"] for p in traced)
                                       - statistics.median(p["compute_s"] for p in plain))
        counts_repeat = all(p["layers"][n] == first[n] for p in traced for n, u in units.items()
                            if u not in ("s", "1"))
    else:
        units = END_TO_END_UNITS
        metrics = {name: summary[name] for name in units}
        counts_repeat = None

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]
                    if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one operation at a time",
        "environment": environment(root),
        "passes": len(passes),
        "operations_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "summary": summary,
        "metrics": metrics,
        "counts_repeat": counts_repeat,
        "ops": [
            {key: (str(v) if isinstance(v, Path) else v) for key, v in r.items()}
            | {"pass": i, "traced": p["traced"]}
            for i, p in enumerate(passes) for r in p["ops"]
        ],
    }
    record_path = scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed")
    print(f"why: {record['why']}")
    print(f"environment: {json.dumps(record['environment'])}")
    for r in (r for p in passes for r in p["ops"] if r["problems"]):
        print(f"FAILED {r['op']}: {'; '.join(r['problems'])}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:.6g} 1")
    print(f"record: {record_path.relative_to(root)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
