"""Run one benchmark operation in a fresh process.

Usage: ``python child.py SPEC.json`` with ``src`` on ``PYTHONPATH``.

The process imports ``qha.cli`` and builds its parser first, and records
the monotonic time at which the CLI is ready; the parent subtracts its
launch time to get the set-up time.  It then runs either a CLI argument
vector through ``qha.cli.dispatch`` or a library operation from
:mod:`libops`, timing only the call into ``qha``, and writes a JSON report
(and, when tracing, its spans) to the paths named in the spec.
"""
import sys
import time

import qha.cli

qha.cli.build_parser()
READY = time.monotonic()

import json  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    report = {"ready": READY}
    tracer = None
    if spec.get("spans"):
        import spans

        tracer = spans.Tracer(spec["op_id"])
        tracer.install()
    try:
        if "argv" in spec:
            start = time.perf_counter()
            rc = qha.cli.dispatch(spec["argv"])
            report["compute_s"] = time.perf_counter() - start
        else:
            import libops

            prepare, run, check = libops.LIB_OPS[spec["lib"]]
            inputs = prepare(**spec["params"])
            start = time.perf_counter()
            result = run(inputs)
            report["compute_s"] = time.perf_counter() - start
            report["values"] = check(inputs, result)
            rc = 0
        report["rc"] = rc
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spec["spans"])
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
