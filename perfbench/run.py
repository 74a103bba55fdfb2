#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {pipeline,whatif,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The lines before it name every metric with its unit.  An
output-check failure prints ``"correct": false`` and exits 1; missing
program sources exit 2 without a result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline", "whatif", "serve")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli" / "main.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    # One BLAS/OpenMP thread per process, set before numpy loads, so the
    # load client, the server and their BLAS calls fit a 2-core machine;
    # the server and other children inherit it.
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    from perfbench import common, pipeline, serve, whatif

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        if args.workload == "pipeline":
            result = pipeline.run(work, args.seed, args.seconds, trace)
        elif args.workload == "whatif":
            result = whatif.run(work, args.seed, args.seconds, trace)
        else:
            result = serve.run(work, args.seed, args.seconds, trace, ROOT)
    except common.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
