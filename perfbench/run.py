"""Benchmark of the reorgsvd command line on generated inputs.

    python3 perfbench/run.py --workload image-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``image-sweep`` (``sweep`` over a directory of graymaps plus
``approx`` on a larger one), ``theorem-cert`` (``verify-theorem``) and
``covid-panel`` (``covid`` on a counts CSV).  The run generates the
workload's inputs from the seed, measures set-up (the median over fresh
interpreters of importing ``reorgsvd.cli``), then starts one worker
process that runs whole passes of the workload's CLI invocations for
``--seconds`` seconds, and finally checks the outputs against LAPACK and
the benchmark's own computations.  With ``--trace 1`` the worker wraps the
program's public functions and the run reports per-layer metrics instead
of end-to-end ones.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread in this process and in every child, fixed so that runs on
# machines with other core counts measure the same single-threaded work.
# numpy is first imported inside main(), after this.  The sweep's process
# fan-out stays off.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("RESHAPE_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters whose import time gives setup_s (the median is kept).
SETUP_PROBES = 9
_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import reorgsvd.cli; print(time.perf_counter() - t)"
)


def setup_seconds() -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT / "src")], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import gen

    parser = argparse.ArgumentParser(description="Benchmark of the reorgsvd CLI.")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reorgsvd" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'reorgsvd'}", file=sys.stderr)
        return 2

    import checks
    import spans

    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan, ctx = gen.generate(args.workload, args.seed, work)
    plan.update(root=str(ROOT), seconds=args.seconds, trace=bool(args.trace),
                result=str(work / "result.json"), spans=str(work / "spans.jsonl"))
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")

    setup_s = None if args.trace else setup_seconds()
    worker = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "plan.json")],
                            cwd=ROOT, stdout=sys.stderr, timeout=args.seconds + 120)
    if worker.returncode != 0:
        print(f"error: worker exited with status {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    passes = result["passes"]

    # The last pass's files are checked in full; every other pass must have
    # written the same bytes.
    problems = checks.check(args.workload, ctx, [Path(op["out"]) for op in plan["ops"]])
    checked = passes[-1]["ops"]
    attempted = failed = 0
    correct = True
    for one in passes:
        for op, ref, bad in zip(one["ops"], checked, problems):
            attempted += 1
            wrong = bad or op["hash"] != ref["hash"]
            if op["code"] != 0 or wrong:
                failed += 1
            # An operation that exits 0 with wrong or unverified output
            # makes the run incorrect; a nonzero exit is only a failure.
            correct &= not (op["code"] == 0 and wrong)
    for i, bad in enumerate(problems):
        for line in bad:
            print(f"check failed, operation {i} ({plan['ops'][i]['argv'][0]}): {line}",
                  file=sys.stderr)

    times = [p["seconds"] for p in passes]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, pass seconds "
          + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    if args.trace:
        layers = result["layers"]
        calls = [int(layer["core.thin_svd.calls"]) for layer in layers]
        if any(c != plan["svd_calls"] for c in calls):
            print(f"error: thin_svd calls per pass {calls}, the inputs imply "
                  f"{plan['svd_calls']}", file=sys.stderr)
            correct = False
        metrics = {name: {"value": statistics.median([layer[name] for layer in layers]),
                          "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
