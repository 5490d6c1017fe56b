"""Child process that runs one workload's CLI invocations in passes.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by ``run.py``) names the source tree, the operations
(one ``reorgsvd.cli.main`` argument list each), how many seconds to keep
starting passes, and whether to trace.  Every pass runs every operation
once, in order, inside this one process.  Each operation's output
directory is removed before it runs, so a pass can only show files it
wrote itself; the files and the captured standard output are hashed so
that the parent can check one pass in full and compare the rest to it.

The result (pass times, exit codes, hashes, peak RSS and, when tracing,
per-pass layer metrics) goes to the path the plan names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _hash_outputs(out: Path, stdout: str) -> str:
    digest = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    digest.update(b"\0stdout\0" + stdout.encode())
    return digest.hexdigest()


def _invoke(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI invocation in-process; return exit code, standard
    output and wall seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
    return code, buf.getvalue(), time.perf_counter() - start


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    import reorgsvd.cli

    if not Path(reorgsvd.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported {reorgsvd.cli.__file__}, not the tree under {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        tracer.install()

    # The tracer replaces ``main`` on the module, so look it up per call.
    cli = reorgsvd.cli
    passes = []
    layers = []
    deadline = time.perf_counter() + plan["seconds"]
    while not passes or time.perf_counter() < deadline:
        first_span = len(tracer.spans) if tracer else 0
        seconds = 0.0
        ops = []
        for op in plan["ops"]:
            out = Path(op["out"])
            shutil.rmtree(out, ignore_errors=True)
            code, stdout, took = _invoke(cli, op["argv"])
            seconds += took
            ops.append({"code": code, "hash": _hash_outputs(out, stdout)})
            if out.is_dir():
                (out / "stdout.txt").write_text(stdout, encoding="utf-8")
        passes.append({"seconds": seconds, "ops": ops})
        if tracer:
            layers.append(spans.layer_metrics(tracer.spans, first_span, plan["csv_rows"]))

    result = {
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layers
        tracer.write(Path(plan["spans"]))
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
