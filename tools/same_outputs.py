"""Check that two source trees write the same benchmark outputs, byte for
byte.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

In each tree, runs ``perfbench/run.py --seconds 1 --trace 0`` for seeds 7
and 77 on every workload and copies the run's ``perfbench/out/<workload>/ops``
aside; then compares the two sets of files.  In a ``.json`` file the
``"input"`` line, which holds the input's absolute path and so names the
tree, is masked.  Prints every file that differs or that only one tree
wrote, and exits 1 on any such file or on a run that is not ``correct``
with no failed operation; exits 0 when every file matches.  The trees'
``perfbench/`` sources are only read; each run rewrites its own
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("image-sweep", "theorem-cert", "covid-panel")
SEEDS = (7, 77)
_INPUT_LINE = re.compile(rb'^(\s*"input": ).*$', re.MULTILINE)


def collect(tree: Path, dest: Path) -> bool:
    """Run every workload and seed in ``tree``, copying each run's ops to
    ``dest/<seed>/<workload>``; True when every run was correct with no
    failed operation."""
    ok = True
    for seed in SEEDS:
        for workload in WORKLOADS:
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "0"]
            done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                sys.exit(f"error: {tree}: {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
            summary = json.loads(lines[-1])
            if not summary["correct"] or summary["failed"]:
                print(f"{tree}: {workload} seed {seed}: correct {summary['correct']}, "
                      f"failed {summary['failed']}")
                ok = False
            shutil.copytree(tree / "perfbench" / "out" / workload / "ops",
                            dest / str(seed) / workload)
    return ok


def content(path: Path) -> bytes:
    data = path.read_bytes()
    return _INPUT_LINE.sub(rb"\1<masked>", data) if path.suffix == ".json" else data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        ok = True
        for name, tree in (("parent", args.parent), ("change", args.change)):
            dest = Path(tmp) / name
            ok &= collect(tree.resolve(), dest)
            sides.append({p.relative_to(dest): p for p in dest.rglob("*") if p.is_file()})
        parent, change = sides
        files = sorted(parent.keys() | change.keys())
        differ = [rel for rel in files
                  if rel not in parent or rel not in change
                  or content(parent[rel]) != content(change[rel])]
        for rel in differ:
            print(f"differs: {rel}")
        print(f"{len(files) - len(differ)} identical, {len(differ)} differing")
    return 1 if differ or not ok else 0


if __name__ == "__main__":
    sys.exit(main())
