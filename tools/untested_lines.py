"""List the lines of ``src/reorgsvd`` that no test runs.

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Run from the repository root.  Runs pytest with PYTEST_ARGS, so the whole
suite by default, in this process under a ``sys.settrace`` tracer that
follows only frames whose code lives in ``src/reorgsvd``, then prints
``file:line: text`` for every statement in a function body that has
bytecode on its first line and never ran there.  Only this process is
traced: a line that only a child process runs, such as the CLI tests'
``python -m reorgsvd.cli`` or a sweep worker, is listed.  Exits with
pytest's status, so a failing test shows even when the listing is empty.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reorgsvd"


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _body_statements(text: str, filename: str) -> list[int]:
    """The first lines of the statements in function bodies that hold
    bytecode: a docstring or a bare ``try:`` holds none."""
    tree = ast.parse(text, filename)
    starts = {
        stmt.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in func.body
        for stmt in ast.walk(node)
        if isinstance(stmt, ast.stmt)
    }
    return sorted(starts & _code_lines(compile(text, filename, "exec")))


def main(argv: list[str]) -> int:
    sources = {str(path): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    # One flag per line and file, allocated up front, so that tracing
    # allocates nothing that a test's memory bound would count.
    ran = {name: bytearray(text.count("\n") + 2) for name, text in sources.items()}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename][frame.f_lineno] = 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in ran else None

    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)

    imported = {getattr(m, "__file__", None) for name, m in sys.modules.items()
                if name == "reorgsvd" or name.startswith("reorgsvd.")}
    if not imported <= set(sources):
        sys.exit(f"error: reorgsvd was imported from outside {PACKAGE}: {sorted(imported)}")
    for name, text in sources.items():
        lines = text.splitlines()
        shown = Path(name).relative_to(ROOT)
        for line in _body_statements(text, name):
            if not ran[name][line]:
                print(f"{shown}:{line}: {lines[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
