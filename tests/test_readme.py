"""README's examples run against the library and the CLI as they are."""

import argparse
import re
import shlex
import warnings
from pathlib import Path

import pytest

import reorgsvd
from reorgsvd import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    # The examples build on one another (the later ones use the earlier
    # ``a``), so they run in order in one namespace.  A renamed function or
    # parameter fails here, and so does any warning.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 4
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_command_lines_parse():
    # Every ``reorgsvd ...`` line of the shell blocks, with its backslash
    # continuations joined, is parsed (not run) by the CLI's own parser, so
    # a renamed subcommand or flag fails here.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("reorgsvd ")]
    assert len(commands) == 5
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)


def _names_a_word(text: str, word: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


def test_readme_documents_every_cli_option():
    text = README.read_text()
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{command} {option}"
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if not _names_a_word(text, option)
    ]
    assert len(subparsers.choices) == 4
    assert not missing


# What README's Command line section states of a flag: its default, its
# range or its list syntax.
_FLAG_FACTS = {
    "approx": {"--ranks": ["comma-separated"]},
    "sweep": {"--tile-sizes": ["comma-separated"], "--targets": ["comma-separated", "(0, 1)"]},
    "covid": {
        "--days": ["150"],
        "--states": ["comma-separated", "the 50 US states"],
        "--groups": ["3"],
        "--rank": ["2"],
        "--rate-mode": ["cumulative"],
    },
    "verify-theorem": {
        "--alpha": ["0.5"],
        "--beta": ["0.5"],
        "--gamma": ["1.0", "[1e-100, 1e100]"],
        "--sizes": ["comma-separated", "[2, 1000]"],
    },
}
_EXIT_CODES = ["0 success", "1 data or I/O failure", "2 usage error", "3 certification violation"]


def _help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as done:
        cli.main([*argv, "--help"])
    assert done.value.code == 0
    return capsys.readouterr().out


def _flag_help(text: str, flag: str) -> str:
    """The lines of ``flag``'s entry under the help's options heading,
    joined with single spaces; empty when the help has no such entry."""
    lines = text[text.index("\noptions:\n") :].splitlines()
    starts = [i for i, line in enumerate(lines) if re.match(rf"\s+{flag}(?![\w-])", line)]
    if not starts:
        return ""
    entry = [lines[starts[0]]]
    for line in lines[starts[0] + 1 :]:
        if not line.strip() or line.lstrip().startswith("-"):
            break
        entry.append(line)
    return " ".join(" ".join(entry).split())


def test_cli_help_states_what_readme_states(capsys, monkeypatch):
    # One line per help entry, so no fact is wrapped apart.
    monkeypatch.setenv("COLUMNS", "1000")
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    section = " ".join(section.split())
    top = " ".join(_help_text(capsys, []).split())
    assert [code for code in _EXIT_CODES if code not in top] == []
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(_FLAG_FACTS) == sorted(subparsers.choices)
    for command, sub in subparsers.choices.items():
        text = _help_text(capsys, [command])
        flat = " ".join(text.split())
        assert [code for code in _EXIT_CODES if code not in flat] == []
        assert ("RESHAPE_THREADS" in flat) == (command == "sweep")
        flags = [
            flag
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        ]
        assert set(_FLAG_FACTS[command]) <= set(flags)
        for flag in flags:
            entry = _flag_help(text, flag)
            facts = _FLAG_FACTS[command].get(flag, [])
            assert entry, (command, flag)
            assert [fact for fact in facts if fact not in entry] == [], (command, entry)
            assert [fact for fact in facts if fact not in section] == [], (command, flag)


def test_readme_names_every_package_export():
    # README owns the package list: a name added to ``reorgsvd.__all__``
    # must be documented there.
    text = README.read_text()
    names = [name for name in reorgsvd.__all__ if name != "__version__"]
    assert not [name for name in names if not _names_a_word(text, name)]
