"""README's examples run against the library and the CLI as they are."""

import argparse
import re
import shlex
import warnings
from pathlib import Path

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


def test_readme_names_every_package_export():
    # README owns the package list: a name added to ``reorgsvd.__all__``
    # must be documented there.
    text = README.read_text()
    names = [name for name in reorgsvd.__all__ if name != "__version__"]
    assert not [name for name in names if not _names_a_word(text, name)]
