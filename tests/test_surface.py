"""The package's public surface: its export list and the documented commands."""

import re
import shlex
from pathlib import Path

import pytest

import kpv
from kpv import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in kpv.__all__ if not hasattr(kpv, name)]
    assert not missing
    assert len(set(kpv.__all__)) == len(kpv.__all__)


def readme_command_lines() -> list[list[str]]:
    """The argv of every `kpv ...` line in README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = next(b for b in re.findall(r"```\n(.*?)```", section, re.S)
                 if b.startswith("kpv "))
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kpv ")]


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert len(lines) >= 7
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README documents an invalid command: kpv {shlex.join(argv)}")
