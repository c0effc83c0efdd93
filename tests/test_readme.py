"""The README's library example runs as written, and its CLI section names every flag."""

import argparse
import re
from pathlib import Path

from angcal.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks, "README has no python example"
    for code in blocks:
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert 0.0 <= report.ece <= 1.0
    assert namespace["sign"].value in (-1, 1)


def test_cli_section_names_every_long_flag():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags - {"--help"}
