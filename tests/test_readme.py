"""The README's library example runs as written, its CLI section names every flag, and its
summary.json table lists exactly the keys that real runs write."""

import argparse
import json
import re
from pathlib import Path

import numpy as np

from angcal import cli
from angcal.cli import build_parser
from angcal.experiments import KNOWN_CALIBRATORS
from angcal.rng import ENTRY_DISTRIBUTIONS
from angcal.synth import Covariance, sample_design
from helpers import write_holdout_csv

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


_SMALL = ["--n", "200", "--d", "100", "--n-test", "300"]
# small runs that between them write every key a summary can hold
_RUNS = {
    # every calibrator; isotonic fits more than 64 levels on 40,000 points and is abbreviated
    "all-calibrators": ["simulate", *_SMALL, "--platt-holdout", "40000", "--calibrators", ",".join(KNOWN_CALIBRATORS)],
    # all-ones labels: Platt fails, isotonic fits one level; no sign holdout, so no sign fields
    "flat": ["simulate", *_SMALL, "--link", "sigmoid:0:50", "--platt-holdout", "50", "--sign-holdout-frac", "0",
             "--calibrators", "uncalibrated,platt,isotonic,chance"],
    "universality": ["universality", *_SMALL, "--platt-holdout", "300", "--entry", "rademacher"],
    "sweep": ["platt-convergence", *_SMALL, "--link", "probit:1:0.3", "--sizes", "100,1000", "--grid-points", "50"],
    # a = 0: no closed-form Platt fit, and the sweep's one fit fails
    "flat-sweep": ["platt-convergence", *_SMALL, "--link", "sigmoid:0:50", "--sizes", "50", "--grid-points", "50"],
    "sign-mc": ["sign-mc", *_SMALL, "--trials", "20"],
    # the fit uses all n rows and the file's 30 rows give the sign, so the sign fields appear
    "sign-mc-holdout-file": ["sign-mc", *_SMALL, "--trials", "20", "--sign-holdout-file", "holdout.csv"],
    "k1": ["multiindex", "--d", "100", "--n-test", "300", "--k", "1"],
    "k2": ["multiindex", "--d", "100", "--n-test", "300", "--k", "2"],
}
# a dict at one of these keys is keyed by calibrator names or run entries
_PLACEHOLDERS = {"calibrators": "<name>", "ece_comparison": "<name>", "runs": "<run>"}


def _leaf_paths(value, path=""):
    """Key path of each leaf of a summary, written with the README table's placeholders."""
    if isinstance(value, dict):
        placeholder = _PLACEHOLDERS.get(path.rpartition(".")[2])
        for key, item in value.items():
            key = placeholder or ("ece_<run>" if key.removeprefix("ece_") in ENTRY_DISTRIBUTIONS else key)
            yield from _leaf_paths(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for item in value:
            yield from _leaf_paths(item, path + "[]")
    else:
        yield path


def _summary_table():
    """Subcommand -> the key paths that README's summary.json table gives it."""
    section = README.read_text(encoding="utf-8").split("\n### summary.json\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| .+ \| ([a-z, -]+) \|$", section, flags=re.M)
    assert len(rows) == section.count("\n| `"), "a row of the summary.json table does not parse"
    table = {command: set() for command in cli._COMMANDS}
    for path, commands in rows:
        for command in table if commands == "all" else commands.split(", "):
            table[command].add(path)
    return table


def test_summary_table_lists_every_key_of_every_subcommand(tmp_path, monkeypatch):
    """Each universality run is a whole simulate summary, so its keys count as simulate's."""
    monkeypatch.chdir(tmp_path)  # where the runs find holdout.csv
    write_holdout_csv("holdout.csv", sample_design(30, Covariance.ar1(0.5, 100), "gaussian", seed=3), np.arange(30) % 2)
    observed = {command: set() for command in cli._COMMANDS}
    for name, argv in _RUNS.items():
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0, name
        summary = json.loads((tmp_path / name / "summary.json").read_text(encoding="utf-8"))
        for path in _leaf_paths(summary):
            if path.startswith("runs.<run>."):
                observed["simulate"].add(path.removeprefix("runs.<run>."))
                path = "runs.<run>"
            observed[summary["command"]].add(path)
    table = _summary_table()
    for command in cli._COMMANDS:
        assert observed[command] - table[command] == set(), f"{command}: keys the README table lacks"
        assert table[command] - observed[command] == set(), f"{command}: README rows no run wrote"
