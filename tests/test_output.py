"""Report rendering: one scalar format for JSON and CSV, and one function that writes a report file."""

import math

import numpy as np
import pytest

from angcal import cli, errors, experiments, output
from angcal.output import dumps_csv, dumps_json

# (Python value, its numpy twins): each renders to the same text as the Python value
_SCALARS = [
    (True, [np.bool_(True)]),
    (False, [np.bool_(False)]),
    (7, [np.int64(7), np.int32(7), np.uint8(7)]),
    (-3, [np.int64(-3)]),
    (0.1, [np.float64(0.1)]),
    (float(np.float32(0.1)), [np.float32(0.1)]),
    (1e300, [np.float64(1e300)]),
    (math.nan, [np.float64(np.nan), np.float32(np.nan)]),
    (math.inf, [np.float64(np.inf), np.float32(np.inf)]),
    (-math.inf, [np.float64(-np.inf), np.float32(-np.inf)]),
]


def _json_scalar(value):
    return dumps_json([value]).split("\n")[1].strip()


def _csv_cell(value):
    return dumps_csv(("x",), [[value]]).split("\n")[1]


@pytest.mark.parametrize("python, twins", _SCALARS, ids=lambda v: repr(v))
def test_python_and_numpy_scalars_render_alike(python, twins):
    for twin in twins:
        assert _json_scalar(twin) == _json_scalar(python)
        assert _csv_cell(twin) == _csv_cell(python)


@pytest.mark.parametrize(
    "value, json_text, csv_text",
    [
        (True, "true", "true"),
        (np.int64(12), "12", "12"),
        (0.1, "0.10000000000000001", "0.10000000000000001"),
        (None, "null", "nan"),
        (math.nan, '"nan"', "nan"),
        (np.float32(np.inf), '"inf"', "inf"),
        (-math.inf, '"-inf"', "-inf"),
    ],
)
def test_json_quotes_the_csv_text_of_a_non_finite_float_and_writes_none_as_null(value, json_text, csv_text):
    assert _json_scalar(value) == json_text
    assert _csv_cell(value) == csv_text


def test_numpy_bool_in_a_summary_writes_as_true():
    assert dumps_json({"converged": np.bool_(True)}) == '{\n  "converged": true\n}\n'


def test_json_refuses_a_type_it_cannot_write():
    with pytest.raises(errors.ContractError, match="cannot serialize value of type complex"):
        dumps_json({"z": 1j})


def test_csv_writes_text_cells_as_they_are():
    assert dumps_csv(("n", "error"), [[3, ""], [4, "FitError: x"]]) == "n,error\n3,\n4,FitError: x\n"


_SMALL = ["--n", "200", "--d", "50", "--n-test", "300", "--platt-holdout", "300"]
# every subcommand, with the svg where a run has reliability reports
_RUNS = {
    "simulate": ["simulate", *_SMALL, "--svg"],
    "universality": ["universality", *_SMALL, "--entry", "rademacher", "--svg"],
    "platt-convergence": ["platt-convergence", "--n", "200", "--d", "50", "--sizes", "50,100", "--grid-points", "20"],
    "sign-mc": ["sign-mc", "--n", "200", "--d", "50", "--trials", "20"],
    "multiindex": ["multiindex", "--d", "30", "--n-test", "300", "--svg"],
}


@pytest.mark.parametrize("argv", _RUNS.values(), ids=_RUNS)
def test_every_report_file_is_written_once_through_write_text(argv, tmp_path, monkeypatch):
    # perfbench's output.bytes_written adds up the size of the file that each
    # output-layer call names first, so it is right only if every file goes through write_text
    calls = []

    def recording(path, text):
        output.write_text(path, text)
        final = path.with_name(path.name.removeprefix(".").removesuffix(".tmp"))  # a temporary name counts as its file
        calls.append((final, path.stat().st_size))

    monkeypatch.setattr(experiments, "write_text", recording)
    out = tmp_path / "run"
    assert cli.main([*argv, "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert sorted(path for path, _ in calls) == files
    assert sum(size for _, size in calls) == sum(path.stat().st_size for path in files)
