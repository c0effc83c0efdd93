"""The package's public surface and its import cost.

`angcal.__all__` lists exactly what `angcal/__init__.py` binds, and
`import angcal.cli` loads none of the scipy modules it does not need and
leaves the BLAS thread counts alone.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import angcal


def test_all_matches_the_public_names_bound():
    public = {
        name
        for name, value in vars(angcal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(angcal.__all__) == sorted(public)
    assert len(angcal.__all__) == len(set(angcal.__all__))


def test_cli_import_leaves_the_costly_scipy_modules_unloaded():
    # every CLI start pays for what `import angcal.cli` loads: scipy.optimize alone costs about
    # 0.25 s, and serves only the clipped-relu Platt fit, which imports it when it runs
    costly = ("scipy.optimize", "scipy.integrate", "scipy.stats")
    code = f"import sys, angcal.cli; print(sorted(set({costly!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_touches_no_blas_thread_count():
    # importing looks up no OpenBLAS control, so a CLI start pays for no ctypes load, and it pins
    # no library user's BLAS: every control still reads the count the environment set
    code = (
        "import angcal.cli\n"
        "from angcal import mestimator\n"
        "print(mestimator._openblas_thread_controls.cache_info().currsize)\n"
        "print([get() for get, _ in mestimator._openblas_thread_controls()])\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    cached, counts = result.stdout.splitlines()
    assert cached == "0"
    assert set(json.loads(counts)) <= {2}
