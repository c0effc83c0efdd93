"""The README's library example runs as written against the package."""

import re
from pathlib import Path

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
