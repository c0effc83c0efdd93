"""The package's public surface: `angcal.__all__` lists exactly what `angcal/__init__.py` binds."""

import types

import angcal


def test_all_matches_the_public_names_bound():
    public = {
        name
        for name, value in vars(angcal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(angcal.__all__) == sorted(public)
    assert len(angcal.__all__) == len(set(angcal.__all__))
