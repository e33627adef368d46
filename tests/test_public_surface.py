import importlib.util
import pathlib

import pytest

import opcert

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def test_every_public_name_resolves_once():
    assert len(opcert.__all__) == len(set(opcert.__all__))
    for name in opcert.__all__:
        assert hasattr(opcert, name), name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # loading runs the imports but not main(), which sits behind the
    # __main__ guard
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
