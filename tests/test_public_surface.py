import importlib.util
import pathlib
import subprocess
import sys

import pytest

import opcert

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# defaulted parameters that no call sets, as tools/unset_defaults.py lists
# them: optional inputs whose None means "absent", and settings of the
# public API or read by perfbench
UNSET_DEFAULTS = [
    "__init__(iterate)", "ambient_system_check(u)", "catalog_closure(points)",
    "min_space(points)", "recover_product_left(config)",
    "recover_product_left(t)"]


def test_importing_opcert_loads_no_scipy():
    # numpy is the one numerical dependency at run time; scipy is for tests
    code = ("import sys, opcert, opcert.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_setting_goes_unset():
    # a new defaulted parameter that no call sets is a constant in disguise
    assert _tool("unset_defaults").unset_defaults(ROOT) == UNSET_DEFAULTS


def test_no_import_goes_unused():
    # a deletion leaves no import behind in src/opcert or tests
    assert _tool("unused_imports").scan(ROOT) == []


def test_no_definition_lives_only_for_tests():
    # a function, class or constant of src/opcert that only tests read is
    # dead code that its tests keep alive
    assert _tool("unused_imports").unused_definitions(ROOT) == []
