import json

import numpy as np
import pytest

from opcert.errors import InvalidInputError
from opcert.funcspace import catalog_names, catalog_space
from opcert.opspace import make_space
from opcert.serialize import (FORMAT_SPACE, ParseError, SpaceFile,
                              dumps_canonical, dumps_report, report_tree)
from opcert.tro import ambient_unitary_check
from opcert.funcspace import catalog_closure


def test_canonical_scalars():
    tree = {
        "zero": 0.0,
        "negzero": -0.0,
        "flag": True,
        "count": 3,
        "tenth": 0.1,
        "z": 1 - 2j,
        "missing": None,
        "label": "x",
        "vec": np.array([1.0, 0.5]),
    }
    text = dumps_canonical(tree)
    assert text == ('{"zero":0,"negzero":0,"flag":true,"count":3,'
                    '"tenth":0.10000000000000001,"z":[1,-2],'
                    '"missing":null,"label":"x","vec":[1,0.5]}\n')
    # canonical floats survive a parse -> re-emit cycle byte-for-byte
    assert dumps_canonical(json.loads(text)) == text


def test_canonical_rejects_bad_values():
    with pytest.raises(InvalidInputError):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(InvalidInputError):
        dumps_canonical({"x": float("inf")})
    with pytest.raises(InvalidInputError):
        dumps_canonical({"x": {1, 2}})


def test_space_files_roundtrip_for_whole_catalog():
    for name in catalog_names():
        space = catalog_space(name)
        sf = SpaceFile.from_space(space)
        text = sf.dumps()
        back = SpaceFile.loads(text)
        assert back.dumps() == text, name
        rebuilt = back.build_space()
        assert np.allclose(np.asarray(rebuilt.basis[:, :, 0, 0]
                                      if sf.kind == "function"
                                      else rebuilt.basis.reshape(sf.basis.shape)),
                           sf.basis, atol=0)


def test_point_backed_space_roundtrips_as_a_function_file():
    space = catalog_space("circle-1z", 8)
    text = SpaceFile.from_space(space).dumps()
    diag = make_space([np.diag(row) for row in space.basis[:, :, 0, 0]],
                      unit=space.unit)
    assert SpaceFile.from_space(diag).dumps() == text
    back = SpaceFile.loads(text)
    assert back.kind == "function" and back.basis.shape == (2, 8)
    rebuilt = back.build_space()
    assert rebuilt.diagonal
    assert np.array_equal(rebuilt.basis, space.basis)
    assert np.array_equal(rebuilt.unit, space.unit)
    assert SpaceFile.from_space(rebuilt).dumps() == text


def test_cone_and_solver_fields_roundtrip():
    space = catalog_space("m2-full")
    sf = SpaceFile.from_space(space,
                              cone=np.array([[1.0, 0, 0, 0],
                                             [0, 0, 0, 1.0]]),
                              solver={"root_seed": 13, "starts": 8})
    back = SpaceFile.loads(sf.dumps())
    assert back.dumps() == sf.dumps()
    assert back.cone.shape == (2, 4)
    assert back.solver == {"root_seed": 13, "starts": 8}


@pytest.mark.parametrize("mutate,path", [
    (lambda t: t.update(format="other"), "format"),
    (lambda t: t.update(kind="weird"), "kind"),
    (lambda t: t.update(basis=[]), "basis"),
    (lambda t: t["basis"][0].pop(), "basis[0]"),
    (lambda t: t.update(unit=[[1, 0]]), "unit"),
    (lambda t: t.update(cone=[[[1, 0]]]), "cone[0]"),
    (lambda t: t.update(shape=[2]), "shape"),
    (lambda t: t.update(solver=[1, 2]), "solver"),
])
def test_parse_error_paths(mutate, path):
    tree = json.loads(SpaceFile.from_space(catalog_space("m2-upper")).dumps())
    mutate(tree)
    with pytest.raises(ParseError) as err:
        SpaceFile.parse_tree(tree)
    assert err.value.path == path


def test_function_file_needs_point_count():
    tree = json.loads(SpaceFile.from_space(catalog_space("circle-1z")).dumps())
    del tree["points"]
    with pytest.raises(ParseError) as err:
        SpaceFile.parse_tree(tree)
    assert err.value.path == "points"


def test_invalid_json_flagged_at_root():
    with pytest.raises(ParseError) as err:
        SpaceFile.loads("{not json")
    assert err.value.path == "$"


def test_reports_serialize_deterministically():
    rep = ambient_unitary_check(catalog_closure("m2-full"), [1.0, 0, 0, 0])
    first = dumps_report([rep], command="check unitary", seed=7,
                         version="0.1.0")
    second = dumps_report([rep], command="check unitary", seed=7,
                          version="0.1.0")
    assert first == second
    tree = json.loads(first)
    assert tree["format"] == "opcert-report"
    assert tree["seed"] == 7
    assert tree["command"] == "check unitary"
    assert tree["checks"][0]["verdict"] == "pass"
    assert "time" not in first.lower()


def test_report_tree_carries_extra_block():
    rep = ambient_unitary_check(catalog_closure("m2-full"), [1.0, 0, 0, 0])
    tree = report_tree([rep], command="c", seed=1, version="0.1.0",
                       extra={"elapsed_free": True})
    assert tree["extra"] == {"elapsed_free": True}
    assert tree["format"] == "opcert-report"
    assert FORMAT_SPACE != tree["format"]
