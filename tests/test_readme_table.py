"""The catalog table of README.md, recomputed: every entry under
`certify_unitary`, and under `detect_operator_system` and `detect_cstar`
with its envelope-exact `catalog_closure`."""

from pathlib import Path

import pytest

from opcert.certify import certify_unitary
from opcert.cstar import detect_cstar
from opcert.funcspace import catalog_closure, catalog_names, catalog_space
from opcert.sysdetect import detect_operator_system

README = Path(__file__).resolve().parents[1] / "README.md"
COLUMNS = ("name", "description", "unitary", "system", "cstar")


def catalog_table() -> dict:
    """name -> (unitary, system, cstar) verdicts of the README's table."""
    section = README.read_text(encoding="utf-8").split("\n## Catalog\n")[1]
    lines = [line for line in section.split("\n## ")[0].splitlines()
             if line.startswith("|")]
    header = tuple(c.strip() for c in lines[0].strip("|").split("|"))
    assert header == COLUMNS
    rows = {}
    for line in lines[2:]:
        name, _, *verdicts = (c.strip() for c in line.strip("|").split("|"))
        rows[name] = tuple(verdicts)
    return rows


TABLE = catalog_table()


def test_the_table_lists_the_catalog():
    assert sorted(TABLE) == sorted(catalog_names())


@pytest.mark.parametrize("name", sorted(TABLE))
def test_a_table_row_is_what_the_checks_return(name):
    space, closure = catalog_space(name), catalog_closure(name)
    got = (certify_unitary(space).verdict,
           detect_operator_system(space, closure=closure).verdict,
           detect_cstar(space, closure=closure)[0].verdict)
    assert got == TABLE[name]
