"""List the module-level imports of src/opcert, tests, demos and tools that
nothing uses.

A name bound by a top-level ``import`` or ``from ... import`` statement is
used when the module reads it anywhere (a name, or the root of an
attribute chain) or lists it in ``__all__``. ``from __future__`` imports
and star imports bind nothing to check. Deleting a function often leaves
its import behind in a caller or a test; this scan finds such leftovers.

Run from the repository root:  python3 tools/unused_imports.py [ROOT]
"""

import ast
import pathlib
import sys

DIRS = ("src/opcert", "tests", "demos", "tools")


def unused_imports(path: pathlib.Path) -> list:
    """Names the top-level imports of one file bind and it never reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def scan(root: pathlib.Path) -> list:
    """"<path>: <name>" for every unused import under DIRS."""
    out = []
    for d in DIRS:
        for path in sorted((root / d).glob("*.py")):
            out += [f"{path.relative_to(root)}: {name}"
                    for name in unused_imports(path)]
    return out


if __name__ == "__main__":
    found = scan(pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "."))
    print("\n".join(found))
    sys.exit(1 if found else 0)
