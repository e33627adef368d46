"""List the module-level imports of src/opcert, tests, demos and tools that
nothing uses, and the module-level definitions of src/opcert that only
tests use.

A name bound by a top-level ``import`` or ``from ... import`` statement is
used when the module reads it anywhere (a name, or the root of an
attribute chain) or lists it in ``__all__``. ``from __future__`` imports
and star imports bind nothing to check. Deleting a function often leaves
its import behind in a caller or a test; this scan finds such leftovers.

A top-level function, class or constant of src/opcert is used when the
package's ``__all__`` lists it or when code under src/opcert, perfbench,
demos or tools reads it outside its own definition: as a name, as an
attribute, or as a part of a dotted string (perfbench names the functions
it traces that way). A definition that only tests read is code kept alive
by its tests.

Run from the repository root:  python3 tools/unused_imports.py [ROOT]
"""

import ast
import collections
import pathlib
import sys

DIRS = ("src/opcert", "tests", "demos", "tools")
# the code whose reads keep a definition of src/opcert in use
USERS = ("src/opcert", "perfbench", "demos", "tools")


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


def _reads(tree) -> collections.Counter:
    """How often a subtree reads each name: loaded names, attributes and
    the parts of dotted strings."""
    out = collections.Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _definitions(tree):
    """(name, node) of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from ((t.id, node) for t in targets
                        if isinstance(t, ast.Name))


def unused_definitions(root: pathlib.Path) -> list:
    """"<path>: <name>" for every top-level definition of src/opcert that
    is not in the package's __all__ and that nothing under USERS reads
    outside its own definition."""
    trees = {path: ast.parse(path.read_text())
             for d in USERS for path in sorted((root / d).glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()),
                collections.Counter())
    package = root / "src/opcert"
    public = set()
    for name, node in _definitions(trees[package / "__init__.py"]):
        if name == "__all__":
            public = set(ast.literal_eval(node.value))
    out = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, node in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name in public:
                continue
            if reads[name] - _reads(node)[name] == 0:
                out.append(f"{path.relative_to(root)}: {name}")
    return out


if __name__ == "__main__":
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    found = scan(root) + unused_definitions(root)
    print("\n".join(found))
    sys.exit(1 if found else 0)
