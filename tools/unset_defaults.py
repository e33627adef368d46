"""List the defaulted parameters of opcert's functions that no call sets.

A parameter that every caller leaves at its default is a setting with one
value in use: a constant in disguise. The scan reads the syntax trees of
src/opcert (the definitions) and of src, tests, demos, perfbench and tools
(the calls), and matches calls to definitions by function name.

A call sets a parameter when it passes it positionally, through *args or
**kwargs, or by a keyword whose value differs from the default; literals
and module constants of src/opcert are compared by value. A keyword that
forwards the caller's own parameter of the same name (``tol=tol``) sets it
only if that parameter is set itself. A loop ``for f in (g, h): f(x)``
calls g and h. A function that is referenced any other way than by a call
counts as setting every parameter, since its calls cannot be read off the
tree; a function that is never called is not listed.

Run from the repository root:  python3 tools/unset_defaults.py [ROOT]
"""

import ast
import pathlib
import sys

DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(src: pathlib.Path):
    """({name: [(positional names, {param: default node})]},
    {module constant: value})."""
    defs, consts = {}, {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                try:
                    consts[node.targets[0].id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
        for node in ast.walk(tree):
            if not isinstance(node, DEF_TYPES):
                continue
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args]
            dflt = dict(zip(names[len(names) - len(a.defaults):], a.defaults))
            dflt.update((k.arg, d) for k, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None)
            if names[:1] in (["self"], ["cls"]):
                names = names[1:]
            defs.setdefault(node.name, []).append((names, dflt))
    return defs, consts


def calls(root: pathlib.Path, defs):
    """[(callee name, call node, name of the enclosing def or None)], and
    the names of defined functions referenced other than by a call."""
    found, escaped = [], set()
    for top in ("src", "tests", "demos", "perfbench", "tools"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}
            for fn in (n for n in ast.walk(tree) if isinstance(n, DEF_TYPES)):
                for n in ast.walk(fn):
                    owner[id(n)] = fn.name
            callees, aliases = set(), {}
            for node in ast.walk(tree):
                if isinstance(node, ast.For) and \
                        isinstance(node.iter, (ast.Tuple, ast.List)):
                    for elt in node.iter.elts:
                        pairs = [(node.target, elt)]
                        if isinstance(node.target, ast.Tuple) and \
                                isinstance(elt, ast.Tuple):
                            pairs = zip(node.target.elts, elt.elts)
                        for var, val in pairs:
                            if isinstance(var, ast.Name) and \
                                    isinstance(val, ast.Name) and val.id in defs:
                                aliases.setdefault(var.id, []).append(val.id)
                                callees.add(id(val))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callees.add(id(node.func))
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) \
                    else getattr(fn, "id", None)
                for name in aliases.get(name, [name]):
                    if name in defs:
                        found.append((name, node, owner.get(id(node))))
            escaped.update(
                n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and n.id in defs
                and isinstance(n.ctx, ast.Load) and id(n) not in callees)
    return found, escaped


def unset_defaults(root: pathlib.Path) -> list:
    defs, consts = definitions(root / "src" / "opcert")
    found, escaped = calls(root, defs)

    def value(node):
        if isinstance(node, ast.Name) and node.id in consts:
            return consts[node.id]
        return ast.literal_eval(node)

    def same(a, b):
        try:
            return value(a) == value(b)
        except (ValueError, TypeError, SyntaxError):
            return ast.dump(a) == ast.dump(b)

    def sets(call, owner, names, param, default, is_set):
        if any(k.arg is None for k in call.keywords) or \
                any(isinstance(x, ast.Starred) for x in call.args):
            return True
        if param in names and names.index(param) < len(call.args):
            return True
        for k in call.keywords:
            if k.arg != param or same(k.value, default):
                continue
            if isinstance(k.value, ast.Name) and (owner, k.value.id) in is_set:
                return is_set[(owner, k.value.id)]
            return True
        return False

    is_set = {(name, p): name in escaped
              for name, variants in defs.items()
              for _, dflt in variants for p in dflt}
    changed = True
    while changed:          # forwarded parameters settle in a few rounds
        changed = False
        for name, variants in defs.items():
            for names, dflt in variants:
                for p, d in dflt.items():
                    if not is_set[(name, p)] and any(
                            sets(c, owner, names, p, d, is_set)
                            for cname, c, owner in found if cname == name):
                        is_set[(name, p)] = changed = True
    called = {name for name, _, _ in found}
    return sorted(f"{name}({p})" for (name, p), s in is_set.items()
                  if not s and name in called)


if __name__ == "__main__":
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    unset = unset_defaults(root)
    print("\n".join(unset))
    print(f"{len(unset)} defaulted parameters that no call sets")
