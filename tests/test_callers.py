"""Every public name and every optional parameter in deploylab has a caller.

Lists each public top-level function and class in src/deploylab/*.py,
and each public method of such a class, and fails on a name that no
caller mentions.  Callers are src/ outside the name's own definition,
perfbench/ and the acceptance criteria; a re-export in __init__.py is
not a caller.  A method counts only as an attribute (`.name`).

It also fails on a parameter with a default, of a public function,
method or class constructor, that no caller passes anything but its
default (see unset_parameters).
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = sorted(glob.glob(os.path.join(ROOT, "src", "deploylab", "*.py")))
OUTSIDE = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))) + \
    [os.path.join(ROOT, "tests", "test_acceptance.py")]

# callerless names that stay, each with its reason
ALLOWED = {
    "check_stability": "polyorders API that exact linear verdicts extend",
    "check_variational": "polyorders API that exact linear verdicts extend",
    "drifting_maximality_falsifier":
        "polyorders API that exact linear verdicts extend",
    "evaluate_relation": "polyorders API that exact linear verdicts extend",
    "StabilityVerdict.confirmed": "the verdict reading of that API",
}

# optional parameters that no caller sets but stay, each with its reason
_POLYORDERS = "polyorders API that exact linear verdicts extend"
ALLOWED_PARAMS = {
    "evaluate_relation.kind": _POLYORDERS,
    "check_stability.budget": _POLYORDERS,
    "check_stability.neighborhood_radius": _POLYORDERS,
    "check_variational.budget": _POLYORDERS,
    "drifting_maximality_falsifier.budget": _POLYORDERS,
    "SampleBudget.seed": "the budget that polyorders' budget parameters take",
    "SampleBudget.simplex_samples":
        "the budget that polyorders' budget parameters take",
}


def _read(path):
    with open(path) as fh:
        return fh.read()


def _public_definitions(tree):
    """(qualified name, node, is_method) of each public definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and \
                        not sub.name.startswith("_"):
                    yield node.name + "." + sub.name, sub, True


def callerless_names():
    texts = {p: _read(p) for p in SRC if os.path.basename(p) != "__init__.py"}
    outside = "\n".join(_read(p) for p in OUTSIDE)
    out = []
    for path, text in texts.items():
        lines = text.split("\n")
        rest = "\n".join([outside] + [t for p, t in texts.items()
                                      if p != path])
        for qual, node, is_method in _public_definitions(ast.parse(text)):
            name = qual.rsplit(".", 1)[-1]
            pattern = re.compile(("\\." if is_method else "\\b") +
                                 re.escape(name) + "\\b")
            first = min([node.lineno] +
                        [d.lineno for d in node.decorator_list])
            # the module without the definition itself, docstring included
            own = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            if not (pattern.search(own) or pattern.search(rest)):
                out.append(qual)
    return out


def _parameters(fn, bound):
    """Positional parameter names of fn, less self or cls when bound,
    and the default's source text of each optional parameter."""
    args = fn.args
    pos = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(pos[len(pos) - len(args.defaults):],
                        map(ast.unparse, args.defaults)))
    defaults.update((a.arg, ast.unparse(d))
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None)
    return pos[1:] if bound else pos, defaults


def _signatures(tree):
    """(key, positional names, defaults, node) of each function, method
    and class constructor of a module.  The key is 'f', 'C.m' or 'C' for
    the constructor, which is __init__ or a dataclass's fields."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield (node.name,) + _parameters(node, False) + (node,)
        if not isinstance(node, ast.ClassDef):
            continue
        if any(ast.unparse(d) == "dataclass" for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            yield (node.name, [f.target.id for f in fields],
                   {f.target.id: ast.unparse(f.value)
                    for f in fields if f.value is not None}, node)
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef):
                key = node.name + ("" if sub.name == "__init__"
                                   else "." + sub.name)
                static = "staticmethod" in map(ast.unparse,
                                               sub.decorator_list)
                yield (key,) + _parameters(sub, not static) + (sub,)


def _targets(call, scope, signatures):
    """Keys of the definitions a call may reach, by name; cls(...) in a
    method of C reaches C's constructor."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and scope is not None:
            return [scope.split(".")[0]]
        return [func.id] if func.id in signatures else []
    if isinstance(func, ast.Attribute):
        return [k for k in signatures if k.rsplit(".", 1)[-1] == func.attr]
    return []


def unset_parameters():
    """Optional parameters of the public API that no caller sets.

    A caller sets a parameter when it passes it, by keyword or by
    position, an argument whose source text differs from the default's.
    Passing on a parameter of the calling function by name sets it only
    when that parameter is itself set.  Callers are those of
    callerless_names; a call inside the definition itself is not one.
    """
    trees = {p: ast.parse(_read(p)) for p in SRC + OUTSIDE}
    signatures, scope_of = {}, {}
    for path in SRC:
        for key, pos, defaults, node in _signatures(trees[path]):
            signatures[key] = pos, defaults
            if isinstance(node, ast.FunctionDef):
                scope_of.update((sub, key) for sub in ast.walk(node))
    passed, forwards = set(), set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            scope = scope_of.get(call)
            for key in _targets(call, scope, signatures):
                if key == scope:
                    continue
                pos, defaults = signatures[key]
                pairs = [(kw.arg, kw.value) for kw in call.keywords]
                for name, arg in zip(pos, call.args):
                    if isinstance(arg, ast.Starred):
                        break
                    pairs.append((name, arg))
                for name, arg in pairs:
                    if name not in defaults or \
                            ast.unparse(arg) == defaults[name]:
                        continue
                    if isinstance(arg, ast.Name) and \
                            arg.id in signatures.get(scope, ((), {}))[1]:
                        forwards.add(((key, name), (scope, arg.id)))
                    else:
                        passed.add((key, name))
    while True:
        more = {to for to, src in forwards if src in passed} - passed
        if not more:
            break
        passed |= more
    return sorted(key + "." + name
                  for key, (_, defaults) in signatures.items()
                  if not any(part.startswith("_")
                             for part in key.split("."))
                  for name in defaults if (key, name) not in passed)


def test_every_public_name_has_a_caller():
    callerless = callerless_names()
    assert [q for q in callerless if q not in ALLOWED] == []
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert sorted(ALLOWED) == sorted(callerless)


def test_every_optional_parameter_has_a_caller():
    unset = unset_parameters()
    assert [q for q in unset if q not in ALLOWED_PARAMS] == []
    # an allowlisted parameter that gains a caller, or goes, leaves the list
    assert sorted(ALLOWED_PARAMS) == unset
