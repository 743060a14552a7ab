"""Every public name in deploylab has a caller.

Lists each public top-level function and class in src/deploylab/*.py,
and each public method of such a class, and fails on a name that no
caller mentions.  Callers are src/ outside the name's own definition,
perfbench/ and the acceptance criteria; a re-export in __init__.py is
not a caller.  A method counts only as an attribute (`.name`).
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = sorted(glob.glob(os.path.join(ROOT, "src", "deploylab", "*.py")))

# callerless names that stay, each with its reason
ALLOWED = {
    "check_stability": "polyorders API that exact linear verdicts extend",
    "check_variational": "polyorders API that exact linear verdicts extend",
    "drifting_maximality_falsifier":
        "polyorders API that exact linear verdicts extend",
    "evaluate_relation": "polyorders API that exact linear verdicts extend",
    "StabilityVerdict.confirmed": "the verdict reading of that API",
    "PayoffOperator.from_callback":
        "the only way to build a nonlinear payoff operator",
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
    outside = "\n".join(_read(p) for p in sorted(glob.glob(
        os.path.join(ROOT, "perfbench", "*.py"))) +
        [os.path.join(ROOT, "tests", "test_acceptance.py")])
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


def test_every_public_name_has_a_caller():
    callerless = callerless_names()
    assert [q for q in callerless if q not in ALLOWED] == []
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert sorted(ALLOWED) == sorted(callerless)
