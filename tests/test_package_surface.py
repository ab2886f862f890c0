"""Every top-level function and class of the package is used or documented.

A name that appears nowhere in `src/rdafem` outside its own definition, nor
in README.md, has no production caller: a test-only oracle belongs in
`tests/oracles.py`, and dead code is deleted.  The package's `__getattr__`
and `__dir__` are called by Python itself.
"""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "rdafem"
EXEMPT = {("__init__.py", "__getattr__"), ("__init__.py", "__dir__")}


def test_every_top_level_name_is_used_or_documented():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readme = (REPO / "README.md").read_text()
    unused = []
    for module, text in sources.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or (module, node.name) in EXEMPT):
                continue
            # the module without the definition itself, docstring included
            rest = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = [rest, readme] + [t for m, t in sources.items() if m != module]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in others):
                unused.append(f"{module}:{node.name}")
    assert unused == []
