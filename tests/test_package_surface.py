"""Every top-level function and class of the package, and every method and
property of its classes, is used or documented.

A name that appears nowhere in `src/rdafem` outside its own definition, nor
in README.md, has no production caller: a test-only oracle belongs in
`tests/oracles.py`, and dead code is deleted.  The package's `__getattr__`
and `__dir__`, and dunder methods, are called by Python itself.

Per-vertex sums go through `np.bincount` alone, so every one adds in the
order of its indices: the package holds no `np.add.at` scatter.  The hot
layers gather vertex coordinates with `take`, never by advanced indexing.
"""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "rdafem"
EXEMPT = {("__init__.py", "__getattr__"), ("__init__.py", "__dir__")}


def unused_names(pattern, members):
    """module:name of the definitions whose name, as `pattern` matches it,
    appears neither in README.md nor in the package outside the definition."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readme = (REPO / "README.md").read_text()
    unused = []
    for module, text in sources.items():
        lines = text.splitlines(keepends=True)
        for owner, node in members(ast.parse(text)):
            # the module without the definition itself, docstring included
            rest = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = [rest, readme] + [t for m, t in sources.items() if m != module]
            used = re.compile(pattern.format(re.escape(node.name)))
            if not any(used.search(t) for t in others):
                unused.append(f"{module}:{owner}{node.name}")
    return unused


def test_every_top_level_name_is_used_or_documented():
    def top_level(tree):
        return [("", node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]

    unused = unused_names(r"\b{}\b", top_level)
    assert [name for name in unused
            if tuple(name.split(":")) not in EXEMPT] == []


def test_every_method_and_property_is_read_as_an_attribute():
    # `.name`, so that the same word in a docstring does not count as a use
    def class_members(tree):
        return [(cls.name + ".", node)
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))]

    assert unused_names(r"\.{}\b", class_members) == []


def test_no_add_at_scatter_in_the_package():
    uses = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"\badd\.at\b", line)]
    assert uses == []


def _basic(index):
    """Whether a subscript is basic: slices, integer literals, None and ..."""
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return all(isinstance(part, ast.Slice)
               or (isinstance(part, ast.UnaryOp) and isinstance(part.op, ast.USub)
                   and _basic(part.operand))
               or (isinstance(part, ast.Constant)
                   and (part.value is None or part.value is Ellipsis
                        or type(part.value) is int))
               for part in parts)


def test_vertex_coordinates_are_gathered_with_take():
    # advanced indexing of the (nv, 2) coordinates takes NumPy's slow path
    # for rows; `vertices.take(idx, axis=0)` gives the same rows
    uses = [f"{name}:{node.lineno}"
            for name in ("mesh.py", "galerkin.py", "dual_system.py", "estimator.py")
            for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
            if isinstance(node, ast.Subscript) and not _basic(node.slice)
            and "vertices" in (getattr(node.value, "id", None),
                               getattr(node.value, "attr", None))]
    assert uses == []
