"""The mesh-file path: the whole-block reader against a line-by-line oracle,
save_mesh against a row-by-row writer, non-finite coordinates and the
duplicate checks of the audit."""

import pathlib
import warnings

import numpy as np
import pytest

from rdafem import cli
from rdafem import mesh as mesh_mod
from rdafem.mesh import (Mesh, MeshError, l_shape, load_mesh, save_mesh,
                         signed_areas, uniform_refine, unit_square_2tri)

REPO = pathlib.Path(__file__).resolve().parent.parent
MESH_FILES = sorted((REPO / "meshes").glob("*.msh"))


def load_mesh_by_lines(path):
    """Reference reader: the line-by-line parser load_mesh replaced."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    lines = []
    for ln, text in enumerate(raw.splitlines(), start=1):
        text = text.split("#", 1)[0].strip()
        if text:
            lines.append((ln, text))
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    try:
        nv, ne = (int(tok) for tok in lines[0][1].split())
    except ValueError as exc:
        raise MeshError(f"{path}:{lines[0][0]}: header must be 'nv ne'") from exc
    if len(lines) != 1 + nv + ne:
        raise MeshError(
            f"{path}: expected {1 + nv + ne} content lines for nv={nv} ne={ne}, "
            f"found {len(lines)}"
        )
    vertices = np.empty((nv, 2))
    for i in range(nv):
        ln, text = lines[1 + i]
        toks = text.split()
        if len(toks) != 2:
            raise MeshError(f"{path}:{ln}: vertex line must be 'x y'")
        try:
            vertices[i] = [float(toks[0]), float(toks[1])]
        except ValueError as exc:
            raise MeshError(f"{path}:{ln}: bad vertex coordinates") from exc
    elements = np.empty((ne, 3), dtype=np.int64)
    for i in range(ne):
        ln, text = lines[1 + nv + i]
        toks = text.split()
        if len(toks) != 3:
            raise MeshError(f"{path}:{ln}: element line must be 'i j k'")
        try:
            elements[i] = [int(toks[0]), int(toks[1]), int(toks[2])]
        except ValueError as exc:
            raise MeshError(f"{path}:{ln}: bad element indices") from exc
    if (elements < 0).any() or (elements >= nv).any():
        bad = int(np.nonzero(((elements < 0) | (elements >= nv)).any(axis=1))[0][0])
        raise MeshError(f"{path}: element {bad} references a vertex out of range")
    areas = signed_areas(vertices[elements])
    if (areas <= 0).any():
        bad = int(np.nonzero(areas <= 0)[0][0])
        raise MeshError(f"{path}: element {bad} is not counter-clockwise")
    mesh = Mesh(vertices, elements, ref_edge_policy="longest")
    mesh.audit()
    return mesh


def save_mesh_by_rows(mesh, path):
    """Reference writer: one write per row, as save_mesh did."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.elements:
            fh.write(f"{i} {j} {k}\n")


def outcome(reader, path):
    """(vertices, elements) read, or the MeshError message."""
    try:
        mesh = reader(str(path))
    except MeshError as exc:
        return str(exc)
    return mesh.vertices, mesh.elements


def assert_same_outcome(path):
    new, old = outcome(load_mesh, path), outcome(load_mesh_by_lines, path)
    if isinstance(old, str):
        assert new == old
    else:
        assert not isinstance(new, str), new
        assert np.array_equal(new[0], old[0])
        assert np.array_equal(new[1], old[1])
        assert new[1].dtype == np.int64
    return new


SQUARE = "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"

# header line, vertex lines, element lines of SQUARE in decorated spellings
DECORATED = {
    "leading_comments": "# a mesh\n#   of the square\n" + SQUARE,
    "trailing_comments": "4 2  # nv ne\n0 0 # origin\n1 0\n1 1#x\n0 1\n"
                         "0 1 2 # first\n0 2 3#\n",
    "blank_lines": "\n4 2\n\n0 0\n   \n1 0\n1 1\n0 1\n\n\n0 1 2\n0 2 3\n\n",
    "tabs": "4\t2\n0\t0\n\t1 \t0\n1\t1\t\n0 1\n0\t1\t2\n0 2\t3\n",
    "crlf": SQUARE.replace("\n", "\r\n"),
    "leading_plus": "+4 +2\n+0 +0\n+1.0 0\n1 +1e0\n+0 1\n+0 +1 +2\n0 2 +3\n",
    "no_final_newline": SQUARE.rstrip("\n"),
    "exponents_and_signs": "4 2\n-0.0 0e0\n1E0 -0\n.1e1 1.\n0 10e-1\n0 1 2\n0 2 3\n",
}

# malformed files; every line number differs from the content-line index
MALFORMED = {
    "short_vertex": "# c\n4 2\n0 0\n\n1\n1 1\n0 1\n0 1 2\n0 2 3\n",
    "long_vertex": "# c\n4 2\n0 0\n\n1 0 0\n1 1\n0 1\n0 1 2\n0 2 3\n",
    "non_numeric_vertex": "# c\n4 2\n0 0\n\n1 zebra\n1 1\n0 1\n0 1 2\n0 2 3\n",
    "long_and_non_numeric_vertex": "4 2\n0 0\n1 zebra 3\n1 1\n0 1\n0 1 2\n0 2 3\n",
    "float_in_element": "4 2\n0 0\n1 0\n1 1\n0 1\n\n0 1 2\n# c\n0 2.0 3\n",
    "exponent_in_element": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3e0\n",
    "short_element": "4 2\n0 0\n1 0\n1 1\n0 1\n# c\n0 1\n0 2 3\n",
    "long_element": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n\n0 2 3 1\n",
    "non_numeric_element": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 two 3\n",
    "every_element_long": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n0 2 3 1\n",
    "every_vertex_long": "4 2\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 1 2\n0 2 3\n",
    "bad_header_words": "# c\nx y\n",
    "bad_header_one_count": "\n4\n0 0\n",
    "bad_header_three_counts": "4 2 1\n",
    "bad_header_float": "4.0 2\n",
    "too_few_lines": SQUARE.rsplit("\n", 2)[0] + "\n",
    "too_many_lines": SQUARE + "0 1 3\n",
    "empty": "# nothing here\n\n",
    "out_of_range": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 4\n",
    "negative_index": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 -2 3\n",
    "clockwise": "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 3 2\n",
    "duplicate_element": "3 2\n0 0\n1 0\n0 1\n0 1 2\n1 2 0\n",
}


@pytest.mark.parametrize("path", MESH_FILES, ids=lambda p: p.name)
def test_reader_matches_oracle_on_mesh_files(path):
    assert_same_outcome(path)


def test_reader_matches_oracle_on_saved_mesh(tmp_path):
    path = tmp_path / "saved.msh"
    save_mesh(uniform_refine(l_shape(), 4), str(path))
    assert_same_outcome(path)


@pytest.mark.parametrize("name", sorted(DECORATED))
def test_reader_matches_oracle_on_decorated_files(tmp_path, name):
    path = tmp_path / f"{name}.msh"
    path.write_bytes(DECORATED[name].encode())
    vertices, _ = assert_same_outcome(path)
    assert len(vertices) == 4


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_reader_matches_oracle_on_malformed_files(tmp_path, name):
    path = tmp_path / f"{name}.msh"
    path.write_text(MALFORMED[name])
    message = assert_same_outcome(path)
    assert isinstance(message, str)


@pytest.mark.parametrize("token", ["1_0", "١"])
def test_reader_refuses_what_only_python_numbers_accept(tmp_path, token):
    # Python's int and float take digit-group underscores and non-ASCII
    # digits; the reader takes the tokens np.loadtxt takes and refuses these
    vertex = tmp_path / "v.msh"
    vertex.write_text(SQUARE.replace("1 0\n", f"{token} 0\n", 1), encoding="utf-8")
    assert not isinstance(outcome(load_mesh_by_lines, vertex), str)
    with pytest.raises(MeshError, match=r"v\.msh:3: bad vertex coordinates$"):
        load_mesh(str(vertex))
    element = tmp_path / "e.msh"
    element.write_text(SQUARE.replace("0 2 3", f"0 {token.replace('1', '2')} 3"),
                       encoding="utf-8")
    with pytest.raises(MeshError, match=r"e\.msh:7: bad element indices$"):
        load_mesh(str(element))
    header = tmp_path / "h.msh"
    header.write_text(SQUARE.replace("4 2", f"4 {token.replace('1', '2')}", 1),
                      encoding="utf-8")
    with pytest.raises(MeshError, match=r"h\.msh:1: header must be 'nv ne'$"):
        load_mesh(str(header))


def test_reader_refuses_negative_counts(tmp_path):
    path = tmp_path / "neg.msh"
    path.write_text("-1 2\n0 0\n0 1 2\n")
    with pytest.raises(MeshError, match=r"neg\.msh:1: header must be 'nv ne'$"):
        load_mesh(str(path))


def test_save_mesh_bytes_match_row_writer(tmp_path):
    mesh = uniform_refine(l_shape(), 6)
    new, old = tmp_path / "new.msh", tmp_path / "old.msh"
    save_mesh(mesh, str(new))
    save_mesh_by_rows(mesh, str(old))
    assert new.read_bytes() == old.read_bytes()
    back = load_mesh(str(new))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.elements, mesh.elements)


# -- non-finite coordinates ---------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_refuses_non_finite_vertex(bad):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    vertices[2, 1] = bad
    with pytest.raises(MeshError, match=r"^vertex 2 has non-finite coordinates"):
        Mesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
def test_load_mesh_names_the_non_finite_line(tmp_path, token):
    path = tmp_path / "nf.msh"
    path.write_text(f"# square\n4 2\n0 0\n1 0\n\n1 {token}\n0 1\n0 1 2\n0 2 3\n")
    with pytest.raises(MeshError,
                       match=r"nf\.msh:6: vertex 2 has non-finite coordinates"):
        load_mesh(str(path))


def test_mesh_refuses_no_elements():
    with pytest.raises(MeshError, match=r"^mesh has no elements$"):
        Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize("text", ["0 0\n", "3 0\n0 0\n1 0\n0 1\n"],
                         ids=["empty", "vertices_only"])
def test_load_mesh_refuses_no_elements(tmp_path, text):
    path = tmp_path / "none.msh"
    path.write_text(text)
    with pytest.raises(MeshError, match=r"none\.msh: mesh has no elements$"):
        load_mesh(str(path))


def test_cli_solve_refuses_non_finite_mesh(tmp_path, capsys):
    path = tmp_path / "nf.msh"
    path.write_text(SQUARE.replace("1 1\n", "1 nan\n"))
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--mesh", str(path), "--out", str(tmp_path / "out")])
    assert info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad mesh" in err and "non-finite" in err
    assert not (tmp_path / "out" / "solution.csv").exists()


# -- the audit's duplicate checks -----------------------------------------------


def two_triangles_meeting_at(corner):
    """Two triangles touching at the origin through two distinct vertices,
    the second one at `corner`."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                         corner, [-1.0, 0.0], [0.0, -1.0]])
    return Mesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))


def test_audit_catches_duplicate_vertex_coordinates():
    with pytest.raises(MeshError, match=r"^duplicate vertex coordinates$"):
        two_triangles_meeting_at([0.0, 0.0]).audit()


def test_audit_counts_signed_zeros_as_one_point():
    for corner in ([-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]):
        with pytest.raises(MeshError, match=r"^duplicate vertex coordinates$"):
            two_triangles_meeting_at(corner).audit()


def test_audit_catches_rotated_duplicate_element():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 1, 2], [1, 2, 0]]), ref_edge_policy="asis")
    with pytest.raises(MeshError, match=r"^duplicate element$"):
        m.audit()


def test_areas_are_those_of_the_stored_corners(tmp_path):
    # load_mesh hands its areas to the Mesh, which recomputes only those of
    # rotated triples; every array must equal that of a fresh build
    # a sheared copy, so that areas round and the corner order can matter
    refined = uniform_refine(l_shape(), 3)
    base = Mesh(refined.vertices @ np.array([[1.0, 0.3], [0.1, 0.9]]) + 0.123,
                refined.elements)
    shift = np.arange(base.n_elements)[:, None] % 3
    stored = np.take_along_axis(base.elements, (np.arange(3) + shift) % 3, axis=1)
    turned = tmp_path / "turned.msh"
    with open(turned, "w") as fh:
        fh.write(f"{base.n_vertices} {base.n_elements}\n")
        fh.writelines(f"{x!r} {y!r}\n" for x, y in base.vertices.tolist())
        fh.writelines(f"{i} {j} {k}\n" for i, j, k in stored.tolist())
    # two in three triples are stored turned, and the reader turns them back
    assert np.array_equal(load_mesh(str(turned)).elements, base.elements)
    for path in [*MESH_FILES, turned]:
        mesh = load_mesh(str(path))
        fresh = Mesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")
        assert np.array_equal(mesh.areas, signed_areas(mesh.vertices[mesh.elements]))
        for name, value in vars(fresh).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(mesh, name), value), name
        # the face geometry is built on its first read, so not in vars
        for name in ("normals", "face_len", "h_face"):
            assert np.array_equal(getattr(mesh, name), getattr(fresh, name)), name


# -- the whole-file path for plain files ------------------------------------------


def decorated_copies(text):
    """(label, copy of text) with a comment line, a blank line or a line of
    blanks before each line, or a trailing comment or CRLF on each line."""
    lines = text.splitlines(keepends=True)
    for i in range(len(lines) + 1):
        for extra in ("# c\n", "\n", " \t \n"):
            yield f"{extra!r} before line {i + 1}", "".join(lines[:i] + [extra] + lines[i:])
    for i, line in enumerate(lines):
        body = line.rstrip("\n")
        for end in (" # c\n", "\r\n"):
            yield (f"{end!r} ending line {i + 1}",
                   "".join(lines[:i] + [body + end] + lines[i + 1:]))


@pytest.mark.parametrize("name", ["square"] + sorted(MALFORMED))
def test_comments_blanks_and_crlf_anywhere_match_the_oracle(tmp_path, name):
    text = SQUARE if name == "square" else MALFORMED[name]
    path = tmp_path / "decorated.msh"
    for label, copy in decorated_copies(text):
        path.write_bytes(copy.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = outcome(load_mesh, path)
        old = outcome(load_mesh_by_lines, path)
        if isinstance(old, str):
            assert new == old, label
        else:
            assert not isinstance(new, str), (label, new)
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1]), label


def test_plain_files_are_not_scanned_line_by_line(tmp_path, monkeypatch):
    def scan(path, data):
        raise AssertionError("a plain file was scanned line by line")

    path = tmp_path / "saved.msh"
    save_mesh(uniform_refine(l_shape(), 4), str(path))
    monkeypatch.setattr(mesh_mod, "_read_lines", scan)
    assert_same_outcome(path)


@pytest.mark.parametrize("block, bad, message", [
    ("vertex", "0.5 0.25 0.125", "vertex line must be 'x y'"),
    ("vertex", "0.5 1e400", "vertex 4000 has non-finite coordinates (0.5, inf)"),
    ("element", "0 2.5 3", "bad element indices"),
    ("element", "0 1 2 3", "element line must be 'i j k'"),
    ("element", "0 two 3", "bad element indices"),
])
def test_bad_line_deep_in_a_long_file_is_named(tmp_path, block, bad, message):
    # the first four are plain: the whole-file parse fails, and the line
    # scan names the line
    mesh = uniform_refine(unit_square_2tri(), 12)
    path = tmp_path / "long.msh"
    save_mesh(mesh, str(path))
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) >= 10**4
    ln = 4002 if block == "vertex" else len(lines) - 100
    lines[ln - 1] = bad + "\n"
    path.write_text("".join(lines))
    assert outcome(load_mesh, path) == f"{path}:{ln}: {message}"
    if "non-finite" not in message:  # the oracle reads inf as a coordinate
        assert_same_outcome(path)


@pytest.mark.parametrize("text", ["0 0\n", "3 0\n0 0\n1 0\n0 1\n", "3 0\n0 0\n1 0\n0 1",
                                  "3 0\n# c\n0 0\n1 0\n0 1\n"])
def test_load_mesh_with_no_elements_warns_nothing(tmp_path, text):
    path = tmp_path / "none.msh"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=r"none\.msh: mesh has no elements$"):
            load_mesh(str(path))
