"""Batched star and global dual norms against the one-patch-at-a-time
PatchSpace oracle."""

import functools
import pathlib

import numpy as np
import pytest

from rdafem import estimator as est
from rdafem import galerkin as g
from rdafem import mesh as mesh_mod
from rdafem.dual_system import project_pi

import oracles
from memtrace import peak_bytes
from patch_oracle import PatchSpace

REPO = pathlib.Path(__file__).resolve().parent.parent
KAPPAS = (1e-8, 1.0, 1e4, 1e10)
RTOL = 1e-10
# Stars whose exact value is zero (by symmetry, or f = Pi f at depth 0) come
# out as rounding noise of about 1e-15 of the largest star value in both
# implementations; they are compared at this fraction of the largest value.
NOISE = 1e-13


def _random_nvb(seed=11, steps=6):
    rng = np.random.default_rng(seed)
    mesh = mesh_mod.unit_square_crisscross()
    for _ in range(steps):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 4),
                            replace=False)
        mesh = mesh_mod.bisect(mesh, marked)
    return mesh


def _meshes():
    out = [("square2", mesh_mod.unit_square_2tri()),
           ("crisscross", mesh_mod.unit_square_crisscross()),
           ("lshape", mesh_mod.l_shape())]
    for path in sorted((REPO / "meshes").glob("*.msh")):
        out.append((path.stem, mesh_mod.load_mesh(str(path))))
    out.append(("random-nvb", _random_nvb()))
    return out


MESHES = _meshes()


def _sources(mesh, kappa, rng):
    """The four kinds of data the surrogate sees, as (label, functional)."""
    out = []
    # layer1d is posed on the unit square; its data overflow for x < 0
    on_square = mesh.vertices.min() >= 0.0 and mesh.vertices.max() <= 1.0
    for preset in ("sinsin", "layer1d") if on_square else ("sinsin",):
        problem = g.make_problem(mesh, kappa, preset)
        interp = project_pi(mesh, kappa, problem.rhs)
        out.append((preset, g.data_minus(problem, interp)))
    cell = rng.standard_normal((mesh.n_elements, 3))
    face = np.where(mesh.interior_face, rng.standard_normal(mesh.n_faces), 0.0)
    piece = g.PiecewiseFunctional(mesh, cell, face)
    out.append(("piecewise", piece))
    field = g.ScalarField(lambda x, y: 0.5 * (np.exp(x) * np.cos(3.0 * y) - x * y))
    out.append(("mixed", g.SourceFunctional(mesh, field=field, piecewise=piece)))
    return out


def _assert_matches(got, ref, label):
    assert np.isfinite(ref).all() and np.isfinite(got).all(), label
    tol = RTOL * ref + NOISE * ref.max(initial=0.0)
    bad = np.nonzero(np.abs(got - ref) > tol)[0]
    assert bad.size == 0, (label, bad, got[bad], ref[bad])


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("label,mesh", MESHES, ids=[name for name, _ in MESHES])
def test_batched_matches_patch_space(label, mesh, depth):
    rng = np.random.default_rng(depth)
    vertices = np.arange(mesh.n_vertices)
    spaces = [PatchSpace(mesh, mesh.star(z), depth) for z in vertices]
    whole = PatchSpace(mesh, np.arange(mesh.n_elements), depth)
    for kappa in KAPPAS:
        sources = _sources(mesh, kappa, rng)
        for name, src in sources:
            got = est.discrete_dual_norm(mesh, vertices, src, kappa, depth)
            oracle = g.as_source(mesh, src)
            ref = np.array([space.dual_norm(oracle, kappa) for space in spaces])
            _assert_matches(got, ref, (label, depth, kappa, name))
            if depth == 0:
                # a boundary star has no free sub-vertex at depth zero
                assert (got[mesh.boundary_vertex] == 0.0).all()
        # the whole domain as one patch, for the data above plus the sinsin
        # field and its residual; the residual nearly vanishes at depth zero
        # (Galerkin orthogonality), so the values of one kappa are compared
        # as one set
        problem = g.make_problem(mesh, kappa, "sinsin")
        sources += [("field", problem.rhs),
                    ("residual", g.residual_source(problem, g.solve(problem)))]
        got = np.array([est.global_dual_norm(mesh, src, kappa, depth)
                        for _, src in sources])
        ref = np.array([whole.dual_norm(g.as_source(mesh, src), kappa)
                        for _, src in sources])
        _assert_matches(got, ref, (label, depth, kappa, "global"))
        if label == "square2" and depth == 0:
            # no vertex of two triangles is free
            assert (got == 0.0).all()


def test_corpus_covers_every_star_kind():
    kinds = set()
    for _, mesh in MESHES:
        for z in range(mesh.n_vertices):
            star = mesh.star(z)
            if not mesh.boundary_vertex[z]:
                kinds.add("interior")
            elif len(star) == 1:
                kinds.add("corner")
            else:
                kinds.add("boundary")
    assert kinds == {"interior", "boundary", "corner"}
    # some depth-3 star is too large for the dense solve
    big = max(len(PatchSpace(mesh, mesh.star(z), 3).free)
              for _, mesh in MESHES for z in range(mesh.n_vertices))
    assert big > est._DENSE_MAX


def test_vertex_order_subsets_and_batches(monkeypatch):
    mesh = _random_nvb()
    problem = g.make_problem(mesh, 30.0, "sinsin")
    src = g.data_minus(problem, project_pi(mesh, 30.0, problem.rhs))
    full = est.discrete_dual_norm(mesh, np.arange(mesh.n_vertices), src, 30.0)
    rng = np.random.default_rng(2)
    pick = rng.choice(mesh.n_vertices, size=17)  # with repeats, any order
    assert np.allclose(est.discrete_dual_norm(mesh, pick, src, 30.0), full[pick],
                       rtol=1e-13, atol=0.0)
    assert est.discrete_dual_norm(mesh, [], src, 30.0).shape == (0,)
    monkeypatch.setattr(est, "_CHUNK_ENTRIES", 1)  # one star per batch
    single = est.discrete_dual_norm(mesh, np.arange(mesh.n_vertices), src, 30.0)
    assert np.allclose(single, full, rtol=1e-13, atol=0.0)
    with pytest.raises(mesh_mod.MeshError, match="out of range"):
        est.discrete_dual_norm(mesh, [mesh.n_vertices], src, 30.0)


def test_boolean_vertex_mask_is_refused():
    # cast to int64, a mask would price star 0 or star 1 once per vertex
    mesh = mesh_mod.uniform_refine(mesh_mod.l_shape(), 2)
    src = g.make_problem(mesh, 1.0, "sinsin").rhs
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[-3:] = True
    with pytest.raises(TypeError, match=r"indices.*np\.flatnonzero\(mask\)"):
        est.discrete_dual_norm(mesh, mask, src, 1.0)
    assert est.discrete_dual_norm(mesh, np.flatnonzero(mask), src, 1.0).shape == (3,)


def _condensed_size(mesh, z, depth):
    """Unknowns of the star of z once its parents' interiors are condensed:
    the center if free, and the sub-vertices of the interior faces through it."""
    through = mesh.interior_face & (mesh.faces == z).any(axis=1)
    return int(not mesh.boundary_vertex[z]) + int(through.sum()) * (2**depth - 1)


def _special_stars():
    """(label, mesh, vertex, depth) for the stars the condensed path treats
    apart: a corner of one element, where nothing is left after condensing;
    boundary stars; depths without interior sub-vertices; and an interior
    star of valence 8, whose uncondensed system would be solved sparse.
    Depth 4 is the first depth of three levels of nested dissection."""
    square2, nvb = dict(MESHES)["square2"], _random_nvb()
    lshape = dict(MESHES)["lshape"]
    corner = int(np.flatnonzero(np.bincount(lshape.elements.ravel()) == 1)[0])
    edge = int(np.flatnonzero(nvb.boundary_vertex
                              & (np.bincount(nvb.elements.ravel()) > 2))[0])
    valence = np.bincount(nvb.elements.ravel())
    eight = int(np.flatnonzero(~nvb.boundary_vertex & (valence == 8))[0])
    inner = int(np.flatnonzero(~nvb.boundary_vertex)[0])
    return ([("corner", lshape, corner, d) for d in (2, 3, 4)]
            + [("boundary", nvb, edge, d) for d in (2, 3, 4)]
            + [("two triangles", square2, z, d) for z in (0, 1) for d in (0, 1)]
            + [("interior", nvb, inner, d) for d in (0, 1)]
            + [("valence 8", nvb, eight, d) for d in (3, 4)])


@pytest.mark.parametrize("label,mesh,z,depth", _special_stars(),
                         ids=[f"{c[0]}-{c[3]}" for c in _special_stars()])
def test_condensed_special_stars_match_patch_space(label, mesh, z, depth, monkeypatch):
    space = PatchSpace(mesh, mesh.star(z), depth)
    size = _condensed_size(mesh, z, depth)
    if label == "corner":
        # only interior sub-vertices are free: the value is the parents'
        # interior energies alone
        assert size == 0 < len(space.free)
    if label == "valence 8":
        assert size <= est._DENSE_MAX < len(space.free)
    rng = np.random.default_rng(z)
    for kappa in KAPPAS:
        for name, src in _sources(mesh, kappa, rng):
            with monkeypatch.context() as patch:
                # none of these condensed stars takes the sparse solve
                patch.setattr(est.spla, "spsolve", None)
                got = est.discrete_dual_norm(mesh, [z], src, kappa, depth)
            ref = np.array([space.dual_norm(g.as_source(mesh, src), kappa)])
            _assert_matches(got, ref, (label, depth, kappa, name))
            if depth == 0 and mesh.boundary_vertex[z]:
                assert got[0] == 0.0


def _perturbed_parents(rng):
    """A 16-element square with its interior vertices moved at random, so
    that the parents have unequal, some obtuse, angles."""
    mesh = mesh_mod.uniform_refine(mesh_mod.unit_square_crisscross(), 2)
    moved = mesh.vertices + np.where(mesh.boundary_vertex[:, None], 0.0,
                                     rng.uniform(-0.1, 0.1, mesh.vertices.shape))
    return mesh_mod.Mesh(moved, mesh.elements)


@pytest.mark.parametrize("depth", range(6))
def test_condense_matches_dense_elimination_of_the_template(depth):
    # nested dissection against one dense elimination of every template
    # vertex off the parent's boundary, per parent
    rng = np.random.default_rng(depth)
    mesh = _perturbed_parents(rng)
    ref = est._ref_blocks(depth, g.DEFAULT_DEGREE)
    blocks = oracles.template_blocks(depth)
    b = ref.boundary
    i = np.setdiff1d(np.arange(ref.n_nodes), b)
    assert len(b) == 3 * 2**depth and len(i) == ref.n_nodes - len(b)
    field = g.ScalarField(lambda x, y: 0.5 * (np.exp(x) * np.cos(3.0 * y) - x * y))
    face = np.where(mesh.interior_face, rng.standard_normal(mesh.n_faces), 0.0)
    piece = g.PiecewiseFunctional(mesh, rng.standard_normal((mesh.n_elements, 3)), face)
    parents = rng.permutation(mesh.n_elements)
    for kappa in KAPPAS:
        for name, src in (("field", g.SourceFunctional(mesh, field=field)),
                          ("piecewise", piece),
                          ("mixed", g.SourceFunctional(mesh, field=field, piecewise=piece))):
            weights = est._parent_weights(mesh, parents, kappa)
            loads = est._parent_loads(mesh, g.as_source(mesh, src), parents, ref)
            got = est._condense(ref, weights, loads)
            k = np.einsum("pk,kij->pij", weights, blocks)
            x = np.linalg.solve(k[:, i[:, None], i], np.concatenate(
                [k[:, i[:, None], b], loads[:, i, None]], axis=2))
            y = k[:, b[:, None], i] @ x
            want = (k[:, b[:, None], b] - y[..., :-1], loads[:, b] - y[..., -1],
                    (loads[:, i] * x[..., -1]).sum(axis=1))
            for part, a, w in zip(("schur", "loads", "energy"), got, want):
                assert a.shape == w.shape, (depth, part)
                tol = RTOL * np.abs(w) + NOISE * np.abs(w).max()
                assert (np.abs(a - w) <= tol).all(), (depth, kappa, name, part,
                                                     np.abs(a - w).max())


def test_one_star_per_batch_at_depth_3(monkeypatch):
    mesh = _random_nvb()
    problem = g.make_problem(mesh, 1e4, "sinsin")
    src = g.data_minus(problem, project_pi(mesh, 1e4, problem.rhs))
    vertices = np.arange(mesh.n_vertices)
    monkeypatch.setattr(est, "_CHUNK_ENTRIES", 2**40)  # every star in one batch
    batches = []
    star_batch = est._star_batch
    monkeypatch.setattr(est, "_star_batch",
                        lambda mesh, centers, *args: batches.append(len(centers))
                        or star_batch(mesh, centers, *args))
    whole = est.discrete_dual_norm(mesh, vertices, src, 1e4, depth=3)
    monkeypatch.setattr(est, "_CHUNK_ENTRIES", 1)
    single = est.discrete_dual_norm(mesh, vertices, src, 1e4, depth=3)
    assert batches == [mesh.n_vertices] + [1] * mesh.n_vertices
    assert np.allclose(single, whole, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("label", ["lshape_24", "random-nvb"])
def test_localize_check_local_norms_match_patch_space(label):
    mesh = dict(MESHES)[label]
    for kappa in (1.0, 1e4):
        problem = g.make_problem(mesh, kappa, "sinsin")
        U = g.solve(problem)
        rep = est.localize_check(problem, U, depth=2)
        src = g.residual_source(problem, U)
        ref = np.array([PatchSpace(mesh, mesh.star(z), 2)
                        .dual_norm(src, kappa) for z in range(mesh.n_vertices)])
        _assert_matches(rep.local_norms, ref, (label, kappa))


def test_oscillation_memory_bounded_across_mesh_sizes():
    # stars go through in batches of bounded size: the peak of the temporary
    # memory stays under one bound from 2^11 to 2^13 elements (an unbatched
    # pass needs several times this bound already at 2^11)
    bound = 5 * 2**20
    peaks = {}
    # the template caches fill on a small mesh: the values of a mesh are
    # cached on it, so a second call there would price nothing
    small = g.make_problem(mesh_mod.unit_square_2tri(), 1.0, "sinsin")
    est.all_oscillations(small, project_pi(small.mesh, 1.0, small.rhs), depth=2)
    mesh = mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 10)
    for n_elements in (2**11, 2**13):
        if mesh.n_elements < n_elements:
            mesh = mesh_mod.uniform_refine(mesh, 2)
        assert mesh.n_elements == n_elements
        problem = g.make_problem(mesh, 1.0, "sinsin")
        interp = project_pi(mesh, 1.0, problem.rhs)
        peaks[n_elements], _ = peak_bytes(
            lambda: est.all_oscillations(problem, interp, depth=2))
    assert max(peaks.values()) < bound, peaks


@pytest.mark.parametrize("depth", [5, 6])
def test_deep_stars_match_patch_space_in_bounded_memory(depth, monkeypatch):
    # the CLI allows depths up to 6, where an interior star of valence 8 has
    # 1 + 8 * 63 + 8 * 1953 = 16129 free sub-vertices: neither its system
    # (2 GB dense) nor the reference blocks may be held dense
    bound = 64 * 2**20
    nvb = _random_nvb()
    valence = np.bincount(nvb.elements.ravel())
    inner = np.nonzero(~nvb.boundary_vertex)[0]
    crisscross = dict(MESHES)["crisscross"]
    cases = [(crisscross, np.arange(crisscross.n_vertices)),
             (nvb, inner[np.argsort(-valence[inner], kind="stable")[:2]])]
    assert valence[cases[1][1]].min() == 8
    rng = np.random.default_rng(depth)
    for mesh, vertices in cases:
        spaces = [PatchSpace(mesh, mesh.star(z), depth) for z in vertices]
        for name, src in _sources(mesh, 1.0, rng):
            if name not in ("sinsin", "mixed"):
                continue
            # fresh caches: the peak includes building the reference blocks
            monkeypatch.setattr(est, "_template", functools.cache(est._Template))
            monkeypatch.setattr(est, "_ref_blocks", functools.cache(est._RefBlocks))
            peak, got = peak_bytes(
                lambda: est.discrete_dual_norm(mesh, vertices, src, 1.0, depth))
            assert peak < bound, (depth, name, peak)
            oracle = g.as_source(mesh, src)
            ref = np.array([space.dual_norm(oracle, 1.0) for space in spaces])
            _assert_matches(got, ref, (depth, name))
