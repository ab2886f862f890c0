"""P1 Galerkin discretization of -div(grad u) + kappa^2 u = f with u = 0 on
the boundary.

Besides assembly and the preconditioned CG solve, this module owns the two
functional representations everything downstream is built on:

* `PiecewiseFunctional` -- a distribution made of a P1 volume density per
  element plus a constant line source per interior face.  The operator image
  of a discrete function is exactly of this form (volume part kappa^2 V,
  line part the normal-derivative jumps), and so are projected loads.
* `SourceFunctional` -- an optional analytic field plus an optional
  PiecewiseFunctional, enough to express residuals f - L(U) and oscillation
  terms f - Pf (`data_minus`) without committing to quadrature at
  construction time.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .mesh import MeshError, bary_grads, cached_rows, row_blocks
from .quadrature import DEFAULT_DEGREE, node_sums


class SolverError(Exception):
    """Raised when the linear solver fails or a result is not finite."""


def check_finite(value, name="value"):
    """Raise SolverError naming the first NaN or infinity in nested dicts,
    lists, arrays and numbers (by the dict key above it); the rest passes."""
    if isinstance(value, dict):
        for key, item in value.items():
            check_finite(item, key)
    elif isinstance(value, (list, tuple)):
        for item in value:
            check_finite(item, name)
    elif isinstance(value, (float, np.floating, np.ndarray)) and not np.isfinite(value).all():
        raise SolverError(f"non-finite {name}")


class ScalarField:
    """Analytic scalar function, vectorized over point arrays.

    `value(x, y)` returns an array; `grad(x, y)`, when available, returns the
    pair (d/dx, d/dy) of arrays.  The data f of a preset also has a
    `kernel(x, y)`, which evaluates f, u, du/dx and du/dy at one set of
    nodes in one call, sharing their common factors; it is the one statement
    of the exact solution u (`exact`), whose value and grad are read from
    it.  `value` gives the bits of the kernel's f at the cost of f alone.
    """

    def __init__(self, value, grad=None, kernel=None):
        self.value, self.grad, self.kernel = value, grad, kernel
        self.exact = None if kernel is None else ScalarField(
            lambda x, y: kernel(x, y)[1], lambda x, y: kernel(x, y)[2:])


class DiscreteFunction:
    """P1 function given by vertex values (boundary entries zero for members
    of the homogeneous space).

    The values are a copy of those given.  The element gradients and the
    face jumps (`grad_jumps`) are computed once and cached; from the first
    of them on the values are read-only, so neither can go stale.
    """

    def __init__(self, mesh, values):
        values = np.array(values, dtype=float)
        if values.shape != (mesh.n_vertices,):
            raise ValueError("values must have one entry per vertex")
        self.mesh = mesh
        self._values = values
        self._gradients = None
        self._jumps = None

    # set by `solve`: {"cg_iterations", "cg_residual", "preconditioner"}
    solver_stats = None

    @property
    def values(self):
        """(nv,) vertex values."""
        return self._values

    def element_gradients(self):
        """(ne, 2) constant gradient per element, read-only."""
        if self._gradients is None:
            self._values.setflags(write=False)
            bary, elements = element_bary_grads(self.mesh), self.mesh.elements
            grads = np.empty((len(elements), 2))
            for block in row_blocks(len(elements), 6):
                grads[block] = np.einsum("ei,eix->ex", self._values.take(elements[block]),
                                         bary[block])
            grads.setflags(write=False)
            self._gradients = grads
        return self._gradients


# -- functionals --------------------------------------------------------------


class PiecewiseFunctional:
    """P1 volume density per element plus constant line sources on interior
    faces.

    `cell_density` is (ne, 3): barycentric coefficients of the density on each
    element.  `face_density` is (nf,): the strength of the line source on each
    face; boundary entries must be zero (test functions vanish there).
    """

    def __init__(self, mesh, cell_density, face_density):
        cell_density = np.asarray(cell_density, dtype=float)
        face_density = np.asarray(face_density, dtype=float)
        if cell_density.shape != (mesh.n_elements, 3):
            raise ValueError("cell_density must be (ne, 3)")
        if face_density.shape != (mesh.n_faces,):
            raise ValueError("face_density must be (nf,)")
        if face_density[~mesh.interior_face].any():
            raise ValueError("line sources on boundary faces are not representable")
        self.mesh = mesh
        self.cell_density = cell_density
        self.face_density = face_density

    def __sub__(self, other):
        self._check(other)
        return PiecewiseFunctional(self.mesh, self.cell_density - other.cell_density,
                                   self.face_density - other.face_density)

    def __mul__(self, scalar):
        return PiecewiseFunctional(self.mesh, scalar * self.cell_density,
                                   scalar * self.face_density)

    __rmul__ = __mul__

    def _check(self, other):
        if other.mesh is not self.mesh:
            raise ValueError("functionals live on different meshes")

    def coeff_scale(self):
        """Largest coefficient magnitude (for scale-relative comparisons)."""
        s = float(np.abs(self.cell_density).max(initial=0.0))
        return max(s, float(np.abs(self.face_density).max(initial=0.0)))

    def cell_norms_sq(self):
        """||density||_T^2 per element (exact for the P1 representation)."""
        return _p1_mass_sq(self.mesh.areas, self.cell_density)

    def face_norms_sq(self):
        """||line source||_F^2 = density^2 |F| per face."""
        return self.face_density**2 * self.mesh.face_len

    def pair_hats(self):
        """Pairings with every nodal hat function, (nv,): one sum per vertex,
        over its elements in element order, then the faces at either end."""
        mesh = self.mesh
        a = self.cell_density
        contrib = (mesh.areas[:, None] / 12.0) * (a + a.sum(axis=1, keepdims=True))
        idx = np.nonzero(self.face_density)[0]
        half = 0.5 * self.face_density[idx] * mesh.face_len[idx]
        return np.bincount(np.concatenate([mesh.elements.ravel(), mesh.faces[idx, 0],
                                           mesh.faces[idx, 1]]),
                           np.concatenate([contrib.ravel(), half, half]),
                           minlength=mesh.n_vertices)


class SourceFunctional:
    """<field, v> + <piecewise, v>, either part optional."""

    def __init__(self, mesh, field=None, piecewise=None):
        if piecewise is not None and piecewise.mesh is not mesh:
            raise ValueError("piecewise part lives on a different mesh")
        self.mesh = mesh
        self.field = field
        self.piecewise = piecewise

    def pair_hats(self, quad_degree=DEFAULT_DEGREE):
        out = np.zeros(self.mesh.n_vertices)
        if self.field is not None:
            out += field_load(self.mesh, self.field, quad_degree)
        if self.piecewise is not None:
            out += self.piecewise.pair_hats()
        return out


def as_source(mesh, g):
    """A field, PiecewiseFunctional or SourceFunctional as a SourceFunctional."""
    if isinstance(g, SourceFunctional):
        return g
    if isinstance(g, PiecewiseFunctional):
        return SourceFunctional(mesh, piecewise=g)
    return SourceFunctional(mesh, field=g)


def data_minus(problem, piecewise):
    """The problem's data f minus a PiecewiseFunctional, as a SourceFunctional."""
    if isinstance(problem.rhs, PiecewiseFunctional):
        return SourceFunctional(problem.mesh, piecewise=problem.rhs - piecewise)
    return SourceFunctional(problem.mesh, field=problem.rhs, piecewise=-1.0 * piecewise)


def residual_source(problem, U):
    """The residual f - L(U) as a SourceFunctional."""
    return data_minus(problem, apply_operator(problem.mesh, problem.kappa, U))


# -- problems and presets ------------------------------------------------------


class Problem:
    """Mesh, reaction coefficient and data of one boundary value problem."""

    def __init__(self, mesh, kappa, rhs):
        self.mesh = mesh
        self.kappa = float(kappa)
        if not (0.0 < self.kappa and self.kappa * self.kappa < np.inf):
            raise ValueError(f"kappa must be positive and finite, with a finite "
                             f"square, got {kappa!r}")
        self.rhs = rhs

    @property
    def exact(self):
        """The exact solution the data state (`ScalarField.exact`), or None."""
        return getattr(self.rhs, "exact", None)

    def on_mesh(self, mesh):
        """Same problem posed on another mesh (for refinement loops)."""
        if isinstance(self.rhs, PiecewiseFunctional):
            raise TypeError("a mesh-bound right-hand side cannot move to a new mesh")
        return Problem(mesh, self.kappa, self.rhs)


def _sinsin(kappa):
    pi, c = np.pi, 2.0 * np.pi**2 + kappa**2

    def kernel(x, y):
        sx, cx, sy, cy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)
        return c * sx * sy, sx * sy, pi * cx * sy, pi * sx * cy

    f = ScalarField(lambda x, y: c * np.sin(pi * x) * np.sin(pi * y), kernel=kernel)
    return f


def _const1(kappa):
    f = ScalarField(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    return f


def _layer1d(kappa):
    # u = (1 - cosh(kappa(x-1/2))/cosh(kappa/2)) sin(pi y), written with
    # decaying exponentials so kappa = 1e4 does not overflow
    pi, k = np.pi, float(kappa)
    scale = 1.0 + np.exp(-k)

    def decays(x):
        # exp(-k(1-x)) and exp(-k x); below -746 the exponential is exactly
        # 0.0, and np.exp is an order of magnitude slower there
        x = np.asarray(x, dtype=float)
        return [np.exp(arg, out=np.zeros_like(arg), where=arg > -746.0)
                for arg in (-k * (1.0 - x), -k * x)]

    def kernel(x, y):
        left, right = decays(x)
        rest, sy, cy = 1.0 - (left + right) / scale, np.sin(pi * y), np.cos(pi * y)
        return ((k**2 + pi**2 * rest) * sy, rest * sy,
                -(k * (left - right) / scale) * sy, pi * rest * cy)

    # f alone: the decays are freed once summed, and NumPy reuses the buffer
    # of every unnamed temporary, so f holds no more arrays than it needs
    f = ScalarField(lambda x, y: (k**2 + pi**2 * (1.0 - np.add(*decays(x)) / scale))
                    * np.sin(pi * y), kernel=kernel)
    return f


PRESETS = {"sinsin": _sinsin, "const1": _const1, "layer1d": _layer1d}


@functools.lru_cache(maxsize=64)
def _preset_fields(preset, kappa):
    """The data of a preset at a float kappa, the same object per pair: the
    rows cached on a mesh are keyed by the identity of the field."""
    return PRESETS[preset](kappa)


def make_problem(mesh, kappa, preset):
    """Build a Problem from a named right-hand-side preset.

    The same (preset, float kappa) gives the same field objects, so a
    problem posed afresh on a bisected mesh takes the rows its parent mesh
    cached for them, as `Problem.on_mesh` does.  `layer1d` is posed on the
    unit square, and its data overflow outside it, so that preset refuses
    (MeshError) a mesh with a vertex outside [0, 1]^2.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset '{preset}' (have: {', '.join(sorted(PRESETS))})")
    if preset == "layer1d":
        outside = np.nonzero(((mesh.vertices < 0.0) | (mesh.vertices > 1.0)).any(axis=1))[0]
        if outside.size:
            x, y = mesh.vertices.take(outside[0], axis=0)
            raise MeshError(f"preset 'layer1d' is posed on the unit square, but vertex "
                            f"{outside[0]} at ({x:g}, {y:g}) lies outside [0, 1]^2")
    problem = Problem(mesh, kappa, None)  # checks kappa first
    problem.rhs = _preset_fields(preset, problem.kappa)
    return problem


# -- assembly and solve --------------------------------------------------------


class GalerkinSystem:
    """Assembled stiffness-plus-scaled-mass operator on the free (interior)
    vertices `free`: `matrix` is symmetric positive definite."""

    def __init__(self, mesh, kappa, matrix, free):
        self.mesh = mesh
        self.kappa = kappa
        self.matrix = matrix
        self.free = free


def element_bary_grads(mesh):
    """`bary_grads` of every element, (ne, 3, 2), read-only, cached on the
    mesh (`cached_rows`): a bisected mesh takes the rows of its kept
    elements from its parent."""
    return cached_rows(mesh, ("bary_grads",), "elements", lambda new: {
        "grads": bary_grads(mesh.element_coords(new))}, width=6).grads


def assemble(mesh, kappa):
    """Stiffness + kappa^2 * mass on the free vertices, in sparse CSR form.

    Row z holds the local rows of z in its elements, in element order
    (`vertex_slots`), summed by column as a COO build from all local matrices
    at once sums them, and then restricted to the free columns.  The sum
    goes row by row, so it runs on blocks of vertex rows.
    """
    g = element_bary_grads(mesh)
    slots, starts = mesh.vertex_slots, mesh.vertex_starts
    free = mesh.free_vertices()
    dof = np.full(mesh.n_vertices, -1, dtype=np.int32)
    dof[free] = np.arange(len(free))
    data, indices, counts = [], [], []
    for rows in row_blocks(mesh.n_vertices, 9 * int(np.diff(starts).max())):
        bounds = starts[rows.start:rows.stop + 1]
        slot = slots[bounds[0]:bounds[-1]]
        e, i = np.divmod(slot, 3)
        gi, ge = g.reshape(-1, 2).take(slot, axis=0), g.take(e, axis=0)
        area = mesh.areas[e, None]
        stiff = (gi[:, None, 0] * ge[:, :, 0] + gi[:, None, 1] * ge[:, :, 1]) * area
        mass = (1.0 + (i[:, None] == np.arange(3))) * (area / 12.0)
        cols = mesh.elements.take(e, axis=0).ravel()
        local = sp.csr_matrix(((stiff + kappa**2 * mass).ravel(), cols,
                               3 * (bounds - bounds[0])), shape=(len(bounds) - 1, len(dof)))
        local.sum_duplicates()
        row = np.repeat(np.arange(len(bounds) - 1), np.diff(local.indptr))
        keep = (dof[rows][row] >= 0) & (dof[local.indices] >= 0)
        data.append(local.data[keep])
        indices.append(dof[local.indices[keep]])
        counts.append(np.bincount(row[keep], minlength=len(bounds) - 1)[dof[rows] >= 0])
    indptr = np.zeros(len(free) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    matrix = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                           shape=(len(free),) * 2)
    return GalerkinSystem(mesh, kappa, matrix, free)


def field_rows(mesh, field, quad_degree=DEFAULT_DEGREE):
    """One field integrated against the element quadrature of one mesh,
    cached on it under the field and the rule (`cached_rows`):
    `load[e, i] = <f, lam_i>_T`, the contributions `field_load` scatters;
    `mean[e]`, the mean of f on T; and `dual[e, z] = <f, phi*_{z;T}>`, the
    pairings with the element duals of `dual_system`.

    Where the field states its exact solution u (`kernel`) and the rule has
    degree 2 at least (and so integrates P1^2 exactly), the entry also holds
    the part of the energy error of u - U that does not depend on U.  u and
    grad u are split orthogonally in the rule's inner product on each
    element T:

    * `grad_mean[e]`, the rule-weighted mean m_T of grad u, and
      `grad_spread[e]` = int_T |grad u - m_T|^2;
    * `proj[e]`, the barycentric coefficients c_T of the rule's L2(T)
      projection of u onto P1, and `proj_residual[e]` = int_T (u - c_T.lam)^2.

    The rule's value of int_T |grad(u - U)|^2 + kappa^2 (u - U)^2 is then
    grad_spread + |T| |m_T - grad U|^2 + kappa^2 (proj_residual +
    int_T ((c_T - U).lam)^2): the cross terms vanish by the rule's own
    orthogonality, and the rule integrates the P1 square exactly.  The four
    terms are nonnegative, so nothing cancels where the error is small.

    The data are evaluated once, in blocks of elements, at the nodes of the
    rows `new`: by the kernel where the entry holds u's rows, else by
    `value` alone.  A block's node values give its `node_sums` and are then
    dropped.
    """
    degree = int(quad_degree)
    joint = degree >= 2 and field.kernel is not None
    rule = quadrature.simplex_rule(degree)
    w = rule.weights
    # the weights of load, mean and dual side by side: one sum per node
    weights = np.column_stack([w[:, None] * rule.points, w, element_dual_weights(rule)])
    if joint:
        wsum = w.sum()
        # c_T = u at the nodes @ proj: the rule's Gram matrix of the
        # barycentrics, inverted, against the weighted barycentrics
        lw = rule.points * w[:, None]
        proj = np.linalg.solve(rule.points.T @ lw, lw.T).T

    def build(new):
        pts = quadrature.map_points(rule, mesh.element_coords(new))
        x, y = pts[..., 0], pts[..., 1]
        if joint:
            f, u, gx, gy = field.kernel(x, y)
        else:
            f = field.value(x, y)
        sums = 2.0 * node_sums(f, weights)
        # against the 2|T| Jacobian: the mean is over |T|, duals' psi_z has 1/|T|
        rows = dict(load=mesh.areas.take(new)[:, None] * sums[:, :3], mean=sums[:, 3],
                    dual=sums[:, 4:])
        if joint:
            mx, my = node_sums(gx, w) / wsum, node_sums(gy, w) / wsum
            jac = 2.0 * mesh.areas.take(new)
            c = node_sums(u, proj)
            rows.update(grad_mean=np.column_stack([mx, my]),
                        grad_spread=jac * node_sums((gx - mx[:, None]) ** 2
                                                    + (gy - my[:, None]) ** 2, w),
                        proj=c,
                        proj_residual=jac * node_sums((u - node_sums(c, rule.points.T)) ** 2, w))
        return rows

    # u and grad u are three arrays per node where f alone is one: twice the width
    return cached_rows(mesh, ("field_rows", field, degree), "elements", build,
                       width=(1 + joint) * len(w))


def field_load(mesh, field, quad_degree=DEFAULT_DEGREE):
    """<f, hat_z> for every vertex z, by elementwise Gauss quadrature."""
    load = field_rows(mesh, field, quad_degree).load
    return np.bincount(mesh.elements.ravel(), load.ravel(), minlength=mesh.n_vertices)


def load_vector(problem, quad_degree=DEFAULT_DEGREE):
    """Right-hand side pairings <f, hat_z>, all vertices."""
    return as_source(problem.mesh, problem.rhs).pair_hats(quad_degree)


def solve(problem, tol=1e-10, quad_degree=DEFAULT_DEGREE, system=None):
    """Galerkin solution by preconditioned conjugate gradients.

    Large diffusion-dominated systems are preconditioned by a
    smoothed-aggregation V-cycle, all others by Jacobi
    (`_preconditioner_kind`).  If CG does not converge within 10 * dof
    iterations, a system of at most `_DIRECT_MAX_DOFS` unknowns is solved by
    sparse LU instead and a larger one raises SolverError; so does a final
    residual above 100 * tol * |b| on any path.  The result carries
    `solver_stats`: `cg_iterations`, `cg_residual` (final |Ax - b| / |b|) and
    `preconditioner` ("jacobi", "sa", or "direct" for the LU fallback).
    """
    if system is None:
        system = assemble(problem.mesh, problem.kappa)
    b = load_vector(problem, quad_degree)[system.free]
    n = len(b)
    A = system.matrix
    kind = _preconditioner_kind(system)
    if kind == "sa":
        precond = _sa_preconditioner(A)
    else:
        diag = A.diagonal()
        precond = spla.LinearOperator((n, n), matvec=lambda r: r / diag)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=max(10 * n, 50),
                      M=precond, callback=count)
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    if info != 0:
        if n > _DIRECT_MAX_DOFS:
            raise SolverError(
                f"CG failed to converge (info={info}, n={n}) after {iterations} "
                f"iterations, relative residual "
                f"{np.linalg.norm(A @ x - b) / scale:.3e}")
        x = spla.splu(A.tocsc()).solve(b)
        kind = "direct"
    resid = np.linalg.norm(A @ x - b)
    if bnorm > 0 and resid > 100.0 * tol * bnorm:
        raise SolverError(f"CG residual {resid:.3e} exceeds tolerance against {bnorm:.3e}")
    values = np.zeros(problem.mesh.n_vertices)
    values[system.free] = x
    U = DiscreteFunction(problem.mesh, values)
    U.solver_stats = {"cg_iterations": iterations,
                      "cg_residual": float(resid / scale), "preconditioner": kind}
    return U


# -- smoothed-aggregation multigrid ------------------------------------------
#
# Plain smoothed aggregation (Vanek, Mandel and Brezina, Computing 56, 1996)
# with aggregates grown from a distance-2 maximal independent set built by
# array operations (Bell, Dalton and Olson, SIAM J. Sci. Comput. 34, 2012).
# Every step is deterministic, so one matrix always gives one hierarchy.

_SA_STRENGTH = 0.08     # strong coupling: |a_ij| >= this * sqrt(a_ii a_jj)
_SA_COARSE = 400        # levels of at most this many unknowns are factored
_SA_MIN_DOFS = 20_000   # below this size Jacobi-PCG is as fast
# above this smallest share of a_zz from the kappa^2 mass term Jacobi-PCG
# needs few enough iterations to be faster than building the hierarchy
_SA_MAX_MASS_SHARE = 3e-4
_DIRECT_MAX_DOFS = 100_000  # CG failure falls back to sparse LU up to here


def _preconditioner_kind(system):
    """"sa" for a large system whose diagonal is dominated by the stiffness
    everywhere, "jacobi" otherwise."""
    if len(system.free) < _SA_MIN_DOFS:
        return "jacobi"
    mesh = system.mesh
    # the P1 mass matrix has |T|/6 on the diagonal of each corner of T
    mass = np.bincount(mesh.elements.ravel(), np.repeat(mesh.areas / 6.0, 3),
                       minlength=mesh.n_vertices)[system.free]
    share = system.kappa**2 * mass / system.matrix.diagonal()
    return "sa" if share.min() < _SA_MAX_MASS_SHARE else "jacobi"


def _row_max(indptr, indices, v):
    """Largest v over each row's pattern (every row holds its diagonal)."""
    out = np.empty(len(indptr) - 1, dtype=v.dtype)
    for rows in row_blocks(len(out), int(np.diff(indptr).max(initial=1))):
        bounds = indptr[rows.start:rows.stop + 1]
        out[rows] = np.maximum.reduceat(v[indices[bounds[0]:bounds[-1]]],
                                        bounds[:-1] - bounds[0])
    return out


def _sa_aggregates(A):
    """Aggregate index of every unknown of the SPD CSR matrix A."""
    n = A.shape[0]
    d = A.diagonal()
    indices, counts = [], []
    for block in row_blocks(n, int(np.diff(A.indptr).max(initial=1))):
        bounds = A.indptr[block.start:block.stop + 1]
        rows = np.repeat(np.arange(block.start, block.start + len(bounds) - 1),
                         np.diff(bounds))
        cols = A.indices[bounds[0]:bounds[-1]]
        keep = (rows == cols) | (np.abs(A.data[bounds[0]:bounds[-1]])
                                 >= _SA_STRENGTH * np.sqrt(d[rows] * d[cols]))
        indices.append(cols[keep])
        counts.append(np.bincount(rows[keep] - block.start, minlength=len(bounds) - 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    indices = np.concatenate(indices)
    # fixed ranks: the unknowns ordered by a multiplicative hash of the index
    h = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(h, kind="stable")] = np.arange(n)
    # distance-2 MIS: an undecided unknown becomes a root where its key is
    # the largest within distance 2, and drops out where a root's key is
    state = np.ones(n, dtype=np.int64)  # 0 out, 1 undecided, 2 root
    while (state == 1).any():
        key = state * n + rank
        top = _row_max(indptr, indices, _row_max(indptr, indices, key))
        undecided = state == 1
        state[undecided & (top == key)] = 2
        state[undecided & (top >= 2 * n)] = 0
    root = state == 2
    # join the highest-ranked root at distance 1, else one at distance 2
    near = _row_max(indptr, indices, np.where(root, rank, -1))
    near = np.where(near >= 0, near, _row_max(indptr, indices, near))
    root_of_rank = np.argsort(rank)
    return (np.cumsum(root) - 1)[root_of_rank[near]]


def _sa_levels(A):
    """[(A, omega / diag(A), P), ...] from the finest level down, and the
    coarsest matrix."""
    levels = []
    while A.shape[0] > _SA_COARSE:
        n = A.shape[0]
        agg = _sa_aggregates(A)
        n_coarse = int(agg.max()) + 1
        if 2 * n_coarse > n:  # coarsening stalls where the mass term dominates
            break
        tentative = sp.csr_matrix((np.ones(n), (np.arange(n), agg)),
                                  shape=(n, n_coarse))
        dinv = 1.0 / A.diagonal()
        # Gershgorin bound on D^-1 A, from blocks of rows of |A|
        rho = max((abs(A[rows]) @ np.ones(n) * dinv[rows]).max()
                  for rows in row_blocks(n, int(np.diff(A.indptr).max())))
        wdinv = 4.0 / (3.0 * rho) * dinv
        P = (tentative - sp.diags(wdinv) @ (A @ tentative)).tocsr()
        levels.append((A, wdinv, P))
        # P^T as CSR, not (A P) as CSC: each entry sums the same products in
        # the same order, and the columns are sorted as the CSC form's are
        A = P.T.tocsr() @ (A @ P)
        A.sort_indices()
    return levels, A


def _sa_preconditioner(A):
    """Symmetric V(1,1) cycle with damped Jacobi smoothing and an exact
    coarsest solve, as a LinearOperator (SPD, so fit for CG)."""
    levels, coarse = _sa_levels(A)
    lu = spla.splu(coarse.tocsc())
    # not a recursive closure, whose cycle would hold the hierarchy until a gc
    return spla.LinearOperator(A.shape, matvec=lambda r: _sa_cycle(levels, lu, r))


def _sa_cycle(levels, lu, b, level=0):
    """One V-cycle from `level` down on the right-hand side b."""
    if level == len(levels):
        return lu.solve(b)
    A, wdinv, P = levels[level]
    x = wdinv * b
    x += P @ _sa_cycle(levels, lu, P.T @ (b - A @ x), level + 1)
    return x + wdinv * (b - A @ x)


# -- operator application ------------------------------------------------------


def grad_jumps(mesh, U):
    """Normal-derivative jumps of a DiscreteFunction across interior faces.

    Sign convention: (grad U|_lo - grad U|_hi) . n_F with n_F oriented from
    the lower adjacent element index to the higher.  Returns (nf,) with zeros
    on boundary faces, read-only: it is computed once per U and cached there.
    """
    if mesh is not U.mesh:
        raise ValueError("U lives on a different mesh")
    if U._jumps is None:
        grads = U.element_gradients()
        out = np.zeros(mesh.n_faces)
        idx = np.nonzero(mesh.interior_face)[0]
        adj = grads.take(mesh.face_elems.take(idx, axis=0), axis=0)
        out[idx] = np.einsum("fx,fx->f", adj[:, 0] - adj[:, 1], mesh.normals.take(idx, axis=0))
        out.setflags(write=False)
        U._jumps = out
    return U._jumps


def apply_operator(mesh, kappa, U):
    """Image of a discrete function under the operator, as volume + face parts.

    Integration by parts against any test function in the zero-trace space
    gives <L(U), v> = sum_T int_T kappa^2 U v + sum_F jump_F int_F v, so the
    representation has cell density kappa^2 * U and face density grad_jumps.
    """
    cell = kappa**2 * U.values.take(mesh.elements)
    return PiecewiseFunctional(mesh, cell, grad_jumps(mesh, U))


# -- norms ----------------------------------------------------------------------


def _p1_mass_sq(areas, vals):
    # int_T (sum v_i lam_i)^2 = |T|/12 * (sum v_i^2 + (sum v_i)^2)
    v0, v1, v2 = vals[:, 0], vals[:, 1], vals[:, 2]
    return areas / 12.0 * ((v0 * v0 + v1 * v1 + v2 * v2) + (v0 + v1 + v2) ** 2)


# |T| psi_z for the element duals phi*_{z;T} = psi_z b_T, the same on every
# element: int_T b_T lam_y lam_z = |T| (4 + 2 delta_yz) / 2520, whose inverse
# is (1260 delta_yz - 360) / |T|
_PSI_UNIT = 1260.0 * np.eye(3) - 360.0


def element_dual_weights(rule):
    """(nq, 3) weights with <f, phi*_{z;T}> = 2 (f at the nodes of T) @ them
    on every element T: the Jacobian 2|T| cancels the 1/|T| of psi_z."""
    # |T| psi_z times the element bubble at the nodes, then the weights
    psib = (rule.points @ _PSI_UNIT) * rule.points.prod(axis=1)[:, None]
    return psib * rule.weights[:, None]


def energy_norm_sq_elements(mesh, kappa, v):
    """Squared energy norm per element of a DiscreteFunction v:
    |grad v|^2 + kappa^2 |v|^2, exactly, in blocks of elements."""
    grads, out = v.element_gradients(), np.empty(mesh.n_elements)
    for e in row_blocks(mesh.n_elements, 3):
        e2 = mesh.areas[e] * np.einsum("ex,ex->e", grads[e], grads[e])
        out[e] = e2 + kappa**2 * _p1_mass_sq(mesh.areas[e], v.values.take(mesh.elements[e]))
    return out


def energy_norm(mesh, kappa, v):
    """Energy norm of a DiscreteFunction."""
    return float(np.sqrt(energy_norm_sq_elements(mesh, kappa, v).sum()))


def energy_error_sq_elements(problem, U, quad_degree=DEFAULT_DEGREE):
    """Squared energy norm of u - U per element, u the exact solution the
    data state, by the orthogonal split of the data's `field_rows` at the
    rule of degree 2 where `quad_degree` is lower."""
    if problem.exact is None:
        raise ValueError("problem has no exact solution to compare against")
    mesh = problem.mesh
    rows = field_rows(mesh, problem.rhs, max(int(quad_degree), 2))
    grads, out = U.element_gradients(), np.empty(mesh.n_elements)
    for e in row_blocks(mesh.n_elements, 3):
        dg = rows.grad_mean[e] - grads[e]
        grad_part = rows.grad_spread[e] + mesh.areas[e] * (dg[:, 0] ** 2 + dg[:, 1] ** 2)
        mass_part = rows.proj_residual[e] + _p1_mass_sq(
            mesh.areas[e], rows.proj[e] - U.values.take(mesh.elements[e]))
        out[e] = grad_part + problem.kappa**2 * mass_part
    return out


def energy_error(problem, U, quad_degree=DEFAULT_DEGREE):
    """Energy norm of u - U, u the exact solution."""
    return float(np.sqrt(energy_error_sq_elements(problem, U, quad_degree).sum()))


def prolongate(U, fine_mesh):
    """Carry a DiscreteFunction to a mesh produced by one bisect call.

    The fine mesh must have been bisected from U's mesh: where its parent is
    still alive it must be that mesh, and otherwise its parent's vertex count
    must be U's.
    """
    parents = fine_mesh.new_vertex_parents
    if (fine_mesh.parent not in (None, U.mesh)
            or fine_mesh.n_parent_vertices != U.mesh.n_vertices):
        raise ValueError("fine mesh was not refined from the mesh of U")
    values = np.empty(fine_mesh.n_vertices)
    values[:U.mesh.n_vertices] = U.values
    values[U.mesh.n_vertices:] = 0.5 * (values[parents[:, 0]] + values[parents[:, 1]])
    return DiscreteFunction(fine_mesh, values)
