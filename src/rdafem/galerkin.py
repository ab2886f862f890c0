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
  terms f - Pf without committing to quadrature at construction time.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .mesh import MeshError, bary_grads, carry_rows
from .quadrature import DEFAULT_DEGREE

# elements per block of the quadrature-node evaluations (FieldRows and
# energy_error_sq_elements): the (element, node) arrays of a whole fine mesh
# would set the memory peak of a solve
_ERROR_BLOCK = 2**14


class SolverError(Exception):
    """Raised when the linear solver fails to reach the requested tolerance."""


class ScalarField:
    """Analytic scalar function, vectorized over point arrays.

    `value(x, y)` returns an array; `grad(x, y)`, when available, returns the
    pair (d/dx, d/dy) of arrays.
    """

    def __init__(self, value, grad=None, name=""):
        self.value = value
        self.grad = grad
        self.name = name


class DiscreteFunction:
    """P1 function given by vertex values (boundary entries zero for members
    of the homogeneous space)."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_vertices,):
            raise ValueError("values must have one entry per vertex")
        self.mesh = mesh
        self.values = values

    # set by `solve`: {"cg_iterations", "cg_residual", "preconditioner"}
    solver_stats = None

    def element_values(self):
        """(ne, 3) vertex values per element."""
        return self.values[self.mesh.elements]

    def element_gradients(self):
        """(ne, 2) constant gradient per element."""
        mesh = self.mesh
        return np.einsum("ei,eix->ex", self.element_values(),
                         bary_grads(mesh.vertices[mesh.elements]))


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

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros((mesh.n_elements, 3)), np.zeros(mesh.n_faces))

    def __add__(self, other):
        self._check(other)
        return PiecewiseFunctional(self.mesh, self.cell_density + other.cell_density,
                                   self.face_density + other.face_density)

    def __sub__(self, other):
        self._check(other)
        return PiecewiseFunctional(self.mesh, self.cell_density - other.cell_density,
                                   self.face_density - other.face_density)

    def __neg__(self):
        return PiecewiseFunctional(self.mesh, -self.cell_density, -self.face_density)

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

    def pair_hats(self):
        """Pairings with every nodal hat function, (nv,)."""
        mesh = self.mesh
        out = np.zeros(mesh.n_vertices)
        a = self.cell_density
        contrib = (mesh.areas[:, None] / 12.0) * (a + a.sum(axis=1, keepdims=True))
        np.add.at(out, mesh.elements, contrib)
        idx = np.nonzero(self.face_density)[0]
        if idx.size:
            half = 0.5 * self.face_density[idx] * self.mesh.face_len[idx]
            np.add.at(out, mesh.faces[idx, 0], half)
            np.add.at(out, mesh.faces[idx, 1], half)
        return out


class SourceFunctional:
    """field_weight * <field, v> + <piecewise, v>, either part optional."""

    def __init__(self, mesh, field=None, piecewise=None, field_weight=1.0):
        if piecewise is not None and piecewise.mesh is not mesh:
            raise ValueError("piecewise part lives on a different mesh")
        self.mesh = mesh
        self.field = field
        self.piecewise = piecewise
        self.field_weight = float(field_weight)

    def pair_hats(self, quad_degree=DEFAULT_DEGREE):
        out = np.zeros(self.mesh.n_vertices)
        if self.field is not None:
            out += self.field_weight * field_load(self.mesh, self.field, quad_degree)
        if self.piecewise is not None:
            out += self.piecewise.pair_hats()
        return out


def residual_source(problem, U):
    """The residual f - L(U) as a SourceFunctional."""
    lu = apply_operator(problem.mesh, problem.kappa, U)
    if isinstance(problem.rhs, PiecewiseFunctional):
        return SourceFunctional(problem.mesh, piecewise=problem.rhs - lu)
    return SourceFunctional(problem.mesh, field=problem.rhs, piecewise=-1.0 * lu)


# -- problems and presets ------------------------------------------------------


class Problem:
    """Mesh, reaction coefficient and data of one boundary value problem."""

    def __init__(self, mesh, kappa, rhs, exact=None, name=""):
        if not 0.0 < kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
        self.mesh = mesh
        self.kappa = float(kappa)
        self.rhs = rhs
        self.exact = exact
        self.name = name

    def on_mesh(self, mesh):
        """Same problem posed on another mesh (for refinement loops)."""
        if isinstance(self.rhs, PiecewiseFunctional):
            raise TypeError("a mesh-bound right-hand side cannot move to a new mesh")
        return Problem(mesh, self.kappa, self.rhs, self.exact, self.name)


def _sinsin(kappa):
    pi = np.pi
    u = ScalarField(
        lambda x, y: np.sin(pi * x) * np.sin(pi * y),
        lambda x, y: (pi * np.cos(pi * x) * np.sin(pi * y),
                      pi * np.sin(pi * x) * np.cos(pi * y)),
        name="sinsin",
    )
    c = 2.0 * pi**2 + kappa**2
    f = ScalarField(lambda x, y: c * np.sin(pi * x) * np.sin(pi * y), name="sinsin-rhs")
    return f, u


def _const1(kappa):
    f = ScalarField(lambda x, y: np.ones_like(np.asarray(x, dtype=float)), name="one")
    return f, None


def _layer1d(kappa):
    # u = (1 - cosh(kappa(x-1/2))/cosh(kappa/2)) sin(pi y), written with
    # decaying exponentials so kappa = 1e4 does not overflow
    pi = np.pi
    k = float(kappa)
    scale = 1.0 + np.exp(-k)

    def decays(x):
        # exp(-k(1-x)) and exp(-k x); below -746 the exponential is exactly
        # 0.0, and np.exp is an order of magnitude slower there
        x = np.asarray(x, dtype=float)
        return [np.exp(arg, out=np.zeros_like(arg), where=arg > -746.0)
                for arg in (-k * (1.0 - x), -k * x)]

    def ratio(x):
        left, right = decays(x)
        return (left + right) / scale

    def grad(x, y):
        left, right = decays(x)
        return (-(k * (left - right) / scale) * np.sin(pi * y),
                pi * (1.0 - (left + right) / scale) * np.cos(pi * y))

    u = ScalarField(lambda x, y: (1.0 - ratio(x)) * np.sin(pi * y), grad,
                    name="layer1d")
    f = ScalarField(lambda x, y: (k**2 + pi**2 * (1.0 - ratio(x))) * np.sin(pi * y),
                    name="layer1d-rhs")
    return f, u


PRESETS = {"sinsin": _sinsin, "const1": _const1, "layer1d": _layer1d}


def make_problem(mesh, kappa, preset):
    """Build a Problem from a named right-hand-side preset.

    `layer1d` is posed on the unit square, and its data overflow outside it,
    so that preset refuses (MeshError) a mesh with a vertex outside [0, 1]^2.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset '{preset}' (have: {', '.join(sorted(PRESETS))})")
    if preset == "layer1d":
        outside = np.nonzero(((mesh.vertices < 0.0) | (mesh.vertices > 1.0)).any(axis=1))[0]
        if outside.size:
            x, y = mesh.vertices[outside[0]]
            raise MeshError(f"preset 'layer1d' is posed on the unit square, but vertex "
                            f"{outside[0]} at ({x:g}, {y:g}) lies outside [0, 1]^2")
    rhs, exact = PRESETS[preset](kappa)
    return Problem(mesh, kappa, rhs, exact, name=preset)


# -- assembly and solve --------------------------------------------------------


class GalerkinSystem:
    """Assembled stiffness-plus-scaled-mass operator.

    `matrix_full` couples all vertices; `matrix` is its restriction to the
    free (interior) vertices, which is symmetric positive definite.
    """

    def __init__(self, mesh, kappa, matrix_full, free):
        self.mesh = mesh
        self.kappa = kappa
        self.matrix_full = matrix_full
        self.free = free
        self.matrix = matrix_full[free][:, free].tocsr()


def assemble(mesh, kappa):
    """Stiffness + kappa^2 * mass in sparse CSR form."""
    g = bary_grads(mesh.vertices[mesh.elements])
    stiff = np.einsum("eix,ejx->eij", g, g) * mesh.areas[:, None, None]
    mass = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (mesh.areas / 12.0)[:, None, None]
    local = stiff + kappa**2 * mass
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    nv = mesh.n_vertices
    matrix = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return GalerkinSystem(mesh, kappa, matrix, mesh.free_vertices())


class FieldRows:
    """One field integrated against the element quadrature of one mesh.

    f is evaluated once, in blocks of elements, at the nodes of the
    elements bisection made new (`new`, ascending; every element when the
    mesh has no live parent with these rows).  The node values give three
    products and are then dropped: `load[e, i] = <f, lam_i>_T`, the
    contributions `field_load` scatters; `mean[e]`, the mean of f on T; and
    `dual[e, z] = <f, phi*_{z;T}>`, the pairings with the element duals of
    `dual_system`.  Their rows of kept elements are the parent mesh's.  Use
    `field_rows`, which caches them on the mesh.
    """

    def __init__(self, mesh, field, quad_degree, key):
        old, sources = mesh.inherited(key)
        rule = quadrature.simplex_rule(quad_degree)
        self.new = np.nonzero(sources < 0)[0]
        values = np.empty((len(self.new), len(rule.weights)))
        for lo in range(0, len(self.new), _ERROR_BLOCK):
            block = self.new[lo:lo + _ERROR_BLOCK]
            pts = quadrature.map_points(rule, mesh.vertices[mesh.elements[block]])
            values[lo:lo + len(block)] = field.value(pts[..., 0], pts[..., 1])
        # three matmuls over all new rows: a fused product, or one per block,
        # rounds load and mean differently
        fresh = {
            "load": 2.0 * mesh.areas[self.new, None] * (
                values @ (rule.weights[:, None] * rule.points)),
            # the mean over |T|, against the 2|T| Jacobian
            "mean": 2.0 * (values @ rule.weights),
            "dual": 2.0 * (values @ element_dual_weights(rule)),
        }
        for name, rows in fresh.items():
            rows = carry_rows(None if old is None else getattr(old, name), sources, rows)
            rows.setflags(write=False)
            setattr(self, name, rows)


def field_rows(mesh, field, quad_degree=DEFAULT_DEGREE):
    """The FieldRows of (mesh, field, quad_degree), cached on the mesh."""
    key = ("field_rows", field, int(quad_degree))
    if key not in mesh.cache:
        mesh.cache[key] = FieldRows(mesh, field, int(quad_degree), key)
    return mesh.cache[key]


def field_load(mesh, field, quad_degree=DEFAULT_DEGREE):
    """<f, hat_z> for every vertex z, by elementwise Gauss quadrature."""
    load = field_rows(mesh, field, quad_degree).load
    return np.bincount(mesh.elements.ravel(), load.ravel(), minlength=mesh.n_vertices)


def load_vector(problem, quad_degree=DEFAULT_DEGREE):
    """Right-hand side pairings <f, hat_z>, all vertices."""
    if isinstance(problem.rhs, PiecewiseFunctional):
        return problem.rhs.pair_hats()
    return field_load(problem.mesh, problem.rhs, quad_degree)


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
    return np.maximum.reduceat(v[indices], indptr[:-1])


def _sa_aggregates(A):
    """Aggregate index of every unknown of the SPD CSR matrix A."""
    n = A.shape[0]
    d = A.diagonal()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    keep = (rows == A.indices) | (
        np.abs(A.data) >= _SA_STRENGTH * np.sqrt(d[rows] * d[A.indices]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    indices = A.indices[keep]
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
        rho = (abs(A) @ np.ones(n) * dinv).max()  # Gershgorin bound on D^-1 A
        wdinv = 4.0 / (3.0 * rho) * dinv
        P = (tentative - sp.diags(wdinv) @ (A @ tentative)).tocsr()
        levels.append((A, wdinv, P))
        A = (P.T @ (A @ P)).tocsr()
    return levels, A


def _sa_preconditioner(A):
    """Symmetric V(1,1) cycle with damped Jacobi smoothing and an exact
    coarsest solve, as a LinearOperator (SPD, so fit for CG)."""
    levels, coarse = _sa_levels(A)
    lu = spla.splu(coarse.tocsc())

    def cycle(level, b):
        if level == len(levels):
            return lu.solve(b)
        A, wdinv, P = levels[level]
        x = wdinv * b
        x += P @ cycle(level + 1, P.T @ (b - A @ x))
        return x + wdinv * (b - A @ x)

    return spla.LinearOperator(A.shape, matvec=lambda r: cycle(0, r))


# -- operator application ------------------------------------------------------


def grad_jumps(mesh, U):
    """Normal-derivative jumps of a DiscreteFunction across interior faces.

    Sign convention: (grad U|_lo - grad U|_hi) . n_F with n_F oriented from
    the lower adjacent element index to the higher.  Returns (nf,) with zeros
    on boundary faces.
    """
    grads = U.element_gradients()
    out = np.zeros(mesh.n_faces)
    idx = np.nonzero(mesh.interior_face)[0]
    lo, hi = mesh.face_elems[idx, 0], mesh.face_elems[idx, 1]
    out[idx] = np.einsum("fx,fx->f", grads[lo] - grads[hi], mesh.normals[idx])
    return out


def apply_operator(mesh, kappa, U):
    """Image of a discrete function under the operator, as volume + face parts.

    Integration by parts against any test function in the zero-trace space
    gives <L(U), v> = sum_T int_T kappa^2 U v + sum_F jump_F int_F v, so the
    representation has cell density kappa^2 * U and face density grad_jumps.
    """
    cell = kappa**2 * U.values[mesh.elements]
    return PiecewiseFunctional(mesh, cell, grad_jumps(mesh, U))


# -- norms ----------------------------------------------------------------------


def _p1_mass_sq(areas, vals):
    # int_T (sum v_i lam_i)^2 = |T|/12 * (sum v_i^2 + (sum v_i)^2)
    return areas / 12.0 * ((vals**2).sum(axis=1) + vals.sum(axis=1) ** 2)


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


def energy_norm_sq_elements(mesh, kappa, v, quad_degree=DEFAULT_DEGREE):
    """Squared energy norm per element: |grad v|^2 + kappa^2 |v|^2.

    Exact for DiscreteFunction; Gauss quadrature for a ScalarField (which must
    provide a gradient).
    """
    if isinstance(v, DiscreteFunction):
        grads = v.element_gradients()
        e2 = mesh.areas * np.einsum("ex,ex->e", grads, grads)
        return e2 + kappa**2 * _p1_mass_sq(mesh.areas, v.element_values())
    if v.grad is None:
        raise ValueError("energy norm of a field requires its gradient")
    rule = quadrature.simplex_rule(quad_degree)
    pts = quadrature.map_points(rule, mesh.vertices[mesh.elements])
    gx, gy = v.grad(pts[..., 0], pts[..., 1])
    vals = v.value(pts[..., 0], pts[..., 1])
    dens = gx**2 + gy**2 + kappa**2 * vals**2
    return 2.0 * mesh.areas * (dens @ rule.weights)

def energy_norm(mesh, kappa, v, region=None, quad_degree=DEFAULT_DEGREE):
    """Energy norm over the whole mesh or over the elements in `region`."""
    e2 = energy_norm_sq_elements(mesh, kappa, v, quad_degree)
    if region is not None:
        e2 = e2[np.asarray(region, dtype=np.int64)]
    return float(np.sqrt(e2.sum()))


def energy_error_sq_elements(problem, U, quad_degree=DEFAULT_DEGREE):
    """Squared energy norm of u - U per element, u the exact solution."""
    if problem.exact is None or problem.exact.grad is None:
        raise ValueError("problem has no exact solution to compare against")
    mesh = problem.mesh
    rule = quadrature.simplex_rule(quad_degree)
    Ugrads = U.element_gradients()
    Uvals = U.element_values() @ rule.points.T
    out = np.empty(mesh.n_elements)
    # in blocks of elements: about ten (element, node) arrays are live at
    # once, which made this the memory peak of a solve on a fine mesh
    for lo in range(0, mesh.n_elements, _ERROR_BLOCK):
        e = slice(lo, lo + _ERROR_BLOCK)
        pts = quadrature.map_points(rule, mesh.vertices[mesh.elements[e]])
        x, y = pts[..., 0], pts[..., 1]
        gx, gy = problem.exact.grad(x, y)
        uvals = problem.exact.value(x, y)
        dens = ((gx - Ugrads[e, None, 0]) ** 2 + (gy - Ugrads[e, None, 1]) ** 2
                + problem.kappa**2 * (uvals - Uvals[e]) ** 2)
        out[e] = 2.0 * mesh.areas[e] * (dens @ rule.weights)
    return out


def energy_error(problem, U, region=None, quad_degree=DEFAULT_DEGREE):
    e2 = energy_error_sq_elements(problem, U, quad_degree)
    if region is not None:
        e2 = e2[np.asarray(region, dtype=np.int64)]
    return float(np.sqrt(e2.sum()))


def prolongate(U, fine_mesh):
    """Carry a DiscreteFunction to a mesh produced by one bisect call."""
    parents = fine_mesh.new_vertex_parents
    if fine_mesh.n_parent_vertices != U.mesh.n_vertices:
        raise ValueError("fine mesh was not refined from the mesh of U")
    values = np.empty(fine_mesh.n_vertices)
    values[:U.mesh.n_vertices] = U.values
    values[U.mesh.n_vertices:] = 0.5 * (values[parents[:, 0]] + values[parents[:, 1]])
    return DiscreteFunction(fine_mesh, values)
