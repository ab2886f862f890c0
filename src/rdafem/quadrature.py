"""Quadrature on triangles and segments.

Two independent integration routes are provided on purpose: exact closed-form
integration of barycentric monomials (factorial formula) and Gauss rules of
selectable degree.  The first serves as an oracle for the second and for all
hand-derived constants; the second handles general integrands.
"""

import math

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import signed_areas

# Degree used for pairings with generic (non-polynomial) data.
DEFAULT_DEGREE = 8

_simplex_cache = {}
_edge_cache = {}


class QuadratureRule:
    """Reference quadrature rule on the unit triangle or segment.

    Attributes
    ----------
    points : (n, 3) or (n, 1) array
        Barycentric coordinates of the nodes (triangle) or the segment
        parameter s in (0, 1) stored as a column.
    weights : (n,) array
        Reference weights; they sum to the reference measure (1/2 for the
        triangle, 1 for the segment).
    degree : int
        Every polynomial up to this total degree is integrated exactly.
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)


def integrate_barycentric(area, exponents):
    """Exact integral of lambda_1^a * lambda_2^b * lambda_3^c over a triangle.

    Uses 2|T| * a! b! c! / (a+b+c+2)!.  `area` is |T|; `exponents` the triple
    (a, b, c) of nonnegative integers.
    """
    a, b, c = (int(e) for e in exponents)
    if min(a, b, c) < 0:
        raise ValueError("exponents must be nonnegative")
    num = math.factorial(a) * math.factorial(b) * math.factorial(c)
    return 2.0 * area * num / math.factorial(a + b + c + 2)


def simplex_rule(degree):
    """Conical-product Gauss rule on the reference triangle, exact to `degree`.

    Built from Gauss-Jacobi (weight 1-x) and Gauss-Legendre 1D rules, so any
    requested degree is available.  Rules are cached.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    degree = max(int(degree), 1)
    if degree in _simplex_cache:
        return _simplex_cache[degree]
    n = (degree + 2) // 2  # 2n-1 >= degree
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    xi = 0.5 * (1.0 + xj)      # with weight (1-xi), factor 1/4 on weights
    eta = 0.5 * (1.0 + xl)     # plain, factor 1/2 on weights
    X, Y = np.meshgrid(xi, eta, indexing="ij")
    WX, WY = np.meshgrid(0.25 * wj, 0.5 * wl, indexing="ij")
    x = X.ravel()
    y = (Y * (1.0 - X)).ravel()
    w = (WX * WY).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    rule = QuadratureRule(bary, w, 2 * n - 1)
    _simplex_cache[degree] = rule
    return rule


def edge_rule(degree):
    """Gauss-Legendre rule on the unit segment, exact to `degree`."""
    degree = max(int(degree), 1)
    if degree in _edge_cache:
        return _edge_cache[degree]
    n = (degree + 2) // 2
    x, w = roots_legendre(n)
    s = 0.5 * (1.0 + x)
    rule = QuadratureRule(s[:, None], 0.5 * w, 2 * n - 1)
    _edge_cache[degree] = rule
    return rule


def map_points(rule, corners):
    """Nodes of a triangle rule on every triangle of `corners`.

    `corners` is (..., 3, d): per triangle, some d-vector per vertex in
    barycentric order, usually the vertex coordinates.  Returns (..., n, d),
    the corner data interpolated linearly at the n nodes.  One matmul, which
    is an order of magnitude faster than the equivalent einsum; every
    quadrature-point map goes through here.
    """
    return rule.points @ corners


def map_to_triangle(rule, coords):
    """Physical node positions and weights of a reference rule on a triangle.

    `coords` is the (3, 2) vertex array; barycentric order follows the vertex
    order.  Returns (points (n,2), weights (n,)); weights include the Jacobian
    2|T| and sum to |T|.
    """
    coords = np.asarray(coords, dtype=float)
    pts = map_points(rule, coords)
    return pts, rule.weights * 2.0 * abs(signed_areas(coords))


def gauss_simplex(coords, degree, fn):
    """Integrate fn(x, y) over the triangle with vertex array `coords`.

    fn must accept numpy arrays of x and y and evaluate elementwise.
    """
    pts, w = map_to_triangle(simplex_rule(degree), coords)
    return float(w @ np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float))


def gauss_edge(a, b, degree, fn):
    """Integrate fn(x, y) over the segment from point a to point b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rule = edge_rule(degree)
    s = rule.points[:, 0]
    pts = a[None, :] + s[:, None] * (b - a)[None, :]
    length = float(np.hypot(*(b - a)))
    return length * float(rule.weights @ np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float))
