"""Quadrature on triangles and segments: Gauss rules of selectable degree.

The closed-form integrals of barycentric monomials that the tests check these
rules against live with the tests (`tests/oracles.py`).
"""

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import signed_areas

# Degree used for pairings with generic (non-polynomial) data.
DEFAULT_DEGREE = 8


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
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)


def _jacobi(n, a, b, x):
    """The Jacobi polynomial P_n^(a,b) at x, for integers a and b: the
    three-term recurrence, written for the differences d of successive
    polynomials scaled to 1 at x = 1, times P_n(1) = binom(n + a, n)."""
    if n == 0:
        return np.ones_like(x)
    d = (a + b + 2) * (x - 1) / (2 * (a + 1))
    p = d + 1
    for k in range(1, n):
        t = 2 * k + a + b
        d = (t * (t + 1) * (t + 2) * (x - 1) * p + 2 * k * (k + b) * (t + 2) * d) / (
            2 * (k + a + 1) * (k + a + b + 1) * t)
        p = d + p
    return math.comb(n + a, n) * p


def _gauss_jacobi_10(n):
    """Nodes and weights of the n-point Gauss rule for the weight 1 - x on
    [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of P^(1,0), polished by two Newton steps.  The weights are
    4 / ((1 - x^2) P_n'(x)^2) at the polished nodes, scaled to sum to 2, the
    integral of the weight.  For n up to 16 they lie within 29 ulps of the
    largest weight from the exact ones (those of scipy.special.roots_jacobi
    within 312), and the nodes within 2 ulps.
    """
    k = np.arange(n, dtype=float)
    diag = -1.0 / ((2 * k + 1) * (2 * k + 3))
    off = np.sqrt(k[1:] * (k[1:] + 1)) / (2 * k[1:] + 1)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def derivative(x):  # of P_n^(1,0)
        return 0.5 * (n + 2) * _jacobi(n - 1, 2, 1, x)

    for _ in range(2):
        x = x - _jacobi(n, 1, 0, x) / derivative(x)
    w = 1.0 / ((1.0 - x * x) * derivative(x) ** 2)
    return x, w * (2.0 / w.sum())


@functools.cache
def simplex_rule(degree):
    """Conical-product Gauss rule on the reference triangle, exact to `degree`.

    Built from Gauss-Jacobi (weight 1-x) and Gauss-Legendre 1D rules, so any
    requested degree is available.  Rules are cached.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = (max(int(degree), 1) + 2) // 2  # 2n-1 >= degree
    xj, wj = _gauss_jacobi_10(n)
    xl, wl = leggauss(n)
    xi = 0.5 * (1.0 + xj)      # with weight (1-xi), factor 1/4 on weights
    eta = 0.5 * (1.0 + xl)     # plain, factor 1/2 on weights
    X, Y = np.meshgrid(xi, eta, indexing="ij")
    WX, WY = np.meshgrid(0.25 * wj, 0.5 * wl, indexing="ij")
    x = X.ravel()
    y = (Y * (1.0 - X)).ravel()
    w = (WX * WY).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(bary, w)


@functools.cache
def edge_rule(degree):
    """Gauss-Legendre rule on the unit segment, exact to `degree`."""
    n = (max(int(degree), 1) + 2) // 2
    x, w = leggauss(n)
    s = 0.5 * (1.0 + x)
    return QuadratureRule(s[:, None], 0.5 * w)


def map_points(rule, corners):
    """Nodes of a triangle rule on every triangle of `corners`.

    `corners` is (..., 3, d): per triangle, some d-vector per vertex in
    barycentric order, usually the vertex coordinates.  Returns (..., n, d),
    the corner data interpolated linearly at the n nodes.  One matmul, which
    is an order of magnitude faster than the equivalent einsum; every
    quadrature-point map goes through here.
    """
    return rule.points @ corners


def node_sums(values, weights):
    """Values at the nodes (..., n) summed against weights (n,) or (n, k).  An
    einsum sums a row in one order whatever rows come with it, where a matmul
    rounds it by their number: a row sums the same in any block, bit for bit."""
    return np.einsum("...q,q->..." if np.ndim(weights) == 1 else "...q,qk->...k",
                     values, weights)


def map_to_triangle(rule, coords):
    """Physical node positions and weights of a reference rule on a triangle.

    `coords` is the (3, 2) vertex array; barycentric order follows the vertex
    order.  Returns (points (n,2), weights (n,)); weights include the Jacobian
    2|T| and sum to |T|.
    """
    coords = np.asarray(coords, dtype=float)
    pts = map_points(rule, coords)
    return pts, rule.weights * 2.0 * abs(signed_areas(coords))


def gauss_edge(a, b, degree, fn):
    """Integrate fn(x, y) over the segment from point a to point b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rule = edge_rule(degree)
    s = rule.points[:, 0]
    pts = a[None, :] + s[:, None] * (b - a)[None, :]
    length = float(np.hypot(*(b - a)))
    return length * float(rule.weights @ np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float))
