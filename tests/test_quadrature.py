import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from rdafem import quadrature as quad

from oracles import gauss_simplex, integrate_barycentric

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

TRI = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.7]])


def tri_area(coords):
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    return 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])


def test_factorial_formula_simplest_moments():
    # int lam_i over T is |T|/3, int lam_i lam_j is |T|/12, int lam_i^2 is |T|/6
    area = tri_area(TRI)
    assert np.isclose(integrate_barycentric(area, (1, 0, 0)), area / 3, rtol=1e-15)
    assert np.isclose(integrate_barycentric(area, (1, 1, 0)), area / 12, rtol=1e-15)
    assert np.isclose(integrate_barycentric(area, (2, 0, 0)), area / 6, rtol=1e-15)
    assert np.isclose(integrate_barycentric(area, (1, 1, 1)), area / 60, rtol=1e-15)
    assert np.isclose(integrate_barycentric(area, (0, 0, 0)), area, rtol=1e-15)


@pytest.mark.parametrize("degree", range(11))
def test_simplex_rule_exact_on_barycentric_monomials(degree):
    rule = quad.simplex_rule(degree)
    area = tri_area(TRI)
    worst = 0.0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = degree - a - b
            vals = rule.points[:, 0]**a * rule.points[:, 1]**b * rule.points[:, 2]**c
            got = 2.0 * area * (rule.weights @ vals)
            ref = integrate_barycentric(area, (a, b, c))
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-13


def test_simplex_rule_reference_weights():
    for degree in (1, 4, 8):
        rule = quad.simplex_rule(degree)
        assert np.isclose(rule.weights.sum(), 0.5, rtol=1e-14)
        assert (rule.weights > 0).all()
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
        assert (rule.points > -1e-15).all()


def test_simplex_rule_cached():
    assert quad.simplex_rule(6) is quad.simplex_rule(6)


def test_edge_rule_exact_on_polynomials():
    rule = quad.edge_rule(9)
    assert np.isclose(rule.weights.sum(), 1.0, rtol=1e-14)
    for k in range(10):
        got = rule.weights @ rule.points[:, 0]**k
        assert np.isclose(got, 1.0 / (k + 1), rtol=1e-14), k


def test_edge_rule_hat_product():
    # int over F of lam1 lam2 equals |F|/6
    a, b = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    val = quad.gauss_edge(a, b, 3, lambda x, y: ((x - a[0]) / 2) * (1 - (x - a[0]) / 2))
    assert np.isclose(val, np.linalg.norm(b - a) / 6, rtol=1e-14)


def test_map_to_triangle_measures_area():
    rule = quad.simplex_rule(2)
    pts, weights = quad.map_to_triangle(rule, TRI)
    assert np.isclose(weights.sum(), tri_area(TRI), rtol=1e-14)
    assert pts.shape == (len(rule.points), 2)


def test_gauss_simplex_polynomial():
    # int over the reference triangle of x^2 y equals 1/60
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    val = gauss_simplex(ref, 3, lambda x, y: x**2 * y)
    assert np.isclose(val, 1.0 / 60.0, rtol=1e-14)


def test_gauss_edge_length():
    a, b = np.array([1.0, 2.0]), np.array([4.0, 6.0])
    assert np.isclose(quad.gauss_edge(a, b, 1, lambda x, y: 1.0 + 0 * x), 5.0,
                      rtol=1e-14)


@pytest.mark.parametrize("n", range(1, 17))
def test_gauss_rules_match_scipy(n):
    # scipy.special is the oracle here only; rdafem does not import it.  Its
    # Gauss-Jacobi weights are themselves up to about 310 ulps of the largest
    # weight away from the exact ones at n = 16, so weights are compared at
    # 1e-13 of the largest and nodes at 4 ulps
    from scipy.special import roots_jacobi, roots_legendre

    rules = {"jacobi": (quad._gauss_jacobi_10(n), roots_jacobi(n, 1.0, 0.0)),
             "legendre": (quad.leggauss(n), roots_legendre(n))}
    for name, ((x, w), (x_want, w_want)) in rules.items():
        assert np.abs(x - x_want).max() <= 4 * np.spacing(np.abs(x_want).max()), name
        assert np.abs(w - w_want).max() <= 1e-13 * w_want.max(), name
        assert abs(w.sum() - 2.0) <= 4e-16 * n, name


def test_import_path_leaves_out_scipy_special():
    code = ("import sys, rdafem.cli, rdafem.adapt; "
            "assert 'scipy.special' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
