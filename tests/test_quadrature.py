import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rankdesign import QuadratureError
from rankdesign.quadrature import MAX_DEPTH, MAX_PIECES, _gauss_legendre, integrate_piecewise


@pytest.mark.parametrize("n", [10, 20])
def test_newton_nodes_match_leggauss(n):
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = leggauss(n)
    assert np.abs(nodes - ref_nodes).max() <= 1e-14
    assert np.abs(weights - ref_weights).max() <= 1e-14


def test_polynomials_and_smooth_functions():
    # the 10-point rule is exact to degree 19, so both rules agree to rounding
    value, err = integrate_piecewise(lambda x: x**19 - 3.0 * x**4, [0.0, 1.0])
    assert value == pytest.approx(1.0 / 20.0 - 3.0 / 5.0, rel=1e-14)
    assert err <= 1e-14
    value, _ = integrate_piecewise(np.sin, [0.0, 1.0, math.pi])
    assert value == pytest.approx(2.0, rel=1e-14)
    assert integrate_piecewise(np.zeros_like, [0.0, 0.5, 1.0]) == (0.0, 0.0)
    assert integrate_piecewise(np.exp, [1.0]) == (0.0, 0.0)


def test_refinement_resolves_a_steep_integrand():
    # 1 / sqrt(x) on [1e-6, 1] in one piece needs bisection near the left end
    value, err = integrate_piecewise(lambda x: 1.0 / np.sqrt(x), [1e-6, 1.0])
    exact = 2.0 * (1.0 - 1e-3)
    assert value == pytest.approx(exact, rel=1e-9)
    assert 0.0 <= err <= 1e-8 * exact


def test_array_nonconvergence_reports_partial():
    def wild(x):
        x = np.maximum(x, 1e-12)
        return np.sin(1.0 / x) / x

    with pytest.raises(QuadratureError) as info:
        integrate_piecewise(wild, [1e-9, 1.0])
    assert info.value.partial is not None and math.isfinite(info.value.partial)
    assert f"after {MAX_DEPTH} bisections" in str(info.value)


def test_open_pieces_are_capped():
    # unresolvable everywhere: every piece splits each round until the cap
    with pytest.raises(QuadratureError) as info:
        integrate_piecewise(lambda x: np.sin(1e9 * x), [0.0, 1.0])
    assert f"on {MAX_PIECES} pieces" in str(info.value)
    assert math.isfinite(info.value.partial)
