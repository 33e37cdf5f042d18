import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rankdesign import QuadratureError
from rankdesign.quadrature import MAX_DEPTH, MAX_PIECES, _gauss_legendre, integrate_piecewise, integrate_stacked


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


def _wild(x):
    x = np.maximum(x, 1e-12)
    return np.sin(1.0 / x) / x


def _easy(x):
    # exp(x), but sqrt(x) on a piece too small to matter: the row passes in one round, that piece alone would not
    return np.where(x < 1e-9, np.sqrt(x), np.exp(x))


def _steep(x):
    return 1.0 / np.sqrt(x)


def test_stacked_rows_refine_alone():
    # the steep row bisects for many rounds; the easy one closes on both its pieces in the first
    open_pieces = []

    def f(x, row):
        open_pieces.append(np.bincount(row.ravel(), minlength=2).tolist())
        return np.where(row == 0, _easy(x), _steep(x))

    values, errors = integrate_stacked(f, [[0.0, 1e-9, 1.0], [1e-6, 1.0]])
    assert open_pieces[0] == [2, 1] and len(open_pieces) > 2
    assert all(easy == 0 for easy, _ in open_pieces[1:])
    alone = [integrate_piecewise(_easy, [0.0, 1e-9, 1.0]), integrate_piecewise(_steep, [1e-6, 1.0])]
    assert list(zip(values, errors)) == alone


def test_stacked_failure_carries_the_failing_rows_partial():
    with pytest.raises(QuadratureError) as alone:
        integrate_piecewise(_wild, [1e-9, 1.0])
    with pytest.raises(QuadratureError) as stacked:
        integrate_stacked(lambda x, row: np.where(row == 1, _wild(x), x), [[0.0, 1.0], [1e-9, 1.0], [0.0, 1.0]])
    assert stacked.value.partial == alone.value.partial
    assert f"after {MAX_DEPTH} bisections" in str(stacked.value) and "in row 1" in str(stacked.value)


def test_open_pieces_are_capped_over_all_rows():
    # one row splits to MAX_PIECES pieces in 14 bisections; two rows reach the cap together in 13
    for rows, depth in (([[0.0, 1.0]], 14), ([[0.0, 1.0], [0.0, 1.0]], 13)):
        with pytest.raises(QuadratureError) as info:
            integrate_stacked(lambda x, row: np.sin(1e9 * x), rows)
        assert f"on {MAX_PIECES} pieces after {depth} bisections" in str(info.value)


def test_stacked_rows_without_pieces_are_zero():
    values, errors = integrate_stacked(lambda x, row: np.exp(x), [[1.0], [0.0, 1.0], []])
    assert values.tolist()[0::2] == [0.0, 0.0] and errors.tolist()[0::2] == [0.0, 0.0]
    assert values[1] == pytest.approx(math.e - 1.0, rel=1e-14)
