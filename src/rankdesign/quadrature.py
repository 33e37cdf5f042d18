"""Quadrature for piecewise-smooth integrands.

Integrands here are smooth except at a known, small set of points (band
cutpoints, effort switch points and the kinks of the primitives), so the
caller passes those as forced breakpoints and each piece is integrated on
its own.

``integrate_piecewise`` takes an integrand that maps an array of points to
an array of values and evaluates a 20-point and a 10-point Gauss-Legendre
rule on every piece in one call; the difference of the two rules is the
error estimate, in the spirit of QUADPACK's Gauss-Kronrod pairs (Piessens
et al., 1983).  ``adaptive_simpson`` is the scalar recursive Simpson rule,
kept as an independent reference for the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

DEFAULT_REL_TOL = 1e-8
MAX_DEPTH = 20
MAX_PIECES = 1 << 14  # open pieces in one round; bounds the memory of a round


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence, from the
    first guesses cos(pi * (i - 1/4) / (n + 1/2)).  Computed here rather than
    taken from numpy.polynomial, whose import costs about 1 MB of memory.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 1e-16:
            break
    return x[::-1].copy(), 2.0 / ((1.0 - x * x) * slope * slope)[::-1]


_HIGH_NODES, _HIGH_WEIGHTS = _gauss_legendre(20)
_LOW_NODES, _LOW_WEIGHTS = _gauss_legendre(10)
_HIGH = _HIGH_NODES.size
# both rules moved to [0, 1]: one row of nodes per piece, and a weight matrix
# whose two columns apply the 20-point and the 10-point rule to that row
_UNIT_NODES = 0.5 * (np.concatenate([_HIGH_NODES, _LOW_NODES]) + 1.0)
_RULES = np.zeros((_UNIT_NODES.size, 2))
_RULES[:_HIGH, 0] = 0.5 * _HIGH_WEIGHTS
_RULES[_HIGH:, 1] = 0.5 * _LOW_WEIGHTS


def geometric_breakpoints(lo: float, hi: float) -> list[float]:
    """Breakpoints 2 lo, 4 lo, 8 lo, ... while the last one is below hi / 8.

    For an integrand on [lo, hi] that varies on the scale of lo, such as an
    effort that decays like a power of lo / theta, the pieces they make are
    each resolvable by a fixed-order rule.
    """
    pts = []
    edge = lo
    while 0.0 < edge < 0.125 * hi:
        edge *= 2.0
        pts.append(edge)
    return pts


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (fa + 4.0 * fm + fb) * h / 6.0


def _adaptive(f, a, m, b, fa, fm, fb, whole, eps, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0, abs(delta) / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"Simpson refinement did not converge after {MAX_DEPTH} levels on [{a}, {b}]",
            partial=left + right + delta / 15.0,
        )
    lv, le = _adaptive(f, a, lm, m, fa, flm, fm, left, 0.5 * eps, depth + 1)
    rv, re = _adaptive(f, m, rm, b, fm, frm, fb, right, 0.5 * eps, depth + 1)
    return lv + rv, le + re


def adaptive_simpson(f, a: float, b: float, rel_tol: float = DEFAULT_REL_TOL) -> tuple[float, float]:
    """Integrate a scalar f over [a, b]; returns (value, error estimate).

    The tolerance is relative to a first-pass magnitude estimate, with an
    absolute floor so an identically-zero integrand terminates immediately.
    """
    if b <= a:
        return 0.0, 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    scale = max(abs(whole), (abs(fa) + 4.0 * abs(fm) + abs(fb)) * (b - a) / 6.0)
    eps = rel_tol * max(scale, 1e-300)
    if scale == 0.0:
        # integrand numerically zero at the probe points; one refinement to confirm
        lv = _simpson(fa, f(0.5 * (a + m)), fm, m - a)
        rv = _simpson(fm, f(0.5 * (m + b)), fb, b - m)
        if lv == 0.0 and rv == 0.0:
            return 0.0, 0.0
        scale = abs(lv + rv)
        eps = rel_tol * scale
    return _adaptive(f, a, m, b, fa, fm, fb, whole, eps, 0)


def integrate_piecewise(f, breakpoints) -> tuple[float, float]:
    """Integrate f over consecutive [b_i, b_{i+1}] pieces; returns (value, error estimate).

    ``f`` maps a 1-d array of points to the array of its values.  Each round
    evaluates the 20- and 10-point Gauss-Legendre rules on every open piece
    in one call of ``f``.  The value sums the 20-point rules and the error
    estimate their distances to the 10-point rules.  The result is accepted
    once the error estimate is at most DEFAULT_REL_TOL times the integral of
    |f|; until then every piece whose own estimate exceeds that share is
    bisected for the next round.  After MAX_DEPTH bisections, or with more
    than MAX_PIECES pieces open, raises QuadratureError carrying the value
    so far as ``partial``.
    """
    pts = sorted(set(float(x) for x in breakpoints))
    pieces = [(a, b) for a, b in zip(pts, pts[1:]) if b - a > 1e-15 * max(1.0, abs(b))]
    if not pieces:
        return 0.0, 0.0
    lo, hi = np.array(pieces).T
    value = err = size = 0.0  # of the pieces already done
    depth = 0
    while True:
        width = hi - lo
        values = f((lo[:, None] + width[:, None] * _UNIT_NODES).ravel()).reshape(lo.size, -1)
        rules = (values @ _RULES) * width[:, None]
        delta = np.abs(rules[:, 0] - rules[:, 1])
        piece_size = (np.abs(values[:, :_HIGH]) @ _RULES[:_HIGH, 0]) * width
        if err + delta.sum() <= DEFAULT_REL_TOL * (size + piece_size.sum()):
            return value + float(rules[:, 0].sum()), err + float(delta.sum())
        done = delta <= DEFAULT_REL_TOL * piece_size
        value += float(rules[done, 0].sum())
        err += float(delta[done].sum())
        size += float(piece_size[done].sum())
        lo, hi = lo[~done], hi[~done]
        if depth == MAX_DEPTH or 2 * lo.size > MAX_PIECES:
            raise QuadratureError(
                f"Gauss-Legendre refinement did not converge on {lo.size} pieces "
                f"after {depth} bisections, first [{lo[0]}, {hi[0]}]",
                partial=value + float(rules[~done, 0].sum()),
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        depth += 1
