"""Quadrature for piecewise-smooth integrands.

Integrands here are smooth except at a known, small set of points (band
cutpoints, effort switch points and the kinks of the primitives), so the
caller passes those as forced breakpoints and each piece is integrated on
its own.

``integrate_stacked`` is the one adaptive routine.  It integrates many
rows at once, each one integral over its own breakpoints, and evaluates a
20-point and a 10-point Gauss-Legendre rule on every open piece of every
row in one call of the integrand; the difference of the two rules is the
error estimate, in the spirit of QUADPACK's Gauss-Kronrod pairs (Piessens
et al., 1983).  Each row is accepted or refined by its own estimate.
``integrate_piecewise`` is its one-row case, returning floats; there is
no separate one-row arithmetic.  ``adaptive_simpson`` is the scalar
recursive Simpson rule, kept as an independent reference for the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

DEFAULT_REL_TOL = 1e-8
MAX_DEPTH = 20
MAX_PIECES = 1 << 14  # open pieces in one round, over all rows; bounds the memory of a round


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
# both rules moved to [0, 1]: one line of nodes per piece, the 20-point rule's first
_UNIT_NODES = 0.5 * (np.concatenate([_HIGH_NODES, _LOW_NODES]) + 1.0)
# _rules' three weight lines, applied to a piece's values followed by the
# |values| at its 20-point nodes
_WEIGHTS = np.zeros((3, _UNIT_NODES.size + _HIGH))
_WEIGHTS[0, :_HIGH] = _WEIGHTS[2, _UNIT_NODES.size :] = 0.5 * _HIGH_WEIGHTS
_WEIGHTS[1, _HIGH : _UNIT_NODES.size] = 0.5 * _LOW_WEIGHTS


def _rules(f, lo: np.ndarray, hi: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Per piece: the 20-point rule, the 10-point rule and the 20-point rule of |f|, as three lines.

    The sums are einsums, not BLAS products: BLAS kernels round a line
    differently by how many lines there are, and a row's result must not
    depend on the rows stacked with it.
    """
    width = hi - lo
    values = f(lo[:, None] + width[:, None] * _UNIT_NODES, row[:, None])
    values = np.concatenate([values, np.abs(values[:, :_HIGH])], axis=1)
    return np.einsum("ij,kj->ki", values, _WEIGHTS) * width


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


def integrate_stacked(f, rows) -> tuple[np.ndarray, np.ndarray]:
    """Integrate many piecewise integrands at once; returns (values, error estimates), one per row.

    Row r integrates over the consecutive pieces between its breakpoints
    ``rows[r]``.  Each round evaluates the 20- and 10-point Gauss-Legendre
    rules on every open piece of every row in one call ``f(x, row)``: x
    holds the nodes, one line per open piece, ``row`` is the column of the
    rows those pieces belong to, and f returns the values in x's shape.  A
    row's value sums its 20-point rules and its error estimate their
    distances to the 10-point rules.  A row is accepted once its error
    estimate is at most DEFAULT_REL_TOL times its integral of |f|; until
    then every piece of that row whose own estimate exceeds that share is
    bisected for the next round, and the other rows are not touched.  A row
    is summed in the same order whatever rows it is stacked with, so its
    result does not depend on them.  After MAX_DEPTH bisections, or with
    more than MAX_PIECES pieces open over all rows, raises QuadratureError
    carrying the value so far of the first row still open as ``partial``:
    the piece cap is shared, so a batch can raise where each of its rows
    alone would converge.
    """
    rows = list(rows)
    n = len(rows)
    lo, hi, row = [], [], []
    for r, breakpoints in enumerate(rows):
        pts = sorted(set(map(float, breakpoints)))
        for a, b in zip(pts, pts[1:]):
            if b - a > 1e-15 * max(1.0, abs(b)):
                lo.append(a)
                hi.append(b)
                row.append(r)
    if not row:
        return np.zeros(n), np.zeros(n)
    lo, hi, row = np.array(lo), np.array(hi), np.array(row, dtype=np.intp)
    # of each row's pieces already done: the number 0.0 until a round closes some, as adding
    # 0.0 leaves a sum's bits; np.bincount adds a row's pieces in order, 0.0 + x[0] + x[1] + ...
    value = err = size = 0.0
    depth = 0
    while lo.size:
        sums = _rules(f, lo, hi, row)
        high, piece_size = sums[0], sums[2]
        delta = np.abs(high - sums[1])
        closing_err = err + np.bincount(row, delta, n)
        accepted = closing_err <= DEFAULT_REL_TOL * (size + np.bincount(row, piece_size, n))
        if accepted.all():  # every row closes on all its open pieces
            return value + np.bincount(row, high, n), closing_err
        keep = (delta > DEFAULT_REL_TOL * piece_size) & ~accepted[row]  # an accepted row closes on all its pieces
        done = ~keep
        value = value + np.bincount(row[done], high[done], n)
        err = err + np.bincount(row[done], delta[done], n)
        size = size + np.bincount(row[done], piece_size[done], n)
        lo, hi, row = lo[keep], hi[keep], row[keep]
        if lo.size and (depth == MAX_DEPTH or 2 * lo.size > MAX_PIECES):
            r = int(row.min())
            first = int(np.argmax(row == r))
            raise QuadratureError(
                f"Gauss-Legendre refinement did not converge on {lo.size} pieces "
                f"after {depth} bisections, first [{lo[first]}, {hi[first]}] in row {r}",
                partial=float(value[r] + high[keep][row == r].sum()),
            )
        mid = 0.5 * (lo + hi)
        lo, hi, row = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([row, row])
        depth += 1
    return value, err


def integrate_piecewise(f, breakpoints) -> tuple[float, float]:
    """Integrate f over consecutive [b_i, b_{i+1}] pieces; returns (value, error estimate).

    ``f`` maps a 1-d array of points to the array of its values.  This is
    ``integrate_stacked`` with one row, and raises as it does.
    """
    value, err = integrate_stacked(lambda x, _row: f(x.ravel()).reshape(x.shape), [breakpoints])
    return float(value[0]), float(err[0])
