import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankdesign import (
    AffinePower,
    DomainError,
    ModelError,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    RangeError,
    Role,
    function_from_json,
)


def test_evaluate_examples():
    assert Power(2, 1).evaluate(0.8) == pytest.approx(1.6, abs=1e-15)
    assert Power(1, 0.5).evaluate(1.0) == pytest.approx(1.0, abs=1e-15)
    assert Power(1, 2).evaluate(0.5) == pytest.approx(0.25, abs=1e-15)


def test_invert_examples():
    assert Power(1, 2).invert(0.25) == pytest.approx(0.5, abs=1e-12)
    assert Power(2, 1).invert(1.6) == pytest.approx(0.8, abs=1e-12)
    x = Power(1, 0.5).invert(1.2)
    assert Power(1, 0.5).evaluate(x) == pytest.approx(1.2, abs=1e-12)
    assert x == pytest.approx(1.44, abs=1e-12)


def test_domain_and_range_errors():
    with pytest.raises(DomainError):
        Power(1, 2).evaluate(-0.1)
    with pytest.raises(RangeError):
        Power(1, 2).invert(-1.0)
    with pytest.raises(RangeError):
        AffinePower(1, 2, offset=0.5).invert(0.2)
    with pytest.raises(DomainError):
        Power(-1, 2)


PIECEWISE = PiecewiseMonotone(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 3.5)))


def _sample_specs():
    rng = np.random.default_rng(7)
    specs = []
    for _ in range(6):
        specs.append(Power(rng.uniform(0.2, 5.0), rng.uniform(0.2, 3.0)))
        specs.append(AffinePower(rng.uniform(0.2, 5.0), rng.uniform(0.2, 3.0), rng.uniform(-1, 1)))
    specs.append(PIECEWISE)
    return specs


def test_round_trip_thousand_points():
    rng = np.random.default_rng(11)
    for spec in _sample_specs():
        lo, hi = spec.domain
        hi = min(hi, 10.0)
        xs = rng.uniform(lo, hi, 1000)
        for x in xs:
            y = spec.evaluate(x)
            assert abs(spec.invert(y) - x) <= 1e-9 * max(1.0, abs(x))


def test_monotone_thousand_pairs():
    rng = np.random.default_rng(13)
    for spec in _sample_specs():
        lo, hi = spec.domain
        hi = min(hi, 10.0)
        pairs = np.sort(rng.uniform(lo, hi, (1000, 2)), axis=1)
        for x1, x2 in pairs:
            if x1 < x2:
                assert spec.evaluate(x1) < spec.evaluate(x2)


def test_curvature_by_role():
    rng = np.random.default_rng(17)
    g = Power(1.3, 0.6, role=Role.EFFORT_TRANSFER)
    p = Power(0.7, 2.4, role=Role.COST_FUNCTION)
    pairs = rng.uniform(0.0, 8.0, (1000, 2))
    for a, b in pairs:
        mid = 0.5 * (a + b)
        chord = 0.5 * (g.evaluate(a) + g.evaluate(b))
        assert g.evaluate(mid) >= chord - 1e-12
        chord_p = 0.5 * (p.evaluate(a) + p.evaluate(b))
        assert p.evaluate(mid) <= chord_p + 1e-12


def test_role_validation():
    with pytest.raises(ModelError):
        Power(1, 2, role=Role.EFFORT_TRANSFER)  # convex transfer
    with pytest.raises(ModelError):
        Power(1, 0.5, role=Role.COST_FUNCTION)  # concave cost
    with pytest.raises(ModelError):
        PiecewiseMonotone(((0, 0), (1, 1), (2, 3)), role=Role.EFFORT_TRANSFER)
    # convex piecewise cost is fine
    PiecewiseMonotone(((0, 0), (1, 1), (2, 3)), role=Role.COST_FUNCTION)


def test_piecewise_inverse():
    y = PIECEWISE.evaluate(0.73)
    assert abs(PIECEWISE.invert(y) - 0.73) < 1e-9
    with pytest.raises(RangeError):
        PIECEWISE.invert(4.0)


@given(
    scale=st.floats(0.1, 8.0),
    exponent=st.floats(0.15, 4.0),
    x=st.floats(1e-6, 50.0),
)
def test_power_round_trip_property(scale, exponent, x):
    spec = Power(scale, exponent)
    y = spec.evaluate(x)
    assert abs(spec.evaluate(spec.invert(y)) - y) <= 1e-12 * max(1.0, abs(y))


def test_population_normalization():
    f = Power(2, 1, role=Role.SKILL_QUANTILE)
    g = Power(1, 0.5, role=Role.EFFORT_TRANSFER)
    p = Power(1, 2, role=Role.COST_FUNCTION)
    pop = PopulationSpec(f=f, g=g, p=p, e0=0.0)
    assert pop.cost_inverse(1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        PopulationSpec(f=f, g=g, p=p, e0=-0.5)
    shifted = AffinePower(1, 2, offset=0.3, role=Role.COST_FUNCTION)
    with pytest.raises(ModelError):
        PopulationSpec(f=f, g=g, p=shifted, e0=0.0)  # p(e0) != 0


def test_population_nonzero_e0():
    # cost that reaches zero at e0 = 1, convex piecewise
    p = PiecewiseMonotone(((1.0, 0.0), (2.0, 1.0), (3.5, 3.0), (5.0, 6.0)), role=Role.COST_FUNCTION)
    pop = PopulationSpec(
        f=Power(1, 1, role=Role.SKILL_QUANTILE),
        g=Power(1, 0.5, role=Role.EFFORT_TRANSFER),
        p=p,
        e0=1.0,
    )
    assert pop.p.evaluate(pop.e0) == 0.0
    assert pop.cost_inverse(0.5) == pytest.approx(1.5, abs=1e-9)


def test_json_round_trip():
    obj = {"family": "power", "scale": 2.0, "exponent": 1.0}
    spec = function_from_json(obj)
    assert spec.to_json() == obj
    affine = AffinePower(1.5, 0.5, 0.25)
    assert function_from_json(affine.to_json()).evaluate(0.7) == affine.evaluate(0.7)
    pw = function_from_json(PIECEWISE.to_json())
    assert pw.evaluate(1.3) == PIECEWISE.evaluate(1.3)
    with pytest.raises(DomainError):
        function_from_json({"family": "rational", "a": 1})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(DomainError):
        Power(bad, 2.0)
    with pytest.raises(DomainError):
        Power(1.0, bad)
    with pytest.raises(DomainError):
        AffinePower(bad, 2.0, 0.0)
    with pytest.raises(DomainError):
        AffinePower(1.0, bad, 0.0)
    with pytest.raises(DomainError):
        AffinePower(1.0, 2.0, bad)
    with pytest.raises(DomainError):
        PiecewiseMonotone(((0.0, 0.0), (bad, 1.0), (2.0, 3.0)))
    with pytest.raises(DomainError):
        PiecewiseMonotone(((0.0, 0.0), (1.0, bad), (2.0, 3.0)))


def test_non_numeric_json_parameters_rejected():
    with pytest.raises(DomainError):
        function_from_json({"family": "power", "scale": "x", "exponent": 2.0})
    with pytest.raises(DomainError):
        function_from_json({"family": "affine_power", "scale": 1.0, "exponent": 2.0, "offset": None})
    with pytest.raises(DomainError):
        function_from_json({"family": "piecewise_monotone", "knots": [[0, 0], [1, "y"]]})
    with pytest.raises(DomainError):
        function_from_json({"family": "piecewise_monotone", "knots": [[0, 0], [1]]})


def _benchmark_knots(fn, n, hi):
    xs = np.linspace(0.0, hi, n)
    return PiecewiseMonotone(tuple((float(x), float(fn(x))) for x in xs))


PIECEWISE_SPECS = [
    PIECEWISE,
    PiecewiseMonotone(((1.0, -3.0), (2.0, 1.0), (3.5, 3.0), (5.0, 6.0))),
    _benchmark_knots(lambda x: 2.0 * x**1.5, 9, 1.0),
    _benchmark_knots(math.sqrt, 17, 2.0),
    _benchmark_knots(lambda x: x * x, 17, 2.0),
]


@pytest.mark.parametrize("spec", PIECEWISE_SPECS)
def test_piecewise_inverse_exact(spec):
    # Linear interpolation both ways: the round trip is off by at most one
    # ulp at the scale of the segment's endpoints, and knots map exactly.
    rng = np.random.default_rng(19)
    knot_xs = [x for x, _ in spec.knots]
    for x in rng.uniform(knot_xs[0], knot_xs[-1], 5000):
        x = float(x)
        i = max(1, int(np.searchsorted(knot_xs, x)))
        scale = max(abs(knot_xs[i - 1]), abs(knot_xs[i]))
        assert abs(spec.invert(spec.evaluate(x)) - x) <= math.ulp(scale)
    for x, y in spec.knots:
        assert spec.invert(y) == x
    assert spec.kinks == tuple(knot_xs[1:-1])


def test_kinks_empty_for_smooth_families():
    assert Power(2.0, 1.5).kinks == ()
    assert AffinePower(1.0, 0.5, 0.3).kinks == ()


def test_domain_check_rejects_nan():
    for spec in (Power(1.0, 2.0), AffinePower(1.0, 2.0, 0.0), PIECEWISE):
        with pytest.raises(DomainError):
            spec.evaluate(math.nan)
    with pytest.raises(RangeError):
        PIECEWISE.invert(math.nan)


# --- exact integrals and array arguments ----------------------------------


def _fine_integral(spec, a, b):
    # composite trapezoid on every knot plus 2**16 even steps: exact for a
    # piecewise-linear spec, O(h**2) for the smooth families
    xs = np.union1d(np.linspace(a, b, 2**16 + 1), [x for x in spec.kinks if a < x < b])
    return float(np.trapezoid(spec.evaluate(xs), xs))


@pytest.mark.parametrize(
    "spec, a, b, exact",
    [
        (Power(2.0, 1.0), 0.0, 1.0, 1.0),
        (Power(1.0, 8.0), 0.25, 0.75, (0.75**9 - 0.25**9) / 9.0),
        (Power(1.3, 0.6), 0.0, 2.0, 1.3 * 2.0**1.6 / 1.6),
        (AffinePower(1.0, 0.5, 0.4), 0.1, 1.0, (1.0 - 0.1**1.5) / 1.5 + 0.4 * 0.9),
        # knots (0, 0), (0.5, 0.2), (1, 1), (2, 3.5): trapezoids between them
        (PIECEWISE, 0.0, 2.0, 0.05 + 0.3 + 2.25),
        (PIECEWISE, 0.25, 1.5, 0.0375 + 0.3 + 0.8125),
        (PIECEWISE, 1.25, 1.75, 0.5 * (1.625 + 2.875) * 0.5),
        (PIECEWISE, 1.0, 1.0, 0.0),
    ],
)
def test_integral_closed_forms(spec, a, b, exact):
    assert spec.integral(a, b) == pytest.approx(exact, rel=1e-14, abs=1e-15)
    assert spec.integral(b, a) == pytest.approx(-exact, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("spec", PIECEWISE_SPECS + [Power(2.0, 1.5), AffinePower(0.7, 2.4, 0.1)])
def test_integral_matches_fine_reference(spec):
    lo, hi = spec.domain
    hi = min(hi, 2.0)
    rng = np.random.default_rng(23)
    for a, b in [(lo, hi)] + [tuple(sorted(rng.uniform(lo, hi, 2))) for _ in range(6)]:
        # piecewise specs are exact at any step; the smooth ones carry h**2 error
        tol = 1e-13 if isinstance(spec, PiecewiseMonotone) else 1e-8
        assert spec.integral(float(a), float(b)) == pytest.approx(_fine_integral(spec, a, b), rel=tol, abs=1e-15)


def test_integral_checks_domain():
    with pytest.raises(DomainError):
        Power(1.0, 2.0).integral(-0.5, 1.0)
    with pytest.raises(DomainError):
        PIECEWISE.integral(0.0, 2.5)


@pytest.mark.parametrize("spec", PIECEWISE_SPECS)
def test_piecewise_array_matches_scalar(spec):
    xs, ys = (np.array(v) for v in zip(*spec.knots))
    # knots map exactly, both ways
    assert spec.evaluate(xs).tolist() == [spec.evaluate(float(x)) for x in xs] == ys.tolist()
    assert spec.invert(ys).tolist() == [spec.invert(float(y)) for y in ys] == xs.tolist()
    # elsewhere within one ulp at the scale of the segment's endpoints
    rng = np.random.default_rng(31)
    for grid, other, fn in ((xs, ys, spec.evaluate), (ys, xs, spec.invert)):
        points = rng.uniform(grid[0], grid[-1], 5000)
        for point, value in zip(points, fn(points)):
            i = max(1, int(np.searchsorted(grid, point)))
            scale = max(abs(other[i - 1]), abs(other[i]))
            assert abs(value - fn(float(point))) <= math.ulp(scale)


@pytest.mark.parametrize("spec", [Power(1.3, 0.6), AffinePower(1.0, 0.5, 0.4)])
def test_power_array_matches_scalar(spec):
    # numpy's power and the interpreter's may round x**k differently by an ulp
    ulps = 4 * np.finfo(float).eps
    xs = np.linspace(0.0, 3.0, 301)
    assert spec.evaluate(xs).tolist() == pytest.approx([spec.evaluate(float(x)) for x in xs], rel=ulps)
    ys = spec.evaluate(xs)
    assert spec.invert(ys).tolist() == pytest.approx([spec.invert(float(y)) for y in ys], rel=ulps)


def test_array_domain_and_range_errors():
    for spec in (Power(1.0, 2.0), AffinePower(1.0, 2.0, 0.5), PIECEWISE):
        with pytest.raises(DomainError):
            spec.evaluate(np.array([0.5, -0.1]))
        with pytest.raises(DomainError):
            spec.evaluate(np.array([0.5, math.nan]))
    with pytest.raises(RangeError):
        Power(1.0, 2.0).invert(np.array([0.5, -1.0]))
    with pytest.raises(RangeError):
        AffinePower(1.0, 2.0, 0.5).invert(np.array([0.6, 0.2]))
    with pytest.raises(RangeError):
        PIECEWISE.invert(np.array([1.0, 4.0]))
    with pytest.raises(RangeError):
        PIECEWISE.invert(np.array([1.0, math.nan]))


def test_piecewise_scalar_evaluate_returns_knot_ys_exactly():
    # the segment formula alone gives 0.20000000000000018 at x = 0.1
    spec = PiecewiseMonotone(((-1.0, -5.0), (0.1, 0.2), (0.4, 0.9), (2.5, 11.0)))
    for x, y in spec.knots:
        assert spec.evaluate(x) == y
        assert spec.invert(y) == x


@pytest.mark.parametrize("spec", PIECEWISE_SPECS)
def test_piecewise_array_integral_matches_scalar(spec):
    xs = [x for x, _ in spec.knots]
    lo, hi = xs[0], xs[-1]
    rng = np.random.default_rng(37)
    pairs = [
        (lo, hi), (hi, lo), (xs[1], xs[-2]), (xs[1], xs[1]), (lo, xs[1]),  # limits on knots
        (0.5 * (xs[0] + xs[1]), 0.25 * xs[0] + 0.75 * xs[1]),  # inside one segment
        (0.5 * (xs[0] + xs[1]), 0.5 * (xs[-2] + xs[-1])),  # across every interior knot
        (xs[1], 0.5 * (xs[-2] + xs[-1])), (0.5 * (xs[0] + xs[1]), xs[-2]),
    ] + [tuple(rng.uniform(lo, hi, 2)) for _ in range(200)]
    a, b = (np.array(v) for v in zip(*pairs))
    scale = spec.integral(lo, hi) - 2.0 * min(0.0, spec.evaluate(lo)) * (hi - lo)  # bounds the integral of |f|
    got = spec.integral(a, b)
    for (x, y), value in zip(pairs, got):
        assert value == pytest.approx(spec.integral(float(x), float(y)), rel=1e-13, abs=4e-16 * scale)
    with pytest.raises(DomainError):
        spec.integral(np.array([lo, hi]), np.array([hi, hi + 1.0]))


def test_cost_inverse_takes_arrays():
    pops = [
        PopulationSpec(Power(2.0, 1.0), Power(1.0, 0.5), Power(1.0, 2.0)),
        PopulationSpec(Power(1.0, 1.0), Power(1.0, 0.5), PIECEWISE),
    ]
    for pop in pops:
        ys = np.array([0.0, 0.25, 1.0, 3.5])
        assert pop.cost_inverse(ys).tolist() == pytest.approx([pop.cost_inverse(float(y)) for y in ys], rel=1e-15)
        with pytest.raises(RangeError):
            pop.cost_inverse(np.array([0.25, -1e-300, 1.0]))
    with pytest.raises(ModelError):  # beyond the image of a bounded cost
        pops[1].cost_inverse(np.array([0.25, 4.0]))


# --- one dispatch rule: the edges of the array path -------------------------

_EDGE_ARGS = {
    "empty": np.array([]),
    "0-d": np.array(0.5),
    "one element": np.array([0.5]),
    "NaN inside": np.array([0.5, math.nan]),
    "below": np.array([0.5, -0.25]),
    "above": np.array([0.5, 4.0]),
}
_POWER_COST = PopulationSpec(Power(2.0, 1.0), Power(1.0, 0.5), Power(1.0, 2.0))
_PIECEWISE_COST = PopulationSpec(Power(1.0, 1.0), Power(1.0, 0.5), PIECEWISE)
# (call, the error of each edge that raises); the other edges map value by value
_EDGE_CALLS = {
    "Power.evaluate": (Power(1.0, 2.0).evaluate, {"NaN inside": DomainError, "below": DomainError}),
    "Power.invert": (Power(1.0, 2.0).invert, {"below": RangeError}),
    "AffinePower.evaluate": (AffinePower(1.0, 2.0, 0.5).evaluate, {"NaN inside": DomainError, "below": DomainError}),
    "AffinePower.invert": (AffinePower(1.0, 2.0, 0.5).invert, {"below": RangeError}),
    "PiecewiseMonotone.evaluate": (
        PIECEWISE.evaluate, {"NaN inside": DomainError, "below": DomainError, "above": DomainError}),
    "PiecewiseMonotone.invert": (
        PIECEWISE.invert, {"NaN inside": RangeError, "below": RangeError, "above": RangeError}),
    "cost_inverse of a power": (_POWER_COST.cost_inverse, {"below": RangeError}),
    # beyond the image of a bounded cost, NaN included, the cost cannot absorb the jump
    "cost_inverse of a piecewise": (
        _PIECEWISE_COST.cost_inverse, {"NaN inside": ModelError, "below": RangeError, "above": ModelError}),
}


@pytest.mark.parametrize("edge", sorted(_EDGE_ARGS))
@pytest.mark.parametrize("call", sorted(_EDGE_CALLS))
def test_array_edges_keep_their_results_and_errors(call, edge):
    """Empty, 0-d and one-element arrays, NaN inside an array, and arrays reaching
    outside the domain or image: the array's shape comes back with the number path's
    values, or the error the number path gives."""
    fn, errors = _EDGE_CALLS[call]
    x = _EDGE_ARGS[edge]
    if edge in errors:
        with pytest.raises(errors[edge]):
            fn(x)
        return
    got = fn(x)
    assert np.shape(got) == x.shape
    assert np.ravel(got).tolist() == pytest.approx([fn(float(v)) for v in x.ravel()], rel=1e-15, nan_ok=True)
