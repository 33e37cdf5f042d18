"""The batch path of ``solve_bands``, ``band_utilities`` and ``band_welfare`` against the scalar
reference in ``scalar_reference``, ``_read_ranks`` against the scalar reads of one schedule, and
the batch's unchecked reads of f inside f's domain.

Each row of a batch must reproduce the scalar recursion's band constants and
the scalar band integrals to rounding: the two paths differ only where
numpy's pow and libm's round differently.  ``solve`` and ``welfare_report``
are one row of the batch path.  The transfer has g(e0) > 0, so bands can
switch to the idle branch inside.
"""

import contextlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankdesign import (
    AffinePower,
    GroupSpec,
    ModelError,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    RankDesignError,
    RewardPolicy,
    Role,
    UnmeasurableSpec,
    audit_sweep,
    beta_for_interior_optimum,
    effort_at,
    private_utility,
    score_at,
    societal_utility,
    solve,
    two_level,
    validate,
    weighted_private_utility,
    welfare_report,
)
from rankdesign.equilibrium import _read_ranks, solve_bands
from rankdesign.groups import _MixedQuantile
from rankdesign.welfare import band_utilities, band_welfare

import scalar_reference as reference

REL = 1e-12


def _increasing(lo, hi, n):
    """n increasing values inside (lo, hi), at least (hi - lo) / (20 * (n + 1)) apart."""
    return st.lists(st.floats(0.05, 1.0), min_size=n + 1, max_size=n + 1).map(
        lambda w: [lo + (hi - lo) * c for c in (np.cumsum(w)[:-1] / sum(w)).tolist()]
    )


@st.composite
def _knots(draw, x_hi, y0, curvature):
    """Knots on [0, x_hi] from y0 whose slopes fall (-1), rise (+1) or vary (0)."""
    n = draw(st.integers(2, 6))
    xs = [0.0, *draw(_increasing(0.0, x_hi, n - 2)), x_hi]
    slopes = draw(_increasing(0.1, 4.0, n - 1))
    if curvature < 0:
        slopes = slopes[::-1]
    elif curvature == 0:
        slopes = draw(st.permutations(slopes))
    ys = [y0]
    for x0, x1, slope in zip(xs, xs[1:], slopes):
        ys.append(ys[-1] + slope * (x1 - x0))
    return tuple(zip(xs, ys))


def _skills():
    return st.one_of(
        st.builds(Power, st.floats(0.5, 3.0), st.floats(0.3, 3.0)),
        st.builds(lambda s, e, o: AffinePower(s, e, o * s), st.floats(0.5, 3.0), st.floats(0.5, 2.0), st.floats(0.0, 0.2)),
        _knots(1.0, 0.0, 0).map(PiecewiseMonotone),
    )


def _transfers():
    """Concave transfers with g(0) > 0; a piecewise one may end below a threshold effort."""
    return st.one_of(
        st.builds(
            lambda s, e, o: AffinePower(s, e, o, role=Role.EFFORT_TRANSFER),
            st.floats(0.5, 2.0), st.floats(0.25, 1.0), st.floats(0.05, 1.0),
        ),
        st.tuples(st.floats(0.5, 3.0), st.floats(0.05, 1.0)).flatmap(
            lambda hi_y0: _knots(*hi_y0, -1).map(lambda k: PiecewiseMonotone(k, role=Role.EFFORT_TRANSFER))
        ),
    )


def _costs():
    """Convex costs with p(0) = 0; a piecewise one may not absorb a reward jump."""
    return st.one_of(
        st.builds(lambda s, e: Power(s, e, role=Role.COST_FUNCTION), st.floats(0.5, 2.0), st.floats(1.2, 4.0)),
        st.floats(0.5, 3.0).flatmap(
            lambda hi: _knots(hi, 0.0, 1).map(lambda k: PiecewiseMonotone(k, role=Role.COST_FUNCTION))
        ),
    )


@st.composite
def _batches(draw):
    """1-5 valid policies with K levels each; the lowest level is 0 on some rows."""
    k = draw(st.sampled_from((2, 3, 4, 1)))  # hypothesis draws the first entry most often
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        levels = draw(_increasing(0.0, 1.0, k))
        if k > 1 and draw(st.booleans()):
            levels[0] = 0.0
        policy = RewardPolicy(tuple(levels), tuple(draw(_increasing(0.0, 1.0, k - 1))), 0.5)
        rows.append(RewardPolicy(policy.levels, policy.cutpoints, policy.expected_reward()))
        assert validate(rows[-1]).ok
    return rows


def _arrays(policies):
    levels = np.array([p.levels for p in policies])
    cutpoints = np.array([p.cutpoints for p in policies]).reshape(len(policies), -1)
    return levels, cutpoints


def _examples(local: int) -> int:
    """``local``, or the ``oracle-deep`` profile's budget (tests/conftest.py) when pytest runs with it."""
    deep = settings.get_profile("oracle-deep")
    return deep.max_examples if settings.default is deep else local


def _close(batch, scalar):
    return math.isclose(batch, scalar, rel_tol=REL, abs_tol=1e-300)


@settings(max_examples=_examples(60), deadline=None)
@given(f=_skills(), g=_transfers(), p=_costs(), policies=_batches())
def test_batch_matches_scalar_solve(f, g, p, policies):
    population = PopulationSpec(f, g, p)
    levels, cutpoints = _arrays(policies)
    try:
        scalar = [reference.solve_bands(population, policy) for policy in policies]
    except ModelError:
        with pytest.raises(ModelError):
            band_utilities(population, levels, cutpoints)
        with pytest.raises(ModelError):
            for policy in policies:
                solve(population, policy)
        return
    bands = solve_bands(population, levels, cutpoints)
    societal, private = band_utilities(population, levels, cutpoints)
    for i, (policy, want) in enumerate(zip(policies, scalar)):
        schedule = solve(population, policy)
        assert schedule.bands == tuple(
            type(band)(k, bands.lo[i, k], bands.hi[i, k], *(None if math.isnan(v) else v for v in (
                bands.threshold_effort[i, k], bands.switch_point[i, k], bands.floor[i, k])), bands.idle)
            for k, band in enumerate(schedule.bands)
        )
        for k, band in enumerate(want):
            assert (bands.lo[i, k], bands.hi[i, k], bands.idle) == (band.lo, band.hi, band.idle)
            if k == 0:
                assert math.isnan(bands.threshold_effort[i, 0]) and math.isnan(bands.floor[i, 0])
            else:
                assert _close(bands.threshold_effort[i, k], band.threshold_effort)
                assert _close(bands.floor[i, k], band.floor)
            if band.switch_point is None:
                assert math.isnan(bands.switch_point[i, k])
            else:
                assert _close(bands.switch_point[i, k], band.switch_point)
        scores = [reference.band_score_integral(population, band) for band in want]
        assert _close(societal[i], sum(scores))
        assert _close(private[i], sum(level * s for level, s in zip(policy.levels, scores) if level != 0.0))
        assert (societal_utility(schedule), private_utility(schedule)) == (societal[i], private[i])


@settings(max_examples=_examples(60), deadline=None)
@given(f=_skills(), g=_transfers(), p=_costs(), policies=_batches(), drawn=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_read_ranks_matches_scalar_reads(f, g, p, policies, drawn):
    """Bands equal ``band_of`` exactly, efforts and scores ``effort_at`` and ``score_at`` to
    rounding, at 0, 1, every cutpoint, switch point and skill kink, and at drawn ranks.  K runs
    from 1 to 4 and g(e0) > 0, so bands switch to the idle branch inside."""
    population = PopulationSpec(f, g, p)
    for policy in policies:
        try:
            schedule = solve(population, policy)
        except ModelError:
            continue
        switches = [band.switch_point for band in schedule.bands if band.switch_point is not None]
        thetas = np.array([0.0, 1.0, *policy.cutpoints, *switches, *getattr(f, "kinks", ()), *drawn])
        bands, efforts, scores = _read_ranks(schedule, thetas)
        for theta, band, effort, score in zip(thetas.tolist(), bands.tolist(), efforts.tolist(), scores.tolist()):
            assert band == schedule.band_of(theta).k
            # where the band idles, at and past a switch point, the array gives e0 to rounding
            assert math.isclose(effort, effort_at(schedule, theta), rel_tol=REL, abs_tol=1e-12)
            assert _close(score, score_at(schedule, theta))


def test_batch_raises_model_error_when_any_row_does():
    f, g = Power(2.0, 1.0, role=Role.SKILL_QUANTILE), Power(1.0, 0.5, role=Role.EFFORT_TRANSFER)
    populations = [
        # the transfer ends at effort 0.8, below the admitted band's threshold at c = 0.8
        PopulationSpec(f, PiecewiseMonotone(((0.0, 0.1), (0.4, 0.4), (0.8, 0.6)), role=Role.EFFORT_TRANSFER), g),
        # a cost bounded by 0.5 absorbs the jump at c = 0.3 but not the unit jump at c = 0.8
        PopulationSpec(f, g, PiecewiseMonotone(((0.0, 0.0), (0.5, 0.1), (1.0, 0.5)), role=Role.COST_FUNCTION)),
    ]
    policies = [two_level(0.3, 0.2), two_level(0.8, 0.2)]
    levels, cutpoints = _arrays(policies)
    for population in populations:
        solve(population, policies[0])
        with pytest.raises(ModelError):
            solve(population, policies[1])
        with pytest.raises(ModelError):
            band_utilities(population, levels, cutpoints)
        first, _ = band_utilities(population, levels[:1], cutpoints[:1])
        want = reference.welfare(population, policies[0], reference.solve_bands(population, policies[0]))
        assert _close(first[0], want[1])


@st.composite
def _welfare_batches(draw):
    """``_batches``, or 1-5 two-level policies with cutoffs near 0 or near 1 - capacity."""
    if draw(st.booleans()):
        return draw(_batches())
    capacity = draw(st.floats(0.05, 0.95))
    top = 1.0 - capacity
    near = st.one_of(st.floats(1e-9, 1e-3), st.floats(0.0, 1e-3).map(lambda d: top * (1.0 - d)))
    return [two_level(c, capacity) for c in draw(st.lists(near, min_size=1, max_size=5))]


@settings(max_examples=_examples(60), deadline=None)
@given(
    f=_skills(),
    g=st.one_of(_transfers(), st.builds(lambda e: Power(1.0, e, role=Role.EFFORT_TRANSFER), st.floats(0.25, 1.0))),
    p=_costs(),
    policies=_welfare_batches(),
)
def test_batch_welfare_matches_scalar(f, g, p, policies):
    population = PopulationSpec(f, g, p)
    levels, cutpoints = _arrays(policies)
    capacity = np.array([policy.capacity for policy in policies])
    try:
        scalar = [
            reference.welfare(population, policy, reference.solve_bands(population, policy)) for policy in policies
        ]
    except RankDesignError:
        with pytest.raises(RankDesignError):
            band_welfare(population, levels, cutpoints, capacity)
        return
    applicant, societal, private, costs, errors = band_welfare(population, levels, cutpoints, capacity)
    for i, (policy, want) in enumerate(zip(policies, scalar)):
        assert all(_close(got, value) for got, value in zip((applicant[i], societal[i], private[i]), want[:3]))
        assert all(_close(got, value) for got, value in zip(costs[i].tolist(), want[3]))
        assert errors[i].sum() <= 1e-8 * max(costs[i].sum(), 1e-300) or errors[i].sum() < 1e-14
        # welfare_report is the same row priced alone; a row does not depend on the rows it is stacked with
        report = welfare_report(solve(population, policy))
        assert (report.applicant_welfare, report.societal_utility, report.private_utility) == pytest.approx(
            (applicant[i], societal[i], private[i]), rel=1e-15, abs=1e-300
        )
        assert report.per_band_effort_cost == pytest.approx(tuple(costs[i].tolist()), rel=1e-15, abs=1e-300)
        assert report.quadrature_error_estimate == pytest.approx(sum(errors[i].tolist()), rel=1e-12, abs=1e-300)


@contextlib.contextmanager
def _domain_spy():
    """Wrap each family's unchecked reads, ``_map`` and ``_integral``, in a spy that asserts every
    value it receives lies inside the spec's domain, and counts the calls that pass an array."""
    arrays = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for cls in (Power, AffinePower, PiecewiseMonotone, _MixedQuantile):
            for name in ("_map", "_integral"):
                def spy(self, *args, _read=getattr(cls, name), _name=name):
                    lo, hi = self.domain
                    for x in args:
                        assert np.all((lo <= np.asarray(x)) & (np.asarray(x) <= hi)), (self, _name, x)
                    arrays[_name] += any(x.__class__ is np.ndarray for x in args)
                    return _read(self, *args)
                patch.setattr(cls, name, spy)
        yield arrays


@settings(max_examples=_examples(60), deadline=None)
@given(
    f=_skills(),
    g=st.one_of(_transfers(), st.builds(lambda e: Power(1.0, e, role=Role.EFFORT_TRANSFER), st.floats(0.25, 1.0))),
    p=_costs(),
    policies=_batches(),
    gamma=st.floats(1.0, 3.0),
    cs=st.lists(st.floats(0.0, 0.79), min_size=1, max_size=4),
)
def test_unchecked_reads_stay_inside_the_domain(f, g, p, policies, gamma, cs):
    """The pricer reads f unchecked only at ranks it builds inside [0, 1]: band ends, floor ends,
    quadrature nodes and integral limits.  On Power, AffinePower and kinked piecewise skills, on
    their two-group mixed quantile and in the unmeasurable-skill model, through ``solve``,
    ``welfare_report``, ``band_welfare``, ``audit_sweep``, ``beta_for_interior_optimum`` and
    ``weighted_private_utility``, every value an unchecked read receives lies in f's domain.
    Model errors (a transfer or cost too short for a jump, a violated sign) may end a call."""
    groups = GroupSpec(gamma, 1.0)
    populations = (PopulationSpec(f, g, p), PopulationSpec(_MixedQuantile(f, groups), g, p))
    spec = UnmeasurableSpec(f, Power(1.0, 0.5, role=Role.EFFORT_TRANSFER), Power(1.0, 2.0), 2.0, 0.2)
    levels, cutpoints = _arrays(policies)
    capacity = np.array([policy.capacity for policy in policies])
    with _domain_spy() as arrays:
        for population in populations:
            for policy in policies:
                with contextlib.suppress(RankDesignError):
                    welfare_report(solve(population, policy))
            with contextlib.suppress(RankDesignError):
                band_welfare(population, levels, cutpoints, capacity)
        with contextlib.suppress(RankDesignError):
            audit_sweep(populations[0], groups, 0.2, cs)
        for c in cs:
            with contextlib.suppress(RankDesignError):
                weighted_private_utility(spec, c, beta_for_interior_optimum(spec, c))
    # band ends and floor ends are read on every population, and the unmeasurable means integrate
    assert arrays["_map"] > 0
