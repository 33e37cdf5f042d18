import math

import numpy as np
import pytest

from rankdesign import (
    AffinePower,
    CapacityError,
    DomainError,
    ModelError,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    QuadratureError,
    RankDesignError,
    RewardPolicy,
    Role,
    applicant_welfare,
    effort_at,
    private_utility,
    score_at,
    societal_utility,
    solve,
    two_level,
    two_level_sweep,
    welfare_report,
)
from rankdesign import quadrature, welfare
from rankdesign.quadrature import adaptive_simpson, integrate_piecewise
from rankdesign.equilibrium import corrupted_schedule, solve_bands
from rankdesign.welfare import _effort_breakpoints, _floor_ends, band_welfare, price_policies

import scalar_reference as reference


def analytic_applicant_welfare(c, rho=0.2):
    # rho - integral of (tilde_e0 * c^2 / theta^2)^2 over [c, 1]
    return rho * (1.0 - c * (1.0 + c + c * c) / 3.0)


def analytic_societal(c, rho=0.2):
    # (1 - c) * g(tilde_e0) * f(c) with f = 2x, g = sqrt, p = square
    return 2.0 * c * (1.0 - c) ** 0.75 * rho**0.25


def analytic_private(c, rho=0.2):
    return rho * (rho / (1.0 - c)) ** 0.25 * 2.0 * c


def test_simpson_basics():
    value, err = adaptive_simpson(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    value, _ = adaptive_simpson(math.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, rel=1e-9)
    value, err = adaptive_simpson(lambda x: 0.0, 0.0, 1.0)
    assert value == 0.0 and err == 0.0


def test_simpson_piecewise_split():
    f = lambda x: abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    value, _ = integrate_piecewise(f, [0.0, 0.3, 1.0])
    assert value == pytest.approx(exact, rel=1e-10)


def test_simpson_nonconvergence_reports_partial():
    def wild(x):
        return math.sin(1.0 / max(x, 1e-12)) / max(x, 1e-12)

    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(wild, 1e-9, 1.0, rel_tol=1e-13)
    assert info.value.partial is not None and math.isfinite(info.value.partial)


def test_applicant_welfare_matches_analytic(benchmark_population):
    for c in (0.3, 0.5, 0.8):
        schedule = solve(benchmark_population, two_level(c, 0.2))
        got = applicant_welfare(schedule)
        assert got == pytest.approx(analytic_applicant_welfare(c), rel=1e-7)
    assert analytic_applicant_welfare(0.8) == pytest.approx(0.069867, abs=1e-6)


def test_societal_matches_analytic(benchmark_population):
    for c in (0.3, 4.0 / 7.0, 0.8):
        schedule = solve(benchmark_population, two_level(c, 0.2))
        assert societal_utility(schedule) == pytest.approx(analytic_societal(c), rel=1e-7)
    assert analytic_societal(4.0 / 7.0) == pytest.approx(0.40476, abs=1e-3)
    assert analytic_societal(0.8) == pytest.approx(0.32, abs=1e-12)


def test_private_matches_analytic(benchmark_population):
    for c in (0.3, 0.5, 0.8):
        schedule = solve(benchmark_population, two_level(c, 0.2))
        assert private_utility(schedule) == pytest.approx(analytic_private(c), rel=1e-7)
    sched = solve(benchmark_population, two_level(0.8, 0.2))
    assert private_utility(sched) == pytest.approx(0.32, abs=1e-9)
    low = private_utility(solve(benchmark_population, two_level(0.5, 0.2)))
    assert private_utility(sched) > low


def test_pure_randomization_extremes(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.0, 0.2))
    assert applicant_welfare(schedule) == 0.2  # exact: zero effort cost integrand
    assert societal_utility(schedule) == 0.0
    assert private_utility(schedule) == 0.0


BENCHMARK_CUTOFFS = [float(c) for c in np.concatenate([np.geomspace(1e-4, 1e-2, 25), np.linspace(1e-2, 0.79, 60)])]


def test_benchmark_welfare_matches_closed_forms(benchmark_population):
    # scores are closed forms and the cost quadrature is 20-point Gauss-Legendre:
    # both sit at rounding level, far inside the 1e-8 quadrature tolerance
    for c in BENCHMARK_CUTOFFS:
        report = welfare_report(solve(benchmark_population, two_level(c, 0.2)))
        assert report.applicant_welfare == pytest.approx(analytic_applicant_welfare(c), rel=1e-12, abs=0.0)
        assert report.societal_utility == pytest.approx(analytic_societal(c), rel=1e-12, abs=0.0)
        assert report.private_utility == pytest.approx(analytic_private(c), rel=1e-12, abs=0.0)
        assert 0.0 <= report.quadrature_error_estimate <= 1e-8 * report.per_band_effort_cost[1]


def test_welfare_continuity_near_zero_cutoff(benchmark_population):
    schedule = solve(benchmark_population, two_level(1e-3, 0.2))
    assert applicant_welfare(schedule) == pytest.approx(0.2, abs=1e-3)


def test_report_identity_and_fields(benchmark_population):
    schedule = solve(benchmark_population, two_level(0.8, 0.2))
    report = welfare_report(schedule)
    cost = sum(report.per_band_effort_cost)
    assert report.applicant_welfare + cost == pytest.approx(0.2, abs=1e-8)
    assert report.applicant_welfare <= 0.2
    assert len(report.per_band_effort_cost) == 2
    assert report.per_band_effort_cost[0] == 0.0
    assert math.isfinite(report.quadrature_error_estimate)
    payload = report.to_json()
    assert payload["private_utility"] == pytest.approx(0.32, abs=1e-9)


def _scalar_sweep(population, capacity, cs):
    """two_level_sweep as one scalar reference solve and welfare per cutoff."""
    rows = []
    for c in cs:
        policy = two_level(c, capacity)
        applicant, societal, private, _, _ = reference.welfare(population, policy, reference.solve_bands(population, policy))
        rows.append((c, policy.levels[-1], applicant, societal, private))
    return rows


def test_sweep_rows_equal_the_scalar_path(benchmark_population):
    cs = [0.0, 1e-4, 0.01, 0.3, 0.0, 0.8, 0.8 + 1e-16]
    rows = two_level_sweep(benchmark_population, 0.2, cs)
    want = _scalar_sweep(benchmark_population, 0.2, cs)
    assert [row[:2] for row in rows] == [row[:2] for row in want]
    for row, scalar in zip(rows, want):
        assert row[2:] == pytest.approx(scalar[2:], rel=1e-12, abs=0.0)
    # c = 0 is the one-level row of the scalar path itself
    assert rows[0] == rows[4] == want[0] == (0.0, 0.2, 0.2, want[0][3], want[0][4])


def test_sweep_takes_any_iterable_and_returns_floats(benchmark_population):
    cs = [0.0, 0.25, 0.5]
    want = two_level_sweep(benchmark_population, 0.2, cs)
    for given in (tuple(cs), iter(cs), np.array(cs), (c for c in cs), [0, 0.25, 0.5], range(1)):
        rows = two_level_sweep(benchmark_population, 0.2, given)
        assert rows == want[: len(rows)]
        assert all(type(v) is float for row in rows for v in row)
    assert two_level_sweep(benchmark_population, 0.2, []) == []


def _first_error(fn, *args):
    with pytest.raises(RankDesignError) as info:
        fn(*args)
    return type(info.value), str(info.value)


# the transfer ends at effort 0.8, below the admitted band's threshold effort at c = 0.8
SHORT_TRANSFER = PopulationSpec(
    Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
    PiecewiseMonotone(((0.0, 0.1), (0.4, 0.4), (0.8, 0.6)), role=Role.EFFORT_TRANSFER),
    Power(1.0, 2.0, role=Role.COST_FUNCTION),
)


@pytest.mark.parametrize(
    "capacity, cs, error",
    [
        (0.2, [0.3, float("nan"), 0.5], DomainError),
        (0.2, [0.3, -0.1], DomainError),
        (0.2, [0.0, 1.0], DomainError),
        (0.2, [0.3, math.inf], DomainError),
        (0.2, [0.3, 0.9, float("nan")], CapacityError),
        (1.5, [0.3], DomainError),
        (float("nan"), [0.0], DomainError),
        (0.2, [0.3, "0.5"], TypeError),
    ],
)
def test_sweep_rejects_a_cutoff_as_two_level_does(benchmark_population, capacity, cs, error):
    with pytest.raises(error) as scalar:
        _scalar_sweep(benchmark_population, capacity, cs)
    with pytest.raises(error) as batch:
        two_level_sweep(benchmark_population, capacity, cs)
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize(
    "cs, error",
    [([0.3, 0.8, float("nan")], ModelError), ([0.3, float("nan"), 0.8], DomainError), ([0.0, 0.8], ModelError)],
)
def test_sweep_raises_the_first_failing_rows_error(cs, error):
    want = _first_error(_scalar_sweep, SHORT_TRANSFER, 0.2, cs)
    assert want[0] is error
    assert _first_error(two_level_sweep, SHORT_TRANSFER, 0.2, cs) == want
    assert two_level_sweep(SHORT_TRANSFER, 0.2, cs[:1]) == _scalar_sweep(SHORT_TRANSFER, 0.2, cs[:1])


def _stacked(cs, capacity=0.2):
    policies = [two_level(c, capacity) for c in cs]
    return np.array([policy.levels for policy in policies]), np.array([policy.cutpoints for policy in policies])


def test_sweep_raises_the_first_rows_quadrature_error(benchmark_population, monkeypatch):
    # with no bisection allowed, c = 0.7 still converges on its pieces and c = 0.1 does not
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    cs = [0.7, 0.1, 0.05]
    levels, cutpoints = _stacked(cs)
    batch = _first_error(band_welfare, benchmark_population, levels, cutpoints, 0.2)
    want = _first_error(band_welfare, benchmark_population, levels[1:2], cutpoints[1:2], 0.2)
    assert batch[0] is want[0] is QuadratureError and batch != want
    # the batch raises, so the rows are priced again one at a time, and c = 0.1's own error is raised
    assert _first_error(two_level_sweep, benchmark_population, 0.2, cs) == want
    assert _first_error(_scalar_sweep, benchmark_population, 0.2, cs) == want
    assert two_level_sweep(benchmark_population, 0.2, cs[:1])[0][2] == pytest.approx(
        _scalar_sweep(benchmark_population, 0.2, cs[:1])[0][2], rel=1e-12
    )


def test_sweep_prices_one_by_one_when_only_the_batch_hits_the_piece_cap(benchmark_population, monkeypatch):
    # MAX_PIECES counts open pieces over all rows: with 2, each cutoff converges alone and the two together do not
    monkeypatch.setattr(quadrature, "MAX_PIECES", 2)
    cs = [0.05, 0.1]
    policies = [two_level(c, 0.2) for c in cs]
    levels = np.array([policy.levels for policy in policies])
    cutpoints = np.array([policy.cutpoints for policy in policies])
    with pytest.raises(QuadratureError, match="in row 0"):
        band_welfare(benchmark_population, levels, cutpoints, 0.2)
    alone = [band_welfare(benchmark_population, levels[i : i + 1], cutpoints[i : i + 1], 0.2) for i in range(len(cs))]
    rows = two_level_sweep(benchmark_population, 0.2, cs)
    assert [row[2:] for row in rows] == [tuple(float(column[0]) for column in row[:3]) for row in alone]
    assert rows == _scalar_sweep(benchmark_population, 0.2, cs)


def _counted_welfare(population, sizes):
    """``price_policies``'s batch of applicant welfare and both utilities, recording each call's batch size."""
    def batch(levels, cutpoints):
        sizes.append(len(levels))
        return band_welfare(population, levels, cutpoints, 0.2)[:3]
    return batch


def _priced_alone(population, cs):
    levels, cutpoints = _stacked(cs)
    return [
        tuple(float(column[0]) for column in band_welfare(population, levels[i : i + 1], cutpoints[i : i + 1], 0.2)[:3])
        for i in range(len(cs))
    ]


def test_price_policies_prices_in_chunks(benchmark_population, monkeypatch):
    monkeypatch.setattr(welfare, "PRICE_CHUNK", 3)
    cs = np.linspace(0.05, 0.75, 7).tolist()
    sizes = []
    rows = price_policies([two_level(c, 0.2) for c in cs], _counted_welfare(benchmark_population, sizes))
    assert sizes == [3, 3, 1]
    assert rows == _priced_alone(benchmark_population, cs)


def test_chunks_keep_a_long_sweep_under_the_piece_cap(benchmark_population, monkeypatch):
    # with MAX_PIECES = 4, any two of these cutoffs converge together and four do not
    monkeypatch.setattr(quadrature, "MAX_PIECES", 4)
    cs = [0.05, 0.1] * 4
    levels, cutpoints = _stacked(cs[:4])
    with pytest.raises(QuadratureError):
        band_welfare(benchmark_population, levels, cutpoints, 0.2)
    monkeypatch.setattr(welfare, "PRICE_CHUNK", 2)
    sizes = []
    rows = price_policies([two_level(c, 0.2) for c in cs], _counted_welfare(benchmark_population, sizes))
    assert sizes == [2, 2, 2, 2]
    assert rows == _priced_alone(benchmark_population, cs)


def test_a_chunk_that_hits_the_piece_cap_is_priced_in_halves(benchmark_population, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PIECES", 4)
    cs = [0.05, 0.1] * 4
    sizes = []
    rows = price_policies([two_level(c, 0.2) for c in cs], _counted_welfare(benchmark_population, sizes))
    assert sizes == [8, 4, 2, 2, 4, 2, 2]  # not eight batches of one
    assert rows == _priced_alone(benchmark_population, cs)
    assert two_level_sweep(benchmark_population, 0.2, cs) == [(c, 0.2 / (1.0 - c), *row) for c, row in zip(cs, rows)]


def test_halving_raises_the_first_failing_policys_own_error(monkeypatch):
    # on SHORT_TRANSFER only c = 0.8 fails; chunks of two put it in the second chunk's second half
    monkeypatch.setattr(welfare, "PRICE_CHUNK", 2)
    cs = [0.3, 0.4, 0.5, 0.8, 0.6, 0.79]
    sizes = []
    batch = _counted_welfare(SHORT_TRANSFER, sizes)
    want = _first_error(price_policies, [two_level(0.8, 0.2)], batch)
    sizes.clear()
    assert _first_error(price_policies, [two_level(c, 0.2) for c in cs], batch) == want
    assert want[0] is ModelError and sizes == [2, 2, 1, 1]
    assert _first_error(two_level_sweep, SHORT_TRANSFER, 0.2, cs) == want


def test_sweep_monotonicity(benchmark_population):
    cs = [0.05 * i for i in range(1, 17)]  # up to 0.8 = 1 - rho
    rows = two_level_sweep(benchmark_population, 0.2, cs)
    welfare = [r[2] for r in rows]
    private = [r[4] for r in rows]
    for a, b in zip(welfare, welfare[1:]):
        assert b <= a + 1e-9
    for a, b in zip(private, private[1:]):
        assert b >= a - 1e-9


def test_private_bounded_by_societal(benchmark_population):
    for policy in (two_level(0.5, 0.2), RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)):
        schedule = solve(benchmark_population, policy)
        assert private_utility(schedule) <= societal_utility(schedule) * max(policy.levels) + 1e-12


def test_multilevel_welfare_consistent_with_montecarlo(benchmark_population):
    """Sample-mean cross-check of the quadrature on a four-level policy."""
    policy = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)
    schedule = solve(benchmark_population, policy)
    rng = np.random.default_rng(29)
    thetas = rng.uniform(0.0, 1.0, 200_000)
    from rankdesign import effort_at, reward_at, score_at

    scores = np.array([score_at(schedule, t) for t in thetas])
    costs = np.array([benchmark_population.p.evaluate(effort_at(schedule, t)) for t in thetas])
    rewards = np.array([reward_at(policy, t) for t in thetas])
    assert societal_utility(schedule) == pytest.approx(scores.mean(), abs=3e-3)
    assert applicant_welfare(schedule) == pytest.approx((rewards - costs).mean(), abs=3e-3)
    assert private_utility(schedule) == pytest.approx((scores * rewards).mean(), abs=3e-3)


# --- piecewise-linear primitives: kinks are quadrature breakpoints ---------


def _knots(fn, n, hi, role):
    xs = np.linspace(0.0, hi, n)
    return PiecewiseMonotone(tuple((float(x), float(fn(x))) for x in xs), role=role)


PIECEWISE_POPULATION = PopulationSpec(
    f=_knots(lambda x: 2.0 * x**1.5, 9, 1.0, Role.SKILL_QUANTILE),
    g=_knots(math.sqrt, 17, 2.0, Role.EFFORT_TRANSFER),
    p=_knots(lambda x: x * x, 17, 2.0, Role.COST_FUNCTION),
)


def test_kink_transfers_are_read_once_per_population(monkeypatch):
    """g at the kinks of g and p is a constant of a population: the pricer reads it on first use and
    never again for that population object, however many policies it prices.  f at 0 and 1 is read
    as numbers when the population is built, and not through an array by the pricer."""
    reads = []

    def counted(self, x, _evaluate=PiecewiseMonotone.evaluate):
        if x.__class__ is np.ndarray:
            reads.append((self, x.tolist()))
        return _evaluate(self, x)

    monkeypatch.setattr(PiecewiseMonotone, "evaluate", counted)
    g, p = PIECEWISE_POPULATION.g, PIECEWISE_POPULATION.p
    kinks = [x for x in g.kinks + p.kinks if g.domain[0] <= x <= g.domain[1]]

    def constant_reads():
        return reads.count((g, kinks)), reads.count((PIECEWISE_POPULATION.f, [0.0, 1.0]))

    population = PopulationSpec(PIECEWISE_POPULATION.f, g, p)  # a new object: nothing read yet
    for c in np.linspace(0.05, 0.75, 8).tolist():
        welfare_report(solve(population, two_level(c, 0.2)))
    two_level_sweep(population, 0.2, [0.1, 0.2, 0.3])
    assert constant_reads() == (1, 0)
    welfare_report(solve(PopulationSpec(population.f, g, p), two_level(0.5, 0.2)))
    assert constant_reads() == (2, 0)


def _interp_reference(population, c, rho):
    """Two-level welfare from np.interp primitives and Gauss-Legendre.

    Independent of the library's evaluation and quadrature: each integral is
    split at every knot of f and at every rank where the effort crosses a
    knot of g or p, and each piece gets 8 x 30 Gauss-Legendre nodes.
    """
    fx, fy = (np.array(v) for v in zip(*population.f.knots))
    gx, gy = (np.array(v) for v in zip(*population.g.knots))
    px, py = (np.array(v) for v in zip(*population.p.knots))
    nodes, weights = np.polynomial.legendre.leggauss(30)

    def integrate(fun, a, b, cuts):
        pts = sorted({a, b} | {float(t) for t in cuts if a < t < b})
        total = 0.0
        for lo, hi in zip(pts, pts[1:]):
            edges = np.linspace(lo, hi, 9)
            for u, v in zip(edges, edges[1:]):
                total += 0.5 * (v - u) * np.dot(weights, fun(0.5 * (v - u) * nodes + 0.5 * (u + v)))
        return total

    level = rho / (1.0 - c)
    threshold = np.interp(level, py, px)  # band 0 idles at e0 = 0, p(0) = 0
    floor = np.interp(threshold, gx, gy) * np.interp(c, fx, fy)
    crossings = [np.interp(floor / np.interp(x, gx, gy), fy, fx) for x in np.concatenate([gx[1:], px[1:]])]
    cuts = list(fx) + crossings
    cost = integrate(lambda t: np.interp(np.interp(floor / np.interp(t, fx, fy), gy, gx), px, py), c, 1.0, cuts)
    score = integrate(lambda t: np.full_like(t, floor), c, 1.0, cuts)  # g(e0) = 0: band 0 scores 0
    return rho - cost, score, level * score


def test_piecewise_population_welfare_exact():
    rho = 0.2
    for c in np.linspace(0.01, 1.0 - rho - 0.01, 100):
        c = float(c)
        report = welfare_report(solve(PIECEWISE_POPULATION, two_level(c, rho)))
        got = (report.applicant_welfare, report.societal_utility, report.private_utility)
        for value, expected in zip(got, _interp_reference(PIECEWISE_POPULATION, c, rho)):
            assert value == pytest.approx(expected, rel=1e-10, abs=0.0)


# g is 0 at its kink 0, and p's kink 2.5 lies outside g's domain [-1, 2]
KINKED_POPULATION = PopulationSpec(
    f=PIECEWISE_POPULATION.f,
    g=PiecewiseMonotone(((-1.0, -1.0), (0.0, 0.0), (0.5, 0.4), (2.0, 1.0)), role=Role.EFFORT_TRANSFER),
    p=PiecewiseMonotone(((0.0, 0.0), (0.5, 0.1), (1.0, 0.5), (2.5, 2.5), (4.0, 6.0)), role=Role.COST_FUNCTION),
)


@pytest.mark.parametrize("population", [PIECEWISE_POPULATION, KINKED_POPULATION], ids=["piecewise", "kinked"])
def test_effort_breakpoints_match_the_scalar_reads(population):
    """One array read of g and one of f give the breakpoints that one scalar read per kink gives.

    ``np.interp`` and the number path's interpolation round differently, so
    the points agree to rounding, one for one.
    """
    policies = [two_level(c, 0.2) for c in np.linspace(0.01, 0.79, 40).tolist()]
    levels = np.array([policy.levels for policy in policies])
    bands = solve_bands(population, levels, np.array([policy.cutpoints for policy in policies]))
    end = _floor_ends(population, bands)
    rows, cols = np.nonzero(end > bands.lo)
    got = _effort_breakpoints(population, bands, rows, cols, end)
    outside = 0
    f_range = population.f.evaluate(0.0), population.f.evaluate(1.0)
    for (i, k), pts in zip(zip(rows.tolist(), cols.tolist()), got):
        floor = float(bands.floor[i, k])
        want = reference.effort_breakpoints(
            population, float(bands.lo[i, k]), float(bands.hi[i, k]), None, floor, float(end[i, k])
        )
        assert pts == pytest.approx(want, rel=1e-15, abs=0.0)
        transfers = [population.g.evaluate(x) for x in population.g.kinks if population.g.evaluate(x) > 0.0]
        outside += any(not f_range[0] <= floor / t <= f_range[1] for t in transfers)
    assert outside  # some kinks' images lie outside f's range
    if population is KINKED_POPULATION:
        assert population.g.evaluate(0.0) == 0.0 and 2.5 in population.p.kinks


def test_welfare_report_prices_a_corrupted_band(benchmark_population):
    policy = RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26)
    schedule = solve(benchmark_population, policy)
    broken = corrupted_schedule(schedule, k=2, factor=0.5)
    report, clean = welfare_report(broken), welfare_report(schedule)
    applicant, societal, private, per_band, error = reference.welfare(benchmark_population, policy, broken.bands)
    assert (report.applicant_welfare, report.societal_utility, report.private_utility) == pytest.approx(
        (applicant, societal, private), rel=1e-12, abs=0.0
    )
    assert report.per_band_effort_cost == pytest.approx(per_band, rel=1e-12, abs=0.0)
    # band 2 entered at half its threshold effort costs less, and scores less, than in equilibrium
    assert report.per_band_effort_cost[2] < clean.per_band_effort_cost[2]
    assert report.per_band_effort_cost[:2] == clean.per_band_effort_cost[:2]
    assert report.societal_utility < clean.societal_utility


# --- Power families: results match the per-theta formula -----------------


def _reference_floor(pop, band):
    """The score that enters the band, g(threshold effort) * f(lo), read as ``solve_bands`` reads g and f."""
    return float(pop.g.evaluate(np.array([band.threshold_effort]))[0] * pop.f.evaluate(np.array([band.lo]))[0])


def _reference_band_effort(pop, band, theta):
    if band.threshold_effort is None:
        return pop.e0
    target = _reference_floor(pop, band) / pop.f.evaluate(theta)
    if target <= pop.g.evaluate(pop.e0):
        return pop.e0
    return pop.g.invert(target)


def _reference_band_score(pop, band, theta):
    idle_score = pop.g.evaluate(pop.e0) * pop.f.evaluate(theta)
    if band.threshold_effort is None:
        return idle_score
    return max(_reference_floor(pop, band), idle_score)


def _reference_pieces(band):
    pts = {band.lo, band.hi}
    if band.switch_point is not None:
        pts.add(band.switch_point)
    edge = band.lo
    while 0.0 < edge < 0.125 * band.hi:
        edge *= 2.0
        pts.add(edge)
    return sorted(pts)


def _simpson_pieces(fun, pts):
    return sum(adaptive_simpson(fun, a, b)[0] for a, b in zip(pts, pts[1:]))


def _reference_report(schedule):
    """The per-theta formula integrated by scalar adaptive Simpson, band by band."""
    pop, policy = schedule.population, schedule.policy
    per_band, societal, private = [], 0.0, 0.0
    for band, level in zip(schedule.bands, policy.levels):
        pts = _reference_pieces(band)
        per_band.append(_simpson_pieces(lambda t: pop.p.evaluate(_reference_band_effort(pop, band, t)), pts))
        score = _simpson_pieces(lambda t: _reference_band_score(pop, band, t), pts)
        societal += score
        private += level * score
    return policy.capacity - sum(per_band), societal, private, per_band


POWER_POPULATIONS = [
    PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    ),
    PopulationSpec(
        f=Power(1.0, 8.0, role=Role.SKILL_QUANTILE),
        g=Power(1.3, 0.6, role=Role.EFFORT_TRANSFER),
        p=Power(0.7, 2.4, role=Role.COST_FUNCTION),
    ),
    PopulationSpec(  # g(e0) > 0: bands have switch points
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=AffinePower(1.0, 0.5, 0.4, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
    ),
]


@pytest.mark.parametrize("population", POWER_POPULATIONS)
def test_power_families_match_per_theta_formula(population):
    policies = [two_level(c, 0.2) for c in (1e-4, 0.01, 0.2, 0.5, 0.8)]
    policies.append(RewardPolicy((0.0, 0.2, 0.5, 1.0), (0.4, 0.7, 0.9), 0.26))
    thetas = np.linspace(0.0, 1.0, 257)
    for policy in policies:
        schedule = solve(population, policy)
        report = welfare_report(schedule)
        welfare, societal, private, per_band = _reference_report(schedule)
        assert report.applicant_welfare == pytest.approx(welfare, rel=1e-10, abs=0.0)
        assert report.societal_utility == pytest.approx(societal, rel=1e-10, abs=0.0)
        assert report.private_utility == pytest.approx(private, rel=1e-10, abs=0.0)
        # a band's own cost is as good as Simpson's 1e-8 tolerance: on the small
        # band costs of the second population the reference is 1.5e-9 off
        assert report.per_band_effort_cost == pytest.approx(per_band, rel=1e-8, abs=0.0)
        assert math.isfinite(report.quadrature_error_estimate)
        for theta in thetas:
            band = schedule.band_of(theta)
            assert effort_at(schedule, theta) == _reference_band_effort(population, band, theta)
            assert score_at(schedule, theta) == _reference_band_score(population, band, theta)
