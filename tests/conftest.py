import pytest
from hypothesis import settings

from rankdesign import PopulationSpec, Power, Role


@pytest.fixture
def benchmark_population():
    """f(x) = 2x, g = sqrt, p = square, e0 = 0: the standard worked instance."""
    return PopulationSpec(
        f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )


@pytest.fixture
def identity_population():
    """f identity on [0,1], same transfer and cost."""
    return PopulationSpec(
        f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
        g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
        p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
        e0=0.0,
    )


# CI reruns the equivalence property tests of tests/test_oracle.py and
# tests/test_batch.py with ``--hypothesis-profile oracle-deep``: five times
# their local example budget.
settings.register_profile("oracle-deep", max_examples=300)
