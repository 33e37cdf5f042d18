"""rankdesign: equilibrium solving and design for capacity-constrained ranking rewards.

Applicants with latent skill ranks choose costly effort; a designer rewards
post-effort rank with a K-level step function under a capacity constraint.
The package computes the closed-form effort equilibrium, evaluates applicant,
societal, and school welfare, audits disparate impact between groups with
unequal environments, searches the two-level policy class, and cross-checks
everything against a discrete-agent brute-force oracle.
"""

from .design import (
    Objective,
    OptimizeResult,
    ThreeLevelCheck,
    ThreeLevelSearchResult,
    find_three_level_improvement,
    optimize_two_level,
    three_level_counterexample_check,
    three_level_policy,
)
from .equilibrium import (
    BandSolution,
    EquilibriumSchedule,
    check_rank_preservation,
    comparative_statics_check,
    corrupted_schedule,
    effort_at,
    sample_schedule,
    score_at,
    solve,
    threshold_indifference_residuals,
)
from .errors import (
    AssumptionError,
    CapacityError,
    ConfigError,
    DomainError,
    ModelError,
    PerturbationError,
    QuadratureError,
    RangeError,
    RankDesignError,
    RegionError,
)
from .functions import (
    AffinePower,
    FunctionSpec,
    PiecewiseMonotone,
    PopulationSpec,
    Power,
    Role,
    function_from_json,
)
from .groups import (
    FiniteDifference,
    GroupSpec,
    access,
    audit_sweep,
    f_mix,
    f_mix_inverse,
    group_thresholds,
    pre_rank,
    region_table,
    welfare_gap,
    welfare_gap_derivative,
)
from .multidim import (
    MultidimReport,
    MultiSkillSpec,
    UnmeasurableSpec,
    beta_for_interior_optimum,
    check_multidim_rank_preservation,
    measurable_conditional_mean,
    pre_index,
    unmeasurable_conditional_mean,
    weighted_private_utility,
)
from .oracle import (
    CertificationResult,
    DiscreteInstance,
    DynamicsResult,
    best_response_dynamics,
    certify_equilibrium,
    empirical_welfare,
)
from .policy import (
    RewardPolicy,
    ValidationReport,
    policy_from_json,
    reward_at,
    two_level,
    validate,
)
from .welfare import (
    WelfareReport,
    applicant_welfare,
    private_utility,
    societal_utility,
    two_level_sweep,
    welfare_report,
)

__version__ = "0.1.0"
