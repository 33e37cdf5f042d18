"""Brute-force check of the closed-form equilibrium with discrete agents.

Two independent checks.  First, seed 500 agents with the closed-form efforts
and scan every grid deviation for a welfare gain: none should exceed the
one-slot discretization allowance.  Second, start 200 agents from zero
effort and run best-response sweeps: the bidding war should escalate and
settle within O(1/N + grid step) of the closed form it has never seen, at a
profile that certification accepts with no deviation gain at all.
"""

import numpy as np

from rankdesign import (
    DiscreteInstance,
    PopulationSpec,
    Power,
    Role,
    best_response_dynamics,
    certify_equilibrium,
    effort_at,
    empirical_welfare,
    solve,
    two_level,
)

population = PopulationSpec(
    f=Power(2.0, 1.0, role=Role.SKILL_QUANTILE),
    g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
)
policy = two_level(0.8, 0.2)
schedule = solve(population, policy)

n = 500
instance = DiscreteInstance.from_schedule(schedule, n, delta_e=1e-3)
cert = certify_equilibrium(instance, eps=5.0 / n)
print(f"Certification at N={n}: {'PASS' if cert.is_eps_equilibrium else 'FAIL'} "
      f"(worst deviation gain {cert.worst_gain:.2e}, allowance {5.0 / n})")

report = empirical_welfare(instance)
print(f"Empirical vs closed-form school utility: {report.private_utility:.4f} vs 0.3200")

print("\nCold-start best-response dynamics, N=200:")
cold = DiscreteInstance.stratified(population, policy, 200, delta_e=1e-3)
result = best_response_dynamics(cold, max_rounds=4000)
closed = np.array([effort_at(schedule, t) for t in cold.ranks])
gap = np.abs(cold.efforts - closed)
endpoint = certify_equilibrium(cold, eps=1e-12)
print(f"  converged: {result.converged} after {result.rounds} sweeps, worst deviation gain "
      f"{endpoint.worst_gain:.2e} (certified at eps 1e-12: {endpoint.is_eps_equilibrium})")
print(f"  {result.best_responses} best responses evaluated, {sum(result.movers_per_sweep)} moves")
print(f"  max |effort - closed form| at matched ranks: {gap.max():.4f}")
admitted = np.nonzero(cold.assigned_bands() == 1)[0]
print(f"  admitted set is the top {len(admitted)} skills: "
      f"{np.array_equal(admitted, np.arange(160, 200))}")
