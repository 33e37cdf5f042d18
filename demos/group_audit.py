"""Disparate-impact audit: two groups, equal skills, unequal environments.

Group A's scores are scaled up by a larger environment factor, so at any
cutoff the disadvantaged group needs a higher latent skill to be admitted
and burns more effort when it is.  Two measures quantify the damage as the
policy gets more competitive: the welfare gap at equal skill, and access
(the disadvantaged group's overall admission probability).
"""

import csv
import json

from rankdesign import (
    GroupSpec,
    PopulationSpec,
    Power,
    Role,
    access,
    audit_sweep,
    group_thresholds,
    region_table,
    two_level,
    welfare_gap,
    welfare_gap_derivative,
)

population = PopulationSpec(
    f=Power(1.0, 1.0, role=Role.SKILL_QUANTILE),
    g=Power(1.0, 0.5, role=Role.EFFORT_TRANSFER),
    p=Power(1.0, 2.0, role=Role.COST_FUNCTION),
)
groups = GroupSpec(gamma_a=2.0, gamma_b=1.0)
rho = 0.2

c = 0.3
tau_a, tau_b = group_thresholds(population, groups, c)
print(f"Cutoff c = {c}: group A admitted above skill rank {tau_a:.3f}, group B above {tau_b:.3f}")
print(json.dumps(region_table(population, groups, two_level(c, rho)), indent=2))

policy = two_level(c, rho)
for theta in (0.1, 0.3, 0.6, 0.9):
    gap = welfare_gap(population, groups, policy, theta)
    print(f"  welfare gap at skill rank {theta}: {gap:.4f}")

fd = welfare_gap_derivative(population, groups, c=c, theta_true=0.9, capacity=rho)
print(f"d(gap)/dc at (c={c}, skill 0.9): {fd.value:.4f} -- more competition widens the gap")

cs = [0.04 * i for i in range(1, 21)]
rows = audit_sweep(population, groups, rho, cs)
print("\n    c     tau_A   tau_B   access   gap@q50")
for row in rows[::4]:
    print(f"  {row[0]:.2f}    {row[1]:.3f}   {row[2]:.3f}   {row[3]:.4f}   {row[5]:.4f}")

pure = access(population, groups, two_level(0.0, rho))
print(f"\nPure randomization gives the disadvantaged group access {pure:.3f}; "
      f"every competitive cutoff gives less.")

with open("group_audit.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["c", "tau_A", "tau_B", "access", "gap_at_q25", "gap_at_q50", "gap_at_q75"])
    writer.writerows(rows)
print("Wrote group_audit.csv.")
