"""
Planning an attack on a whole network
=====================================

Generates a realistic corporate network and plans an attack against it
by decomposing the network graph into biconnected components, solving a
single-machine problem per (machine, firewall, reward) combination, and
composing the values bottom-up.
"""

from pentestplan.bench import BenchmarkParams, generate_benchmark
from pentestplan.planner import plan_attack
from pentestplan.report import format_plan, plan_to_yaml

# A 30-machine company: one exposed subnetwork behind the perimeter
# firewall, a sensitive subnetwork holding the crown jewels, and a tree
# of user subnetworks.  Machine templates are assigned round-robin and
# the defender's patch state is 50 days stale.
spec = generate_benchmark(
    BenchmarkParams(machines=30, exploits=20, elapsed_days=50, seed=7)
)
for name, members in sorted(spec.net.subnetworks.items()):
    print(f"  {name:12s} {len(members)} machine(s)")

# plan_attack runs the full pipeline: decompose the subnetwork graph,
# order components leaves-first, and solve machines with the pivoting
# reward of deeper components folded into their own reward.
plan = plan_attack(spec)

print()
print(format_plan(plan))

# Per-component statistics show how much work the decomposition saved:
# identical (template, firewall, reward) machines share one solve.
stats = plan.stats
print(f"\nsolves: {stats.solves}, cache hits: {stats.cache_hits}, "
      f"skipped zero-reward machines: {stats.shortcut_zero_reward}")

# Plans serialize to JSON for later simulation (see demo 03).
with open("/tmp/demo_plan.json", "w") as fh:
    fh.write(plan_to_yaml(plan))
print("\nplan written to /tmp/demo_plan.json")
