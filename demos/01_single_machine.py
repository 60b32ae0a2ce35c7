"""
Attacking a single machine
==========================

Walks through the core single-machine workflow: describe what programs
might be running on a target, turn age-of-information into a belief over
configurations, and solve the resulting decision problem exactly.
"""

from pentestplan.bench import worked_example_scenario
from pentestplan.netmodel import EMPTY_FIREWALL
from pentestplan.pomdp import build_machine_pomdp
from pentestplan.solver import format_policy, solve

# The bundled example models one machine "m" whose last audit is a month
# old.  Three programs evolve independently day by day: a protection
# mechanism that admins tend to switch on, and two services that get
# patched or uninstalled over time.
spec = worked_example_scenario()
machine = spec.net.machine("m")

# The belief is a distribution over full configurations of the machine,
# obtained by running each program's Markov chain forward for the number
# of elapsed days and taking the product.
belief = spec.machine_belief(machine)
print(f"belief support: {len(belief)} configurations")
for config, mass in sorted(belief.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  {mass:.4f}  {dict(zip(spec.model.names, config))}")

# Compile the machine into a decision problem: states are a controlled
# state and the candidate configurations (plus crash variants), actions are
# the scans and exploits that pass the firewall and can tell or change
# something.  Stopping needs no action: it is worth 0, the value floor.
pomdp = build_machine_pomdp(
    machine, EMPTY_FIREWALL, machine.reward,
    belief, spec.actions, spec.model,
)
print(f"\ncompiled model: {len(pomdp.states)} states, "
      f"{len(pomdp.actions)} actions")

# Exact solve.  The optimal policy is a tree: an action at the root and a
# sub-policy per observation.
result = solve(pomdp)
print(f"optimal expected value: {result.value:.4f}\n")
print(format_policy(result.policy))

# Interesting detail: scanning first is *not* optimal here.  A successful
# exploit already implies the port was open, so paying for the scan only
# buys information the exploit attempt reveals for free.
