"""End-to-end acceptance checks.

Each test prints one PASS line (visible in verbose runs as the test
verdict) and enforces the corresponding quantitative bound.
"""

import dataclasses
import time

import numpy as np
import pytest

from pentestplan.belief import DependencyModel, MarkovChain, ProgramModel
from pentestplan.bench import (
    BenchmarkParams,
    build_global_pomdp,
    calibrate_chains,
    generate_benchmark,
    random_scenario,
    run_experiment,
    worked_example_scenario,
)
from pentestplan.netmodel import EMPTY_FIREWALL, Machine
from pentestplan.planner import plan_attack
from pentestplan.pomdp import (
    ActionSpec,
    ConfigState,
    OBS_FAILED,
    OBS_OPEN,
    build_machine_pomdp,
)
from pentestplan.solver import brute_force_value, evaluate_policy, solve
from pentestplan.sim import rollout_pomdp, sampled_mean

from test_planner import biconnected_decomposition, oracle_components, oracle_cut_vertices


def random_small_pomdp(seed):
    """Seeded single-machine model with <= 8 states and <= 3 actions."""
    rng = np.random.default_rng(seed)
    enable = rng.uniform(0.01, 0.06)
    patch = rng.uniform(0.01, 0.08)
    guard = ProgramModel(
        "guard",
        MarkovChain(("off", "on"), [[1 - enable, enable], [0.0, 1.0]]),
    )
    svc = ProgramModel(
        "svc",
        MarkovChain(
            ("vulnerable", "patched"), [[1 - patch, patch], [0.0, 1.0]]
        ),
        port=4000,
        open_states=frozenset({"vulnerable"}),
    )
    model = DependencyModel(programs=(guard, svc))
    days = int(rng.integers(1, 45))
    belief = {}
    from pentestplan.belief import initial_belief

    belief = initial_belief(model, ("off", "vulnerable"), days)
    cost = float(rng.choice([5.0, 10.0, 20.0]))
    success = {"svc": ["vulnerable"]}
    if rng.random() < 0.6:
        success["guard"] = ["off"]
    actions = [
        ActionSpec(
            id="x", kind="exploit", port=4000, program="svc",
            success=success,
            crash={"svc": ["patched"]} if rng.random() < 0.4 else {},
            r_t=-cost,
        ),
        ActionSpec(id="s", kind="port_scan", port=4000, r_t=-cost),
    ]
    reward = float(rng.choice([30.0, 60.0, 100.0, 200.0]))
    return build_machine_pomdp(
        Machine("m", "t", reward), EMPTY_FIREWALL, reward, belief, actions, model
    )


def policy_depth(node):
    if not node.branches:
        return 0
    return 1 + max(policy_depth(child) for child in node.branches.values())


def test_criterion_1_solver_matches_brute_force_oracle():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        pomdp = random_small_pomdp(seed)
        non_terminate = [a for a in pomdp.actions if a.kind != "terminate"]
        assert len(pomdp.states) <= 8
        assert len(non_terminate) <= 3
        result = solve(pomdp)
        depth = min(policy_depth(result.policy) + 2, 8)
        oracle = brute_force_value(pomdp, depth)
        worst = max(worst, abs(result.value - oracle))
        assert result.value == pytest.approx(oracle, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\ncriterion 1 PASS: 200 instances, worst |solve - oracle| = "
        f"{worst:.2e}, {elapsed:.1f}s"
    )


@pytest.fixture(scope="module")
def worked_example():
    spec = worked_example_scenario()
    machine = spec.net.machine("m")
    pomdp = build_machine_pomdp(
        machine, EMPTY_FIREWALL, 100.0,
        spec.machine_belief(machine), spec.actions, spec.model,
    )
    return spec, pomdp


def _branches(pomdp, belief: dict, action_id: str) -> dict:
    """``{observation: (posterior over state positions, probability, expected reward)}``
    of one action over a belief, from ``MachinePOMDP.split``."""
    groups = pomdp.split(belief, pomdp.action_pos[action_id])
    return {
        pomdp.obs_values[code]: (post, prob, r)
        for code, (post, prob, r, _) in groups.items()
    }


def test_criterion_2_example_policy_after_open_port(worked_example):
    _, pomdp = worked_example
    after_open, _, _ = _branches(pomdp, pomdp.b0, "scan_port_2967")[OBS_OPEN]
    # one-step expected value of the correlated exploit, the published
    # back-of-the-envelope number 100 * 0.2 - 10 = 10
    cau_value = sum(
        prob * reward for _, prob, reward in _branches(pomdp, after_open, "exploit_CAU").values()
    )
    assert cau_value == pytest.approx(10.0, abs=3.0)
    assert solve(dataclasses.replace(pomdp, b0=after_open)).value > 0

    # after an additional failed service-A exploit the attack is hopeless
    after_failure, _, _ = _branches(pomdp, after_open, "exploit_SA")[OBS_FAILED]
    giving_up = solve(dataclasses.replace(pomdp, b0=after_failure))
    assert giving_up.policy.action.kind == "terminate"
    assert giving_up.value == 0.0
    print(
        f"\ncriterion 2 PASS: exploit value after open port = "
        f"{cau_value:.3f} (10 +/- 3), then terminate"
    )


def test_criterion_3_initial_belief_protection_mass(worked_example):
    spec, _ = worked_example
    belief = spec.machine_belief(spec.net.machine("m"))
    names = spec.model.names
    enabled = sum(
        mass
        for config, mass in belief.items()
        if config[names.index("DEP")] == "enabled"
    )
    assert enabled > 0.70
    print(f"\ncriterion 3 PASS: protection-enabled mass = {enabled:.4f} > 0.70")


def test_criterion_4_decomposition_is_conservative():
    started = time.perf_counter()
    worst = -float("inf")
    for seed in range(50):
        spec = random_scenario(seed)
        decomposed = plan_attack(spec).value
        exact = solve(build_global_pomdp(spec).pomdp).value
        worst = max(worst, decomposed - exact)
        assert decomposed <= exact + 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        f"\ncriterion 4 PASS: 50 scenarios, max(decomposed - exact) = "
        f"{worst:.2e} <= 1e-6, {elapsed:.0f}s"
    )


def test_criterion_5_exact_on_singleton_trees():
    worst = 0.0
    for seed in range(25):
        spec = random_scenario(seed, singleton_tree=True)
        decomposed = plan_attack(spec).value
        exact = solve(build_global_pomdp(spec).pomdp).value
        worst = max(worst, abs(decomposed - exact))
        assert decomposed == pytest.approx(exact, abs=1e-6)
    print(f"\ncriterion 5 PASS: 25 singleton trees, worst |diff| = {worst:.2e}")


def test_criterion_6_quality_gap_on_grid():
    cells = run_experiment(
        "both", range(1, 7), range(1, 8), repetitions=2000, seed=0
    )
    gaps = [c.gap_percent for c in cells]
    mean_gap, max_gap = float(np.mean(gaps)), float(np.max(gaps))
    assert mean_gap <= 10.0
    assert max_gap <= 25.0
    print(
        f"\ncriterion 6 PASS: {len(cells)} grid cells, mean gap = "
        f"{mean_gap:.2f}% <= 10%, max gap = {max_gap:.2f}% <= 25%"
    )


def test_criterion_7_scaling_run():
    spec = generate_benchmark(
        BenchmarkParams(machines=100, exploits=100, elapsed_days=50, seed=0)
    )
    started = time.perf_counter()
    plan = plan_attack(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert plan.value > 0
    print(
        f"\ncriterion 7 PASS: 100 machines / 100 exploits planned in "
        f"{elapsed:.1f}s < 120s (value {plan.value:.1f})"
    )


def test_criterion_8_simulator_consistency():
    checked = 0
    seed = 0
    while checked < 20:
        spec = random_scenario(seed)
        seed += 1
        machines = [m for m in spec.net.machines() if m.template is not None]
        if not machines:
            continue
        machine = machines[seed % len(machines)]
        pomdp = build_machine_pomdp(
            machine, EMPTY_FIREWALL, 80.0,
            spec.machine_belief(machine), spec.actions, spec.model,
        )
        result = solve(pomdp)
        exact = evaluate_policy(pomdp, result.policy)
        mean, stderr = sampled_mean(
            spec, 2000, seed,
            lambda t: rollout_pomdp(pomdp, result.policy, ConfigState(t.configs[machine.id])).total,
        )
        assert abs(mean - exact) <= 3 * max(stderr, 1e-9)
        checked += 1
    print(
        f"\ncriterion 8 PASS: {checked} policies, Monte Carlo mean within "
        f"3 standard errors of the exact value"
    )


def test_criterion_9_decomposition_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        nodes = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.append((nodes[i], nodes[j]))
        components, cuts = biconnected_decomposition(nodes, edges)
        assert cuts == oracle_cut_vertices(nodes, edges)
        assert sorted(map(sorted, components)) == sorted(
            map(sorted, oracle_components(nodes, edges))
        )
    print(
        "\ncriterion 9 PASS: 500 random graphs, components and cut vertices "
        "match the brute-force oracle"
    )
