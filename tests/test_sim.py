import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pentestplan.bench import (
    BenchmarkParams,
    generate_benchmark,
    random_scenario,
    worked_example_scenario,
)
from pentestplan.netmodel import EMPTY_FIREWALL, Firewall
from pentestplan.planner import machine_pomdp, plan_attack
from pentestplan.pomdp import TERMINATE_ACTION, ConfigState, build_machine_pomdp, with_reward
from pentestplan.report import plan_from_yaml, plan_to_yaml
from pentestplan.scenario import dump_document, emit_scenario, load_document, parse_scenario
from pentestplan.sim import (
    GroundTruth,
    SimulationError,
    check_plan,
    format_trace,
    monte_carlo,
    rollout,
    rollout_pomdp,
    sample_ground_truth,
    sampled_mean,
    scenario_beliefs,
)
from pentestplan.solver import PolicyNode, evaluate_policy, solve


@pytest.fixture(scope="module")
def example():
    spec = worked_example_scenario()
    machine = spec.net.machine("m")
    pomdp = build_machine_pomdp(
        machine, EMPTY_FIREWALL, 100.0,
        spec.machine_belief(machine), spec.actions, spec.model,
    )
    return spec, pomdp


class TestGroundTruth:
    def test_reproducible_given_seed(self, example):
        spec, _ = example
        beliefs = scenario_beliefs(spec)
        assert sample_ground_truth(beliefs, 5) == sample_ground_truth(beliefs, 5)

    def test_foothold_has_no_configuration(self, example):
        spec, _ = example
        truth = sample_ground_truth(scenario_beliefs(spec), 0)
        assert truth.configs["attacker"] is None
        assert truth.configs["m"] in spec.machine_belief(spec.net.machine("m"))

    def test_draws_follow_the_belief(self, example):
        spec, _ = example
        beliefs = scenario_beliefs(spec)
        belief = beliefs["m"]
        counts = {}
        for seed in range(400):
            config = sample_ground_truth(beliefs, seed).configs["m"]
            counts[config] = counts.get(config, 0) + 1
        # the most likely configuration should dominate the draws
        top = max(belief, key=belief.get)
        assert counts[top] == max(counts.values())


def choice_draw(beliefs, seed):
    """Ground truth drawn with one ``Generator.choice`` call per machine."""
    rng = np.random.default_rng(seed)
    configs = {}
    for machine_id in sorted(beliefs):
        belief = beliefs[machine_id]
        if belief is None:
            configs[machine_id] = None
            continue
        support = sorted(belief)
        probs = np.array([belief[c] for c in support])
        configs[machine_id] = support[rng.choice(len(support), p=probs / probs.sum())]
    return GroundTruth(configs=configs, seed=seed)


SAMPLER_SCENARIOS = {
    "worked example": worked_example_scenario,
    "random 3": lambda: random_scenario(3),
    "random 17": lambda: random_scenario(17),
    "random 240": lambda: random_scenario(240),
    "benchmark 50x13": lambda: generate_benchmark(BenchmarkParams(machines=50, exploits=13)),
}


class TestCompiledSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_SCENARIOS))
    def test_draws_equal_per_machine_choice(self, name):
        beliefs = scenario_beliefs(SAMPLER_SCENARIOS[name]())
        for seed in range(200):
            truth = sample_ground_truth(beliefs, seed)
            assert truth == choice_draw(beliefs, seed)
            assert list(truth.configs) == sorted(beliefs)

    @pytest.mark.parametrize("name", ["random 17", "benchmark 50x13", "benchmark 2000x13"])
    def test_monte_carlo_equals_per_seed_choice_loop(self, name):
        # on 2000x13 a rollout reads the configurations of few of the machines
        wide = {"benchmark 2000x13": lambda: generate_benchmark(BenchmarkParams(2000, 13))}
        spec = {**SAMPLER_SCENARIOS, **wide}[name]()
        plan = plan_attack(spec)
        beliefs = scenario_beliefs(spec)
        seeds = np.random.SeedSequence(4).generate_state(40)
        totals = np.array(
            [rollout(spec, plan, choice_draw(beliefs, int(s))).total for s in seeds]
        )
        expected = (float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(40)))
        assert monte_carlo(spec, plan, 40, 4) == expected

    def test_rollout_looks_up_only_the_machines_it_attacks(self, wide):
        spec, plan, beliefs = wide
        for seed in range(30):
            truth = sample_ground_truth(beliefs, seed)
            trace = rollout(spec, plan, truth)
            looked_up = truth.configs._looked_up  # the configurations this draw has looked up
            assert 0 < len(looked_up) <= len(trace.steps)
            assert set(looked_up) == {machine_id for machine_id, *_ in trace.steps}


class TestRollout:
    def test_network_rollout_reproducible(self):
        spec = random_scenario(3)
        plan = plan_attack(spec)
        beliefs = scenario_beliefs(spec)
        t1 = rollout(spec, plan, sample_ground_truth(beliefs, 9))
        t2 = rollout(spec, plan, sample_ground_truth(beliefs, 9))
        assert t1.steps == t2.steps and t1.total == t2.total

    def test_rewards_tally_with_steps(self):
        spec = random_scenario(3)
        plan = plan_attack(spec)
        truth = sample_ground_truth(scenario_beliefs(spec), 4)
        trace = rollout(spec, plan, truth)
        assert trace.total == pytest.approx(sum(r for *_, r in trace.steps))

    def test_missing_machine_rejected(self, wide):
        spec = random_scenario(3)
        plan = plan_attack(spec)
        with pytest.raises(SimulationError, match="missing"):
            rollout(spec, plan, GroundTruth(configs={}, seed=0))
        # a machine the plan never attacks is missing all the same
        spec, plan, beliefs = wide
        attacked = {
            attack.machine_id
            for comp in plan.components for path in comp.paths for step in path.steps
            for attack in filter(None, [step.first, *step.others])
        }
        unattacked = next(m.id for m in spec.net.machines() if m.template and m.id not in attacked)
        configs = dict(sample_ground_truth(beliefs, 0).configs)
        del configs[unattacked]
        with pytest.raises(SimulationError, match=f"missing machines: \\['{unattacked}'\\]"):
            rollout(spec, plan, GroundTruth(configs=configs, seed=0))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda plan: setattr(plan.components[1], "parent", "dmz"), "subnetwork 'dmz'"),
            (lambda plan: setattr(plan.components[2].paths[0].steps[0], "subnetwork", "dmz"),
             "subnetwork 'dmz'"),
            (lambda plan: setattr(plan.components[2].paths[0].steps[0].first, "machine_id", "m9"),
             "machine 'm9'"),
            (lambda plan: setattr(plan.components[2].paths[0].steps[0].first, "machine_id", "m001"),
             "machine 'm001', which is not in subnetwork 'user00'"),
            (lambda plan: (  # the foothold, which has no model to attack
                setattr(plan.components[2].paths[0].steps[0], "subnetwork", "internet"),
                setattr(plan.components[2].paths[0].steps[0].first, "machine_id", "attacker"),
            ), "machine 'attacker', which has no template"),
        ],
        ids=["parent", "step", "machine", "other-subnetwork", "no-template"],
    )
    def test_plan_of_another_network_rejected(self, mutate, message):
        spec = generate_benchmark(BenchmarkParams(4, 3))
        plan = plan_attack(spec)
        mutate(plan)
        with pytest.raises(SimulationError, match=message):
            monte_carlo(spec, plan, 5, 0)

    def test_plan_file_rolls_out_alike_on_a_fresh_spec(self):
        for seed in range(40):
            spec = random_scenario(seed)
            plan = plan_attack(spec)
            fresh = parse_scenario(emit_scenario(spec))
            loaded = plan_from_yaml(plan_to_yaml(plan), fresh.actions)
            check_plan(fresh, loaded)
            beliefs, fresh_beliefs = scenario_beliefs(spec), scenario_beliefs(fresh)
            for draw in range(5):
                planned = rollout(spec, plan, sample_ground_truth(beliefs, draw))
                reloaded = rollout(fresh, loaded, sample_ground_truth(fresh_beliefs, draw))
                assert format_trace(reloaded, draw) == format_trace(planned, draw), (seed, draw)

    def test_monte_carlo_needs_rollouts(self):
        spec = random_scenario(3)
        plan = plan_attack(spec)
        with pytest.raises(SimulationError):
            monte_carlo(spec, plan, 0, 0)

    def test_policy_without_branch_rejected(self, example):
        spec, pomdp = example
        plan = plan_attack(spec)
        attack = plan.components[0].paths[0].steps[0].first
        attack.policy = PolicyNode(pomdp.actions[pomdp.action_pos["scan_port_2967"]])
        truth = sample_ground_truth(scenario_beliefs(spec), 0)
        with pytest.raises(SimulationError, match="no branch"):
            rollout(spec, plan, truth)

    def test_monte_carlo_reproducible(self):
        spec = random_scenario(3)
        plan = plan_attack(spec)
        assert monte_carlo(spec, plan, 50, 1) == monte_carlo(spec, plan, 50, 1)


@pytest.fixture(scope="module")
def fenced():
    """A scenario whose plan enters "exposed" from "internet" with ports 2002, 2003, ... blocked."""
    return generate_benchmark(BenchmarkParams(30, 20, seed=7))


class TestPlanAgainstFirewalls:
    def test_plan_through_a_closed_firewall_rejected(self, fenced):
        ports = frozenset(a.port for a in fenced.actions if a.port is not None)
        arcs = {**fenced.net.arcs, ("internet", "exposed"): Firewall(ports)}
        closed = replace(fenced, net=replace(fenced.net, arcs=arcs))
        assert plan_attack(closed).value == 0.0
        with pytest.raises(SimulationError, match="'exposed' with ports .* no arc into it"):
            monte_carlo(closed, plan_attack(fenced), 200, 0)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda step, act: setattr(step.first, "blocked_ports", frozenset()),
             r"machine 'm000' with ports \[\] blocked, not \[2002, 2003"),
            (lambda step, act: step.others.append(replace(step.first)),
             r"machine 'm000' with ports \[2002, .*\] blocked, not \[\]$"),
            (lambda step, act: setattr(step.first.policy.branches["failed"], "action", act["scan002"]),
             "machine 'm000' takes action 'scan002', which its firewall blocks"),
        ],
        ids=["first", "follow-up", "policy"],
    )
    def test_attack_past_its_firewall_rejected(self, fenced, mutate, message):
        plan = plan_attack(fenced)
        step = plan.components[0].paths[0].steps[0]
        assert step.subnetwork == "exposed" and 2002 in step.entry_blocked_ports
        mutate(step, {a.id: a for a in fenced.actions})
        with pytest.raises(SimulationError, match=message):
            monte_carlo(fenced, plan, 5, 0)

    def test_action_that_cannot_change_a_belief_rejected(self, fenced):
        # detect_os passes every firewall, but every machine reads os=stable
        plan = plan_attack(fenced)
        detect_os = next(a for a in fenced.actions if a.id == "detect_os")
        plan.components[0].paths[0].steps[0].first.policy.branches["failed"].action = detect_os
        with pytest.raises(SimulationError, match="'m000' takes action 'detect_os', which cannot"):
            monte_carlo(fenced, plan, 5, 0)

    @pytest.mark.parametrize("action_id, why", [
        ("detect_os", "cannot change a belief"), ("scan002", "its firewall blocks"),
    ])
    def test_rollout_rejects_an_action_outside_the_model(self, fenced, action_id, why):
        # rollout without check_plan: the step finds no such move, and the error
        # names the machine, the action and the reason as check_plan does
        plan = plan_attack(fenced)
        action = next(a for a in fenced.actions if a.id == action_id)
        plan.components[0].paths[0].steps[0].first.policy.action = action
        truth = sample_ground_truth(scenario_beliefs(fenced), 0)
        with pytest.raises(SimulationError, match=f"'m000' takes action '{action_id}', which {why}$"):
            rollout(fenced, plan, truth)

    @pytest.mark.parametrize("seed", range(20))
    def test_planned_attacks_pass(self, seed):
        spec = random_scenario(seed)
        monte_carlo(spec, plan_attack(spec), 1, 0)


@pytest.fixture(scope="module")
def wide():
    spec = generate_benchmark(BenchmarkParams(2000, 13))
    return spec, plan_attack(spec), scenario_beliefs(spec)


class TestTraceDigest:
    # seed 3's first attack fails after one step; seed 162 is the longest trace
    # among seeds 0..299 (12 steps, 11 machines controlled)
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "739d619467e162b67ae5b998f12d094ca186d4c1d312cba39f793926c652c0d3"),
            (1, "c57e20730769b8881cdb71e55c43ce096ae32eb8debdcc33b6b38afbd954f477"),
            (3, "bb67c3c54bdb7b82adbd2b723ab8bda383cd3783345700ccd15d2bedbec6234f"),
            (162, "b6378c7e1cf9e8be5134ec2a019f3d797fdfd15dba84c412bd1d83b7b0c03d96"),
        ],
    )
    def test_wide_plan_trace_digest(self, wide, seed, digest):
        spec, plan, beliefs = wide
        text = format_trace(rollout(spec, plan, sample_ground_truth(beliefs, seed)), seed)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPomdpRollout:
    def test_single_machine_mc_tracks_exact_value(self, example):
        spec, pomdp = example
        result = solve(pomdp)
        exact = evaluate_policy(pomdp, result.policy)
        mean, stderr = sampled_mean(
            spec, 2000, 0,
            lambda t: rollout_pomdp(pomdp, result.policy, ConfigState(t.configs["m"])).total,
        )
        assert abs(mean - exact) <= 3 * max(stderr, 1e-9)

    def test_rollout_trace_totals(self, example):
        _, pomdp = example
        policy = solve(pomdp).policy
        state = pomdp.states[max(pomdp.b0, key=pomdp.b0.get)]
        trace = rollout_pomdp(pomdp, policy, state)
        assert trace.total == pytest.approx(sum(r for *_, r in trace.steps))

    def test_policy_without_branch_rejected(self, example):
        _, pomdp = example
        state = pomdp.states[max(pomdp.b0, key=pomdp.b0.get)]
        with pytest.raises(SimulationError, match="no branch"):
            rollout_pomdp(pomdp, PolicyNode(pomdp.actions[pomdp.action_pos["scan_port_2967"]]), state)

    def test_format_trace_layout(self, example):
        _, pomdp = example
        policy = solve(pomdp).policy
        state = pomdp.states[max(pomdp.b0, key=pomdp.b0.get)]
        text = format_trace(rollout_pomdp(pomdp, policy, state), seed=7)
        lines = text.splitlines()
        assert lines[0].startswith("# rollout seed=7")
        assert len(lines) == 1 + len(rollout_pomdp(pomdp, policy, state).steps)


class TestFreeActions:
    def test_free_scan_reads_zero_in_both_executors(self):
        # a free scan's cost is -0.0; the compiled rows store it as 0.0
        doc = load_document(emit_scenario(worked_example_scenario()))
        for action in doc["actions"]:
            if action["kind"] == "port_scan":
                action["cost_time"] = 0.0
        spec = parse_scenario(dump_document(doc))
        plan = plan_attack(spec)
        scan = next(a for a in spec.actions if a.id == "scan_port_2967")
        policy = PolicyNode(scan, {obs: PolicyNode(TERMINATE_ACTION) for obs in ("open", "closed")})
        plan.components[0].paths[0].steps[0].first.policy = policy
        m = spec.net.machine("m")
        pomdp = with_reward(machine_pomdp(spec, m, EMPTY_FIREWALL), m.id, m.reward)
        beliefs = scenario_beliefs(spec)
        texts = []
        for seed in range(20):
            truth = sample_ground_truth(beliefs, seed)
            text = format_trace(rollout(spec, plan, truth), seed)
            single = rollout_pomdp(pomdp, policy, ConfigState(truth.configs["m"]))
            assert text == format_trace(single, seed)
            texts.append(text)
        assert texts[0] == "# rollout seed=0 steps=1 total=0.000000\nm scan_port_2967 closed 0.000000"
        assert not any("-0.000000" in text for text in texts)


class TestSimulatedValueAgainstPlan:
    @pytest.mark.parametrize("seed", [0, 5, 8])
    def test_monte_carlo_mean_near_plan_value(self, seed):
        # the plan's value is exact for these shapes, so the Monte Carlo
        # estimate must agree within sampling error
        spec = random_scenario(seed, singleton_tree=True)
        plan = plan_attack(spec)
        mean, stderr = monte_carlo(spec, plan, 3000, 42)
        assert abs(mean - plan.value) <= 4 * max(stderr, 1e-9)
