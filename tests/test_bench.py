import hashlib
import math
from dataclasses import replace

import pytest
import yaml

from pentestplan.bench import (
    BenchmarkError,
    BenchmarkParams,
    CalibrationTargets,
    ResourceBoundError,
    build_global_pomdp,
    calibrate_chains,
    experiment_csv,
    generate_benchmark,
    random_scenario,
    run_experiment,
    worked_example_scenario,
)
from pentestplan.netmodel import EMPTY_FIREWALL, action_usable
from pentestplan.planner import machine_pomdp, plan_attack
from pentestplan.pomdp import CONTROLLED, TERMINATE
from pentestplan.scenario import emit_scenario, load_document, parse_scenario, scenario_from_dict
from pentestplan.sim import rollout_pomdp, sampled_mean
from pentestplan.solver import evaluate_policy, format_policy, solve


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the emitted JSON text, by the sha256 of the same document written
# as YAML by yaml.safe_dump (the text scenario files held when they were YAML)
JSON_DIGESTS = {
    "0589cf3223a7b7c3d6e30737842df2b1197be6a308ddf0da905fa912e0552742": (
        "9d1daf251294383d447aa6b0034e195b3d677a05583ca6c0dc8f24f6e7513875"
    ),
    "d9557c8b1251d3cf78abb4e84a8758a41c9040fe041d6a9c065857587f033858": (
        "34e6ad454522cf95f5ff316f56a2c17c942b6b090d8df2bf2e647c13ca603d1b"
    ),
    "87863f7800dc47a478058728fbfe8b0f50fc1989995fdc1f6070dee02be8090d": (
        "31a176ed7e40baeb61e39fe987e98bace8f47bc04f99f7302f3690a4634b4958"
    ),
    "7a8f091eda5552235fdbcc7313e1bcea957b469d048739f85203a7763c7a171f": (
        "7950291cf55da50af925356b3af65af4afc34a7de4e36194f815f07260cef17b"
    ),
    "a1fedbfcdbfbc15f95526d1bb89ff95b0c419f7fd937b5f541572a5cf34d521a": (
        "93b61f4f6001d9087ad76be08851b93f0143c8d7196162ea5032a57215023620"
    ),
    "424b4d056a9f66fa3045c80a3c81ffffc42e3c30d41982aa69c28db65c827bc4": (
        "9056cf57733fe71181461bc55f8ac7070de88cb49862b94109a23a8ad4390227"
    ),
    "1315998bf6e46fce4e3791afb3245f692e72a4e578cb60a0a9ba6ad0e1e1a11d": (
        "c26658257050f6061431c09615516cf7fbc876ae4bfb23f06a9a0a3fca493c37"
    ),
}


class TestBenchmarkGeneration:
    # generators build the spec from a dict; the emitted document is the one
    # they wrote when scenario files were YAML, and its JSON text is pinned
    @pytest.mark.parametrize(
        "make, yaml_digest",
        [
            (
                worked_example_scenario,
                "0589cf3223a7b7c3d6e30737842df2b1197be6a308ddf0da905fa912e0552742",
            ),
            (
                lambda: generate_benchmark(BenchmarkParams(machines=6, exploits=7)),
                "d9557c8b1251d3cf78abb4e84a8758a41c9040fe041d6a9c065857587f033858",
            ),
            (
                lambda: generate_benchmark(BenchmarkParams(machines=1, exploits=1)),
                "87863f7800dc47a478058728fbfe8b0f50fc1989995fdc1f6070dee02be8090d",
            ),
            (
                lambda: generate_benchmark(BenchmarkParams(machines=45, exploits=14)),
                "7a8f091eda5552235fdbcc7313e1bcea957b469d048739f85203a7763c7a171f",
            ),
            (
                lambda: generate_benchmark(BenchmarkParams(machines=163, exploits=27, seed=3)),
                "a1fedbfcdbfbc15f95526d1bb89ff95b0c419f7fd937b5f541572a5cf34d521a",
            ),
            (
                lambda: random_scenario(3),
                "424b4d056a9f66fa3045c80a3c81ffffc42e3c30d41982aa69c28db65c827bc4",
            ),
            (
                lambda: random_scenario(8, singleton_tree=True),
                "1315998bf6e46fce4e3791afb3245f692e72a4e578cb60a0a9ba6ad0e1e1a11d",
            ),
        ],
    )
    def test_emitted_text_is_pinned(self, make, yaml_digest):
        text = emit_scenario(make())
        assert sha256(text) == JSON_DIGESTS[yaml_digest]
        as_yaml = yaml.safe_dump(load_document(text), sort_keys=True, default_flow_style=False)
        assert sha256(as_yaml) == yaml_digest
        assert emit_scenario(parse_scenario(text)) == text

    def test_deterministic_given_seed(self):
        p = BenchmarkParams(machines=8, exploits=6, elapsed_days=30, seed=5)
        assert emit_scenario(generate_benchmark(p)) == emit_scenario(
            generate_benchmark(p)
        )

    def test_different_seeds_differ(self):
        a = generate_benchmark(BenchmarkParams(machines=8, exploits=6, seed=1))
        b = generate_benchmark(BenchmarkParams(machines=8, exploits=6, seed=2))
        assert emit_scenario(a) != emit_scenario(b)

    def test_topology_areas(self):
        spec = generate_benchmark(BenchmarkParams(machines=45, exploits=10, seed=0))
        subnets = set(spec.net.subnetworks)
        assert {"internet", "exposed", "sensitive"} <= subnets
        assert any(s.startswith("user") for s in subnets)
        # user subnetworks hold at most four machines
        for sn in subnets:
            if sn.startswith("user"):
                assert len(spec.net.subnetworks[sn]) <= 4

    def test_reward_placement(self):
        spec = generate_benchmark(BenchmarkParams(machines=45, exploits=10, seed=0))
        rewards = {m.reward for m in spec.net.machines() if m.reward > 0}
        assert rewards == {9000.0, 5000.0}
        for m in spec.net.machines():
            if m.reward == 9000.0:
                assert spec.net.subnetwork_of(m.id) == "sensitive"
            if m.reward == 5000.0:
                assert spec.net.subnetwork_of(m.id).startswith("user")

    def test_single_machine_network_still_rewarded(self):
        spec = generate_benchmark(BenchmarkParams(machines=1, exploits=1, seed=0))
        assert any(m.reward > 0 for m in spec.net.machines())

    def test_every_machine_has_a_template_with_an_exploit(self):
        spec = generate_benchmark(BenchmarkParams(machines=10, exploits=2, seed=0))
        for m in spec.net.machines():
            if m.template is None:
                continue
            config = spec.config_of(m.template)
            assert "vulnerable" in config

    def test_invalid_params_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchmarkParams(machines=0, exploits=1)
        with pytest.raises(BenchmarkError):
            BenchmarkParams(machines=1, exploits=0)


def scan_after_crash_scenario():
    """One machine whose port-100 scan is informative only after ``x`` crashes P."""
    return scenario_from_dict(
        {
            "start": "s",
            "elapsed_days": 10,
            "subnetworks": ["s", "n"],
            "machines": [
                {"id": "attacker", "subnetwork": "s"},
                {"id": "m", "subnetwork": "n", "template": "t", "reward": 100.0},
            ],
            "arcs": [{"from": "s", "to": "n", "blocked_ports": []}],
            "programs": {
                "P": {
                    "states": ["a", "b"],
                    "transitions": {"a": {"a": 0.95, "b": 0.05}, "b": {"b": 1.0}},
                    "port": 100,
                    "open_states": ["a", "b"],
                },
                "Q": {
                    "states": ["q0", "q1"],
                    "transitions": {"q0": {"q0": 0.9, "q1": 0.1}, "q1": {"q1": 1.0}},
                },
                "R": {
                    "states": ["r"],
                    "transitions": {"r": {"r": 1.0}},
                    "port": 200,
                    "open_states": ["r"],
                },
            },
            "templates": {"t": {"P": "a", "Q": "q0", "R": "r"}},
            "actions": [
                {
                    "id": "x", "kind": "exploit", "port": 100, "program": "P",
                    "success": {"P": ["a"], "Q": ["q1"]}, "crash": {"P": ["b"]},
                },
                {"id": "scan100", "kind": "port_scan", "port": 100},
                {
                    "id": "y", "kind": "exploit", "port": 200, "program": "R",
                    "success": {"P": ["b"], "R": ["r"]}, "cost_time": 60,
                },
            ],
        }
    )


def decode(gp, state):
    """A global state as its tuple of local states."""
    return tuple(local[c] for local, c in zip(gp.local_states, state))


class TestGlobalBaseline:
    # states are numbered as the walk first reaches them: the start states
    # first, in b0's order, which is that of the configurations' str per
    # machine; in each machine's POMDP, CONTROLLED is code 0
    @pytest.mark.parametrize("seed", [*range(40), 49, 55, 111, 240, 270, 279, 304, 365])
    def test_states_sort_like_their_decoded_strings(self, seed):
        gp = build_global_pomdp(random_scenario(seed))
        start = [gp.pomdp.states[i] for i in gp.pomdp.b0]
        assert list(gp.pomdp.b0) == list(range(len(start)))
        decoded = [decode(gp, s) for s in start]
        assert decoded == sorted(decoded, key=lambda d: [str(s.config) for s in d])
        assert all(local[0] is CONTROLLED for local in gp.local_states)

    @pytest.mark.parametrize("seed", [0, 2, 7, 55])
    def test_initial_states_round_trip_through_configs(self, seed):
        gp = build_global_pomdp(random_scenario(seed))
        for state in map(gp.pomdp.states.__getitem__, gp.pomdp.b0):
            locals_ = decode(gp, state)
            assert all(not local.crashed for local in locals_)
            configs = dict(zip(gp.machine_order, (local.config for local in locals_)))
            assert gp.state_from_configs(configs) == state

    def test_matches_decomposition_on_tree(self):
        for spec in (random_scenario(7, singleton_tree=True), scan_after_crash_scenario()):
            gp = build_global_pomdp(spec)
            value = solve(gp.pomdp).value
            assert value == pytest.approx(plan_attack(spec).value, abs=1e-6)
        # the scan of P's port is constant until x crashes P; after the crash
        # it tells whether y can work, so the global model must keep it too
        assert value == pytest.approx(38.947253, abs=1e-6)
        assert "m.scan100" in [a.id for a in gp.pomdp.actions]

    def test_exact_values_and_policies_pinned(self):
        # plan digests do not cover the global model's policies
        digest = hashlib.sha256()
        for seed in range(40):
            result = solve(build_global_pomdp(random_scenario(seed)).pomdp)
            digest.update(f"{seed} {result.value!r}\n{format_policy(result.policy)}\n".encode())
        assert digest.hexdigest() == (
            "774c31cabb220a167a45d996368f8ad7b740fb079d605ebec2ef8314a8867be4"
        )

    def test_machine_without_moves(self):
        # a second machine on which no action can succeed or tell anything:
        # its model has no moves, and it adds nothing to the global value
        doc = load_document(emit_scenario(worked_example_scenario()))
        doc["machines"].append(
            {"id": "n", "subnetwork": "office", "template": "hardened", "reward": 50.0}
        )
        doc["templates"]["hardened"] = {"DEP": "enabled", "SA": "absent", "CAU": "absent"}
        spec = scenario_from_dict(doc)
        gp = build_global_pomdp(spec)
        assert gp.machine_order == ("m", "n")
        assert not any(a.id.startswith("n.") for a in gp.pomdp.actions)
        assert gp.local_states[1][0] is CONTROLLED and len(gp.local_states[1]) == 2
        alone = solve(build_global_pomdp(worked_example_scenario()).pomdp)
        assert solve(gp.pomdp).value == pytest.approx(alone.value, abs=1e-12)

    def test_state_bound_enforced(self):
        spec = generate_benchmark(BenchmarkParams(machines=4, exploits=4, seed=0))
        with pytest.raises(ResourceBoundError, match="decomposition"):
            build_global_pomdp(spec, max_states=3)

    # seeds whose crash variants take the state count past the estimate
    # (the product of support sizes plus one), so the walk itself refuses
    @pytest.mark.parametrize("seed", [26, 30, 37])
    def test_state_bound_is_the_state_count(self, seed):
        spec = random_scenario(seed)
        n = len(build_global_pomdp(spec).pomdp.states)
        assert len(build_global_pomdp(spec, max_states=n).pomdp.states) == n
        with pytest.raises(ResourceBoundError, match=f"global model exceeds {n - 1} states"):
            build_global_pomdp(spec, max_states=n - 1)

    @pytest.mark.parametrize("seed", [2, 15, 38, 49])
    def test_same_model_before_and_after_planning(self, seed):
        # planning fills the spec's compiled models, which the global build reuses
        spec = random_scenario(seed)
        before = build_global_pomdp(spec)
        plan_attack(spec)
        after = build_global_pomdp(spec)
        planned_first = random_scenario(seed)
        plan_attack(planned_first)
        for gp in (after, build_global_pomdp(planned_first)):
            assert gp.pomdp == before.pomdp
            assert gp.machine_order == before.machine_order
            assert gp.local_states == before.local_states

    def test_initial_belief_normalized(self):
        spec = random_scenario(2)
        gp = build_global_pomdp(spec)
        assert sum(gp.pomdp.b0.values()) == pytest.approx(1.0, abs=1e-9)

    def test_state_tuples_follow_machine_order(self):
        spec = random_scenario(2)
        gp = build_global_pomdp(spec)
        assert list(gp.machine_order) == sorted(gp.machine_order)
        beliefs = {m.id: spec.machine_belief(m)
                   for m in spec.net.machines() if m.template is not None}
        configs = {mid: next(iter(sorted(b, key=str))) for mid, b in beliefs.items()}
        state = gp.state_from_configs(configs)
        assert len(state) == len(gp.machine_order)


def dropped_moves(spec, gp):
    """The (machine, kept local action) pairs that the global catalog leaves out."""
    kept = {a.id for a in gp.pomdp.actions}
    for machine_id in gp.machine_order:
        machine = spec.net.machine(machine_id)
        for a in machine_pomdp(spec, machine, EMPTY_FIREWALL).actions:
            if f"{machine_id}.{a.id}" not in kept:
                yield machine, a


class TestMovePruning:
    """The global catalog keeps every move that some reachable state can launch."""

    @pytest.mark.parametrize("seed", [*range(40), 55, 219, 240, 365])
    def test_dropped_moves_are_launchable_from_no_held_subnetwork(self, seed):
        spec = random_scenario(seed)
        net = spec.net
        gp = build_global_pomdp(spec)
        foothold = net.subnetwork_of(net.start_machine.id)
        held_sets = {  # per reachable state: the foothold's and controlled machines' subnetworks
            frozenset([foothold] + [
                net.subnetwork_of(machine_id)
                for machine_id, code in zip(gp.machine_order, state)
                if code == 0
            ])
            for state in gp.pomdp.states
        }
        for machine, a in dropped_moves(spec, gp):
            target = net.subnetwork_of(machine.id)
            for held in held_sets:
                assert target not in held
                for source in held:
                    firewall = net.arcs.get((source, target))
                    assert firewall is None or not action_usable(a, firewall)

    def test_some_seeds_drop_every_move(self):
        for seed in (4, 219, 226):
            spec = random_scenario(seed)
            gp = build_global_pomdp(spec)
            assert gp.pomdp.actions == () and len(list(dropped_moves(spec, gp))) == 16

    def test_an_arc_blocking_every_service_port_leaves_no_moves(self):
        doc = load_document(emit_scenario(worked_example_scenario()))
        (arc,) = doc["arcs"]
        arc["blocked_ports"] = sorted({a["port"] for a in doc["actions"] if "port" in a})
        spec = scenario_from_dict(doc)
        gp = build_global_pomdp(spec)
        assert gp.pomdp.actions == ()
        assert list(dropped_moves(spec, gp))  # the machine's own model has moves
        result = solve(gp.pomdp)
        assert result.value == 0.0
        assert result.policy.action.kind == TERMINATE and not result.policy.branches


@pytest.fixture(scope="module")
def product_models():
    """``(scenario, global model)`` for each product among ``random_scenario(0..399)`` but
    215, plain and on singleton trees."""
    models = []
    for singleton_tree in (False, True):
        for seed in range(400):
            if seed == 215:
                continue
            spec = random_scenario(seed, singleton_tree=singleton_tree)
            gp = build_global_pomdp(spec)
            if gp.pomdp.factors:
                models.append((spec, gp))
    return models


class TestProductModels:
    """A global model no state gates is solved as the sum of its machine solves."""

    def test_products_are_found(self, product_models):
        assert len(product_models) == 297
        for _, gp in product_models:
            assert [f.machine_id for f in gp.pomdp.factors] == list(gp.machine_order)

    def test_value_equals_the_plain_search(self, product_models):
        for _, gp in product_models:
            plain = solve(replace(gp.pomdp, factors=())).value
            assert solve(gp.pomdp).value == pytest.approx(plain, rel=1e-12, abs=0.0)

    def test_chained_policy_evaluates_to_its_value(self, product_models):
        for _, gp in product_models:
            result = solve(gp.pomdp)
            assert result.policy.value == pytest.approx(result.value, abs=1e-9)
            assert evaluate_policy(gp.pomdp, result.policy) == pytest.approx(
                result.value, abs=1e-9
            )

    def test_chained_policy_rolls_out(self, product_models):
        # every sampled truth walks the chain to its end without a missing branch
        for spec, gp in product_models:
            policy = solve(gp.pomdp).policy

            def total(truth):
                state = gp.state_from_configs(truth.configs)
                return rollout_pomdp(gp.pomdp, policy, state).total

            sampled_mean(spec, 3, 0, total)

    # gated: moves from other subnetworks wait for a break-in.  Seeds 16 and
    # (singleton tree) 7 also have machines no move can reach, whose own
    # solves would add value the network cannot give
    @pytest.mark.parametrize("seed, singleton_tree, value", [
        (240, False, 313.8901719135746),
        (55, False, 16.66884918791709),
        (9, False, 916.0655075702358),
        (16, False, 0.0),
        (7, True, 462.2141643791877),
    ])
    def test_gated_models_have_no_factors(self, seed, singleton_tree, value):
        gp = build_global_pomdp(random_scenario(seed, singleton_tree=singleton_tree))
        assert gp.pomdp.factors == ()
        assert solve(gp.pomdp).value == pytest.approx(value, abs=1e-9)


class TestCalibration:
    def test_hits_published_targets(self):
        result = calibrate_chains()
        enabled, exploit_open, exploit_open_failed = result.achieved
        assert enabled == pytest.approx(0.706, abs=0.03)
        assert exploit_open == pytest.approx(0.20, abs=0.03)
        assert exploit_open_failed == pytest.approx(0.05, abs=0.03)

    def test_closed_form_agreement(self):
        # oracle: the three marginals have closed forms in the daily rates
        r = calibrate_chains()
        d = (1.0 - r.dep_enable_daily) ** r.days
        sv = r.sa_keep_daily**r.days
        sp = (1.0 - sv) * r.sa_patch_share
        cv = r.cau_keep_daily**r.days
        assert r.achieved[0] == pytest.approx(1.0 - d, abs=1e-9)
        assert r.achieved[1] == pytest.approx(cv * d, abs=1e-9)
        assert r.achieved[2] == pytest.approx(
            cv * d * sp / (sv + sp - sv * d), abs=1e-9
        )

    def test_programs_match_rates(self):
        r = calibrate_chains()
        dep, sa, cau = r.programs()
        assert dep.chain.transition[0][1] == pytest.approx(r.dep_enable_daily)
        assert sa.port == 2967 and cau.port == 6668
        assert sa.open_states == frozenset({"vulnerable", "present"})

    def test_unreachable_targets_rejected(self):
        impossible = CalibrationTargets(
            protection_enabled=0.99,
            exploit_given_open=0.9,
            exploit_given_open_and_fail=0.0,
            tolerance=0.001,
        )
        from pentestplan.bench import CalibrationError

        with pytest.raises(CalibrationError):
            calibrate_chains(impossible)


class TestWorkedExample:
    def test_belief_support_and_mass(self):
        spec = worked_example_scenario()
        machine = spec.net.machine("m")
        belief = spec.machine_belief(machine)
        # 2 protection states x 3 versions x 3 versions = 18 configurations
        assert len(belief) == 18
        assert sum(belief.values()) == pytest.approx(1.0, abs=1e-9)

    def test_protection_mass_exceeds_published_bound(self):
        spec = worked_example_scenario()
        machine = spec.net.machine("m")
        belief = spec.machine_belief(machine)
        names = spec.model.names
        enabled = sum(
            mass
            for config, mass in belief.items()
            if config[names.index("DEP")] == "enabled"
        )
        assert enabled > 0.70


class TestExperiments:
    def test_cells_and_csv_shape(self):
        cells = run_experiment("both", [1, 2], [1], repetitions=100, seed=0)
        assert len(cells) == 2
        text = experiment_csv(cells)
        lines = text.strip().splitlines()
        assert lines[0].startswith("machines,exploits,seed")
        assert len(lines) == 3

    def test_decomposed_only_leaves_global_empty(self):
        cells = run_experiment("decomposed", [1], [1], repetitions=0, seed=0)
        assert math.isnan(cells[0].global_value)
        assert not math.isnan(cells[0].decomposed_value)

    def test_unknown_mode_rejected(self):
        with pytest.raises(BenchmarkError):
            run_experiment("best-effort", [1], [1])

    def test_sides_get_specs_of_their_own(self, monkeypatch):
        # the global side's time must count every compile it needs, so it
        # may not reuse the spec the planner has filled
        import pentestplan.bench as bench_module

        seen = []

        def recording(fn):
            def record(spec, *args, **kwargs):
                seen.append((fn.__name__, spec))
                return fn(spec, *args, **kwargs)

            return record

        for name in ("plan_attack", "build_global_pomdp", "monte_carlo", "sampled_mean"):
            monkeypatch.setattr(bench_module, name, recording(getattr(bench_module, name)))
        (cell,) = run_experiment("both", [3], [2], repetitions=20, seed=1)
        (planned, simulated, built, sampled) = seen
        assert [name for name, _ in seen] == [
            "plan_attack", "monte_carlo", "build_global_pomdp", "sampled_mean"
        ]
        assert planned[1] is simulated[1] and built[1] is sampled[1]
        assert planned[1] is not built[1]
        assert emit_scenario(planned[1]) == emit_scenario(built[1])
        assert not math.isnan(cell.gap_percent)

    def test_gap_zero_when_global_worthless(self):
        cells = run_experiment("both", [1], [1], repetitions=50, seed=0)
        for c in cells:
            if c.global_mean <= 0:
                assert c.gap_percent == 0.0
