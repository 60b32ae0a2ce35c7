import hashlib
import math

import pytest

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
from pentestplan.planner import plan_attack
from pentestplan.pomdp import CONTROLLED, TERMINAL
from pentestplan.scenario import emit_scenario, parse_scenario, scenario_from_dict
from pentestplan.solver import solve


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestBenchmarkGeneration:
    # generators build the spec from a dict; the emitted text equals the one
    # they produced when they went through a YAML dump and parse
    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                worked_example_scenario,
                "0589cf3223a7b7c3d6e30737842df2b1197be6a308ddf0da905fa912e0552742",
            ),
            (
                lambda: generate_benchmark(BenchmarkParams(machines=6, exploits=7)),
                "d9557c8b1251d3cf78abb4e84a8758a41c9040fe041d6a9c065857587f033858",
            ),
        ],
    )
    def test_emitted_text_is_pinned(self, make, digest):
        text = emit_scenario(make())
        assert sha256(text) == digest
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
    """A global state as its tuple of local states (``TERMINAL`` as is)."""
    if isinstance(state, str):
        return state
    return tuple(local[c] for local, c in zip(gp.local_states, state))


def local_order(decoded):
    """Sort key of a decoded global state, as a machine POMDP orders its states."""
    return [(0,) if s is CONTROLLED else (1, s.config, sorted(s.crashed)) for s in decoded]


class TestGlobalBaseline:
    # codes are positions in each machine's POMDP states, so code tuples
    # sort as the decoded tuples do with CONTROLLED first and configurations
    # by (config, sorted crashed programs); an order by str would follow the
    # string hashes wherever two programs are crashed (seeds 21, 49, 111, ...)
    @pytest.mark.parametrize("seed", [*range(40), 49, 55, 111, 240, 270, 279, 304, 365])
    def test_states_sort_like_their_decoded_strings(self, seed):
        gp = build_global_pomdp(random_scenario(seed))
        decoded = [decode(gp, s) for s in gp.pomdp.states[1:]]
        assert gp.pomdp.states[0] == TERMINAL
        assert decoded == sorted(decoded, key=local_order)

    @pytest.mark.parametrize("seed", [0, 2, 7, 55])
    def test_initial_states_round_trip_through_configs(self, seed):
        gp = build_global_pomdp(random_scenario(seed))
        for state in gp.pomdp.b0:
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

    def test_state_bound_enforced(self):
        spec = generate_benchmark(BenchmarkParams(machines=4, exploits=4, seed=0))
        with pytest.raises(ResourceBoundError, match="decomposition"):
            build_global_pomdp(spec, max_states=3)

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

    def test_gap_zero_when_global_worthless(self):
        cells = run_experiment("both", [1], [1], repetitions=50, seed=0)
        for c in cells:
            if c.global_mean <= 0:
                assert c.gap_percent == 0.0
