from itertools import chain, combinations, product

import pytest

from pentestplan.belief import DependencyModel, MarkovChain, ProgramModel
from pentestplan.bench import (
    BenchmarkParams,
    generate_benchmark,
    random_scenario,
    worked_example_scenario,
)
from pentestplan.netmodel import EMPTY_FIREWALL, Firewall, Machine
from pentestplan.pomdp import (
    CONTROLLED,
    ActionSpec,
    ConfigState,
    ConfigTable,
    ModelError,
    OBS_CLOSED,
    OBS_FAILED,
    OBS_NONE,
    OBS_OPEN,
    OBS_SUCCEEDED,
    ResourceBoundError,
    build_machine_pomdp,
    informative_actions,
    local_outcome,
    step,
    tabulate,
    with_reward,
)
from pentestplan.solver import solve
from test_bench import scan_after_crash_scenario


def service_chain():
    return MarkovChain(
        ("vulnerable", "patched"), [[0.9, 0.1], [0.0, 1.0]]
    )


def make_model():
    svc = ProgramModel(
        "svc", service_chain(), port=8080, open_states=frozenset({"vulnerable"})
    )
    osp = ProgramModel(
        "sys", MarkovChain(("linux",), [[1.0]]), is_os=True
    )
    return DependencyModel(programs=(svc, osp))


def shared_port_program():
    """A second program bound to port 8080, open when ``listening``."""
    return ProgramModel(
        "aux",
        MarkovChain(("listening", "closed"), [[0.5, 0.5], [0.0, 1.0]]),
        port=8080,
        open_states=frozenset({"listening"}),
    )


def exploit(crash=False):
    return ActionSpec(
        id="x",
        kind="exploit",
        port=8080,
        program="svc",
        success={"svc": ["vulnerable"]},
        crash={"svc": ["patched"]} if crash else {},
        r_t=-10.0,
    )


SCAN = ActionSpec(id="s", kind="port_scan", port=8080, r_t=-10.0)
DETECT = ActionSpec(id="d", kind="os_detect", r_t=-50.0)


def outcome(model, action, state):
    """``local_outcome`` through a table of ``state``'s configuration and ``action``."""
    return local_outcome(ConfigTable(model, (state.config,), (action,)), action, state)


def informative(model, states, catalog):
    """``informative_actions`` through a table of the states' configurations and ``catalog``."""
    configs = list(dict.fromkeys(s.config for s in states))
    return informative_actions(ConfigTable(model, configs, catalog), states)


class TestActionSpec:
    def test_scan_needs_port(self):
        with pytest.raises(ModelError):
            ActionSpec(id="s", kind="port_scan")

    def test_exploit_needs_program(self):
        with pytest.raises(ModelError):
            ActionSpec(id="x", kind="exploit", port=80)

    def test_costs_must_be_non_positive(self):
        with pytest.raises(ModelError):
            ActionSpec(id="s", kind="port_scan", port=80, r_t=5.0)

    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            ActionSpec(id="a", kind="teleport")


class TestLocalOutcome:
    def test_scan_open_and_closed(self):
        model = make_model()
        open_state = ConfigState(("vulnerable", "linux"))
        closed_state = ConfigState(("patched", "linux"))
        assert outcome(model, SCAN, open_state)[1] == OBS_OPEN
        assert outcome(model, SCAN, closed_state)[1] == OBS_CLOSED

    def test_crashed_program_reads_closed(self):
        model = make_model()
        crashed = ConfigState(("vulnerable", "linux"), frozenset({"svc"}))
        assert outcome(model, SCAN, crashed)[1] == OBS_CLOSED

    def test_os_detect_reports_version(self):
        model = make_model()
        state = ConfigState(("vulnerable", "linux"))
        assert outcome(model, DETECT, state)[1] == "os=linux"

    @pytest.mark.parametrize(
        "config, crashed, expected",
        [
            (("vulnerable", "closed"), (), OBS_OPEN),
            (("patched", "listening"), (), OBS_OPEN),
            (("vulnerable", "listening"), (), OBS_OPEN),
            (("patched", "closed"), (), OBS_CLOSED),
            (("vulnerable", "listening"), ("svc",), OBS_OPEN),
            (("vulnerable", "listening"), ("aux",), OBS_OPEN),
            (("vulnerable", "closed"), ("svc",), OBS_CLOSED),
            (("patched", "listening"), ("aux",), OBS_CLOSED),
            (("vulnerable", "listening"), ("svc", "aux"), OBS_CLOSED),
        ],
    )
    def test_shared_port_reads_open_if_any_uncrashed_program_is_open(
        self, config, crashed, expected
    ):
        model = DependencyModel(programs=(make_model().programs[0], shared_port_program()))
        state = ConfigState(config, frozenset(crashed))
        assert outcome(model, SCAN, state)[1] == expected

    def test_os_detect_without_os_program_reports_unknown(self):
        model = DependencyModel(programs=(make_model().programs[0],))
        state = ConfigState(("vulnerable",))
        assert outcome(model, DETECT, state)[1] == "os=unknown"

    def test_os_detect_reports_the_first_os_program(self):
        bsd = ProgramModel("bsd", MarkovChain(("freebsd",), [[1.0]]), is_os=True)
        svc, linux = make_model().programs
        for programs, expected in [
            ((svc, linux, bsd), "linux"),
            ((bsd, svc, linux), "freebsd"),
        ]:
            model = DependencyModel(programs=programs)
            config = tuple(
                {"svc": "vulnerable", "sys": "linux", "bsd": "freebsd"}[p.name]
                for p in programs
            )
            assert outcome(model, DETECT, ConfigState(config))[1] == f"os={expected}"

    def test_successful_exploit_takes_control(self):
        model = make_model()
        nxt, obs = outcome(model, exploit(), ConfigState(("vulnerable", "linux")))
        assert (nxt, obs) == (CONTROLLED, OBS_SUCCEEDED)

    def test_failed_exploit_without_crash_changes_nothing(self):
        model = make_model()
        state = ConfigState(("patched", "linux"))
        nxt, obs = outcome(model, exploit(), state)
        assert nxt == state and obs == OBS_FAILED and nxt is not CONTROLLED

    def test_crashing_exploit_marks_the_program(self):
        model = make_model()
        state = ConfigState(("patched", "linux"))
        nxt, obs = outcome(model, exploit(crash=True), state)
        assert nxt.crashed == frozenset({"svc"}) and obs == OBS_FAILED

    def test_crashed_program_cannot_be_exploited(self):
        model = make_model()
        state = ConfigState(("vulnerable", "linux"), frozenset({"svc"}))
        nxt, obs = outcome(model, exploit(), state)
        assert nxt == state and nxt is not CONTROLLED

    def test_overlapping_predicates_rejected(self):
        with pytest.raises(ModelError, match="can both hold"):
            ActionSpec(
                id="x",
                kind="exploit",
                port=8080,
                program="svc",
                success={"svc": ["vulnerable"], "sys": ["linux"]},
                crash={"svc": ["vulnerable", "patched"]},
            )

    @pytest.mark.parametrize(
        "crash",
        [
            {},  # an empty predicate never holds
            {"svc": ["patched"]},  # disjoint on a shared program
            {"svc": ["vulnerable"], "sys": []},  # an empty version set never holds
        ],
    )
    def test_predicates_that_cannot_both_hold_accepted(self, crash):
        ActionSpec(
            id="x", kind="exploit", port=8080, program="svc",
            success={"svc": ["vulnerable"]}, crash=crash,
        )


class TestInformativeActions:
    def test_constant_scan_dropped(self):
        model = make_model()
        states = [ConfigState(("patched", "linux"))]
        assert informative(model, states, [SCAN]) == []

    def test_varying_scan_kept(self):
        model = make_model()
        states = [
            ConfigState(("patched", "linux")),
            ConfigState(("vulnerable", "linux")),
        ]
        assert informative(model, states, [SCAN]) == [SCAN]

    def test_hopeless_exploit_dropped(self):
        model = make_model()
        states = [ConfigState(("patched", "linux"))]
        assert informative(model, states, [exploit()]) == []

    def test_invisible_crash_exploit_dropped(self):
        # the exploit never succeeds, the crashed port is closed anyway, and
        # no other action can tell the crash happened: provably valueless
        model = make_model()
        states = [ConfigState(("patched", "linux"))]
        catalog = [exploit(crash=True), SCAN, DETECT]
        kept = informative(model, states, catalog)
        assert exploit(crash=True) not in kept

    def test_visible_crash_exploit_kept(self):
        # here the same crash closes a port that scans would otherwise see
        # open, so the action is genuinely informative and must survive
        svc = ProgramModel(
            "svc",
            service_chain(),
            port=8080,
            open_states=frozenset({"vulnerable", "patched"}),
        )
        model = DependencyModel(programs=(svc,))
        states = [ConfigState(("patched",))]
        catalog = [exploit(crash=True), SCAN]
        kept = informative(model, states, catalog)
        assert exploit(crash=True) in kept

    def test_crash_exploit_on_a_shared_port_kept(self):
        # svc's port never reads open, so the one-step check finds its crash
        # invisible; with aux bound to the same port the check is skipped
        never_open = ProgramModel("svc", service_chain(), port=8080)
        catalog = [exploit(crash=True), SCAN]
        alone = DependencyModel(programs=(never_open,))
        assert informative(alone, [ConfigState(("patched",))], catalog) == []
        shared = DependencyModel(programs=(shared_port_program(), never_open))
        states = [ConfigState(("listening", "patched")), ConfigState(("closed", "patched"))]
        kept = informative(shared, states, catalog)
        assert exploit(crash=True) in kept


BELIEF = {("vulnerable", "linux"): 0.4, ("patched", "linux"): 0.6}


def build(belief=BELIEF, crash=False, firewall=EMPTY_FIREWALL):
    actions = [exploit(crash=crash), SCAN, DETECT]
    machine = Machine("m", "t0", 100.0)
    return build_machine_pomdp(machine, firewall, 100.0, belief, actions, make_model())


def unpruned(crash=False):
    """``build()``'s model over the whole catalog, tabulated without pruning."""
    model = make_model()
    actions = [exploit(crash=crash), SCAN, DETECT]

    def outcomes(state):
        if state is CONTROLLED:
            return [
                (CONTROLLED, OBS_SUCCEEDED if a.kind == "exploit" else OBS_NONE, a.r_t)
                for a in actions
            ]
        out = []
        for a in actions:
            nxt, obs = outcome(model, a, state)
            out.append((nxt, obs, a.r_t + (100.0 if nxt is CONTROLLED else 0.0)))
        return out

    b0 = {ConfigState(c): m for c, m in BELIEF.items()}
    return tabulate("m", (CONTROLLED, *b0), actions, outcomes, b0)


class TestBuildMachinePomdp:
    def test_state_space_contents(self):
        pomdp = build()
        assert pomdp.states[0] is CONTROLLED
        assert len(pomdp.states) == 3  # controlled, two configs

    def test_crash_closure_adds_states(self):
        pomdp = build(crash=True)
        crashed = [
            s
            for s in pomdp.states
            if isinstance(s, ConfigState) and s.crashed
        ]
        assert crashed  # the patched config gains a crashed variant

    def test_firewall_filters_actions(self):
        pomdp = build(firewall=Firewall(frozenset({8080})))
        # no port action is left, and detect passes but reads linux everywhere
        assert pomdp.actions == ()

    def test_success_reward_is_cost_plus_break_in(self):
        pomdp = build()
        vulnerable = ConfigState(("vulnerable", "linux"))
        nxt, _, r = step(pomdp, vulnerable, exploit())
        assert nxt == CONTROLLED and r == pytest.approx(90.0)

    def test_negative_break_in_reward_rejected(self):
        model = make_model()
        with pytest.raises(ModelError):
            build_machine_pomdp(
                Machine("m", "t0", 0.0), EMPTY_FIREWALL, -1.0,
                {("vulnerable", "linux"): 1.0}, [SCAN], model,
            )

    def test_unnormalized_belief_rejected(self):
        model = make_model()
        with pytest.raises(Exception):
            build_machine_pomdp(
                Machine("m", "t0", 0.0), EMPTY_FIREWALL, 10.0,
                {("vulnerable", "linux"): 0.5}, [SCAN], model,
            )

    def test_pruning_preserves_value(self):
        full = unpruned(crash=True)
        pruned = build(crash=True)
        assert len(pruned.actions) < len(full.actions)
        assert solve(pruned).value == pytest.approx(solve(full).value, abs=1e-9)


def worked_example_inputs(firewall=EMPTY_FIREWALL):
    """``build_machine_pomdp``'s arguments but the reward, for the worked example's machine."""
    spec = worked_example_scenario()
    machine = spec.net.machine("m")
    return machine, firewall, spec.machine_belief(machine), spec.actions, spec.model


def crash_model_inputs():
    return Machine("m", "t0"), EMPTY_FIREWALL, BELIEF, [exploit(True), SCAN, DETECT], make_model()


def compile_at(inputs, reward, machine=None):
    m, firewall, belief, actions, model = inputs
    return build_machine_pomdp(machine or m, firewall, reward, belief, actions, model)


WITH_REWARD_CASES = {
    "worked-example": worked_example_inputs,
    "crash-variants": crash_model_inputs,
    "blocked-port": lambda: worked_example_inputs(Firewall(frozenset({2967}))),
}


class TestWithReward:
    @pytest.mark.parametrize("reward", [0.5, 100.0, 1e6])
    @pytest.mark.parametrize("case", WITH_REWARD_CASES)
    def test_equals_a_direct_compile(self, case, reward):
        inputs = WITH_REWARD_CASES[case]()
        machine = inputs[0]
        base = compile_at(inputs, 0.0, machine=Machine("other", machine.template))
        direct = compile_at(inputs, reward)
        rewarded = with_reward(base, machine.id, reward)
        assert rewarded.rows == direct.rows
        assert rewarded.states == direct.states and rewarded.actions == direct.actions
        assert rewarded.machine_id == direct.machine_id == machine.id
        assert rewarded == direct
        assert base.machine_id == "other" and base.rows != direct.rows  # base left as it was

    def test_copies_are_read_only(self):
        inputs = worked_example_inputs()
        base = compile_at(inputs, 0.0)
        copy = with_reward(base, "m", 100.0)
        position = next(iter(copy.b0))
        with pytest.raises(TypeError):
            copy.b0[position] = 1.0
        with pytest.raises(TypeError):
            copy.obs_values[0] = "edited"
        with pytest.raises(TypeError):
            copy.index[copy.states[position]] = 0
        with pytest.raises(TypeError):
            copy.action_pos["exploit_SA"] = 0
        assert base == compile_at(inputs, 0.0)

    @pytest.mark.parametrize("reward", [0.0, 100.0])
    def test_b0_is_a_read_only_float_map_by_position(self, reward):
        inputs = worked_example_inputs()
        belief = inputs[2]
        pomdp = compile_at(inputs, reward)
        assert list(pomdp.b0) == list(range(1, len(belief) + 1))  # after CONTROLLED
        assert [pomdp.states[i].config for i in pomdp.b0] == list(belief)
        assert all(type(m) is float for m in pomdp.b0.values())
        assert list(pomdp.b0.values()) == list(belief.values())
        assert sum(pomdp.b0.values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(TypeError):
            pomdp.b0[1] = 1.0
        assert with_reward(pomdp, "other", 5.0).b0 is pomdp.b0

    def test_cases_have_crash_variants_and_a_blocked_port(self):
        assert len(compile_at(crash_model_inputs(), 1.0).states) > len(BELIEF) + 1
        kept = {
            case: {a.id for a in compile_at(make(), 1.0).actions}
            for case, make in WITH_REWARD_CASES.items()
        }
        assert "exploit_SA" in kept["worked-example"]
        assert kept["blocked-port"] == kept["worked-example"] - {"exploit_SA", "scan_port_2967"}


def reference_outcome(model, action, state):
    """``local_outcome``'s semantics as predicates, evaluated on each call."""
    config, crashed = state.config, state.crashed

    def holds(predicate):
        return bool(predicate) and all(
            config[model.names.index(p)] in v for p, v in predicate.items()
        )

    if action.kind == "port_scan":
        is_open = any(
            name not in crashed and config[i] in opens
            for i, name, opens in model.on_port.get(action.port, ())
        )
        return state, (OBS_OPEN if is_open else OBS_CLOSED)
    if action.kind == "os_detect":
        i = model.os_position
        return state, f"os={'unknown' if i is None else config[i]}"
    if action.program in crashed:
        return state, OBS_FAILED
    if holds(action.success):
        return CONTROLLED, OBS_SUCCEEDED
    if holds(action.crash):
        return ConfigState(config, crashed | {action.program}), OBS_FAILED
    return state, OBS_FAILED


def reference_informative(model, states, actions):
    """``informative_actions`` by ``reference_outcome`` on every (action, state)."""

    def crash_invisible(a):
        port = model.program(a.program).port
        if port is not None and len(model.on_port[port]) > 1:
            return False
        reading = [
            b for b in actions
            if (b.kind == "port_scan" and b.port == port)
            or (b.kind == "exploit" and b.program == a.program)
        ]
        return all(
            reference_outcome(model, b, s)[1:]
            == reference_outcome(model, b, ConfigState(s.config, s.crashed | {a.program}))[1:]
            for s in states
            for b in reading
        )

    kept = []
    for a in actions:
        results = [reference_outcome(model, a, s) for s in states]
        can_succeed = any(nxt is CONTROLLED for nxt, _ in results)
        observations = {obs for _, obs in results}
        crashes = any(nxt != s for s, (nxt, _) in zip(states, results))
        if can_succeed or len(observations) > 1 or (crashes and not crash_invisible(a)):
            kept.append(a)
    return kept


def shared_port_and_os_case():
    """svc, aux and dead share port 8080, and the OS program has two versions.

    ``xd`` never succeeds and crashes dead, which is never open: only the
    shared port makes that crash count as visible.
    """
    svc = make_model().programs[0]
    osp = ProgramModel(
        "sys", MarkovChain(("linux", "bsd"), [[0.5, 0.5], [0.0, 1.0]]), is_os=True
    )
    dead = ProgramModel("dead", MarkovChain(("up", "down"), [[0.5, 0.5], [0.0, 1.0]]), port=8080)
    model = DependencyModel(programs=(svc, osp, shared_port_program(), dead))
    configs = list(product(
        ("vulnerable", "patched"), ("linux", "bsd"), ("listening", "closed"), ("up", "down")
    ))
    aux_exploit = ActionSpec(
        id="xa", kind="exploit", port=8080, program="aux",
        success={"aux": ["listening"], "sys": ["linux"]}, crash={"aux": ["closed"]},
    )
    dead_exploit = ActionSpec(
        id="xd", kind="exploit", port=8080, program="dead",
        success={"dead": ["up"], "sys": ["solaris"]}, crash={"dead": ["down"]},
    )
    catalog = [exploit(crash=True), aux_exploit, dead_exploit, SCAN, DETECT]
    return model, {c: 1 / len(configs) for c in configs}, catalog


def scan_sees_crash_case():
    """x only crashes svc, and only the scan of svc's port can tell."""
    svc = ProgramModel(
        "svc", service_chain(), port=8080, open_states=frozenset({"vulnerable", "patched"})
    )
    return DependencyModel(programs=(svc,)), {("patched",): 1.0}, [exploit(crash=True), SCAN]


def scenario_cases(spec):
    """(model, belief, catalog) for one machine of each template of ``spec``."""
    machines = {m.template: m for m in spec.net.machines() if m.template is not None}
    return [(spec.model, spec.machine_belief(m), list(spec.actions)) for m in machines.values()]


TABLE_CASES = {
    "worked-example": lambda: scenario_cases(worked_example_scenario()),
    "scan-after-crash": lambda: scenario_cases(scan_after_crash_scenario()),
    "random-49": lambda: scenario_cases(random_scenario(49)),
    "benchmark-60x13": lambda: scenario_cases(generate_benchmark(BenchmarkParams(60, 13))),
    "shared-port-and-os": lambda: [shared_port_and_os_case()],
    "scan-sees-crash": lambda: [scan_sees_crash_case()],
}


def crash_variants(belief, catalog):
    """Every configuration of ``belief`` under every set of crashable programs' flags."""
    crashable = sorted({a.program for a in catalog if a.kind == "exploit" and a.crash})
    flag_sets = chain.from_iterable(combinations(crashable, k) for k in range(len(crashable) + 1))
    return [ConfigState(c, frozenset(f)) for f in flag_sets for c in belief]


class TestConfigTable:
    """The position tables against the predicates they replace."""

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_lookups_and_pruning_match_the_predicates(self, case):
        for model, belief, catalog in TABLE_CASES[case]():
            variants = crash_variants(belief, catalog)
            support = variants[: len(belief)]  # the uncrashed states come first
            table = ConfigTable(model, belief, catalog)
            for a in catalog:
                for state in variants:
                    assert local_outcome(table, a, state) == reference_outcome(model, a, state)
            compiled = build_machine_pomdp(
                Machine("m", "t"), EMPTY_FIREWALL, 1.0, belief, catalog, model
            ).states[1:]
            for states in (support, variants, compiled):
                kept = informative_actions(table, states)
                assert kept == reference_informative(model, states, catalog)

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_next_state_is_controlled_exactly_on_a_success(self, case):
        for model, belief, catalog in TABLE_CASES[case]():
            table = ConfigTable(model, belief, catalog)
            for a in catalog:
                for state in crash_variants(belief, catalog):
                    nxt, obs = local_outcome(table, a, state)
                    assert (nxt is CONTROLLED) == (obs == OBS_SUCCEEDED)

    def test_cases_cover_crashes_shared_ports_and_os_detection(self):
        crashable = {
            case: {a.program for _, _, catalog in make() for a in catalog if a.crash}
            for case, make in TABLE_CASES.items()
        }
        assert crashable["random-49"] == {"svc1", "svc3"}
        assert crashable["shared-port-and-os"] == {"svc", "aux", "dead"}
        model, belief, catalog = shared_port_and_os_case()
        assert len(model.on_port[8080]) == 3
        table = ConfigTable(model, belief, catalog)
        kept = informative_actions(table, [ConfigState(c) for c in belief])
        assert {"d", "xd"} <= {a.id for a in kept}


class TestStepAndBeliefStep:
    def test_step_matches_tables(self):
        pomdp = build()
        vulnerable = ConfigState(("vulnerable", "linux"))
        nxt, obs, r = step(pomdp, vulnerable, exploit())
        assert nxt == CONTROLLED and obs == OBS_SUCCEEDED and r == pytest.approx(90.0)

    def test_step_rejects_filtered_action(self):
        pomdp = build(firewall=Firewall(frozenset({8080})))
        with pytest.raises(ModelError):
            step(pomdp, CONTROLLED, SCAN)

    @pytest.mark.parametrize("state", ["nowhere", ["vulnerable", "linux"]])
    def test_step_rejects_unknown_state(self, state):
        pomdp = build()
        with pytest.raises(ModelError, match="unknown state"):
            step(pomdp, state, SCAN)

    def test_belief_step_partitions_probability(self):
        pomdp = build()
        groups = pomdp.split(pomdp.b0, pomdp.action_pos["s"])
        assert sum(prob for _, prob, _, _ in groups.values()) == pytest.approx(1.0)
        by_obs = {pomdp.obs_values[code]: post for code, (post, *_) in groups.items()}
        assert set(by_obs) == {OBS_OPEN, OBS_CLOSED}
        vulnerable = pomdp.index[ConfigState(("vulnerable", "linux"))]
        assert by_obs[OBS_OPEN] == {vulnerable: pytest.approx(1.0)}

    def test_belief_step_expected_reward_is_cost(self):
        pomdp = build()
        groups = pomdp.split(pomdp.b0, pomdp.action_pos["s"])
        assert len(groups) == 2
        for _, _, reward, _ in groups.values():
            assert reward == pytest.approx(-10.0)


class TestTabulate:
    def test_two_observations_into_one_successor_rejected(self):
        outcomes = {"a": [("a", OBS_OPEN, -10.0)], "b": [("a", OBS_CLOSED, -10.0)]}
        with pytest.raises(ModelError, match="not deterministic"):
            tabulate("m", ("a", "b"), [SCAN], outcomes.__getitem__, {"a": 0.5, "b": 0.5})

    # a -> b -> c under one action; d is a start state reached by nothing
    CHAIN = {"a": [("b", OBS_NONE, 0.0)], "b": [("c", OBS_NONE, 0.0)],
             "c": [("c", OBS_NONE, 0.0)], "d": [("a", OBS_NONE, 0.0)]}

    def test_states_numbered_as_first_reached(self):
        calls = []

        def outcomes(state):
            calls.append(state)
            return self.CHAIN[state]

        pomdp = tabulate("m", ("d", "c"), [SCAN], outcomes, {"d": 1.0})
        assert pomdp.states == ("d", "c", "a", "b")
        assert calls == ["d", "c", "a", "b"]  # once per state
        assert pomdp.rows == [[(2, 0, 0.0), (1, 0, 0.0), (3, 0, 0.0), (1, 0, 0.0)]]

    def test_state_bound(self):
        pomdp = tabulate("m", ("a",), [SCAN], self.CHAIN.__getitem__, {"a": 1.0}, max_states=3)
        assert len(pomdp.states) == 3
        with pytest.raises(ResourceBoundError, match="m model exceeds 2 states"):
            tabulate("m", ("a",), [SCAN], self.CHAIN.__getitem__, {"a": 1.0}, max_states=2)
