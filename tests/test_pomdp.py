import pytest

from pentestplan.belief import DependencyModel, MarkovChain, ProgramModel
from pentestplan.bench import worked_example_scenario
from pentestplan.netmodel import EMPTY_FIREWALL, Firewall, Machine
from pentestplan.pomdp import (
    CONTROLLED,
    ActionSpec,
    ConfigState,
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
        assert local_outcome(model, SCAN, open_state)[1] == OBS_OPEN
        assert local_outcome(model, SCAN, closed_state)[1] == OBS_CLOSED

    def test_crashed_program_reads_closed(self):
        model = make_model()
        crashed = ConfigState(("vulnerable", "linux"), frozenset({"svc"}))
        assert local_outcome(model, SCAN, crashed)[1] == OBS_CLOSED

    def test_os_detect_reports_version(self):
        model = make_model()
        state = ConfigState(("vulnerable", "linux"))
        assert local_outcome(model, DETECT, state)[1] == "os=linux"

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
        assert local_outcome(model, SCAN, state)[1] == expected

    def test_os_detect_without_os_program_reports_unknown(self):
        model = DependencyModel(programs=(make_model().programs[0],))
        state = ConfigState(("vulnerable",))
        assert local_outcome(model, DETECT, state)[1] == "os=unknown"

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
            assert local_outcome(model, DETECT, ConfigState(config))[1] == f"os={expected}"

    def test_successful_exploit_takes_control(self):
        model = make_model()
        nxt, obs, success = local_outcome(
            model, exploit(), ConfigState(("vulnerable", "linux"))
        )
        assert (nxt, obs, success) == (CONTROLLED, OBS_SUCCEEDED, True)

    def test_failed_exploit_without_crash_changes_nothing(self):
        model = make_model()
        state = ConfigState(("patched", "linux"))
        nxt, obs, success = local_outcome(model, exploit(), state)
        assert nxt == state and obs == OBS_FAILED and not success

    def test_crashing_exploit_marks_the_program(self):
        model = make_model()
        state = ConfigState(("patched", "linux"))
        nxt, obs, success = local_outcome(model, exploit(crash=True), state)
        assert nxt.crashed == frozenset({"svc"}) and obs == OBS_FAILED

    def test_crashed_program_cannot_be_exploited(self):
        model = make_model()
        state = ConfigState(("vulnerable", "linux"), frozenset({"svc"}))
        nxt, obs, success = local_outcome(model, exploit(), state)
        assert nxt == state and not success

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
        assert informative_actions(model, states, [SCAN]) == []

    def test_varying_scan_kept(self):
        model = make_model()
        states = [
            ConfigState(("patched", "linux")),
            ConfigState(("vulnerable", "linux")),
        ]
        assert informative_actions(model, states, [SCAN]) == [SCAN]

    def test_hopeless_exploit_dropped(self):
        model = make_model()
        states = [ConfigState(("patched", "linux"))]
        assert informative_actions(model, states, [exploit()]) == []

    def test_invisible_crash_exploit_dropped(self):
        # the exploit never succeeds, the crashed port is closed anyway, and
        # no other action can tell the crash happened: provably valueless
        model = make_model()
        states = [ConfigState(("patched", "linux"))]
        catalog = [exploit(crash=True), SCAN, DETECT]
        kept = informative_actions(model, states, catalog)
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
        kept = informative_actions(model, states, catalog)
        assert exploit(crash=True) in kept

    def test_crash_exploit_on_a_shared_port_kept(self):
        # svc's port never reads open, so the one-step check finds its crash
        # invisible; with aux bound to the same port the check is skipped
        never_open = ProgramModel("svc", service_chain(), port=8080)
        catalog = [exploit(crash=True), SCAN]
        alone = DependencyModel(programs=(never_open,))
        assert informative_actions(alone, [ConfigState(("patched",))], catalog) == []
        shared = DependencyModel(programs=(shared_port_program(), never_open))
        states = [ConfigState(("listening", "patched")), ConfigState(("closed", "patched"))]
        kept = informative_actions(shared, states, catalog)
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
            nxt, obs, success = local_outcome(model, a, state)
            out.append((nxt, obs, a.r_t + (100.0 if success else 0.0)))
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
        nxt, _, r = step(pomdp, vulnerable, pomdp.action("x"))
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

    def test_cases_have_crash_variants_and_a_blocked_port(self):
        assert len(compile_at(crash_model_inputs(), 1.0).states) > len(BELIEF) + 1
        kept = {
            case: {a.id for a in compile_at(make(), 1.0).actions}
            for case, make in WITH_REWARD_CASES.items()
        }
        assert "exploit_SA" in kept["worked-example"]
        assert kept["blocked-port"] == kept["worked-example"] - {"exploit_SA", "scan_port_2967"}


class TestStepAndBeliefStep:
    def test_step_matches_tables(self):
        pomdp = build()
        vulnerable = ConfigState(("vulnerable", "linux"))
        nxt, obs, r = step(pomdp, vulnerable, pomdp.action("x"))
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
        groups = pomdp.split(pomdp.indexed(pomdp.b0), pomdp.action_pos["s"])
        assert sum(prob for _, prob, _, _ in groups.values()) == pytest.approx(1.0)
        by_obs = {pomdp.obs_values[code]: post for code, (post, *_) in groups.items()}
        assert set(by_obs) == {OBS_OPEN, OBS_CLOSED}
        vulnerable = pomdp.index[ConfigState(("vulnerable", "linux"))]
        assert by_obs[OBS_OPEN] == {vulnerable: pytest.approx(1.0)}

    def test_belief_step_expected_reward_is_cost(self):
        pomdp = build()
        groups = pomdp.split(pomdp.indexed(pomdp.b0), pomdp.action_pos["s"])
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
