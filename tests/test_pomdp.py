import pytest

from pentestplan.belief import DependencyModel, MarkovChain, ProgramModel
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
    TERMINAL,
    TERMINATE_ACTION,
    belief_step,
    build_machine_pomdp,
    informative_actions,
    local_outcome,
    os_report,
    step,
    tabulate,
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
        assert local_outcome(model, DETECT, state)[1] == os_report("linux")

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
        model = make_model()
        bad = ActionSpec(
            id="x",
            kind="exploit",
            port=8080,
            program="svc",
            success={"svc": ["vulnerable"]},
            crash={"svc": ["vulnerable"]},
        )
        with pytest.raises(ModelError, match="overlap"):
            local_outcome(model, bad, ConfigState(("vulnerable", "linux")))


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


def build(belief=None, crash=False, prune=False, firewall=EMPTY_FIREWALL):
    model = make_model()
    machine = Machine("m", "t0", 100.0)
    if belief is None:
        belief = {
            ("vulnerable", "linux"): 0.4,
            ("patched", "linux"): 0.6,
        }
    actions = [exploit(crash=crash), SCAN, DETECT]
    return build_machine_pomdp(
        machine, firewall, 100.0, belief, actions, model,
        prune_inert_actions=prune,
    )


class TestBuildMachinePomdp:
    def test_state_space_contents(self):
        pomdp = build()
        assert TERMINAL in pomdp.states and CONTROLLED in pomdp.states
        assert len(pomdp.states) == 4  # terminal, controlled, two configs

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
        ids = {a.id for a in pomdp.actions}
        assert ids == {"d", "terminate"}  # port actions blocked, detect free

    def test_terminate_always_present_and_absorbing(self):
        pomdp = build()
        assert any(a.kind == "terminate" for a in pomdp.actions)
        for s in pomdp.states:
            nxt, _, r = step(pomdp, s, TERMINATE_ACTION)
            assert nxt == TERMINAL and r == 0.0

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
        full = build(crash=True, prune=False)
        pruned = build(crash=True, prune=True)
        assert solve(pruned).value == pytest.approx(solve(full).value, abs=1e-9)


class TestStepAndBeliefStep:
    def test_step_matches_tables(self):
        pomdp = build()
        vulnerable = ConfigState(("vulnerable", "linux"))
        nxt, obs, r = step(pomdp, vulnerable, pomdp.action("x"))
        assert nxt == CONTROLLED and obs == OBS_SUCCEEDED and r == pytest.approx(90.0)

    def test_step_rejects_filtered_action(self):
        pomdp = build(firewall=Firewall(frozenset({8080})))
        with pytest.raises(ModelError):
            step(pomdp, TERMINAL, SCAN)

    @pytest.mark.parametrize("state", ["nowhere", ["vulnerable", "linux"]])
    def test_step_rejects_unknown_state(self, state):
        pomdp = build()
        with pytest.raises(ModelError, match="unknown state"):
            step(pomdp, state, SCAN)

    def test_belief_step_partitions_probability(self):
        pomdp = build()
        entries = belief_step(pomdp, pomdp.b0, pomdp.action("s"))
        assert sum(prob for _, _, prob, _ in entries) == pytest.approx(1.0)
        by_obs = {obs: post for obs, post, _, _ in entries}
        assert set(by_obs) == {OBS_OPEN, OBS_CLOSED}
        open_post = by_obs[OBS_OPEN]
        assert open_post[ConfigState(("vulnerable", "linux"))] == pytest.approx(1.0)

    def test_belief_step_expected_reward_is_cost(self):
        pomdp = build()
        entries = belief_step(pomdp, pomdp.b0, pomdp.action("s"))
        for _, _, _, reward in entries:
            assert reward == pytest.approx(-10.0)


class TestTabulate:
    STATES = (TERMINAL, "a", "b")

    def test_terminate_and_terminal_are_absorbing(self):
        pomdp = tabulate(
            "m", self.STATES, [SCAN, TERMINATE_ACTION],
            lambda s, a: (s, OBS_OPEN, -10.0), {"a": 0.5, "b": 0.5},
        )
        for s in self.STATES:
            assert step(pomdp, s, TERMINATE_ACTION) == (TERMINAL, OBS_NONE, 0.0)
        assert step(pomdp, TERMINAL, SCAN) == (TERMINAL, OBS_NONE, 0.0)
        assert step(pomdp, "b", SCAN) == ("b", OBS_OPEN, -10.0)

    def test_two_observations_into_one_successor_rejected(self):
        def outcome(state, action):
            return "a", (OBS_OPEN if state == "a" else OBS_CLOSED), -10.0

        with pytest.raises(ModelError, match="not deterministic"):
            tabulate(
                "m", self.STATES, [SCAN, TERMINATE_ACTION],
                outcome, {"a": 0.5, "b": 0.5},
            )

    def test_terminal_reached_with_an_observation_rejected(self):
        def outcome(state, action):
            return TERMINAL, OBS_OPEN, -10.0

        with pytest.raises(ModelError, match="not deterministic"):
            tabulate(
                "m", self.STATES, [SCAN, TERMINATE_ACTION],
                outcome, {"a": 0.5, "b": 0.5},
            )
