import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from pentestplan.bench import build_global_pomdp, random_scenario, worked_example_scenario
from pentestplan.belief import DependencyModel, MarkovChain, ProgramModel
from pentestplan.netmodel import EMPTY_FIREWALL, Firewall, Machine
from pentestplan import solver
from pentestplan.pomdp import (
    ActionSpec,
    ModelError,
    OBS_OPEN,
    ResourceBoundError,
    TERMINATE_ACTION,
    build_machine_pomdp,
    step,
)
from pentestplan.solver import (
    PolicyNode,
    _Search,
    SolverError,
    belief_key,
    brute_force_value,
    evaluate_policy,
    format_policy,
    parse_policy,
    solve,
)


def gated_model():
    """A service exploit gated on a protection program being off."""
    gate = MarkovChain(("off", "on"), [[0.96, 0.04], [0.0, 1.0]])
    svc = MarkovChain(("vulnerable", "patched"), [[0.95, 0.05], [0.0, 1.0]])
    return DependencyModel(
        programs=(
            ProgramModel("guard", gate),
            ProgramModel(
                "svc", svc, port=9000, open_states=frozenset({"vulnerable"})
            ),
        )
    )


def gated_pomdp(p_off=0.5, p_vuln=0.5, reward=100.0, cost=10.0):
    model = gated_model()
    belief = {}
    for guard, pg in (("off", p_off), ("on", 1 - p_off)):
        for svc, ps in (("vulnerable", p_vuln), ("patched", 1 - p_vuln)):
            if pg * ps > 0:
                belief[(guard, svc)] = pg * ps
    actions = [
        ActionSpec(
            id="x", kind="exploit", port=9000, program="svc",
            success={"svc": ["vulnerable"], "guard": ["off"]}, r_t=-cost,
        ),
        ActionSpec(id="s", kind="port_scan", port=9000, r_t=-cost),
    ]
    return build_machine_pomdp(
        Machine("m", "t", reward), EMPTY_FIREWALL, reward, belief, actions, model
    )


def policy_depth(node):
    return 1 + max(map(policy_depth, node.branches.values())) if node.branches else 0


class TestSolveOnHandCases:
    def test_hand_computed_value(self):
        # oracle, derived by hand: success needs guard=off AND svc=vulnerable,
        # probability 0.25. Exploiting blindly: 0.25*100 - 10 = 15. Scanning
        # first costs 10 and leaves exploit EV 0.5*100-10 = 40 on the open
        # half: -10 + 0.5*40 = 10. Blind exploiting wins with value 15.
        result = solve(gated_pomdp())
        assert result.value == pytest.approx(15.0, abs=1e-9)
        assert result.policy.action.id == "x"

    def test_worthless_attack_terminates(self):
        # success probability 0.25, reward 30: best EV 0.25*30-10 < 0
        result = solve(gated_pomdp(reward=30.0))
        assert result.value == 0.0
        assert result.policy.action.kind == "terminate"

    def test_every_action_too_expensive(self):
        # oracle by hand with every action costing 30: blind exploit gives
        # 0.25*100 - 30 = -5; scan then exploit the open half gives
        # -30 + 0.5*(0.5*100 - 30) = -20; floored at 0 -> terminate.
        result = solve(gated_pomdp(cost=30.0))
        assert result.value == pytest.approx(0.0, abs=1e-9)
        assert result.policy.action.kind == "terminate"

    def test_from_belief_override(self):
        from pentestplan.pomdp import ConfigState

        base = gated_pomdp()
        pomdp = dataclasses.replace(base, b0={base.index[ConfigState(("off", "vulnerable"))]: 1.0})
        result = solve(pomdp)
        assert result.value == pytest.approx(90.0, abs=1e-9)


class TestResourceBounds:
    @pytest.mark.parametrize("bound, passed", [
        ("MAX_BELIEF_NODES", "1 nodes"), ("MAX_SEARCH_DEPTH", "depth 1"),
    ])
    def test_solve_past_a_bound_raises(self, monkeypatch, bound, passed):
        spec = worked_example_scenario()
        machine = spec.net.machine("m")
        pomdp = build_machine_pomdp(
            machine, EMPTY_FIREWALL, 100.0, spec.machine_belief(machine), spec.actions, spec.model
        )
        assert solve(pomdp).value > 0
        monkeypatch.setattr(solver, bound, 1)
        with pytest.raises(ResourceBoundError, match=f"solving m passes {passed}$"):
            solve(pomdp)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("p_off,p_vuln,reward,cost", [
        (0.5, 0.5, 100.0, 10.0),
        (0.3, 0.7, 100.0, 10.0),
        (0.9, 0.2, 60.0, 5.0),
        (0.2939, 0.6755, 100.0, 10.0),
        (1.0, 0.5, 45.0, 10.0),
    ])
    def test_solve_equals_brute_force(self, p_off, p_vuln, reward, cost):
        pomdp = gated_pomdp(p_off, p_vuln, reward, cost)
        assert solve(pomdp).value == pytest.approx(
            brute_force_value(pomdp, 6), abs=1e-9
        )

    # global models small enough for the oracle, on which moves are cut part-way
    @pytest.mark.parametrize("seed", [14, 35, 49, 148, 174, 387])
    def test_solve_equals_brute_force_where_moves_are_cut(self, seed):
        pomdp = build_global_pomdp(random_scenario(seed)).pomdp
        result = solve(pomdp)
        assert result.stats.move_cuts > 0
        depth = policy_depth(result.policy) + 2
        assert result.value == pytest.approx(brute_force_value(pomdp, depth), abs=1e-9)

    def test_brute_force_guards_large_instances(self):
        pomdp = gated_pomdp()
        with pytest.raises(SolverError):
            brute_force_value(pomdp, 17)


class TestEvaluatePolicy:
    def test_optimal_policy_evaluates_to_solve_value(self):
        pomdp = gated_pomdp()
        result = solve(pomdp)
        assert evaluate_policy(pomdp, result.policy) == pytest.approx(
            result.value, abs=1e-12
        )

    def test_terminate_policy_is_worth_zero(self):
        pomdp = gated_pomdp()
        assert evaluate_policy(pomdp, PolicyNode(TERMINATE_ACTION, {}, 0.0)) == 0.0

    def test_missing_branch_raises(self):
        pomdp = gated_pomdp()
        headless = PolicyNode(pomdp.actions[pomdp.action_pos["s"]], {}, 0.0)
        with pytest.raises(SolverError, match="no branch"):
            evaluate_policy(pomdp, headless)


class TestModelWithoutMoves:
    # the worked example's machine behind a firewall that blocks both of its
    # ports: every action is filtered, so the model has states but no moves
    @pytest.fixture(scope="class")
    def fenced(self):
        spec = worked_example_scenario()
        machine = spec.net.machine("m")
        pomdp = build_machine_pomdp(
            machine, Firewall(frozenset({2967, 6668})), machine.reward,
            spec.machine_belief(machine), spec.actions, spec.model,
        )
        return spec, pomdp

    def test_model_has_no_actions(self, fenced):
        _, pomdp = fenced
        assert pomdp.actions == () and pomdp.rows == []
        assert len(pomdp.states) > 1

    def test_solve_gives_zero_and_terminates(self, fenced):
        _, pomdp = fenced
        result = solve(pomdp)
        assert result.value == 0.0
        assert result.policy.action is TERMINATE_ACTION and result.policy.branches == {}
        assert evaluate_policy(pomdp, result.policy) == 0.0

    def test_step_rejects_every_action(self, fenced):
        spec, pomdp = fenced
        for action in spec.actions:
            with pytest.raises(ModelError, match="not available"):
                step(pomdp, pomdp.states[0], action)


@pytest.fixture(scope="module")
def criterion_4_solves():
    """``seed -> (global POMDP, solve result)`` for ``random_scenario(0..49)``."""
    solves = {}
    for seed in range(50):
        pomdp = build_global_pomdp(random_scenario(seed)).pomdp
        solves[seed] = (pomdp, solve(pomdp))
    return solves


class TestGlobalModels:
    """Search counts and values of global models, pinned so that a change
    of memo key, belief split or action bound that loses work shows."""

    @pytest.mark.parametrize("seed,nodes,memo_hits,value", [
        pytest.param(240, 246, 657, 313.8901719135746, id="seed240"),
        pytest.param(365, 1175, 5888, 263.7616794030538, id="seed365"),
        pytest.param(55, 3, 0, 16.66884918791709, id="seed55"),
        pytest.param(9, 25, 52, 916.0655075702358, id="seed9"),
        pytest.param(27, 400, 1204, 74.99233289182703, id="seed27"),
    ])
    def test_counts_and_value(self, seed, nodes, memo_hits, value):
        pomdp = build_global_pomdp(random_scenario(seed)).pomdp
        result = solve(pomdp)
        assert result.stats.nodes_expanded == nodes
        assert result.stats.cache_hits == memo_hits
        assert result.value == pytest.approx(value, abs=1e-9)
        assert evaluate_policy(pomdp, result.policy) == pytest.approx(
            result.value, abs=1e-9
        )

    def test_bound_is_admissible_and_tight_on_singletons(self, criterion_4_solves):
        for pomdp, result in criterion_4_solves.values():
            search = _Search(pomdp)
            V = search.full_info
            b0 = pomdp.b0
            assert sum(m * V[s] for s, m in b0.items()) >= result.value - 1e-9
            for s in b0:
                single = {s: 1.0}
                assert search.value(single, belief_key(single)) == pytest.approx(
                    V[s], abs=1e-9
                )

    # an unbounded search chose other, float-tied policies on these seeds
    @pytest.mark.parametrize("seed,value", [
        pytest.param(6, 383.632147618449, id="seed6"),
        pytest.param(21, 429.52249454647244, id="seed21"),
        pytest.param(28, 465.5166321908839, id="seed28"),
        pytest.param(37, 540.2487530952488, id="seed37"),
        pytest.param(42, 550.5003362120782, id="seed42"),
    ])
    def test_tied_policies_keep_their_value(self, criterion_4_solves, seed, value):
        pomdp, result = criterion_4_solves[seed]
        assert evaluate_policy(pomdp, result.policy) == pytest.approx(value, abs=1e-9)

    def test_move_cuts(self):
        # seed 27 expands the 400 nodes pinned above; without cutting moves
        # part-way, 5,600
        assert solve(build_global_pomdp(random_scenario(27)).pomdp).stats.move_cuts > 0

    def test_bound_skips(self):
        pomdp = build_global_pomdp(random_scenario(240)).pomdp
        assert solve(pomdp).stats.bound_skips > 0
        # one configuration: the scan is still-skipped, the exploit is the only move
        certain = gated_pomdp(p_off=1.0, p_vuln=1.0)
        result = solve(certain)
        assert result.value == pytest.approx(90.0, abs=1e-9)
        assert result.stats.bound_skips == 0


class TestBeliefKey:
    def test_summation_order_shares_a_key(self):
        left = {3: (0.1 + 0.2) + 0.3, 7: 0.4}
        right = {7: 0.4, 3: 0.1 + (0.2 + 0.3)}
        assert left[3] != right[3]
        assert belief_key(left) == belief_key(right)

    def test_distinct_masses_or_supports_differ(self):
        base = belief_key({3: 0.6, 7: 0.4})
        assert belief_key({3: 0.6 + 1e-9, 7: 0.4 - 1e-9}) != base
        assert belief_key({3: 0.6, 8: 0.4}) != base


class TestPolicyTextFormat:
    def test_round_trip(self):
        pomdp = gated_pomdp()
        policy = solve(pomdp).policy
        text = format_policy(policy)
        parsed = parse_policy(text, pomdp.actions)
        assert format_policy(parsed) == text
        assert evaluate_policy(pomdp, parsed) == pytest.approx(
            evaluate_policy(pomdp, policy), abs=1e-12
        )

    def test_unknown_action_rejected(self):
        with pytest.raises(SolverError, match="unknown action"):
            parse_policy("ghost value=1.000000", [])

    def test_malformed_line_rejected(self):
        with pytest.raises(SolverError):
            parse_policy("not a policy at all", [])

    def test_empty_text_rejected(self):
        with pytest.raises(SolverError):
            parse_policy("   \n", [])

    DETECT = ActionSpec(id="d", kind="os_detect")
    XW = ActionSpec(id="xw", kind="exploit", port=80, program="svc")

    def test_deep_policy_round_trips(self):
        lines = ["d value=0.000000"]
        lines += [f"{'  ' * k}os=linux: d value=0.000000" for k in range(1, 3000)]
        text = "\n".join(lines)
        policy = parse_policy(text, [self.DETECT])
        assert format_policy(policy) == text

    def test_deep_policy_compares_and_prints(self):
        # == and repr walk the tree without recursing once per level
        lines = ["d value=0.000000"]
        lines += [f"{'  ' * k}os=linux: d value=0.000000" for k in range(1, 1500)]
        lines.append(f"{'  ' * 1500}os=linux: terminate value=0.000000")
        policy, again = (parse_policy("\n".join(lines), [self.DETECT]) for _ in range(2))
        assert policy == again and policy is not again
        node = again
        while not node.branches["os=linux"].is_leaf:
            node = node.branches["os=linux"]
        node.branches["os=linux"] = PolicyNode(TERMINATE_ACTION, {}, 1.0)
        assert policy != again
        text = repr(policy)
        assert text.count("PolicyNode(action=") == 1501
        assert text.startswith("PolicyNode(action=ActionSpec(id='d', kind='os_detect'")
        assert text.endswith("branches={}, value=0.0)" + "}, value=0.0)" * 1500)

    def test_repr_and_eq_are_the_dataclass_ones(self):
        leaf = PolicyNode(TERMINATE_ACTION, {}, 0.5)
        node = PolicyNode(self.DETECT, {"os=a": leaf, "os=b": PolicyNode(self.XW)}, 1.0)
        assert repr(node) == (
            f"PolicyNode(action={self.DETECT!r}, branches={{'os=a': PolicyNode(action="
            f"{TERMINATE_ACTION!r}, branches={{}}, value=0.5), 'os=b': PolicyNode(action="
            f"{self.XW!r}, branches={{}}, value=0.0)}}, value=1.0)"
        )
        assert node == PolicyNode(self.DETECT, {"os=b": PolicyNode(self.XW), "os=a": leaf}, 1.0)
        assert node != PolicyNode(self.DETECT, {"os=a": leaf}, 1.0)
        assert node != PolicyNode(self.XW, dict(node.branches), 1.0)
        assert node != "not a policy" and (node == 1.0) is False

    def test_observation_with_colon(self):
        text = "d value=1.000000\n  os=win: 7: xw value=2.000000\n    succeeded: terminate value=0.000000"
        policy = parse_policy(text, [self.DETECT, self.XW])
        assert list(policy.branches) == ["os=win: 7"]
        assert policy.branches["os=win: 7"].action is self.XW
        assert format_policy(policy) == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("  d value=1.000000", "bad indentation at line 1"),
            ("d value=1.000000\n    open: d value=1.000000", "bad indentation at line 2"),
            ("d value=1.0\n   x: d value=2.0", "bad indentation at line 2"),
            ("d value=1.000000\n  open: d value=1.000000\nd value=1.000000", "trailing content at line 3"),
            ("d value=1.000000\n  open: ghost value=1.000000", "unknown action id 'ghost'"),
            ("d value=1.000000\n  os=a: b: c value=1.000000", "unknown action id 'b: c'"),
            ("d value=1.000000\n  d value=1.000000", "malformed policy line"),
            ("d value=1.000000\n  os=win: 7: xw value=1.000000", "ambiguous policy line"),
        ],
    )
    def test_malformed_text_rejected(self, text, message):
        catalog = [self.DETECT, self.XW, ActionSpec(id="7: xw", kind="os_detect")]
        with pytest.raises(SolverError, match=message):
            parse_policy(text, catalog)


@settings(max_examples=40, deadline=None)
@given(
    p_off=st.floats(0.05, 0.95),
    p_vuln=st.floats(0.05, 0.95),
    reward=st.floats(10.0, 300.0),
)
def test_solver_invariants(p_off, p_vuln, reward):
    pomdp = gated_pomdp(p_off, p_vuln, reward)
    result = solve(pomdp)
    # value floored at 0 and bounded by winning the full reward for free
    assert 0.0 <= result.value <= reward + 1e-9
    # the returned policy achieves exactly the reported value
    assert evaluate_policy(pomdp, result.policy) == pytest.approx(
        result.value, abs=1e-9
    )
