import hashlib
import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pentestplan.bench import random_scenario
from pentestplan.planner import (
    ComponentPlan,
    MachineAttack,
    NetworkPlan,
    PathPlan,
    PlanStats,
    SubnetworkPlan,
    plan_attack,
)
from pentestplan.pomdp import TERMINATE_ACTION
from pentestplan.report import (
    ReportError,
    format_plan,
    plan_from_yaml,
    plan_to_dict,
    plan_to_yaml,
)
from pentestplan.scenario import SAFE_LOADER
from pentestplan.sim import monte_carlo, rollout, sample_ground_truth, scenario_beliefs
from pentestplan.solver import PolicyNode, format_policy


@pytest.fixture(scope="module")
def planned():
    spec = random_scenario(3)
    return spec, plan_attack(spec)


class TestSerialization:
    def test_yaml_round_trip_preserves_structure(self, planned):
        spec, plan = planned
        restored = plan_from_yaml(plan_to_yaml(plan), spec.actions)
        assert restored.value == pytest.approx(plan.value, abs=1e-9)
        assert plan_to_dict(restored) == plan_to_dict(plan)

    def test_restored_plan_simulates_identically(self, planned):
        spec, plan = planned
        restored = plan_from_yaml(plan_to_yaml(plan), spec.actions)
        truth = sample_ground_truth(scenario_beliefs(spec), 13)
        assert rollout(spec, restored, truth).steps == rollout(spec, plan, truth).steps
        assert monte_carlo(spec, restored, 100, 2) == monte_carlo(spec, plan, 100, 2)

    def test_emission_is_stable(self, planned):
        _, plan = planned
        assert plan_to_yaml(plan) == plan_to_yaml(plan)

    def test_malformed_yaml_rejected(self, planned):
        spec, _ = planned
        with pytest.raises(ReportError):
            plan_from_yaml("][", spec.actions)

    @pytest.mark.parametrize("text", ["components:\n  - a\n b: c\n", "components: [unclosed"])
    def test_syntax_error_reports_line_and_column(self, planned, text):
        spec, _ = planned
        with pytest.raises(ReportError, match=r"line \d+, column \d+"):
            plan_from_yaml(text, spec.actions)

    def test_shared_loader_matches_safe_load(self, planned):
        _, plan = planned
        text = plan_to_yaml(plan)
        assert yaml.load(text, Loader=SAFE_LOADER) == yaml.safe_load(text)

    def test_plan_text_is_pinned(self, planned):
        # the pure-Python dumper's line folding of long policy strings
        _, plan = planned
        digest = hashlib.sha256(plan_to_yaml(plan).encode()).hexdigest()
        assert digest == "186a3c3b1e01bdba8b5677c7b5a0aa0c397628569b633cd7aaf5af79bf6bfb47"

    def test_non_plan_document_rejected(self, planned):
        spec, _ = planned
        with pytest.raises(ReportError, match="components"):
            plan_from_yaml("just: text", spec.actions)


def _step(doc):
    return doc["components"][1]["paths"][0]["steps"][0]


class TestMalformedPlan:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: _step(d)["first"].update(policy="x1 valu=61.77"),
            lambda d: d.update(components=5),
            lambda d: d["components"].__setitem__(0, "n0"),
            lambda d: _step(d).pop("subnetwork"),
            lambda d: _step(d).update(value="x"),
            lambda d: _step(d).update(entry_blocked_ports=5),
            lambda d: _step(d)["first"].update(policy=5),
        ],
        ids=[
            "policy-line",
            "components-number",
            "component-string",
            "step-without-subnetwork",
            "value-string",
            "blocked-ports-number",
            "policy-number",
        ],
    )
    def test_rejected_with_report_error(self, planned, edit):
        spec, plan = planned
        doc = yaml.safe_load(plan_to_yaml(plan))
        edit(doc)
        with pytest.raises(ReportError):
            plan_from_yaml(yaml.safe_dump(doc), spec.actions)


class TestFormatPlan:
    def test_mentions_value_and_components(self, planned):
        _, plan = planned
        text = format_plan(plan)
        assert f"{plan.value:.6f}" in text
        for comp in plan.components:
            for member in comp.members:
                assert member in text

    def test_readable_without_stats(self, planned):
        spec, plan = planned
        restored = plan_from_yaml(plan_to_yaml(plan), spec.actions)
        text = format_plan(restored)  # no stats on a restored plan
        assert "network attack plan" in text


def _oracle(plan) -> str:
    """The plan text as PyYAML's representer and serializer write it."""
    return yaml.safe_dump(plan_to_dict(plan), sort_keys=True, default_flow_style=False)


_AWKWARD_IDS = st.sampled_from(
    ["yes", "null", "0x1f", "1e3", "- a", "a: b", "#x", " lead", "trail ", "naïve ü", "", "x " * 50]
) | st.text(max_size=8)
_AWKWARD_NUMBERS = st.sampled_from([1e17, -0.0, math.inf, -math.inf, math.nan]) | st.floats()


@st.composite
def _attacks(draw, policies):
    return MachineAttack(
        machine_id=draw(_AWKWARD_IDS),
        blocked_ports=frozenset(draw(st.lists(st.integers(0, 65535), max_size=3))),
        composite_reward=draw(_AWKWARD_NUMBERS),
        value=draw(_AWKWARD_NUMBERS),
        policy=draw(policies),
    )


@st.composite
def _plans(draw, policies):
    steps = [
        SubnetworkPlan(
            subnetwork=draw(_AWKWARD_IDS),
            entry_blocked_ports=frozenset(draw(st.lists(st.integers(0, 65535), max_size=3))),
            first=draw(st.none() | _attacks(policies)),
            others=draw(st.lists(_attacks(policies), max_size=2)),
            value=draw(_AWKWARD_NUMBERS),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    path = PathPlan(target=draw(_AWKWARD_IDS), steps=steps, value=draw(_AWKWARD_NUMBERS))
    component = ComponentPlan(
        members=tuple(draw(st.lists(_AWKWARD_IDS, max_size=3))),
        parent=draw(st.none() | _AWKWARD_IDS),
        paths=[path],
        value=draw(_AWKWARD_NUMBERS),
    )
    return NetworkPlan(value=draw(_AWKWARD_NUMBERS), components=[component], stats=PlanStats())


class TestPlanWriter:
    # plan_to_yaml emits events itself; its text must stay the oracle's, byte for byte
    @pytest.mark.parametrize("seed", range(40))
    def test_random_scenario_plan_text_matches_oracle(self, seed):
        plan = plan_attack(random_scenario(seed))
        assert plan_to_yaml(plan) == _oracle(plan)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_awkward_plan_text_matches_oracle(self, planned, data):
        _, real = planned
        solved = [
            attack.policy
            for comp in real.components
            for path in comp.paths
            for step in path.steps
            for attack in [step.first, *step.others]
            if attack is not None
        ]
        leaves = [PolicyNode(TERMINATE_ACTION, value=v) for v in (0.0, -0.0, 1e17, math.nan)]
        policies = st.sampled_from(leaves + solved)
        plan = data.draw(_plans(policies))
        assert plan_to_yaml(plan) == _oracle(plan)

    def test_repeated_scalars_are_analysed_once_per_document(self, planned, monkeypatch):
        # the same long quoted policy, ids and floats in every step, so the
        # writer's per-document analysis memo answers most scalars
        _, real = planned
        policy = max(
            (
                attack.policy
                for comp in real.components
                for path in comp.paths
                for step in path.steps
                for attack in [step.first, *step.others]
                if attack is not None
            ),
            key=lambda p: len(format_policy(p)),
        )
        assert "\n" in format_policy(policy)
        attack = MachineAttack("yes", frozenset({22, 80}), 0.1, 1e17, policy)
        step = SubnetworkPlan("- a", frozenset({443}), attack, [attack] * 5, 0.1)
        path = PathPlan("- a", [step] * 4, 0.1)
        comps = [ComponentPlan(("- a", "b"), "null", [path] * 3, 0.1) for _ in range(3)]
        plan = NetworkPlan(value=0.1, components=comps, stats=PlanStats())
        oracle = _oracle(plan)

        analysed = []
        analyse = yaml.emitter.Emitter.analyze_scalar
        monkeypatch.setattr(
            yaml.emitter.Emitter,
            "analyze_scalar",
            lambda self, scalar: analysed.append(scalar) or analyse(self, scalar),
        )
        assert plan_to_yaml(plan) == oracle
        distinct = set(analysed)
        assert len(analysed) == len(distinct)
        assert oracle.count(".1\n") > 100  # a float written over a hundred times, analysed once
        # the memo is the document's: a second plan analyses every text again
        assert plan_to_yaml(plan) == oracle
        assert len(analysed) == 2 * len(distinct)
