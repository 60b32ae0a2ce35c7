import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pentestplan.bench import BenchmarkParams, generate_benchmark, random_scenario
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
from pentestplan.scenario import dump_document, load_document, parse_scenario
from pentestplan.sim import monte_carlo, rollout, sample_ground_truth, scenario_beliefs
from pentestplan.solver import PolicyNode


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

    def test_deep_nesting_rejected(self, planned):
        spec, _ = planned
        with pytest.raises(ReportError):
            plan_from_yaml("[" * 2000 + "]" * 2000, spec.actions)

    @pytest.mark.parametrize("text", ["components:\n  - a\n b: c\n", "components: [unclosed"])
    def test_syntax_error_reports_line_and_column(self, planned, text):
        spec, _ = planned
        with pytest.raises(ReportError, match=r"line \d+, column \d+"):
            plan_from_yaml(text, spec.actions)

    def test_shared_loader_matches_safe_load(self, planned):
        # the plan document, written as YAML, loads the same through load_document
        _, plan = planned
        doc = load_document(plan_to_yaml(plan))
        text = yaml.safe_dump(doc)
        assert load_document(text) == yaml.safe_load(text) == doc

    def test_plan_text_is_pinned(self, planned):
        _, plan = planned
        digest = hashlib.sha256(plan_to_yaml(plan).encode()).hexdigest()
        assert digest == "3e029465b04ba86f829bd3ed87f90cd6eb3b54f604e03d862e9e4c9a762b38b0"

    @pytest.mark.parametrize("tagged", ["!!float x", "!!int ''", "!!bool maybe"])
    def test_unconvertible_tag_rejected(self, planned, tagged):
        spec, _ = planned
        with pytest.raises(ReportError, match="cannot convert a tagged scalar"):
            plan_from_yaml(f"components: {tagged}", spec.actions)

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
            lambda d: d["components"][0].update(members="abc"),
            lambda d: d["components"][0].update(members=[["x"]]),
        ],
        ids=[
            "policy-line",
            "components-number",
            "component-string",
            "step-without-subnetwork",
            "value-string",
            "blocked-ports-number",
            "policy-number",
            "members-string",
            "members-nested",
        ],
    )
    def test_rejected_with_report_error(self, planned, edit):
        spec, plan = planned
        doc = load_document(plan_to_yaml(plan))
        edit(doc)
        with pytest.raises(ReportError):
            plan_from_yaml(yaml.safe_dump(doc), spec.actions)


    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    @pytest.mark.parametrize(
        "where", ["plan", "component", "path", "step", "attack-value", "composite-reward"]
    )
    def test_number_that_is_not_finite_rejected(self, planned, where, literal):
        # JSON reads 1e400 as inf without calling parse_constant
        spec, plan = planned
        doc = load_document(plan_to_yaml(plan))
        comp = doc["components"][1]
        path = comp["paths"][0]
        holder, key = {
            "plan": (doc, "value"),
            "component": (comp, "value"),
            "path": (path, "value"),
            "step": (_step(doc), "value"),
            "attack-value": (_step(doc)["first"], "value"),
            "composite-reward": (_step(doc)["first"], "composite_reward"),
        }[where]
        holder[key] = 0.123456789
        text = dump_document(doc)
        assert text.count("0.123456789") == 1
        with pytest.raises(ReportError, match=f"{key} must be a finite number"):
            plan_from_yaml(text.replace("0.123456789", literal), spec.actions)


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


def _canonical(doc) -> str:
    """``repr`` of a plan document with sorted keys: nan, -0.0 and int/float count."""
    if isinstance(doc, dict):
        return "{" + ", ".join(f"{k!r}: {_canonical(doc[k])}" for k in sorted(doc)) + "}"
    if isinstance(doc, list):
        return "[" + ", ".join(_canonical(item) for item in doc) + "]"
    return repr(doc)


def _check_round_trip(plan, actions) -> None:
    """``plan_to_yaml``'s text loads to ``plan_to_dict(plan)`` and restores an equal plan."""
    text = plan_to_yaml(plan)
    expected = _canonical(plan_to_dict(plan))
    assert _canonical(load_document(text)) == expected
    assert _canonical(plan_to_dict(plan_from_yaml(text, actions))) == expected


_AWKWARD_IDS = st.sampled_from(
    ["yes", "null", "0x1f", "1e3", "- a", "a: b", "#x", " lead", "trail ", "naïve ü", "", "x " * 50]
) | st.text(max_size=8)
# JSON holds no nan or inf; TestPlanWriter.test_non_finite_number_not_written covers them
_AWKWARD_NUMBERS = st.sampled_from([1e17, -0.0, 1e-05, 5e-324, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


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
    # the oracle is plan_to_dict(plan): the written text must load back to it exactly
    @pytest.mark.parametrize("seed", range(40))
    def test_random_scenario_plan_text_matches_oracle(self, seed):
        spec = random_scenario(seed)
        _check_round_trip(plan_attack(spec), spec.actions)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_awkward_plan_text_matches_oracle(self, planned, data):
        spec, real = planned
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
        _check_round_trip(data.draw(_plans(policies)), spec.actions)

    def test_plan_text_is_indented_json(self, planned):
        _, plan = planned
        text = plan_to_yaml(plan)
        assert text == json.dumps(plan_to_dict(plan), sort_keys=True, indent=1) + "\n"
        assert '\n "components": [\n' in text and '"policy": "' in text

    @pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_not_written(self, planned, number):
        _, plan = planned
        with pytest.raises(ReportError, match="plan not written"):
            plan_to_yaml(dataclasses.replace(plan, value=number))

    @pytest.mark.parametrize("seed", [3, 9, 15])
    def test_old_format_file_loads_and_simulates_the_same(self, seed):
        # plan files written as YAML with quoted, folded policies
        spec = random_scenario(seed)
        plan = plan_attack(spec)
        old = yaml.safe_dump(plan_to_dict(plan), sort_keys=True, default_flow_style=False)
        assert old != plan_to_yaml(plan)
        restored = plan_from_yaml(old, spec.actions)
        assert _canonical(plan_to_dict(restored)) == _canonical(plan_to_dict(plan))
        assert monte_carlo(spec, restored, 100, 2) == monte_carlo(spec, plan, 100, 2)


DATA = Path(__file__).parent / "data"
OS_LABEL_WITH_COLON = DATA / "os_label_with_colon.yaml"


def deep_policy(depth: int) -> str:
    """``depth`` scans of port 2000 in a row while it reads closed; a read of open gives up."""
    lines = []
    for k in range(depth):
        lines.append(f"{'  ' * k}{'closed: ' if k else ''}scan000 value=0.000000")
        lines.append(f"{'  ' * (k + 1)}open: terminate value=0.000000")
    lines.append(f"{'  ' * depth}closed: terminate value=0.000000")
    return "\n".join(lines)


# on the 4 x 3 benchmark of seed 0, seed 0's three rollouts find port 2000 of
# m000 closed, closed and open: two scan 1,500 times, one once, at 10 a scan
DEEP_POLICY_MEAN = -10.0 * (1500 + 1500 + 1) / 3


class TestPlanFilesOfAnyShape:
    def test_deep_policy_loads(self):
        spec = generate_benchmark(BenchmarkParams(machines=4, exploits=3, seed=0))
        doc = plan_to_dict(plan_attack(spec))
        doc["components"][0]["paths"][0]["steps"][0]["first"]["policy"] = deep_policy(1500)
        plan = plan_from_yaml(dump_document(doc), spec.actions)
        node, depth = plan.components[0].paths[0].steps[0].first.policy, 0
        while not node.is_leaf:
            node, depth = node.branches["closed"], depth + 1
        assert depth == 1500
        mean, _ = monte_carlo(spec, plan, 3, 0)
        assert mean == DEEP_POLICY_MEAN

    @pytest.mark.parametrize("name", ["random_6", "os_label_with_colon"])
    def test_yaml_plan_file_loads_as_planned(self, name):
        # YAML plan files with literal-block policies, from before plans were JSON
        spec = parse_scenario((DATA / f"{name}.yaml").read_text())
        plan = plan_attack(spec)
        restored = plan_from_yaml((DATA / f"{name}_plan.yaml").read_text(), spec.actions)
        assert _canonical(plan_to_dict(restored)) == _canonical(plan_to_dict(plan))
        assert plan_to_yaml(restored) == plan_to_yaml(plan)
        assert monte_carlo(spec, restored, 200, 1) == monte_carlo(spec, plan, 200, 1)

    def test_colon_in_os_label_round_trips(self):
        spec = parse_scenario(OS_LABEL_WITH_COLON.read_text())
        plan = plan_attack(spec)
        text = plan_to_yaml(plan)
        assert "os=win: 7: xw value=" in text
        restored = plan_from_yaml(text, spec.actions)
        assert plan_to_yaml(restored) == text
        assert monte_carlo(spec, restored, 200, 1) == monte_carlo(spec, plan, 200, 1)
