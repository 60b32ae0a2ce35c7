import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pentestplan import scenario as scenario_module
from pentestplan.netmodel import ScenarioError, ScenarioSyntaxError, ScenarioValidationError
from pentestplan.bench import random_scenario, worked_example_scenario
from pentestplan.scenario import (
    DEFAULT_COSTS,
    DocumentError,
    emit_scenario,
    load_document,
    parse_scenario,
    scenario_from_dict,
)

MINIMAL = """
start: lab
elapsed_days: 7
subnetworks: [lab, office]
machines:
  - {id: attacker, subnetwork: lab}
  - {id: pc, subnetwork: office, template: base, reward: 100.0}
arcs:
  - {from: lab, to: office, blocked_ports: [443]}
programs:
  app:
    states: [vulnerable, patched]
    transitions:
      vulnerable: {vulnerable: 0.9, patched: 0.1}
      patched: {patched: 1.0}
    port: 8080
    open_states: [vulnerable]
templates:
  base: {app: vulnerable}
actions:
  - {id: hit, kind: exploit, port: 8080, program: app, success: {app: [vulnerable]}}
  - {id: look, kind: port_scan, port: 8080}
"""


class TestParse:
    def test_minimal_scenario(self):
        spec = parse_scenario(MINIMAL)
        assert spec.elapsed_days == 7
        assert spec.net.start == "lab"
        assert [a.id for a in spec.actions] == ["hit", "look"]
        assert spec.net.machine("pc").reward == 100.0
        assert spec.net.arcs[("lab", "office")].blocks(443)

    def test_default_costs_applied(self):
        spec = parse_scenario(MINIMAL)
        hit = spec.actions[0]
        look = spec.actions[1]
        assert hit.r_t == -DEFAULT_COSTS["exploit"]
        assert look.r_t == -DEFAULT_COSTS["port_scan"]
        assert hit.r_d == -DEFAULT_COSTS["detect_risk"]

    def test_explicit_cost_overrides_default(self):
        doc = yaml.safe_load(MINIMAL)
        doc["actions"][1]["cost_time"] = 2.5
        spec = parse_scenario(yaml.safe_dump(doc))
        assert spec.actions[1].r_t == -2.5

    def test_machine_belief_uses_elapsed_days(self):
        spec = parse_scenario(MINIMAL)
        belief = spec.machine_belief(spec.net.machine("pc"))
        assert belief[("vulnerable",)] == pytest.approx(0.9**7, abs=1e-12)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioSyntaxError, match="line"):
            parse_scenario("a: [unclosed")

    @pytest.mark.parametrize("text", ["a: b: c", "a:\n  - b\n c: d\n", "a: 'open"])
    def test_syntax_error_reports_line_and_column(self, text):
        with pytest.raises(ScenarioSyntaxError, match=r"at line \d+, column \d+"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "tagged", ["!!int abc", "!!float x", "!!bool maybe", "!!int ''", "!!timestamp x"]
    )
    def test_unconvertible_tag_is_syntax_error(self, tagged):
        # PyYAML raises ValueError, KeyError, IndexError or AttributeError here
        with pytest.raises(ScenarioSyntaxError, match="cannot convert a tagged scalar"):
            parse_scenario(MINIMAL.replace("elapsed_days: 7", f"elapsed_days: {tagged}"))

    def test_recursion_in_the_parser_is_a_yaml_error(self):
        with pytest.raises(DocumentError, match="nesting too deep"):
            load_document("a: " + "[" * 2000 + "]" * 2000)  # YAML: it does not start with [

    @pytest.mark.parametrize("depth", [2000, 50000])
    def test_deep_json_is_syntax_error(self, depth):
        # json.loads recurses once per level; the YAML loader never sees this text
        with pytest.raises(ScenarioSyntaxError, match="nesting too deep"):
            parse_scenario("[" * depth + "]" * depth)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_constant_is_syntax_error(self, constant):
        with pytest.raises(ScenarioSyntaxError, match=f"{constant} is not a finite number"):
            parse_scenario(f'{{"elapsed_days": 7, "costs": {{"exploit": {constant}}}}}')

    def test_json_int_over_the_digit_limit_is_syntax_error(self):
        with pytest.raises(ScenarioSyntaxError, match="JSON number"):
            parse_scenario('{"elapsed_days": ' + "7" * 5000 + "}")

    @pytest.mark.parametrize(
        "text, doc",
        [
            ("{a: 1}", {"a": 1}),
            (" \n [a, 1e-05]", ["a", "1e-05"]),  # YAML 1.1 reads 1e-05 as a string
            ("{'a': [1, 2]}", {"a": [1, 2]}),
            ('{"a": 1e-05, "b": [true, null, "x"]}', {"a": 1e-05, "b": [True, None, "x"]}),
            ('\t[1.5, -0.0, 10000000000000000000000]', [1.5, -0.0, 10**22]),
            ("a: [1, 2]", {"a": [1, 2]}),
        ],
    )
    def test_json_when_it_starts_so_and_parses_else_yaml(self, text, doc):
        assert _same(load_document(text), doc)

    @pytest.mark.parametrize("field", ["id", "kind"])
    def test_terminate_is_reserved(self, field):
        # an action named terminate would read back as every policy leaf;
        # one of kind terminate would be dropped from every model
        doc = yaml.safe_load(MINIMAL)
        doc["actions"][0][field] = "terminate"
        with pytest.raises(ScenarioValidationError, match="'terminate' is reserved"):
            scenario_from_dict(doc)

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("- just\n- a list\n")

    def test_unknown_template_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["machines"][1]["template"] = "ghost"
        with pytest.raises(ScenarioValidationError, match="unknown template"):
            parse_scenario(yaml.safe_dump(doc))

    def test_template_must_cover_all_programs(self):
        doc = yaml.safe_load(MINIMAL)
        doc["templates"]["base"] = {}
        with pytest.raises(ScenarioValidationError, match="missing programs"):
            parse_scenario(yaml.safe_dump(doc))

    def test_unknown_subnetwork_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["machines"][1]["subnetwork"] = "nowhere"
        with pytest.raises(ScenarioValidationError):
            parse_scenario(yaml.safe_dump(doc))

    def test_duplicate_action_ids_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["actions"].append(dict(doc["actions"][0]))
        with pytest.raises(ScenarioValidationError, match="duplicate action"):
            parse_scenario(yaml.safe_dump(doc))

    def test_negative_elapsed_days_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["elapsed_days"] = -1
        with pytest.raises(ScenarioValidationError):
            parse_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.update(elapsed_days=True), "elapsed_days"),
            (lambda d: d["machines"][1].update(reward=float("nan")), "machine 'pc' reward"),
            (lambda d: d["machines"][1].update(reward=float("inf")), "machine 'pc' reward"),
            (lambda d: d.update(costs={"exploit": float("nan")}), "costs['exploit']"),
            (lambda d: d.update(costs={"detect_risk": float("-inf")}), "costs['detect_risk']"),
            (lambda d: d["actions"][0].update(cost_time=float("inf")), "action 'hit' cost_time"),
            (lambda d: d["actions"][1].update(cost_detect=float("nan")), "action 'look' cost_detect"),
        ],
        ids=["bool-days", "nan-reward", "inf-reward", "nan-cost", "inf-risk", "inf-time", "nan-detect"],
    )
    def test_bad_numbers_rejected(self, edit, field):
        doc = yaml.safe_load(MINIMAL)
        edit(doc)
        with pytest.raises(ScenarioValidationError, match=re.escape(field)):
            parse_scenario(yaml.safe_dump(doc))

    def test_machine_without_template_rejected(self):
        # only the foothold may lack a template: the planner would score
        # such a machine 0 and the simulator count it as controlled
        doc = yaml.safe_load(MINIMAL)
        doc["machines"].append({"id": "gw", "subnetwork": "office", "reward": 0.0})
        with pytest.raises(ScenarioValidationError, match="'gw' has no template"):
            scenario_from_dict(doc)

    def test_open_state_not_in_states_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["programs"]["app"]["open_states"] = ["vulnerable", "listening"]
        with pytest.raises(ScenarioValidationError, match="'listening'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.update(kind="phish"), "'hit' has unknown kind 'phish'"),
            (lambda a: a.pop("port"), "'hit' .exploit. needs a target port"),
        ],
        ids=["unknown-kind", "exploit-without-port"],
    )
    def test_bad_action_rejected(self, edit, message):
        doc = yaml.safe_load(MINIMAL)
        edit(doc["actions"][0])
        with pytest.raises(ScenarioValidationError, match=message):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(actions=5), "actions must be a list"),
            (lambda d: d.update(costs=3), "costs must be a mapping"),
            (lambda d: d.update(templates=["base"]), "templates must be a mapping"),
            (lambda d: d["machines"].__setitem__(0, "attacker"), "machines[0] must be a mapping"),
            (lambda d: d["arcs"].__setitem__(0, "lab"), "arcs[0] must be a mapping"),
            (
                lambda d: d["programs"]["app"].update(transitions=[0.9]),
                "programs.app.transitions must be a mapping",
            ),
            (
                lambda d: d["programs"]["app"]["transitions"]["patched"].update(patched=1.5),
                "programs.app.transitions.patched.patched must be a probability",
            ),
            (
                lambda d: d["programs"]["app"]["transitions"]["patched"].update(patched=0.5),
                "programs.app.transitions: transition rows must sum to 1",
            ),
            (
                lambda d: d["actions"][0]["success"].update(app="vulnerable"),
                "success.app must be a list",
            ),
            (
                lambda d: d["programs"]["app"].update(parents=["app"]),
                "dependency graph has a cycle",
            ),
            (
                lambda d: d.update(compatibility={"ghost": [["v1"]]}),
                "compatibility constraint on unknown program 'ghost'",
            ),
            (lambda d: d.update(compatibility=[["v1"]]), "compatibility must be a mapping"),
            (lambda d: d.update(compatibility={"app": [1]}), "compatibility.app[0] must be a list"),
        ],
        ids=[
            "actions-not-a-list",
            "costs-not-a-mapping",
            "templates-not-a-mapping",
            "machine-not-a-mapping",
            "arc-not-a-mapping",
            "transitions-not-a-mapping",
            "probability-above-one",
            "row-not-summing-to-one",
            "versions-not-a-list",
            "dependency-cycle",
            "constraint-on-unknown-program",
            "compatibility-not-a-mapping",
            "compatibility-tuple-not-a-list",
        ],
    )
    def test_bad_shape_rejected(self, edit, message):
        doc = yaml.safe_load(MINIMAL)
        edit(doc)
        with pytest.raises(ScenarioValidationError, match=re.escape(message)):
            scenario_from_dict(doc)

    def test_predicate_on_unknown_program_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["actions"][0]["success"] = {"ghost": ["v1"]}
        with pytest.raises(ScenarioValidationError):
            parse_scenario(yaml.safe_dump(doc))


def _node_paths(node, path=()):
    """Key paths to every node below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_DOCS = (load_document(emit_scenario(worked_example_scenario())), yaml.safe_load(MINIMAL))
_NODES = [(doc, path) for doc in _DOCS for path in _node_paths(doc)]
_KEYS = st.none() | st.booleans() | st.integers() | st.text(max_size=4)
_VALUES = st.recursive(
    _KEYS | st.floats(),  # floats include nan and +-inf
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=4,
)


class TestMutatedDocuments:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(node=st.sampled_from(_NODES), value=_VALUES)
    def test_parses_or_raises_scenario_error(self, node, value):
        # one node of a valid document replaced by a drawn value
        doc, path = node
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            scenario_from_dict(doc)
        except ScenarioError:
            pass


class TestLoader:
    @pytest.mark.parametrize("seed", [0, 3, 55, 240])
    def test_shared_loader_matches_safe_load(self, seed):
        # an emitted document, written as YAML, loads as it was emitted
        doc = load_document(emit_scenario(random_scenario(seed)))
        text = yaml.safe_dump(doc)
        assert load_document(text) == yaml.safe_load(text) == doc

    def test_hand_written_document_loads_the_same(self):
        assert load_document(MINIMAL) == yaml.safe_load(MINIMAL)

    def test_import_leaves_yaml_out(self):
        # a fresh interpreter: PyYAML is imported only to read YAML text
        src = str(Path(__file__).parents[1] / "src")
        script = (
            "import sys, pentestplan\n"
            "print('yaml' in sys.modules)\n"
            f"pentestplan.parse_scenario({MINIMAL!r})\n"
            "print('yaml' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, check=True, text=True, timeout=120,
        ).stdout
        assert out.split() == ["False", "True"]


def _safe_load(text):
    """``yaml.safe_load(text)``, or the exception it raises."""
    try:
        return yaml.safe_load(text)
    except Exception as exc:
        return exc


def _same(a, b, seen=None) -> bool:
    """``a == b`` with the same type at every node; nan equals nan, not 0.0 -0.0.

    Exceptions compare by type and message; a collection reached again
    (through a recursive alias) compares as the same.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, Exception):
        return str(a) == str(b)
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, (dict, list)):
        seen = set() if seen is None else seen
        if (id(a), id(b)) in seen:
            return True
        seen.add((id(a), id(b)))
    if isinstance(a, dict):
        a, b = list(a.items()), list(b.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y, seen) for x, y in zip(a, b))
    return a == b


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_SCALARS, inner, max_size=4),
    max_leaves=12,
)
# what JSON holds: string keys, finite floats
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


class TestLoaderEquivalence:
    # load_document hands PyYAML's safe loader every text that is not JSON,
    # flow YAML that starts with { or [ included: each loads as
    # yaml.safe_load loads it, and each of safe_load's errors is a DocumentError
    @pytest.mark.parametrize(
        "text",
        [
            "a: &x [1, 2]\nb: *x\n",
            "[&s text, *s, &n 1.5, *n]",
            "&a [*a]",
            "&m {self: *m}",
            "base: &b {x: 1, y: 2}\nchild:\n  <<: *b\n  y: 3\n",
            "{=: a, b: c}",
            "? [a, b]\n: c\n",
            "? {a: 1}\n: c\n",
            "{1.5: a, ~: b, 0x1f: c, true: d, 017: e, 1:20: f}",
            "!!set {a, b}",
            "!!omap [{a: 1}, {b: 2}]",
            "!!pairs [{a: 1}, {a: 2}]",
            "!!binary aGVsbG8=",
            "t: 2001-12-14t21:59:43.10-05:00\nd: 2002-12-14\n",
            "[.inf, -.inf, .nan, -0.0, 1e3, 1.0e+17, 0o17, yes, No, off, '', ~]",
            "!!int abc",
            "[!!int '', !!float '', !!bool '', !!int 0b]",
            "[ok, !!float x]",
            "{a: !!bool maybe}",
            "!!str [a]",
            "!!map [a]",
            "!!seq {a: 1}",
            "!custom x",
            "[!!str 1, !!float 1, !!null '', !!int '7']",
            "[1.5, '1.5', 'yes', yes, \"~\", ~]",  # the same text plain and quoted
            "{a: 1, a: 2}",
            "",
            "# only a comment\n",
        ],
    )
    def test_document_loads_as_the_base_loader_loads_it(self, text):
        base = _safe_load(text)
        if isinstance(base, Exception):
            with pytest.raises(DocumentError):
                load_document(text)
        else:
            assert _same(load_document(text), base)

    def test_alias_sharing_is_kept(self):
        doc = load_document("a: &x [1, 2]\nb: *x\nc: [1, 2]\n")
        assert doc["a"] is doc["b"] and doc["a"] is not doc["c"]
        loop = load_document("&a [*a]")
        assert loop[0] is loop

    def test_nesting_deeper_than_the_walk_recurses(self):
        # JSON 600 levels deep loads through json.loads
        doc = load_document("[" * 600 + "]" * 600)
        for _ in range(599):
            assert type(doc) is list and len(doc) == 1
            doc = doc[0]
        assert doc == []

    @pytest.mark.parametrize("seed", range(40))
    def test_emitted_scenario_loads_the_same(self, seed):
        _check_json_and_yaml_agree(random_scenario(seed))

    def test_yaml_scenario_file_parses_as_generated(self):
        # a scenario file from when scenario files were YAML
        text = (Path(__file__).parent / "data" / "random_6.yaml").read_text()
        assert not text.startswith("{")
        assert emit_scenario(parse_scenario(text)) == emit_scenario(random_scenario(6))

    def test_emitted_worked_example_loads_the_same(self):
        _check_json_and_yaml_agree(worked_example_scenario())

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(doc=_TREES)
    def test_dumped_tree_loads_the_same(self, doc):
        text = yaml.safe_dump(doc)
        assert _same(load_document(text), yaml.safe_load(text))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(doc=st.lists(_JSON_TREES, max_size=4) | st.dictionaries(st.text(max_size=6), _JSON_TREES))
    def test_written_tree_loads_back(self, doc):
        # files hold a mapping or a list; a bare scalar would be read as YAML
        text = scenario_module.dump_document(doc)
        assert text.endswith("\n") and _same(load_document(text), _sorted_keys(doc))


def _sorted_keys(doc):
    if isinstance(doc, dict):
        return {key: _sorted_keys(doc[key]) for key in sorted(doc)}
    if isinstance(doc, list):
        return [_sorted_keys(item) for item in doc]
    return doc


def _check_json_and_yaml_agree(spec) -> None:
    """The emitted JSON text and the same document written as YAML parse to one spec."""
    text = emit_scenario(spec)
    doc = load_document(text)
    assert _same(doc, json.loads(text))
    as_yaml = yaml.safe_dump(doc)
    assert _same(yaml.safe_load(as_yaml), doc)
    from_json, from_yaml = parse_scenario(text), parse_scenario(as_yaml)
    assert from_json.actions == from_yaml.actions
    assert from_json.templates == from_yaml.templates
    assert emit_scenario(from_yaml) == emit_scenario(from_json) == text


class TestFromDict:
    def test_same_spec_as_parsing(self):
        spec = scenario_from_dict(yaml.safe_load(MINIMAL))
        assert emit_scenario(spec) == emit_scenario(parse_scenario(MINIMAL))

    def test_key_order_does_not_matter(self):
        doc = yaml.safe_load(MINIMAL)
        doc["programs"]["os"] = {"states": ["v1"], "transitions": {"v1": {"v1": 1.0}}}
        doc["templates"]["base"] = {"os": "v1", "app": "vulnerable"}
        doc["actions"][0]["success"] = {"os": ["v1"], "app": ["vulnerable"]}
        spec = scenario_from_dict(doc)
        again = parse_scenario(yaml.safe_dump(doc, sort_keys=True))
        assert spec.actions == again.actions
        assert spec.templates == again.templates
        assert emit_scenario(spec) == emit_scenario(again)
        assert list(spec.templates["base"]) == ["app", "os"]
        assert list(spec.actions[0].success) == ["app", "os"]

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioSyntaxError):
            scenario_from_dict(["a", "list"])


class TestEmit:
    def test_round_trip_is_byte_stable(self):
        spec = parse_scenario(MINIMAL)
        once = emit_scenario(spec)
        twice = emit_scenario(parse_scenario(once))
        assert once == twice

    def test_round_trip_preserves_semantics(self):
        spec = parse_scenario(MINIMAL)
        again = parse_scenario(emit_scenario(spec))
        assert again.elapsed_days == spec.elapsed_days
        assert [a.id for a in again.actions] == [a.id for a in spec.actions]
        assert again.net.arcs.keys() == spec.net.arcs.keys()
        assert again.model.names == spec.model.names
        b1 = spec.machine_belief(spec.net.machine("pc"))
        b2 = again.machine_belief(again.net.machine("pc"))
        assert b1.keys() == b2.keys()
        for config in b1:
            assert b1[config] == pytest.approx(b2[config], abs=1e-12)

    def test_compatibility_survives_round_trip(self):
        doc = yaml.safe_load(MINIMAL)
        doc["programs"]["base_os"] = {
            "states": ["v1"],
            "transitions": {"v1": {"v1": 1.0}},
            "os": True,
        }
        doc["programs"]["app"]["parents"] = ["base_os"]
        doc["compatibility"] = {"app": [["vulnerable", "v1"], ["patched", "v1"]]}
        doc["templates"]["base"] = {"app": "vulnerable", "base_os": "v1"}
        spec = parse_scenario(yaml.safe_dump(doc))
        again = parse_scenario(emit_scenario(spec))
        assert again.model.compatibility == spec.model.compatibility
        assert emit_scenario(again) == emit_scenario(spec)
