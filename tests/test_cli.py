import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from pentestplan import solver
from pentestplan.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)
from pentestplan.planner import plan_attack
from pentestplan.scenario import dump_document, load_document, parse_scenario
from pentestplan.sim import monte_carlo
from test_planner import complete_digraph
from test_report import DEEP_POLICY_MEAN, deep_policy

DATA = Path(__file__).parent / "data"
OS_LABEL_WITH_COLON = DATA / "os_label_with_colon.yaml"


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    code = main(
        ["gen", "--machines", "4", "--exploits", "3", "--seed", "2", "--out", str(path)]
    )
    assert code == EXIT_OK
    return path


class TestGen:
    def test_writes_parseable_scenario(self, scenario_file):
        from pentestplan.scenario import parse_scenario

        spec = parse_scenario(scenario_file.read_text())
        assert spec.net.start == "internet"

    def test_stdout_default(self, capsys):
        assert main(["gen", "--machines", "1", "--exploits", "1"]) == EXIT_OK
        assert "subnetworks" in capsys.readouterr().out

    def test_example_preset(self, capsys):
        assert main(["gen", "--preset", "example"]) == EXIT_OK
        assert "2967" in capsys.readouterr().out

    def test_random_preset_deterministic(self, capsys):
        main(["gen", "--preset", "random", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gen", "--preset", "random", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestPlan:
    def test_plan_writes_yaml_and_value(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        code = main(["plan", str(scenario_file), "--out", str(plan_path)])
        assert code == EXIT_OK
        assert "value" in capsys.readouterr().out
        assert plan_path.exists()

    def test_report_flag_prints_components(self, scenario_file, capsys):
        assert main(["plan", str(scenario_file), "--report"]) == EXIT_OK
        assert "component" in capsys.readouterr().out

    def test_baseline_value_matches_decomposed_on_tree(self, tmp_path, capsys):
        # benchmark networks are trees, so both planners agree exactly
        path = tmp_path / "s.yaml"
        main(["gen", "--machines", "2", "--exploits", "2", "--out", str(path)])
        main(["plan", str(path), "--out", str(tmp_path / "p.yaml")])
        decomposed = capsys.readouterr().out
        main(["plan", str(path), "--baseline"])
        baseline = capsys.readouterr().out
        value = lambda text: float(text.split("value ")[1].split()[0])
        assert value(baseline) == pytest.approx(value(decomposed), abs=1e-6)

    def test_missing_file_is_usage_error(self):
        assert main(["plan", "no-such-file.yaml"]) == EXIT_USAGE

    def test_invalid_scenario(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("start: [")
        assert main(["plan", str(bad)]) == EXIT_INVALID

    def test_deeply_nested_files_are_invalid(self, scenario_file, tmp_path, capsys):
        deep = tmp_path / "deep.yaml"
        deep.write_text("[" * 2000 + "]" * 2000)
        plan_path = tmp_path / "plan.yaml"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["plan", str(deep)]) == EXIT_INVALID
        assert main(["simulate", str(scenario_file), str(deep)]) == EXIT_INVALID
        assert capsys.readouterr().err.count("invalid input: ") == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"costs": {"exploit": NaN}}', "NaN is not a finite number"),
            ('{"costs": {"exploit": Infinity}}', "Infinity is not a finite number"),
            ('{"costs": {"exploit": -Infinity}}', "-Infinity is not a finite number"),
            ('{"elapsed_days": ' + "1" * 5000 + "}", "JSON number"),
            ("[" * 50000 + "]" * 50000, "nesting too deep"),
        ],
        ids=["nan", "infinity", "minus-infinity", "long-int", "deep"],
    )
    def test_json_errors_are_invalid(self, scenario_file, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["plan", str(bad)]) == EXIT_INVALID
        assert main(["simulate", str(scenario_file), str(bad)]) == EXIT_INVALID
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize(
        "text",
        ["a: " + "[" * 50000 + "]" * 50000, "{a: " + "[" * 50000 + "]" * 50000 + "}"],
        ids=["after-a-key", "flow-yaml-not-json"],
    )
    def test_deep_yaml_is_invalid(self, tmp_path, text):
        # in a subprocess, so that a crash in the parser fails this test, not the test run
        deep = tmp_path / "deep.yaml"
        deep.write_text(text)
        run = subprocess.run(
            [sys.executable, "-m", "pentestplan.cli", "plan", str(deep)],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == EXIT_INVALID, run.stderr
        assert "nesting too deep" in run.stderr

    def test_yaml_and_json_scenarios_plan_alike(self, scenario_file, tmp_path, capsys):
        as_yaml = tmp_path / "scenario.yaml"
        as_yaml.write_text(yaml.safe_dump(load_document(scenario_file.read_text())))
        plans = [tmp_path / "from_json.json", tmp_path / "from_yaml.json"]
        assert main(["plan", str(scenario_file), "--out", str(plans[0])]) == EXIT_OK
        assert main(["plan", str(as_yaml), "--out", str(plans[1])]) == EXIT_OK
        assert plans[0].read_text() == plans[1].read_text()
        assert plans[0].read_text().startswith("{\n")

    def test_unconvertible_tag_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        text = yaml.safe_dump(load_document(path.read_text()))
        assert "\nelapsed_days: " in text
        path.write_text(text.replace("\nelapsed_days: ", "\nelapsed_days: !!int abc #"))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert "cannot convert a tagged scalar" in capsys.readouterr().err

    def test_machine_without_template_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = load_document(path.read_text())
        doc["machines"].append({"id": "gw", "subnetwork": "office", "reward": 0.0})
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert "no template" in capsys.readouterr().err

    def test_nan_reward_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = load_document(path.read_text())
        doc["machines"][-1]["reward"] = float("nan")
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert "reward must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["programs"]["SA"].update(open_states=["gone"]), "unknown open state"),
            (lambda d: d["actions"][0].update(kind="phish"), "unknown kind 'phish'"),
            (lambda d: d["actions"][0].update(id="terminate"), "'terminate' is reserved"),
            (lambda d: d["actions"][0].update(kind="terminate"), "'terminate' is reserved"),
            (lambda d: d["actions"][0].update(kind=["exploit"]), "kind must be a string"),
            (
                lambda d: d["templates"]["last_pentest"].update(DEP="gone"),
                "template 'last_pentest': unknown version 'gone' of program 'DEP'",
            ),
            (
                lambda d: d["actions"][0]["success"].update(DEP=["gone"]),
                "success predicate: unknown version 'gone' of program 'DEP'",
            ),
            (
                lambda d: d["actions"][0].update(crash={"CAU": ["gone"]}),
                "crash predicate: unknown version 'gone' of program 'CAU'",
            ),
            (lambda d: d["programs"]["SA"].update(port=[1]), "programs.SA.port: port must be"),
            (lambda d: d["programs"]["SA"].update(port="2967"), "programs.SA.port: port must be"),
            (
                lambda d: d["programs"]["SA"].update(parents=["ghost"]),
                "programs.SA.parents: unknown program 'ghost'",
            ),
            (lambda d: d["actions"].__setitem__(0, "exploit_CAU"), "actions[0] must be a mapping"),
            (
                lambda d: d["actions"][0].update(success=["vulnerable"]),
                "success predicate must be a mapping",
            ),
            (
                lambda d: d["actions"][0].update(crash=["vulnerable"]),
                "crash predicate must be a mapping",
            ),
            (
                lambda d: d["programs"]["DEP"]["transitions"]["disabled"].update(enabled="x"),
                "programs.DEP.transitions.disabled.enabled must be a finite number",
            ),
            (lambda d: d.update(subnetworks=5), "subnetworks must be a list"),
            (lambda d: d["arcs"][0].update(blocked_ports=5), "blocked_ports must be a list"),
            (lambda d: d["machines"][-1].update(id=["m"]), "machines[1].id must be a string"),
            (lambda d: d["actions"][0].update(id=["x"]), "actions[0].id must be a string"),
            (lambda d: d["actions"][0].update(id=0.5), "actions[0].id must be a string"),
            (lambda d: d.update(start=["foothold"]), "start must be a string"),
            (lambda d: d["arcs"][0].update({"from": ["foothold"]}), "arcs[0].from must be a string"),
            (lambda d: d["machines"][-1].update(template=["last_pentest"]), "unknown template"),
            (lambda d: d["machines"][-1].update(subnetwork=["office"]), "unknown subnetwork"),
            (lambda d: d["machines"][-1].update(reward=True), "reward must be a finite number"),
            (lambda d: d["actions"][0].update(cost_time=True), "cost_time must be a finite number"),
            (
                lambda d: d["programs"]["DEP"]["transitions"]["disabled"].update(enabled="0.04"),
                "programs.DEP.transitions.disabled.enabled must be a finite number",
            ),
            (lambda d: d["costs"].update(exploit="10"), "costs['exploit'] must be a finite number"),
            (lambda d: d["programs"]["SA"].update(open_states=5), "open_states must be a list"),
            (lambda d: d.update(compatibility={"SA": 5}), "compatibility.SA must be a list"),
            (lambda d: d["programs"]["SA"].update(os="false"), "programs.SA.os must be a boolean"),
            (lambda d: d["programs"]["SA"].update(os=1), "programs.SA.os must be a boolean"),
            (
                lambda d: next(a for a in d["actions"] if a["id"] == "exploit_SA").update(port=[1]),
                "action 'exploit_SA'.port: port must be an integer",
            ),
        ],
        ids=[
            "unknown-open-state",
            "unknown-kind",
            "terminate-id",
            "terminate-kind",
            "kind-not-a-string",
            "unknown-template-version",
            "unknown-success-version",
            "unknown-crash-version",
            "program-port-list",
            "program-port-string",
            "unknown-parent",
            "action-not-a-mapping",
            "success-not-a-mapping",
            "crash-not-a-mapping",
            "probability-not-a-number",
            "subnetworks-not-a-list",
            "blocked-ports-not-a-list",
            "machine-id-list",
            "action-id-list",
            "action-id-number",
            "start-list",
            "arc-from-list",
            "template-list",
            "subnetwork-list",
            "reward-bool",
            "cost-time-bool",
            "probability-string",
            "cost-string",
            "open-states-not-a-list",
            "compatibility-entry-not-a-list",
            "os-string",
            "os-number",
            "action-port-list",
        ],
    )
    def test_bad_program_or_action_is_invalid(self, tmp_path, capsys, edit, message):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = load_document(path.read_text())
        edit(doc)
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert message in capsys.readouterr().err

    # files that parse but whose beliefs or outcomes fail once planning starts
    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["actions"][0].update(crash={"CAU": ["vulnerable"]}),
                "exploit 'exploit_CAU': success and crash predicates can both hold",
            ),
            (
                lambda d: d.update(compatibility={"SA": [["present"], ["absent"]]}),
                "template 'last_pentest': start configuration",
            ),
            (
                lambda d: (
                    d.update(compatibility={"SA": [["vulnerable"]]}),
                    d["programs"]["SA"]["transitions"].update(vulnerable={"present": 1.0}),
                ),
                "template 'last_pentest': all probability mass filtered out",
            ),
        ],
        ids=["overlapping-predicates", "incompatible-template", "chain-leaves-no-mass"],
    )
    def test_scenario_errors_found_while_planning_are_invalid(
        self, tmp_path, capsys, edit, message
    ):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = load_document(path.read_text())
        edit(doc)
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert main(["plan", str(path), "--baseline"]) == EXIT_INVALID
        assert capsys.readouterr().err.count(message) == 2

    def test_resource_bound(self, scenario_file):
        code = main(["plan", str(scenario_file), "--baseline", "--max-global-states", "2"])
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("bound", ["MAX_BELIEF_NODES", "MAX_SEARCH_DEPTH"])
    def test_solver_bounds(self, tmp_path, capsys, monkeypatch, bound):
        path = tmp_path / "example.json"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        monkeypatch.setattr(solver, bound, 1)
        assert main(["plan", str(path)]) == EXIT_RESOURCE
        assert "resource bound exceeded" in capsys.readouterr().err

    # simple entry paths into the target: 1,957 at k = 8, 109,601 at k = 10
    @pytest.mark.parametrize("k, code", [(8, EXIT_OK), (10, EXIT_RESOURCE)])
    def test_entry_path_bound(self, tmp_path, capsys, k, code):
        path = tmp_path / "complete.json"
        path.write_text(dump_document(complete_digraph(k)))
        started = time.perf_counter()
        assert main(["plan", str(path)]) == code
        assert time.perf_counter() - started < 2.0
        assert ("resource bound exceeded" in capsys.readouterr().err) == (code == EXIT_RESOURCE)


class TestSimulate:
    def test_pipeline(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        main(["plan", str(scenario_file), "--out", str(plan_path)])
        capsys.readouterr()
        code = main(
            ["simulate", str(scenario_file), str(plan_path), "--rollouts", "50", "--seed", "4"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("mean ") and "stderr" in out

    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_plan_number_that_is_not_finite_is_invalid(
        self, scenario_file, tmp_path, capsys, literal
    ):
        # JSON reads 1e400 as inf
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        doc = load_document(plan_path.read_text())
        doc["value"] = 0.123456789
        plan_path.write_text(dump_document(doc).replace("0.123456789", literal))
        capsys.readouterr()
        assert main(["simulate", str(scenario_file), str(plan_path)]) == EXIT_INVALID
        assert "value must be a finite number" in capsys.readouterr().err

    def test_deep_policy_simulates(self, tmp_path, capsys):
        # the first attack becomes 1,500 scans in a row while its port reads closed
        scenario_path, plan_path = tmp_path / "scenario.yaml", tmp_path / "plan.yaml"
        argv = ["gen", "--machines", "4", "--exploits", "3", "--seed", "0"]
        assert main([*argv, "--out", str(scenario_path)]) == EXIT_OK
        assert main(["plan", str(scenario_path), "--out", str(plan_path)]) == EXIT_OK
        doc = load_document(plan_path.read_text())
        doc["components"][0]["paths"][0]["steps"][0]["first"]["policy"] = deep_policy(1500)
        plan_path.write_text(dump_document(doc))
        capsys.readouterr()
        code = main(["simulate", str(scenario_path), str(plan_path), "--rollouts", "3"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(f"mean {DEEP_POLICY_MEAN:.6f} ")

    def test_colon_in_os_label_simulates_like_the_plan_in_memory(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        assert main(["plan", str(OS_LABEL_WITH_COLON), "--out", str(plan_path)]) == EXIT_OK
        assert "os=win: 7: xw value=" in plan_path.read_text()
        capsys.readouterr()
        argv = ["simulate", str(OS_LABEL_WITH_COLON), str(plan_path), "--rollouts", "200"]
        assert main([*argv, "--seed", "3"]) == EXIT_OK
        spec = parse_scenario(OS_LABEL_WITH_COLON.read_text())
        mean, _ = monte_carlo(spec, plan_attack(spec), 200, 3)
        assert capsys.readouterr().out.startswith(f"mean {mean:.6f} ")

    def test_trace_output(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        main(["plan", str(scenario_file), "--out", str(plan_path)])
        capsys.readouterr()
        code = main(["simulate", str(scenario_file), str(plan_path), "--trace"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("# rollout seed=")

    @pytest.mark.parametrize("extra", [[], ["--trace"]], ids=["monte-carlo", "trace"])
    def test_plan_of_another_scenario_is_invalid(self, tmp_path, capsys, extra):
        net, plan, other = (tmp_path / f for f in ("net.yaml", "plan.yaml", "other.yaml"))
        main(["gen", "--machines", "30", "--exploits", "20", "--seed", "7", "--out", str(net)])
        assert main(["plan", str(net), "--out", str(plan)]) == EXIT_OK
        main(["gen", "--machines", "10", "--exploits", "20", "--seed", "2", "--out", str(other)])
        capsys.readouterr()
        code = main(["simulate", str(other), str(plan), "--rollouts", "10"] + extra)
        assert code == EXIT_INVALID
        assert "'user02'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--trace"]], ids=["monte-carlo", "trace"])
    @pytest.mark.parametrize("field", ["parent", "target", "subnetwork", "machine", "members"])
    def test_plan_id_that_is_not_a_string_is_invalid(self, tmp_path, capsys, field, extra):
        net, plan = tmp_path / "net.json", tmp_path / "plan.json"
        main(["gen", "--machines", "30", "--exploits", "20", "--seed", "7", "--out", str(net)])
        assert main(["plan", str(net), "--out", str(plan)]) == EXIT_OK
        doc = load_document(plan.read_text())
        comp = next(c for c in doc["components"] if c["paths"])
        path = comp["paths"][0]
        step = path["steps"][0]
        holder = {"parent": comp, "target": path, "subnetwork": step, "machine": step["first"],
                  "members": comp}[field]
        holder[field] = [holder[field]]
        plan.write_text(dump_document(doc))
        capsys.readouterr()
        code = main(["simulate", str(net), str(plan), "--rollouts", "10"] + extra)
        assert code == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err

    def test_plan_through_a_closed_firewall_is_invalid(self, tmp_path, capsys):
        net, plan = tmp_path / "net.yaml", tmp_path / "plan.yaml"
        main(["gen", "--machines", "30", "--exploits", "20", "--seed", "7", "--out", str(net)])
        assert main(["plan", str(net), "--out", str(plan)]) == EXIT_OK
        doc = load_document(net.read_text())
        ports = sorted({a["port"] for a in doc["actions"] if "port" in a})
        (arc,) = [a for a in doc["arcs"] if (a["from"], a["to"]) == ("internet", "exposed")]
        arc["blocked_ports"] = ports
        net.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        code = main(["simulate", str(net), str(plan), "--rollouts", "200", "--seed", "0"])
        assert code == EXIT_INVALID
        assert "no arc into it" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--trace"]], ids=["monte-carlo", "trace"])
    def test_policy_action_that_cannot_change_a_belief_is_invalid(self, tmp_path, capsys, extra):
        # detect_os passes every firewall, but every machine reads os=stable
        net, plan = tmp_path / "net.json", tmp_path / "plan.json"
        main(["gen", "--machines", "30", "--exploits", "20", "--seed", "7", "--out", str(net)])
        assert main(["plan", str(net), "--out", str(plan)]) == EXIT_OK
        doc = load_document(plan.read_text())
        first = doc["components"][0]["paths"][0]["steps"][0]["first"]
        first["policy"] = first["policy"].replace("failed: exploit000", "failed: detect_os")
        plan.write_text(dump_document(doc))
        capsys.readouterr()
        assert main(["simulate", str(net), str(plan)] + extra) == EXIT_INVALID
        assert "'detect_os', which cannot change a belief" in capsys.readouterr().err

    def test_policy_without_branch_is_invalid(self, tmp_path, capsys):
        scenario_path = tmp_path / "example.yaml"
        plan_path = tmp_path / "plan.yaml"
        assert main(["gen", "--preset", "example", "--out", str(scenario_path)]) == EXIT_OK
        assert main(["plan", str(scenario_path), "--out", str(plan_path)]) == EXIT_OK
        doc = load_document(plan_path.read_text())
        doc["components"][0]["paths"][0]["steps"][0]["first"]["policy"] = (
            "scan_port_2967 value=0.000000"
        )
        plan_path.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["simulate", str(scenario_path), str(plan_path)]) == EXIT_INVALID
        assert "no branch" in capsys.readouterr().err

    def test_policy_indented_by_an_odd_count_is_invalid(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        doc = load_document(plan_path.read_text())
        first = doc["components"][-1]["paths"][0]["steps"][0]["first"]
        lines = first["policy"].split("\n")
        assert lines[1].startswith("  ") and not lines[1].startswith("   ")
        first["policy"] = "\n".join([lines[0], " " + lines[1], *lines[2:]])
        plan_path.write_text(dump_document(doc))
        capsys.readouterr()
        assert main(["simulate", str(scenario_file), str(plan_path)]) == EXIT_INVALID
        assert "bad indentation at line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, out",
        [
            ("random_6.yaml", "mean 377.250000 stderr 19.301878 rollouts 200"),
            ("os_label_with_colon.yaml", "mean 59.000000 stderr 0.000000 rollouts 200"),
        ],
    )
    def test_yaml_plan_file_simulates_as_before(self, capsys, scenario, out):
        # YAML scenario and plan files (policies as literal blocks), and the
        # output simulate printed for them when the plan files were written
        plan = DATA / scenario.replace(".yaml", "_plan.yaml")
        argv = ["simulate", str(DATA / scenario), str(plan), "--rollouts", "200", "--seed", "1"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == out + "\n"

    def test_malformed_policy_line_is_invalid(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        doc = load_document(plan_path.read_text())
        doc["components"][-1]["paths"][0]["steps"][0]["first"]["policy"] = "x1 valu=61.77"
        plan_path.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["simulate", str(scenario_file), str(plan_path)]) == EXIT_INVALID
        assert "malformed policy line" in capsys.readouterr().err


class TestExperiment:
    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "experiment", "--mode", "both", "--machines", "1", "--exploits", "1", "2",
                "--repetitions", "50", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("machines,exploits")
        assert len(lines) == 3


class TestCalibrate:
    def test_prints_rates(self, capsys):
        assert main(["calibrate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "enable rate" in out and "achieved" in out

    def test_emit_scenario(self, capsys):
        assert main(["calibrate", "--emit-scenario"]) == EXIT_OK
        assert "DEP" in capsys.readouterr().out


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_argument(self):
        assert main(["plan"]) == EXIT_USAGE

    def test_bad_flag_value(self):
        assert main(["gen", "--machines", "lots"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--machines", "0"],
            ["gen", "--days", "-1"],
            ["experiment", "--machines", "0", "--repetitions", "0"],
            ["gen", "--preset", "random", "--machines", "0"],
        ],
        ids=["gen-machines", "gen-days", "experiment-machines", "random-machines"],
    )
    def test_bad_generator_size(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: need ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{scenario}", "{plan}", "--rollouts", "-2"],
            ["experiment", "--machines", "1", "--exploits", "1", "--repetitions", "-1"],
            ["plan", "{scenario}", "--component-size-limit", "0"],
            ["plan", "{scenario}", "--baseline", "--max-global-states", "-5"],
            ["experiment", "--machines", "1", "--exploits", "1", "--repetitions", "0",
             "--component-size-limit", "0"],
            ["experiment", "--mode", "global", "--machines", "1", "--exploits", "1",
             "--repetitions", "0", "--max-global-states", "0"],
        ],
        ids=[
            "simulate-rollouts",
            "experiment-repetitions",
            "plan-component-size-limit",
            "plan-max-global-states",
            "experiment-component-size-limit",
            "experiment-max-global-states",
        ],
    )
    def test_bad_count_or_bound(self, scenario_file, tmp_path, capsys, argv):
        # a count or bound out of range is a bad flag, not a bad file or a bound hit
        plan_path = tmp_path / "plan.yaml"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        capsys.readouterr()
        argv = [arg.format(scenario=scenario_file, plan=plan_path) for arg in argv]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: argument --")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen"],
            ["gen", "--preset", "random"],
            ["plan", "{scenario}"],
            ["simulate", "{scenario}", "{plan}", "--rollouts", "2"],
            ["simulate", "{scenario}", "{plan}", "--trace"],
            ["experiment", "--machines", "1", "--exploits", "1", "--repetitions", "2"],
            ["calibrate"],
        ],
        ids=["gen", "gen-random", "plan", "simulate", "simulate-trace", "experiment", "calibrate"],
    )
    def test_negative_seed(self, scenario_file, tmp_path, capsys, argv):
        # a seed below 0 is the parser's usage error, not a traceback from numpy
        plan_path = tmp_path / "plan.yaml"
        assert main(["plan", str(scenario_file), "--out", str(plan_path)]) == EXIT_OK
        capsys.readouterr()
        argv = [arg.format(scenario=scenario_file, plan=plan_path) for arg in argv]
        assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: argument --seed: must be at least 0")
