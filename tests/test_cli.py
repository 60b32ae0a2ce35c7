import pytest
import yaml

from pentestplan.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)


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

    def test_machine_without_template_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = yaml.safe_load(path.read_text())
        doc["machines"].append({"id": "gw", "subnetwork": "office", "reward": 0.0})
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert "no template" in capsys.readouterr().err

    def test_nan_reward_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = yaml.safe_load(path.read_text())
        doc["machines"][-1]["reward"] = float("nan")
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert "reward must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["programs"]["SA"].update(open_states=["gone"]), "unknown open state"),
            (lambda d: d["actions"][0].update(kind="phish"), "unknown kind 'phish'"),
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
        ],
        ids=[
            "unknown-open-state",
            "unknown-kind",
            "kind-not-a-string",
            "unknown-template-version",
            "unknown-success-version",
            "unknown-crash-version",
        ],
    )
    def test_bad_program_or_action_is_invalid(self, tmp_path, capsys, edit, message):
        path = tmp_path / "example.yaml"
        assert main(["gen", "--preset", "example", "--out", str(path)]) == EXIT_OK
        doc = yaml.safe_load(path.read_text())
        edit(doc)
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", str(path)]) == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_resource_bound(self, scenario_file):
        code = main(["plan", str(scenario_file), "--baseline", "--max-global-states", "2"])
        assert code == EXIT_RESOURCE


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

    def test_trace_output(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        main(["plan", str(scenario_file), "--out", str(plan_path)])
        capsys.readouterr()
        code = main(["simulate", str(scenario_file), str(plan_path), "--trace"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("# rollout seed=")

    def test_policy_without_branch_is_invalid(self, tmp_path, capsys):
        scenario_path = tmp_path / "example.yaml"
        plan_path = tmp_path / "plan.yaml"
        assert main(["gen", "--preset", "example", "--out", str(scenario_path)]) == EXIT_OK
        assert main(["plan", str(scenario_path), "--out", str(plan_path)]) == EXIT_OK
        doc = yaml.safe_load(plan_path.read_text())
        doc["components"][0]["paths"][0]["steps"][0]["first"]["policy"] = (
            "scan_port_2967 value=0.000000"
        )
        plan_path.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["simulate", str(scenario_path), str(plan_path)]) == EXIT_INVALID
        assert "no branch" in capsys.readouterr().err


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
