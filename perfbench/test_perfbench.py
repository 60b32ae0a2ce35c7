"""Tests of the benchmark's own checks and bookkeeping.

    python3 -m pytest perfbench -q
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from pentestplan import bench, planner, scenario  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFS = workloads.load_references()
CHEAP = REFS["exact"]["pool"]["light"][:4] + REFS["exact"]["pool"]["light"][-2:]


def exact_workload(refs, seeds):
    w = workloads.ExactWorkload(refs)
    outputs = refs["exact"]["outputs"]
    w.items = [
        (s, scenario.emit_scenario(bench.random_scenario(s)), outputs[str(s)]) for s in seeds
    ]
    return w


def test_recorded_references_pass():
    result = workloads.closed_loop(exact_workload(REFS, CHEAP), 0)
    assert result.attempted == len(CHEAP)
    assert not result.failed, result.problems


@pytest.mark.parametrize("field", ["value", "digest", "exact_value"])
def test_corrupted_reference_fails_the_op(field):
    refs = copy.deepcopy(REFS)
    entry = refs["exact"]["outputs"][str(CHEAP[-1])]
    entry[field] = "0" * 20 if field == "digest" else entry[field] + 1.0
    result = workloads.closed_loop(exact_workload(refs, CHEAP), 0)
    assert result.failed == {len(CHEAP) - 1}
    assert len(result.failed) / result.attempted > 0


class _PlanOnly(workloads.Workload):
    """Parse and plan random_scenario(9), checked against its reference."""

    def __init__(self, refs):
        super().__init__(refs)
        text = scenario.emit_scenario(bench.random_scenario(9))
        self.items = [text, text]

    def op(self, item):
        plan = planner.plan_attack(scenario.parse_scenario(item))
        return workloads.check_plan(plan, self.refs["exact"]["outputs"]["9"])


def test_fresh_planner_per_op_passes():
    result = workloads.closed_loop(_PlanOnly(REFS), 0)
    assert result.attempted == 2 and not result.failed, result.problems


def test_reused_planner_is_a_failed_op(monkeypatch):
    # DecompositionPlanner.plan() zeroes its rewards, so a second call on
    # one instance returns 0.0 instead of the reference value
    shared = []

    def reusing_plan_attack(spec, component_size_limit=12):
        if not shared:
            shared.append(planner.DecompositionPlanner(spec, component_size_limit))
        return shared[0].plan()

    monkeypatch.setattr(planner, "plan_attack", reusing_plan_attack)
    result = workloads.closed_loop(_PlanOnly(REFS), 0)
    assert result.attempted == 2
    assert result.failed == {1}
    assert any("plan value" in p for _, p in result.problems)


def test_grid_mean_gap_check_fails_the_whole_pass():
    w = workloads.GridWorkload(REFS)
    w.items = [None, None, None]
    gaps = iter([0.0, 5.0, 40.0])

    def op(item):
        w.gaps.append(next(gaps))
        return []

    w.gaps = []
    w.op = op
    result = workloads.closed_loop(w, 0)
    assert result.failed == {0, 1, 2}


def test_self_times_add_up_to_op_time():
    w = exact_workload(REFS, CHEAP)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = workloads.closed_loop(w, 0, tracer)
    finally:
        tracer.uninstall()
    assert planner.plan_attack.__name__ == "plan_attack"
    assert not hasattr(planner.plan_attack, "__wrapped__")
    metrics = spans.per_layer_metrics(tracer, range(result.attempted), 1.0)
    layers = spans.LAYERS + (spans.HARNESS,)
    total = sum(metrics[f"{layer}.self_s"][0] for layer in layers)
    assert total == pytest.approx(metrics["trace.op_s"][0], rel=1e-9)
    assert metrics["solver.solves"][0] > 0
    assert metrics["solver.self_s"][0] > 0


def test_held_out_seed_draws_other_inputs():
    default, held_out = workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED
    exact = workloads.ExactWorkload(REFS)
    assert exact.scenario_seeds(default) != exact.scenario_seeds(held_out)
    assert exact.scenario_seeds(default) == exact.scenario_seeds(default)
    for section in ("plan", "wide", "grid"):
        seeds = REFS[section]["seeds"]
        assert workloads.pick(seeds, default) != workloads.pick(seeds, held_out)


def test_tail_has_ten_ops_beyond_it():
    durations = [float(i) for i in range(1, 41)]
    assert run.tail(durations, 40) == (75.0, 30.0, 10)
    # two identical passes of 40 ops: the same percentile and value
    assert run.tail(durations * 2, 40) == (75.0, 30.0, 20)
    # passes of one op: counted over the run, or the slowest op
    assert run.tail(durations, 1) == (75.0, 30.0, 10)
    assert run.tail([3.0, 1.0, 2.0], 1) == (100.0, 3.0, 0)
