"""The four benchmark workloads, their inputs, ops and output checks.

Every workload is a closed loop with one client: the planner is a batch
tool, so each op starts when the previous one finishes.  A workload's
inputs form one pass; the timed phase runs whole passes until the run
length is reached, so every run of a seed measures the same mix of ops.

Inputs come from the workload seed, and always from the recorded pools in
``references.json`` so that every op has a reference output to compare
with.  Each op parses its own fresh ``ScenarioSpec`` from scenario text
made in set-up, as ``pentestplan plan`` does, so no spec or planner cache
carries over between ops.  The package's functions are looked up through
their modules at call time so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback

import numpy as np

from pentestplan import bench, planner, report, scenario, sim, solver

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# default workload seed, and one seed kept back for confirming claims
DEFAULT_SEED = 0
HELD_OUT_SEED = 5

# outputs must match their reference to within this (absolute + relative)
ABS_TOL = 1e-6
REL_TOL = 1e-9

GRID_MACHINES = range(1, 7)
GRID_EXPLOITS = range(1, 8)
GRID_REPETITIONS = 2000
GRID_MEAN_GAP_LIMIT = 10.0
GRID_MAX_GAP_LIMIT = 25.0
WIDE_ROLLOUTS = 25
EXACT_LIGHT_STRATA = 40


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pick(pool, seed: int):
    """The pool entry a workload seed selects (pools are recorded lists)."""
    return pool[seed % len(pool)]


def _fmt(x: float) -> str:
    return f"{round(float(x), 6) + 0.0:.6f}"


def plan_digest(plan) -> str:
    """Digest of a plan's components: targets, machines, policies and values.

    Only the component structure counts, so keys added to the plan file
    later (such as statistics) do not change it.  The order of the
    components is not counted either: ``decompose`` lists sibling
    components in set-iteration order, which changes with the process's
    string-hash seed, and siblings attack disjoint subnetworks.
    """
    components = []
    for comp in plan.components:
        parts = [["component", sorted(comp.members), comp.parent, _fmt(comp.value)]]
        components.append(parts)
        for path in comp.paths:
            parts.append(["path", path.target, _fmt(path.value)])
            for step in path.steps:
                parts.append(
                    ["step", step.subnetwork, sorted(step.entry_blocked_ports), _fmt(step.value)]
                )
                attacks = [("first", step.first)] + [("other", a) for a in step.others]
                for role, attack in attacks:
                    if attack is None:
                        continue
                    parts.append(
                        [
                            role,
                            attack.machine_id,
                            sorted(attack.blocked_ports),
                            _fmt(attack.composite_reward),
                            _fmt(attack.value),
                            solver.format_policy(attack.policy),
                        ]
                    )
    canonical = sorted(json.dumps(parts) for parts in components)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:20]


def compare(problems: list, what: str, got, want):
    """Append a problem if ``got`` differs from the reference ``want``."""
    if isinstance(want, str):
        ok = got == want
    else:
        ok = abs(float(got) - float(want)) <= ABS_TOL + REL_TOL * abs(float(want))
    if not ok:
        problems.append(f"{what}: got {got!r}, reference {want!r}")


def check_plan(plan, ref: dict) -> list:
    problems = []
    compare(problems, "plan value", plan.value, ref["value"])
    compare(problems, "plan digest", plan_digest(plan), ref["digest"])
    return problems


class Workload:
    """One workload: set-up makes ``items``; ``op`` runs and checks one item."""

    name = ""

    def __init__(self, refs: dict):
        self.refs = refs
        self.items = []

    def setup(self, seed: int):
        """Generate this seed's inputs (timed as set-up; may run repeatedly)."""

    def op(self, item) -> list:
        """Run one op on ``item``; return the problems its checks found."""
        raise NotImplementedError

    def end_pass(self) -> list:
        """Checks over a whole pass; a problem fails every op of the pass."""
        return []


class PlanWorkload(Workload):
    name = "plan-100x100"

    def setup(self, seed):
        net_seed = pick(self.refs["plan"]["seeds"], seed)
        spec = bench.generate_benchmark(
            bench.BenchmarkParams(machines=100, exploits=100, elapsed_days=50, seed=net_seed)
        )
        ref = self.refs["plan"]["outputs"][str(net_seed)]
        self.items = [(net_seed, scenario.emit_scenario(spec), ref)]

    def op(self, item):
        _, text, ref = item
        plan = planner.plan_attack(scenario.parse_scenario(text))
        report.plan_to_yaml(plan)
        return check_plan(plan, ref)


class ExactWorkload(Workload):
    name = "exact-small"

    def __init__(self, refs):
        super().__init__(refs)
        self.table = []  # one row per traced op, for the solver table
        self.record_table = False

    def scenario_seeds(self, seed: int) -> list:
        """The scenario set a workload seed fixes (drawn from the recorded pool).

        Every set holds the pool's fixed scenarios (three heavy ones with
        over 1,000 global states or belief nodes, and fourteen mid-cost
        ones around the tail percentile), plus one draw per cost stratum of
        the light scenarios, so every seed gets a different set with nearly
        the same work.
        """
        pool = self.refs["exact"]["pool"]
        rng = np.random.default_rng(seed)
        chosen = list(pool["fixed"])
        light = pool["light"]
        edges = np.linspace(0, len(light), EXACT_LIGHT_STRATA + 1).astype(int)
        for lo, hi in zip(edges[:-1], edges[1:]):
            chosen.append(light[int(rng.integers(lo, hi))])
        return [int(s) for s in rng.permutation(chosen)]

    def setup(self, seed):
        outputs = self.refs["exact"]["outputs"]
        self.items = [
            (s, scenario.emit_scenario(bench.random_scenario(s)), outputs[str(s)])
            for s in self.scenario_seeds(seed)
        ]

    def op(self, item):
        seed, text, ref = item
        spec = scenario.parse_scenario(text)
        plan = planner.plan_attack(spec)
        gp = bench.build_global_pomdp(spec)
        started = time.perf_counter()
        exact = solver.solve(gp.pomdp)
        solve_s = time.perf_counter() - started
        if self.record_table:
            nodes = exact.stats.nodes_expanded
            self.table.append(
                {
                    "scenario": seed,
                    "global_states": len(gp.pomdp.states),
                    "b0_support": len(gp.pomdp.b0),
                    "belief_nodes": nodes,
                    "memo_hits": exact.stats.cache_hits,
                    "solve_s": solve_s,
                    "us_per_node": 1e6 * solve_s / max(nodes, 1),
                }
            )
        problems = check_plan(plan, ref)
        compare(problems, "exact value", exact.value, ref["exact_value"])
        if plan.value > exact.value + 1e-6:
            problems.append(
                f"decomposed value {plan.value!r} exceeds exact value {exact.value!r}"
            )
        return problems


class GridWorkload(Workload):
    name = "grid-mc"

    def setup(self, seed):
        seeds = self.refs["grid"]["seeds"]
        cells = [(m, x) for m in GRID_MACHINES for x in GRID_EXPLOITS]
        outputs = self.refs["grid"]["outputs"]
        # each cell takes the next recorded grid seed, so a run mixes networks
        self.items = []
        for i, (m, x) in enumerate(cells):
            grid_seed = pick(seeds, seed + i)
            self.items.append((m, x, grid_seed, outputs[f"{m}x{x}/{grid_seed}"]))
        self.gaps = []

    def op(self, item):
        m, x, grid_seed, ref = item
        (cell,) = bench.run_experiment(
            "both", [m], [x], repetitions=GRID_REPETITIONS, seed=grid_seed
        )
        problems = []
        for field, want in ref.items():
            compare(problems, field, getattr(cell, field), want)
        if not cell.gap_percent <= GRID_MAX_GAP_LIMIT:
            problems.append(f"gap {cell.gap_percent!r}% exceeds {GRID_MAX_GAP_LIMIT}%")
        self.gaps.append(cell.gap_percent)
        return problems

    def end_pass(self):
        mean_gap = float(np.mean(self.gaps))
        self.gaps = []
        if not mean_gap <= GRID_MEAN_GAP_LIMIT:
            return [f"mean gap {mean_gap!r}% over the grid exceeds {GRID_MEAN_GAP_LIMIT}%"]
        return []


class WideWorkload(Workload):
    name = "wide-2000x13"

    def setup(self, seed):
        net_seed = pick(self.refs["wide"]["seeds"], seed)
        spec = bench.generate_benchmark(
            bench.BenchmarkParams(machines=2000, exploits=13, elapsed_days=50, seed=net_seed)
        )
        ref = self.refs["wide"]["outputs"][str(net_seed)]
        self.items = [(net_seed, scenario.emit_scenario(spec), ref)]

    def op(self, item):
        net_seed, text, ref = item
        spec = scenario.parse_scenario(text)
        plan = planner.plan_attack(spec)
        loaded = report.plan_from_yaml(report.plan_to_yaml(plan), spec.actions)
        mean, stderr = sim.monte_carlo(spec, loaded, WIDE_ROLLOUTS, net_seed)
        problems = check_plan(plan, ref)
        compare(problems, "reloaded plan digest", plan_digest(loaded), ref["digest"])
        compare(problems, "Monte Carlo mean", mean, ref["mc_mean"])
        compare(problems, "Monte Carlo stderr", stderr, ref["mc_stderr"])
        return problems


WORKLOADS = {w.name: w for w in (PlanWorkload, ExactWorkload, GridWorkload, WideWorkload)}

class LoopResult:
    def __init__(self):
        self.durations = []  # wall time of every op, in order
        self.failed = set()  # indices of failed ops
        self.problems = []  # (op index, message)
        self.passes = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)


def closed_loop(workload: Workload, seconds: float, tracer=None):
    """Run whole passes over ``workload.items`` until ``seconds`` have elapsed.

    An op that raises or fails a check counts as failed; so does every op
    of a pass whose whole-pass check fails.  With a tracer, each op runs
    inside a ``harness.op`` span tagged with its index as op id.
    """
    result = LoopResult()
    started = time.perf_counter()
    while True:
        pass_ops = []
        for item in workload.items:
            index = result.attempted
            if tracer is not None:
                tracer.op_id = index
                span = tracer.open("harness.op")
            t = time.perf_counter()
            try:
                problems = workload.op(item)
            except Exception as exc:  # an op that raises is a failed op
                problems = [f"{type(exc).__name__}: {exc}"]
                traceback.print_exc()
            result.durations.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.close(span)
                tracer.op_id = -1
            pass_ops.append(index)
            if problems:
                result.failed.add(index)
                result.problems.extend((index, p) for p in problems)
        for p in workload.end_pass():
            result.failed.update(pass_ops)
            result.problems.append((pass_ops[-1], p))
        result.passes += 1
        result.elapsed = time.perf_counter() - started
        if result.elapsed >= seconds:
            return result
