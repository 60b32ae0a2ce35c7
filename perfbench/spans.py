"""Spans and counters recorded around pentestplan's layer boundaries.

The tracer replaces public functions of the package with wrappers, under
the name their callers look them up by (a module attribute).  Each call
records a span (name, start, end, parent span, op id) into flat arrays and
bumps counters derived from its arguments and result.  Nothing inside the
package changes; uninstalling restores the original functions.

A layer's self time is the duration of its spans minus the time covered by
their direct children, so the self times of all layers plus the harness's
own time add up to the op wall time.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

from pentestplan.pomdp import TERMINATE

LAYERS = ("scenario", "belief", "pomdp", "solver", "planner", "bench", "sim", "report")
HARNESS = "harness"


def _count_parse(c, args, kwargs, result):
    c["scenario.parses"] += 1
    c["scenario.input_bytes"] += len(args[0] if args else kwargs["text"])


def _count_belief(c, args, kwargs, result):
    c["belief.beliefs_built"] += 1
    c["belief.support_total"] += len(result)


def _count_compile(c, args, kwargs, result):
    actions = args[4] if len(args) > 4 else kwargs["actions"]
    c["pomdp.compiles"] += 1
    c["pomdp.states"] += len(result.states)
    c["pomdp.actions_offered"] += sum(1 for a in actions if a.kind != TERMINATE)
    c["pomdp.actions_kept"] += sum(1 for a in result.actions if a.kind != TERMINATE)


def _count_solve(c, args, kwargs, result):
    c["solver.solves"] += 1
    c["solver.nodes"] += result.stats.nodes_expanded
    c["solver.memo_hits"] += result.stats.cache_hits


def _count_plan(c, args, kwargs, result):
    c["planner.plans"] += 1
    c["planner.components"] += len(result.components)
    c["planner.machine_solves"] += result.stats.solves
    c["planner.cache_hits"] += result.stats.cache_hits


def _count_generate(c, args, kwargs, result):
    c["bench.generated"] += 1


def _count_global(c, args, kwargs, result):
    c["bench.global_builds"] += 1
    c["bench.global_states"] += len(result.pomdp.states)


def _count_rollout(c, args, kwargs, result):
    c["sim.rollouts"] += 1
    c["sim.steps"] += len(result.steps)


def _count_dump(c, args, kwargs, result):
    c["report.dumps"] += 1
    c["report.plan_bytes"] += len(result)


# (module, attribute, span name, counter) for every wrapped lookup site
WRAPPED = (
    ("pentestplan.scenario", "parse_scenario", "scenario.parse", _count_parse),
    ("pentestplan.scenario", "emit_scenario", "scenario.emit", None),
    ("pentestplan.scenario", "initial_belief", "belief.build", _count_belief),
    ("pentestplan.planner", "plan_attack", "planner.plan", _count_plan),
    ("pentestplan.planner", "decompose", "planner.decompose", None),
    ("pentestplan.planner", "build_machine_pomdp", "pomdp.compile", _count_compile),
    ("pentestplan.planner", "solve", "solver.solve", _count_solve),
    ("pentestplan.solver", "solve", "solver.solve", _count_solve),
    ("pentestplan.bench", "generate_benchmark", "bench.generate", _count_generate),
    ("pentestplan.bench", "random_scenario", "bench.generate", _count_generate),
    ("pentestplan.bench", "run_experiment", "bench.experiment", None),
    ("pentestplan.bench", "plan_attack", "planner.plan", _count_plan),
    ("pentestplan.bench", "build_global_pomdp", "bench.global_build", _count_global),
    ("pentestplan.bench", "solve", "solver.solve", _count_solve),
    ("pentestplan.bench", "monte_carlo", "sim.mc", None),
    ("pentestplan.bench", "sample_ground_truth", "sim.sample", None),
    ("pentestplan.bench", "rollout_pomdp", "sim.rollout", _count_rollout),
    ("pentestplan.sim", "monte_carlo", "sim.mc", None),
    ("pentestplan.sim", "sample_ground_truth", "sim.sample", None),
    ("pentestplan.sim", "rollout", "sim.rollout", _count_rollout),
    ("pentestplan.report", "plan_to_yaml", "report.dump", _count_dump),
    ("pentestplan.report", "plan_from_yaml", "report.load", None),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1  # -1 while setting up, else the index of the running op
        # counters[op id] -> {counter: value}; op id -1 is set-up
        self.counters = defaultdict(lambda: defaultdict(int))
        self._originals = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer.counters[tracer.op_id], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_times(tracer: Tracer, ops) -> tuple:
    """Per-name inclusive time and per-layer self time over spans of ``ops``."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    selected = np.isin(a["op"], np.asarray(list(ops), dtype=np.int32))
    inclusive, self_time = defaultdict(float), defaultdict(float)
    for nid, name in enumerate(tracer.names):
        mask = selected & (a["name"] == nid)
        if not mask.any():
            continue
        inclusive[name] = float(dur[mask].sum())
        self_time[layer_of(name)] += float((dur[mask] - child[mask]).sum())
    return inclusive, self_time


def per_layer_metrics(tracer: Tracer, ops, untraced_op_s: float) -> dict:
    """Per-op means of every per-layer metric over the traced ``ops``."""
    ops = list(ops)
    n = max(len(ops), 1)
    inclusive, self_time = span_times(tracer, ops)
    c = defaultdict(int)
    for op_id in ops:
        for key, value in tracer.counters.get(op_id, {}).items():
            c[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS + (HARNESS,):
        m[f"{layer}.self_s"] = (self_time[layer], "s")
    m["trace.op_s"] = (inclusive["harness.op"], "s")
    m.update(
        {
            "scenario.parse_s": (inclusive["scenario.parse"], "s"),
            "scenario.parses": (c["scenario.parses"], "count"),
            "scenario.input_kb": (c["scenario.input_bytes"] / 1024.0, "KiB"),
            "belief.build_s": (inclusive["belief.build"], "s"),
            "belief.beliefs_built": (c["belief.beliefs_built"], "count"),
            "pomdp.compile_s": (inclusive["pomdp.compile"], "s"),
            "pomdp.compiles": (c["pomdp.compiles"], "count"),
            "solver.solve_s": (inclusive["solver.solve"], "s"),
            "solver.solves": (c["solver.solves"], "count"),
            "solver.nodes": (c["solver.nodes"], "count"),
            "solver.memo_hits": (c["solver.memo_hits"], "count"),
            "planner.plan_s": (inclusive["planner.plan"], "s"),
            "planner.decompose_s": (inclusive["planner.decompose"], "s"),
            "planner.components": (c["planner.components"], "count"),
            "planner.machine_solves": (c["planner.machine_solves"], "count"),
            "planner.cache_hits": (c["planner.cache_hits"], "count"),
            "bench.generate_s": (inclusive["bench.generate"], "s"),
            "bench.global_build_s": (inclusive["bench.global_build"], "s"),
            "sim.mc_s": (inclusive["sim.mc"], "s"),
            "sim.sample_s": (inclusive["sim.sample"], "s"),
            "sim.rollout_s": (inclusive["sim.rollout"], "s"),
            "sim.rollouts": (c["sim.rollouts"], "count"),
            "sim.steps": (c["sim.steps"], "count"),
            "report.dump_s": (inclusive["report.dump"], "s"),
            "report.load_s": (inclusive["report.load"], "s"),
        }
    )
    # everything above is a total over the traced ops; report per-op means
    m = {k: (v / n, unit) for k, (v, unit) in m.items()}
    # ratios and per-item means keep their own bases
    m.update(
        {
            "belief.support_mean": (
                ratio(c["belief.support_total"], c["belief.beliefs_built"]), "configs"
            ),
            "pomdp.states": (ratio(c["pomdp.states"], c["pomdp.compiles"]), "states"),
            "pomdp.actions_offered": (
                ratio(c["pomdp.actions_offered"], c["pomdp.compiles"]), "actions"
            ),
            "pomdp.actions_kept": (
                ratio(c["pomdp.actions_kept"], c["pomdp.compiles"]), "actions"
            ),
            "pomdp.kept_ratio": (
                ratio(c["pomdp.actions_kept"], c["pomdp.actions_offered"]), "ratio"
            ),
            "solver.memo_hit_ratio": (
                ratio(c["solver.memo_hits"], c["solver.memo_hits"] + c["solver.nodes"]),
                "ratio",
            ),
            "solver.us_per_node": (
                ratio(1e6 * inclusive["solver.solve"], c["solver.nodes"]), "us"
            ),
            "planner.self_s": (self_time["planner"] / n, "s"),
            "planner.cache_hit_ratio": (
                ratio(
                    c["planner.cache_hits"],
                    c["planner.cache_hits"] + c["planner.machine_solves"],
                ),
                "ratio",
            ),
            "bench.global_states": (
                ratio(c["bench.global_states"], c["bench.global_builds"]), "states"
            ),
            "sim.rollouts_per_s": (
                ratio(c["sim.rollouts"], inclusive["sim.sample"] + inclusive["sim.rollout"]),
                "1/s",
            ),
            "report.plan_kb": (ratio(c["report.plan_bytes"] / 1024.0, c["report.dumps"]), "KiB"),
            "trace.untraced_op_s": (untraced_op_s, "s"),
        }
    )
    traced_op_s = m["trace.op_s"][0]
    m["trace.overhead_ratio"] = (
        ratio(traced_op_s - untraced_op_s, untraced_op_s),
        "ratio",
    )
    return m


def setup_metrics(tracer: Tracer, repetitions: int) -> dict:
    """Per-repetition generator and emitter time spent in set-up (op id -1)."""
    inclusive, _ = span_times(tracer, [-1])
    n = max(repetitions, 1)
    return {
        "setup.generate_s": (inclusive["bench.generate"] / n, "s"),
        "setup.emit_s": (inclusive["scenario.emit"] / n, "s"),
    }
