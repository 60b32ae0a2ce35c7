"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record.py [plan] [wide] [grid] [exact] [pool]

Repeats the computation of each op of the named workloads (all four by
default; keep the ``record_*`` functions in step with ``workloads.py``) on
every input of the recorded pools and writes the outputs into
``references.json``, keeping the sections it was not asked to redo.  Run it only on a commit
whose outputs are known to be right: the benchmark then treats any
difference as a wrong answer.

The ``exact`` section also fixes the pool the ``exact-small`` scenario
sets are drawn from, using the op cost it measures here: scenarios whose
exact solve takes longer than ``EXACT_SOLVE_LIMIT_S`` are left out, so
that a pass fits in a run.  ``pool`` re-derives only that pool from the
recorded outputs.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from pentestplan import bench, planner, report, scenario, sim, solver  # noqa: E402

import workloads  # noqa: E402

PLAN_SEEDS = list(range(8))
WIDE_SEEDS = list(range(16))
GRID_SEEDS = list(range(8))
EXACT_SEEDS = range(400)
EXACT_SOLVE_LIMIT_S = 6.0
EXACT_LIGHT_LIMIT_S = 0.06
# Every exact-small set holds the fixed scenarios: 240 and 55 have over
# 1,000 global states (240 also 1,969 belief nodes) and 365 has 1,600
# belief nodes; these three carry most of the solver work.  The other
# fourteen took 0.11-0.17 s, twice the cost of any light scenario, so with
# ten ops per pass beyond it the tail percentile falls in the middle of
# these fourteen for every seed.
EXACT_FIXED = [240, 55, 365, 114, 15, 147, 287, 119, 139, 10, 13, 125, 219, 4, 51, 223, 226]


def record_plan(seed):
    spec = bench.generate_benchmark(bench.BenchmarkParams(100, 100, 50, seed))
    plan = planner.plan_attack(scenario.parse_scenario(scenario.emit_scenario(spec)))
    return {"value": plan.value, "digest": workloads.plan_digest(plan)}


def record_wide(seed):
    spec = bench.generate_benchmark(bench.BenchmarkParams(2000, 13, 50, seed))
    spec = scenario.parse_scenario(scenario.emit_scenario(spec))
    plan = planner.plan_attack(spec)
    loaded = report.plan_from_yaml(report.plan_to_yaml(plan), spec.actions)
    mean, stderr = sim.monte_carlo(spec, loaded, workloads.WIDE_ROLLOUTS, seed)
    return {
        "value": plan.value,
        "digest": workloads.plan_digest(plan),
        "mc_mean": mean,
        "mc_stderr": stderr,
    }


GRID_FIELDS = (
    "decomposed_value",
    "decomposed_mean",
    "decomposed_stderr",
    "global_value",
    "global_mean",
    "global_stderr",
    "gap_percent",
)


def record_grid(seed):
    cells = {}
    for m in workloads.GRID_MACHINES:
        for x in workloads.GRID_EXPLOITS:
            (cell,) = bench.run_experiment(
                "both", [m], [x], repetitions=workloads.GRID_REPETITIONS, seed=seed
            )
            cells[f"{m}x{x}/{seed}"] = {f: getattr(cell, f) for f in GRID_FIELDS}
    return cells


class _SolveTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _SolveTimeout()


def record_exact(seed):
    """Outputs, counts and op cost of one scenario; exact value if solvable."""
    text = scenario.emit_scenario(bench.random_scenario(seed))
    started = time.perf_counter()
    spec = scenario.parse_scenario(text)
    plan = planner.plan_attack(spec)
    gp = bench.build_global_pomdp(spec)
    entry = {
        "value": plan.value,
        "digest": workloads.plan_digest(plan),
        "global_states": len(gp.pomdp.states),
        "b0_support": len(gp.pomdp.b0),
    }
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, EXACT_SOLVE_LIMIT_S)
    try:
        exact = solver.solve(gp.pomdp)
    except _SolveTimeout:
        return entry
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    entry.update(
        {
            "exact_value": exact.value,
            "belief_nodes": exact.stats.nodes_expanded,
            "memo_hits": exact.stats.cache_hits,
            "cost_s": time.perf_counter() - started,
        }
    )
    return entry


def exact_section():
    outputs = {}
    for seed in EXACT_SEEDS:
        outputs[str(seed)] = record_exact(seed)
        print("exact", seed, outputs[str(seed)], flush=True)
    return {"pool": exact_pool(outputs), "outputs": outputs}


def exact_pool(outputs):
    """The fixed scenarios and the cost-sorted light pool."""
    for s in EXACT_FIXED:
        if "exact_value" not in outputs[str(s)]:
            raise SystemExit(f"scenario {s} is not solvable within the limit")
    light = sorted(
        (e["cost_s"], int(s))
        for s, e in outputs.items()
        if "exact_value" in e and int(s) not in EXACT_FIXED and e["cost_s"] < EXACT_LIGHT_LIMIT_S
    )
    return {
        "fixed": EXACT_FIXED,
        "light": [s for _, s in light],
        "solve_limit_s": EXACT_SOLVE_LIMIT_S,
        "light_limit_s": EXACT_LIGHT_LIMIT_S,
    }


def seeded_section(seeds, record_one, name):
    outputs = {}
    for seed in seeds:
        recorded = record_one(seed)
        print(name, seed, flush=True)
        if name == "grid":
            outputs.update(recorded)
        else:
            outputs[str(seed)] = recorded
    return {"seeds": list(seeds), "outputs": outputs}


def main(argv):
    sections = argv or ["plan", "wide", "grid", "exact"]
    path = workloads.REFERENCES
    refs = workloads.load_references(path) if os.path.exists(path) else {}
    makers = {
        "plan": lambda: seeded_section(PLAN_SEEDS, record_plan, "plan"),
        "wide": lambda: seeded_section(WIDE_SEEDS, record_wide, "wide"),
        "grid": lambda: seeded_section(GRID_SEEDS, record_grid, "grid"),
        "exact": exact_section,
        # only re-derive the exact-small pool from the recorded outputs
        "pool": lambda: dict(refs["exact"], pool=exact_pool(refs["exact"]["outputs"])),
    }
    for name in sections:
        section = makers[name]()
        # re-read so that a recorder running in parallel keeps its sections
        refs = workloads.load_references(path) if os.path.exists(path) else {}
        refs["exact" if name == "pool" else name] = section
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
