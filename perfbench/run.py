"""Benchmark of pentestplan on four fixed workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own process (``--workload all``, the
default, starts one per workload in turn).  An untraced run prints every
end-to-end metric with its unit; ``--trace 1`` instead wraps the package's
layer boundaries and prints the per-layer metrics, the tracing overhead
and, for ``exact-small``, a per-scenario solver table.  The last line of
the output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records (and the spans of a traced run)
are written to ``perfbench/results/``.
"""

import os
import sys
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# BENCHMARK.json lists only exact-small and wide-2000x13: on a shared host
# only runs of about a minute are steady, and the time budget of the whole
# benchmark leaves room for that with two workloads (see README.md)
WORKLOAD_NAMES = ("plan-100x100", "exact-small", "grid-mc", "wide-2000x13")
# belief construction calls np.linalg.matrix_power, so BLAS gets one thread;
# a fixed string-hash seed makes set order and dict layout inside the
# planner the same in every run
PROCESS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_REPEATS = 3
DEFAULT_SECONDS = 50
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(durations, per_pass):
    """(percentile, value, ops beyond): the highest percentile with ten ops beyond it.

    When a pass holds more than ten ops, the ten are counted in one pass,
    so the percentile stays the same however many passes a run makes.
    Otherwise they are counted over the whole run, and a run of ten ops or
    fewer reports its slowest op, as the 100th percentile with none beyond.
    """
    ordered = sorted(durations)
    n = len(ordered)
    basis = per_pass if per_pass > TAIL_BEYOND else n
    if basis <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    share = (basis - TAIL_BEYOND) / basis
    k = math.ceil(share * n - 1e-9) - 1
    return 100.0 * share, ordered[k], n - k - 1


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import networkx
    import numpy
    import yaml

    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "process_env": {k: os.environ.get(k) for k in PROCESS_ENV},
        "loadavg_start": os.getloadavg(),
    }


def print_metrics(workload: str, metrics: dict, notes: dict):
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:14s} {name:26s} {entry['value']:14.6g} {entry['unit']}{note}")


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "pentestplan", "__init__.py")):
        print(f"error: no pentestplan package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pentestplan  # noqa: F401

    import spans
    import workloads

    import_s = time.perf_counter() - STARTED
    env = environment()
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload](workloads.load_references())
    tracer = spans.Tracer() if args.trace else None

    if tracer is not None:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - t)
    if tracer is not None:
        tracer.uninstall()

    notes = {}
    if tracer is None:
        loop = workloads.closed_loop(workload, args.seconds)
        pct, tail_value, beyond = tail(loop.durations, len(workload.items))
        notes["op_tail_s"] = f"p{pct:.1f} of {loop.attempted} ops, {beyond} beyond"
        notes["op_p50_s"] = f"{loop.attempted} ops in {loop.passes} passes"
        values = {
            "throughput_ops_s": (loop.attempted / loop.elapsed, "1/s"),
            "op_p50_s": (statistics.median(loop.durations), "s"),
            "op_tail_s": (tail_value, "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        loops = [loop]
    else:
        # one untimed pass first: the first pass in a process runs slower
        # (page faults, first calls), which would bias the overhead figure
        warm_up = workloads.closed_loop(workload, 0)
        untraced = workloads.closed_loop(workload, args.seconds / 2)
        tracer.install()
        if isinstance(workload, workloads.ExactWorkload):
            workload.record_table = True
        traced = workloads.closed_loop(workload, args.seconds / 2, tracer)
        tracer.uninstall()
        values = spans.per_layer_metrics(
            tracer, range(traced.attempted), statistics.fmean(untraced.durations)
        )
        values.update(spans.setup_metrics(tracer, SETUP_REPEATS))
        values["setup.import_s"] = (import_s, "s")
        loops = [warm_up, untraced, traced]

    metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(len(loop.failed) for loop in loops)
    env["loadavg_end"] = os.getloadavg()

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "env": env,
        "metrics": metrics,
        "op_durations": [loop.durations for loop in loops],
        "problems": [p for loop in loops for p in loop.problems],
    }
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
        if isinstance(workload, workloads.ExactWorkload):
            record["solver_table"] = workload.table
            print_solver_table(workload.table)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for index, problem in record["problems"][:20]:
        print(f"op {index} failed: {problem}")
    print("env " + json.dumps(env))
    print_metrics(args.workload, metrics, notes)
    print(f"{args.workload:14s} {'failed_ratio':26s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_solver_table(rows):
    seen = set()
    print("scenario  global_states  b0_support  belief_nodes  memo_hits  us_per_node")
    for row in sorted(rows, key=lambda r: (r["global_states"], r["scenario"])):
        if row["scenario"] in seen:
            continue
        seen.add(row["scenario"])
        print(
            f"{row['scenario']:8d}  {row['global_states']:13d}  {row['b0_support']:10d}  "
            f"{row['belief_nodes']:12d}  {row['memo_hits']:9d}  {row['us_per_node']:11.1f}"
        )


def run_all(args) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        # the hash seed is read at interpreter start: restart in place with it
        os.environ.update(PROCESS_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
