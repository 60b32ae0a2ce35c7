import itertools
import os
import subprocess
import sys

import pytest

from pentestplan.bench import (
    BenchmarkParams,
    build_global_pomdp,
    generate_benchmark,
    random_scenario,
)
from pentestplan.netmodel import EMPTY_FIREWALL, Firewall, LogicalNetwork, Machine
from pentestplan.planner import (
    ComponentSizeError,
    DecompositionPlanner,
    biconnected_decomposition,
    decompose,
    plan_attack,
)
from pentestplan.solver import solve


def network(subnets, arcs, start="s0"):
    machines = {}
    for i, sn in enumerate(subnets):
        if sn == start:
            machines[sn] = (Machine("attacker", None, 0.0),)
        else:
            machines[sn] = (Machine(f"m_{sn}", None, 0.0),)
    return LogicalNetwork(
        subnetworks=machines,
        arcs={(a, b): EMPTY_FIREWALL for a, b in arcs},
        start=start,
    )


# --- independent biconnectivity oracle --------------------------------------


def oracle_cut_vertices(nodes, edges):
    """A vertex is a cut vertex iff deleting it increases the component count."""

    def component_count(ns, es):
        ns = set(ns)
        parent = {n: n for n in ns}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in es:
            if a in ns and b in ns:
                parent[find(a)] = find(b)
        return len({find(n) for n in ns})

    base = component_count(nodes, edges)
    cuts = set()
    for v in nodes:
        rest = [n for n in nodes if n != v]
        if not rest:
            continue
        kept = [(a, b) for a, b in edges if v not in (a, b)]
        # an isolated vertex drops the count by one; an articulation point
        # splits its own component, raising the count above the baseline
        if component_count(rest, kept) > base:
            cuts.add(v)
    return cuts


def oracle_components(nodes, edges):
    """Biconnected components by exhaustive simple-cycle enumeration.

    Two edges share a component iff some simple cycle contains both; the
    transitive closure of that relation partitions the edges, and a bridge
    stays in a class of its own.  Components are returned as vertex sets.
    """
    adjacency = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    order = {n: i for i, n in enumerate(sorted(nodes))}

    def norm(a, b):
        return (a, b) if order[a] < order[b] else (b, a)

    edge_list = sorted({norm(a, b) for a, b in edges})
    parent = {e: e for e in edge_list}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(e, f):
        parent[find(e)] = find(f)

    # enumerate each simple cycle once: smallest vertex first, one direction
    def extend(path, seen):
        start, last = path[0], path[-1]
        for w in sorted(adjacency[last], key=order.get):
            if w == start and len(path) >= 3 and order[path[1]] < order[last]:
                for i in range(len(path)):
                    union(norm(path[0], path[1]), norm(path[i], path[(i + 1) % len(path)]))
            elif w not in seen and order[w] > order[start]:
                path.append(w)
                seen.add(w)
                extend(path, seen)
                seen.discard(w)
                path.pop()

    for s in sorted(nodes, key=order.get):
        extend([s], {s})

    by_class = {}
    for e in edge_list:
        by_class.setdefault(find(e), set()).update(e)
    return [frozenset(vertices) for vertices in by_class.values()]


class TestBiconnectedDecomposition:
    def test_single_edge_is_its_own_component(self):
        comps, cuts = biconnected_decomposition(["a", "b"], [("a", "b")])
        assert comps == [frozenset({"a", "b"})]
        assert cuts == set()

    def test_path_graph_components_and_cuts(self):
        comps, cuts = biconnected_decomposition(
            ["a", "b", "c"], [("a", "b"), ("b", "c")]
        )
        assert sorted(comps, key=sorted) == [
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
        ]
        assert cuts == {"b"}

    def test_cycle_is_one_component(self):
        comps, cuts = biconnected_decomposition(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]
        )
        assert comps == [frozenset({"a", "b", "c"})]
        assert cuts == set()

    def test_two_cycles_sharing_a_vertex(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")]
        comps, cuts = biconnected_decomposition(list("abcde"), edges)
        assert sorted(comps, key=sorted) == [
            frozenset({"a", "b", "c"}),
            frozenset({"c", "d", "e"}),
        ]
        assert cuts == {"c"}


class TestDecompose:
    def test_chain_network(self):
        net = network(["s0", "s1", "s2"], [("s0", "s1"), ("s1", "s2")])
        tree = decompose(net)
        assert tree.components[0] == frozenset({"s0"})
        assert tree.parent[0] is None
        assert frozenset({"s1"}) in tree.components
        assert frozenset({"s2"}) in tree.components
        assert tree.parent[tree.component_of("s1")] == "s0"
        assert tree.parent[tree.component_of("s2")] == "s1"

    def test_cycle_stays_one_component(self):
        net = network(
            ["s0", "a", "b", "c"],
            [("s0", "a"), ("a", "b"), ("b", "c"), ("c", "a")],
        )
        tree = decompose(net)
        # the cut vertex a goes to the component closest to the root; the
        # rest of the cycle stays together, entered from a
        assert tree.component_of("b") == tree.component_of("c")
        assert tree.parent[tree.component_of("b")] == "a"
        assert tree.parent[tree.component_of("a")] == "s0"

    def test_unreachable_subnetworks_pruned(self):
        net = network(
            ["s0", "a", "b"],
            [("s0", "a"), ("b", "a")],  # b only points inward, never reached
        )
        tree = decompose(net)
        assert tree.pruned == {"b"}
        assert all("b" not in comp for comp in tree.components)

    def test_cross_component_arcs_removed(self):
        # a->b is the entry arc for b's component; the shortcut s0->b is not
        net = network(
            ["s0", "a", "b"],
            [("s0", "a"), ("a", "b"), ("s0", "b")],
        )
        tree = decompose(net)
        if tree.component_of("b") != tree.component_of("a"):
            assert ("a", "b") in tree.arcs or ("s0", "b") in tree.arcs

    def test_cut_vertex_assigned_closest_to_root(self):
        net = network(
            ["s0", "a", "b", "c"],
            [("s0", "a"), ("a", "b"), ("b", "c")],
        )
        tree = decompose(net)
        # b is a cut vertex; it belongs to the component entered from a
        assert tree.component_of("b") < tree.component_of("c")


class TestDecomposeAgainstOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        nodes = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.append((nodes[i], nodes[j]))
        comps, cuts = biconnected_decomposition(nodes, edges)
        assert cuts == oracle_cut_vertices(nodes, edges)
        assert sorted(map(sorted, comps)) == sorted(
            map(sorted, oracle_components(nodes, edges))
        )


class TestPlanning:
    def test_plan_value_matches_global_on_chain(self):
        spec = random_scenario(4, singleton_tree=True)
        plan = plan_attack(spec)
        global_value = solve(build_global_pomdp(spec).pomdp).value
        assert plan.value == pytest.approx(global_value, abs=1e-6)

    def test_plan_never_beats_global(self):
        for seed in (0, 1, 2, 3, 4):
            spec = random_scenario(seed)
            plan = plan_attack(spec)
            global_value = solve(build_global_pomdp(spec).pomdp).value
            assert plan.value <= global_value + 1e-6

    def test_zero_reward_network_plans_nothing(self):
        spec = random_scenario(0)
        planner = DecompositionPlanner(spec)
        for m in spec.net.machines():
            planner._rewards[m.id] = 0.0
        plan = planner.plan()
        assert plan.value == 0.0
        assert all(not comp.paths for comp in plan.components)

    def test_component_size_limit(self):
        # a 14-vertex cycle leaves a 13-subnetwork component after the cut
        # vertex moves out, above the default path-enumeration limit of 12
        names = ["s0"] + [f"c{i}" for i in range(14)]
        arcs = [("s0", "c0")]
        for i in range(14):
            arcs.append((f"c{i}", f"c{(i + 1) % 14}"))
        net = network(names, arcs)
        spec = random_scenario(0)
        planner = DecompositionPlanner(spec)
        tree = decompose(net)
        big = max(range(len(tree.components)), key=lambda i: len(tree.components[i]))
        assert len(tree.components[big]) == 13
        with pytest.raises(ComponentSizeError):
            planner.attack_component(
                big, tree, {n: 0.0 for c in tree.components for n in c}
            )

    def test_solve_cache_reused_across_identical_machines(self):
        spec = random_scenario(12)
        planner = DecompositionPlanner(spec)
        planner.plan()
        machines = [m for m in spec.net.machines() if m.template is not None]
        templates = {m.template for m in machines}
        if len(machines) > len(templates):
            assert planner.stats.cache_hits + planner.stats.shortcut_zero_reward > 0

    def test_stats_sum_solver_work(self, monkeypatch):
        import pentestplan.planner as planner_module

        solved = []

        def recording_solve(pomdp):
            result = solve(pomdp)
            solved.append(result.stats)
            return result

        monkeypatch.setattr(planner_module, "solve", recording_solve)
        plan = plan_attack(random_scenario(12))
        assert plan.stats.solves == len(solved) > 0
        assert plan.stats.solver_nodes == sum(s.nodes_expanded for s in solved) > 0
        assert plan.stats.solver_memo_hits == sum(s.cache_hits for s in solved)

    def test_stats_of_the_wide_benchmark(self):
        # one solve cache keyed by template; zero-reward attacks are
        # shortcut before the cache is consulted and never counted as hits
        stats = plan_attack(generate_benchmark(BenchmarkParams(2000, 13))).stats
        assert (stats.solves, stats.cache_hits, stats.shortcut_zero_reward) == (62, 314, 9912)


PLAN_YAML = """
import sys
from pentestplan.bench import BenchmarkParams, generate_benchmark
from pentestplan.planner import plan_attack
from pentestplan.report import plan_to_yaml
sys.stdout.write(plan_to_yaml(plan_attack(generate_benchmark(BenchmarkParams(60, 13, seed=1)))))
"""


# random_scenario(49) has local states with two crashed programs, whose
# frozenset iterates in string-hash order
GLOBAL_STATES = """
from pentestplan.bench import build_global_pomdp, random_scenario
from pentestplan.pomdp import CONTROLLED
from pentestplan.solver import solve
gp = build_global_pomdp(random_scenario(49))
for local in gp.local_states:
    print([s if s is CONTROLLED else (s.config, sorted(s.crashed)) for s in local])
print(solve(gp.pomdp).value.hex())
"""


def test_plan_file_does_not_depend_on_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for script in (PLAN_YAML, GLOBAL_STATES):
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, check=True, timeout=300,
                ).stdout
            )
        assert outputs[0] and outputs[0] == outputs[1]
