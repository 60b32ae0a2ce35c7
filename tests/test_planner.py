import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys

import pytest

from pentestplan import planner as planner_module
from pentestplan.bench import (
    BenchmarkParams,
    build_global_pomdp,
    generate_benchmark,
    random_scenario,
    worked_example_scenario,
)
from pentestplan.netmodel import EMPTY_FIREWALL, Firewall, LogicalNetwork, Machine
from pentestplan.planner import (
    ComponentSizeError,
    DecompositionPlanner,
    biconnected_components,
    decompose,
    plan_attack,
)
from pentestplan.pomdp import build_machine_pomdp
from pentestplan.report import plan_to_yaml
from pentestplan.scenario import emit_scenario, load_document, scenario_from_dict
from pentestplan.solver import solve


def complete_digraph(k):
    """The worked example's scenario document on a complete digraph of ``k`` subnetworks.

    The foothold's subnetwork is one of them; each other holds one machine,
    and only the last one's is rewarded.
    """
    doc = load_document(emit_scenario(worked_example_scenario()))
    names = ["foothold", *[f"n{i}" for i in range(1, k)]]
    doc["subnetworks"] = names
    doc["machines"] = [{"id": "attacker", "reward": 0.0, "subnetwork": "foothold"}] + [
        {"id": f"m{i}", "reward": 100.0 * (i == k - 1), "subnetwork": f"n{i}",
         "template": "last_pentest"}
        for i in range(1, k)
    ]
    doc["arcs"] = [{"blocked_ports": [], "from": a, "to": b} for a in names for b in names if a != b]
    return doc


def star(order):
    """The worked example's template on a star listed in ``order``: start -> h, h -> a and h -> b.

    h's machine is unrewarded, a's is worth 1000 and b's 500.
    """
    doc = load_document(emit_scenario(worked_example_scenario()))
    doc["start"], doc["subnetworks"] = "start", list(order)
    doc["machines"] = [{"id": "attacker", "reward": 0.0, "subnetwork": "start"}] + [
        {"id": f"m_{n}", "reward": reward, "subnetwork": n, "template": "last_pentest"}
        for n, reward in (("h", 0.0), ("a", 1000.0), ("b", 500.0))
    ]
    doc["arcs"] = [
        {"blocked_ports": [], "from": a, "to": b} for a, b in (("start", "h"), ("h", "a"), ("h", "b"))
    ]
    return doc


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


def biconnected_decomposition(nodes, edges):
    """The whole graph's biconnected components and cut vertices, by ``biconnected_components``.

    The search runs from each node not yet reached, in node order and then
    edge-endpoint order (networkx's order).  A head other than the root is
    a cut vertex, and so is a root that heads two or more components.
    """
    components, cuts, reached = [], set(), set()
    for root in [*nodes, *(n for edge in edges for n in edge)]:
        if root in reached:
            continue
        reached.add(root)
        found = biconnected_components(edges, root)
        for head, members in found:
            reached.update(members)
            components.append(frozenset((head, *members)))
        heads = [head for head, _ in found]
        cuts.update(head for head in heads if head != root)
        if heads.count(root) > 1:
            cuts.add(root)
    return components, cuts


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


def component_of(tree, subnetwork):
    """Index of the one component of ``tree`` that holds ``subnetwork``."""
    (index,) = [i for i, comp in enumerate(tree.components) if subnetwork in comp]
    return index


class TestDecompose:
    def test_chain_network(self):
        net = network(["s0", "s1", "s2"], [("s0", "s1"), ("s1", "s2")])
        tree = decompose(net)
        assert tree.components[0] == frozenset({"s0"})
        assert tree.parent[0] is None
        assert frozenset({"s1"}) in tree.components
        assert frozenset({"s2"}) in tree.components
        assert tree.parent[component_of(tree, "s1")] == "s0"
        assert tree.parent[component_of(tree, "s2")] == "s1"

    def test_cycle_stays_one_component(self):
        net = network(
            ["s0", "a", "b", "c"],
            [("s0", "a"), ("a", "b"), ("b", "c"), ("c", "a")],
        )
        tree = decompose(net)
        # the cut vertex a goes to the component closest to the root; the
        # rest of the cycle stays together, entered from a
        assert component_of(tree, "b") == component_of(tree, "c")
        assert tree.parent[component_of(tree, "b")] == "a"
        assert tree.parent[component_of(tree, "a")] == "s0"

    def test_unreachable_subnetworks_pruned(self):
        net = network(
            ["s0", "a", "b"],
            [("s0", "a"), ("b", "a")],  # b only points inward, never reached
        )
        tree = decompose(net)
        assert set(net.subnetworks) - set().union(*tree.components) == {"b"}
        assert all("b" not in comp for comp in tree.components)

    def test_cross_component_arcs_removed(self):
        # a->b is the entry arc for b's component; the shortcut s0->b is not
        net = network(
            ["s0", "a", "b"],
            [("s0", "a"), ("a", "b"), ("s0", "b")],
        )
        tree = decompose(net)
        kept = {(tree.parent[i], dst) for i, arcs in enumerate(tree.entry) for dst, _ in arcs}
        kept |= {(src, dst) for src, arcs in tree.inner.items() for dst, _ in arcs}
        if component_of(tree, "b") != component_of(tree, "a"):
            assert ("a", "b") in kept or ("s0", "b") in kept

    def test_cut_vertex_assigned_closest_to_root(self):
        net = network(
            ["s0", "a", "b", "c"],
            [("s0", "a"), ("a", "b"), ("b", "c")],
        )
        tree = decompose(net)
        # b is a cut vertex; it belongs to the component entered from a
        assert component_of(tree, "b") < component_of(tree, "c")


    def test_plan_does_not_depend_on_listing_order(self):
        # components are found from the foothold, not from the first listed subnetwork
        texts = {
            plan_to_yaml(plan_attack(scenario_from_dict(star(order))))
            for order in itertools.permutations(["start", "h", "a", "b"])
        }
        assert len(texts) == 1


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


    def test_matches_networkx(self):
        import random

        import networkx as nx

        for seed in range(1200):
            rng = random.Random(seed)
            nodes = [f"v{i}" for i in rng.sample(range(16), rng.randint(0, 12))]
            edges = [
                tuple(rng.choices(nodes, k=2)) for _ in range(rng.randint(0, 2 * len(nodes)))
            ] if nodes else []
            g = nx.Graph()
            g.add_nodes_from(nodes)
            g.add_edges_from(edges)
            comps, cuts = biconnected_decomposition(nodes, edges)
            assert comps == [frozenset(c) for c in nx.biconnected_components(g)], seed
            assert cuts == set(nx.articulation_points(g)), seed


def test_import_leaves_networkx_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = "import sys, pentestplan; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True, text=True, timeout=120,
    ).stdout
    assert out.strip() == "False"


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

    def test_entry_path_bound(self, monkeypatch):
        # into one vertex of a 7-vertex complete digraph: itself, and from each
        # of the other 6 through any ordered subset of the remaining 5
        spec = scenario_from_dict(complete_digraph(8))
        tree = decompose(spec.net)
        planner = DecompositionPlanner(spec)
        assert len(planner._entry_paths(1, tree, "n7")) == 1 + 6 * 326
        monkeypatch.setattr(planner_module, "MAX_ENTRY_PATHS", 1956)
        with pytest.raises(ComponentSizeError, match="more than 1956 simple entry paths to 'n7'"):
            planner._entry_paths(1, tree, "n7")

    def test_replaced_spec_plans_like_a_fresh_one(self):
        # dataclasses.replace must not carry over beliefs and models cached
        # for the original's elapsed days
        spec = random_scenario(9)
        assert plan_attack(spec).value == pytest.approx(888.766175, abs=1e-6)
        plan = plan_attack(dataclasses.replace(spec, elapsed_days=0))
        fresh = dataclasses.replace(random_scenario(9), elapsed_days=0)
        assert plan.value == 980.0
        assert plan_to_yaml(plan) == plan_to_yaml(plan_attack(fresh))

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
        assert (stats.solves, stats.cache_hits, stats.shortcut_zero_reward) == (62, 76, 134)

    def test_each_model_is_compiled_once_per_spec(self, monkeypatch):
        # plan_attack then build_global_pomdp on one spec: one compile per
        # (template, blocked ports), and the global model reuses the
        # planner's compiles through the empty firewall
        import pentestplan.planner as planner_module

        compiled = []

        def recording_build(machine, firewall, *args):
            compiled.append((machine.template, firewall.blocked_ports))
            return build_machine_pomdp(machine, firewall, *args)

        monkeypatch.setattr(planner_module, "build_machine_pomdp", recording_build)
        reused = 0
        for seed in range(60):
            spec = random_scenario(seed)
            compiled.clear()
            plan_attack(spec)
            planned = len(compiled)
            gp = build_global_pomdp(spec)
            assert len(compiled) == len(set(compiled))
            global_keys = {
                (spec.net.machine(mid).template, frozenset()) for mid in gp.machine_order
            }
            assert global_keys <= set(compiled)
            reused += len(global_keys) - (len(compiled) - planned)
        assert reused > 0

    def test_planners_on_one_spec_agree(self):
        # the second planner finds the first one's compiles on the spec
        makers = (
            lambda: random_scenario(15),
            lambda: random_scenario(38),
            lambda: generate_benchmark(BenchmarkParams(100, 100)),
        )
        for make_spec in makers:
            spec = make_spec()
            texts = [plan_to_yaml(DecompositionPlanner(spec).plan()) for _ in range(2)]
            assert texts[0] == texts[1] == plan_to_yaml(plan_attack(make_spec()))

    # random_scenario 15 and 215 are the seeds in 0..399 with both a component
    # of three or more subnetworks and a follow-up sibling attack
    @pytest.mark.parametrize(
        "make_spec, digest",
        [
            (
                lambda: generate_benchmark(BenchmarkParams(2000, 13)),
                "14fd8451943a026ee91cc82081b3dcc7a982d611ec203900aaa5dddc4b56eb3e",
            ),
            (
                lambda: generate_benchmark(BenchmarkParams(100, 100)),
                "396d67e03fe40ad77d0bc35aecb65addcb5b46d3114e6fbfb2a9b68ff60088eb",
            ),
            (
                lambda: random_scenario(15),
                "e001041b965ae1f4bf354766e80a00b6ceb414bad465269639362681b19bd2f0",
            ),
            (
                lambda: random_scenario(215),
                "1485a3b3f569eb9d45de4d63b373c78cba9bf4dd00c273fdebd241ecbcad9a9f",
            ),
        ],
        ids=["wide-2000x13", "benchmark-100x100", "random-15", "random-215"],
    )
    def test_plan_file_digest(self, make_spec, digest):
        text = plan_to_yaml(plan_attack(make_spec()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


PLAN_YAML = """
import sys
from pentestplan.bench import BenchmarkParams, generate_benchmark
from pentestplan.planner import plan_attack
from pentestplan.report import plan_to_yaml
sys.stdout.write(plan_to_yaml(plan_attack(generate_benchmark(BenchmarkParams(60, 13, seed=1)))))
"""


# random_scenario(49) has local states with two crashed programs, whose
# frozenset iterates in string-hash order; the numbering of the local and
# the global states must not follow it
GLOBAL_STATES = """
from pentestplan.bench import build_global_pomdp, random_scenario
from pentestplan.pomdp import CONTROLLED
from pentestplan.solver import solve
gp = build_global_pomdp(random_scenario(49))
def show(s):
    return s if s is CONTROLLED else (s.config, sorted(s.crashed))
for local in gp.local_states:
    print([show(s) for s in local])
for state in gp.pomdp.states:
    print([show(local[c]) for local, c in zip(gp.local_states, state)])
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
