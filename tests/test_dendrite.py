import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrodyn.action import GeneratorSet, detect_recurrence, evaluate_word, word_ball
from dendrodyn.dendrite import (
    Dendrite,
    FiniteClosedSet,
    Subdendrite,
    _distances_at,
    _integer_lengths,
    _point,
    _sweep_to,
    hausdorff_distance,
    mesh,
    nearest_other_distances,
    set_distance,
    subdendrite_gates,
)
from dendrodyn.errors import (
    ChainingViolation,
    DendriteMismatch,
    DendrodynError,
    EmptyCover,
    EmptySet,
    EmptySubdendrite,
    InvalidDendrite,
    PointOffDendrite,
)
from dendrodyn.homeo import Homeo, apply
from dendrodyn.measure import TestFunction
from dendrodyn.util import point_key
from dendrodyn.zoo import gehman_dendrite, leaf_point, odometer_system

from conftest import (
    nx_metric_oracle,
    pl_maps,
    random_graphs,
    random_trees,
    tree_points,
    trees_with_points,
)
from oracles import (
    _distance_to_set,
    _point_to_set,
    degree,
    edge_between_oracle,
    graph_oracle,
    is_connected,
    metric_arc,
    metric_distance,
    metric_retract_point,
    nearest_other_oracle,
    node_degree_oracle,
    orientation_oracle,
    portion_graph,
    sample_points,
    swept_gates,
    union_connected,
    whole,
)

F = Fraction


def gehman_leaves(X, depth):
    return [v for v in X.vertices if v != "r" and len(v) == depth]


def arc_union_hull(X, points):
    """Reference hull: the union of the metric arcs from the first point to the others."""
    pts = sorted({X.check_point(p) for p in points}, key=point_key)
    base = pts[0]
    vertices = set()
    portions = {}
    if hasattr(base, "t"):
        portions[base.edge] = (base.t, base.t)
    else:
        vertices.add(base.vertex)
    for p in pts[1:]:
        arc = metric_arc(X, base, p)
        vertices.update(arc.vertices)
        for eid, (lo, hi) in arc.portions.items():
            cur = portions.get(eid)
            portions[eid] = (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))
    return Subdendrite._make(X, vertices, portions)


def double_sweep_diameter(sub):
    """Reference diameter: two farthest-node searches on the portion graph."""
    adj = portion_graph(sub)
    if len(adj) <= 1:
        return Fraction(0)

    def farthest(start):
        dist = {start: Fraction(0)}
        stack = [start]
        far, fard = start, Fraction(0)
        while stack:
            cur = stack.pop()
            for nxt, w in adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + w
                    if dist[nxt] > fard:
                        far, fard = nxt, dist[nxt]
                    stack.append(nxt)
        return far, fard

    a, _ = farthest(next(iter(sorted(adj))))
    return farthest(a)[1]


def scanned_point_to_set(X, dist, on_edge, p):
    """Reference point-to-set distance: every same-edge target is compared."""
    if not hasattr(p, "t"):
        return dist[p.vertex]
    e = X.edge(p.edge)
    cands = [abs(p.t - s) * e.weight for s in on_edge.get(p.edge, ())]
    if dist[e.u] is not None:
        cands.append(dist[e.u] + p.t * e.weight)
    if dist[e.v] is not None:
        cands.append(dist[e.v] + (1 - p.t) * e.weight)
    return min(cands)


class TestConstruction:
    def test_single_edge(self):
        X = Dendrite(["a", "b"], [("e", "a", "b")])
        assert X.edges[0].weight == F(1, 2)

    def test_loop_rejected(self):
        with pytest.raises(InvalidDendrite):
            Dendrite(["a"], [("e", "a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(InvalidDendrite):
            Dendrite(["a", "b", "c"],
                     [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidDendrite):
            Dendrite(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d")])

    def test_chaining_violation(self):
        # e2 attaches nowhere near e1
        with pytest.raises(ChainingViolation) as err:
            Dendrite(["a", "b", "c", "d"],
                     [("e1", "a", "b"), ("e2", "c", "d"), ("e3", "b", "c")])
        assert err.value.index == 2

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidDendrite):
            Dendrite(["a", "b"], [("e", "a", "b")], [0])

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Dendrite([], []), InvalidDendrite, "a dendrite needs at least one vertex"),
        (lambda: Dendrite(["a", "b"], [("e", "a", "b")], [1, 1]), InvalidDendrite,
         "custom weight list does not match edge count"),
        (lambda: Dendrite(["a", "b"], [("e", "a", "z")]), InvalidDendrite,
         "edge 'e' references unknown vertices"),
        (lambda: Dendrite(["a"], [("e", "a", "a")]), InvalidDendrite, "edge 'e' is a loop"),
        (lambda: Dendrite(["a", "b"], [("e", "a", "b")], [0]), InvalidDendrite,
         "edge 'e' has non-positive weight"),
        (lambda: Dendrite(["a", "b"], [("e", "a", "b")], ["-1/2"]), InvalidDendrite,
         "edge 'e' has non-positive weight"),
        (lambda: Dendrite(["a", "b", "c"], [("e", "a", "b"), ("e", "b", "c")]),
         InvalidDendrite, "duplicate edge ids"),
        (lambda: Dendrite(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"),
                                            ("e3", "c", "a")]),
         InvalidDendrite, "edge 'e3' creates a cycle"),
        (lambda: Dendrite(["a", "b", "c", "d"], [("e1", "c", "d"), ("e2", "a", "b"),
                                                 ("e3", "b", "a")]),
         InvalidDendrite, "edge 'e3' creates a cycle"),
        (lambda: Dendrite(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "b", "c"),
                                                 ("e3", "c", "a")]),
         InvalidDendrite, "edge 'e3' creates a cycle"),
        (lambda: Dendrite(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d")]),
         InvalidDendrite, "dendrite is not connected"),
        (lambda: Dendrite(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d"),
                                                 ("e3", "b", "c")]),
         ChainingViolation, "chaining violated at edge index 2"),
    ])
    def test_error_type_and_message(self, build, error, message):
        with pytest.raises(DendrodynError) as err:
            build()
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("vertices, edges, message", [
        (["a", "b", "c"], [("e1", "a", "b")], "dendrite is not connected"),
        ([0, "a", "b"], [("e", "a", "b")], "dendrite is not connected"),
        (["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")], "edge 'e2' creates a cycle"),
        (["a", "b", "c", "d", "e"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")],
         "edge 'e3' creates a cycle"),
        (["a", "b", "c", "d"], [("z1", "a", "b"), ("z2", "b", "a"),
                                ("a1", "c", "d"), ("a2", "d", "c")],
         "edge 'z2' creates a cycle"),
    ], ids=["isolated-vertex", "isolated-least-vertex", "parallel-edges",
            "cycle-and-too-few-edges", "first-cycle-in-enumeration-order"])
    def test_refusal_names_the_cycle_before_the_disconnection(self, vertices, edges, message):
        # a cycle is named whenever there is one, whatever the edge count;
        # the edge is the first in enumeration order, not in id order
        with pytest.raises(DendrodynError) as err:
            Dendrite(vertices, edges)
        assert type(err.value) is InvalidDendrite and str(err.value) == message

    def test_single_vertex_is_a_dendrite(self):
        X = Dendrite(["a"], [])
        a = X.vertex_point("a")
        assert X._order == ["a"] and X._parent == {"a": None} and degree(X, "a") == 0
        assert X.skeleton_points() == [a] and X.distance(a, a) == 0
        assert X.hull([a]) == whole(X) and whole(X).diameter() == 0


def assert_construction_matches_oracle(X):
    """The parent tables, degrees and edge lookups equal the sorted-scan construction."""
    expected = orientation_oracle(X)
    assert X._order == expected["_order"]
    for table in ("_parent", "_parent_edge", "_depth"):
        assert getattr(X, table) == expected[table], table
    assert {v: degree(X, v) for v in X.vertices} == expected["degree"]
    for a, b in itertools.product(X.vertices, repeat=2):
        try:
            edge = edge_between_oracle(X, a, b)
        except DendrodynError as err:
            with pytest.raises(DendrodynError, match=re.escape(str(err))):
                X.edge_between(a, b)
        else:
            assert X.edge_between(a, b) is edge


class TestOrientation:
    """The one-sort, adjacency-free construction against the per-vertex sorted BFS."""

    @settings(max_examples=200, deadline=None)
    @given(random_trees())
    def test_random_trees(self, X):
        assert_construction_matches_oracle(X)

    @settings(max_examples=600, deadline=None)
    @given(random_graphs())
    def test_random_graphs_with_mixed_ids(self, graph):
        vertices, edges, weights = graph
        cycle_edge, components = graph_oracle(vertices, edges)
        if cycle_edge is not None or components > 1:
            message = ("dendrite is not connected" if cycle_edge is None
                       else f"edge {cycle_edge!r} creates a cycle")
            with pytest.raises(DendrodynError) as err:
                Dendrite(vertices, edges, weights)
            assert type(err.value) is InvalidDendrite and str(err.value) == message
            return
        X = Dendrite(vertices, edges, weights)
        assert_construction_matches_oracle(X)
        for a, b in itertools.product(X.vertices, repeat=2):
            path = X.vertex_path(a, b)
            assert path[0] == a and path[-1] == b
            assert set(X.hull([X.vertex_point(a), X.vertex_point(b)]).vertices) == set(path)

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_gehman(self, depth):
        assert_construction_matches_oracle(gehman_dendrite(depth))

    def test_connected_tree_rooted_at_least_vertex(self):
        X = Dendrite([3, "a", 1, "b"], [("x", 3, "a"), (2, "a", 1), ("y", 1, "b")])
        assert X._order[0] == 1 and X._parent[1] is None


class TestEdgeBetween:
    def test_either_order(self, star3):
        e1 = star3.edge("e1")
        assert star3.edge_between("c", "l1") is e1 and star3.edge_between("l1", "c") is e1

    @pytest.mark.parametrize("a, b", [("zz", "c"), ("c", "zz"), ("zz", "zz")])
    def test_unknown_vertex_is_off_dendrite(self, star3, a, b):
        with pytest.raises(PointOffDendrite, match="unknown vertex 'zz'"):
            star3.edge_between(a, b)

    @pytest.mark.parametrize("a, b", [("l1", "l2"), ("l1", "l1")])
    def test_non_adjacent_pair(self, star3, a, b):
        with pytest.raises(DendrodynError) as err:
            star3.edge_between(a, b)
        assert type(err.value) is DendrodynError
        assert str(err.value) == f"no edge between {a!r} and {b!r}"


class TestArc:
    def test_degenerate(self, star3):
        v = star3.vertex_point("c")
        assert star3.arc(v, v).contains(v)

    def test_three_star_path(self, star3):
        arc = star3.arc(star3.vertex_point("l1"), star3.vertex_point("l2"))
        assert arc.vertices == frozenset({"l1", "c", "l2"})
        assert dict(arc.portions) == {"e1": (F(0), F(1)), "e2": (F(0), F(1))}

    def test_sibling_leaves_bruteforce(self):
        # brute force tree path between sibling leaves at depth 3
        X = gehman_dendrite(3)
        a, b = X.vertex_point("000"), X.vertex_point("001")
        arc = X.arc(a, b)
        assert arc.vertices == frozenset({"000", "001", "00"})
        assert set(dict(arc.portions)) == {"e000", "e001"}

    def test_interior_to_interior_same_edge(self, interval):
        arc = interval.arc(interval.point("e", F(1, 4)), interval.point("e", F(3, 4)))
        assert dict(arc.portions) == {"e": (F(1, 4), F(3, 4))}

    def test_interior_across_edges(self, star3):
        arc = star3.arc(star3.point("e1", F(1, 2)), star3.point("e2", F(1, 2)))
        assert dict(arc.portions) == {"e1": (F(0), F(1, 2)), "e2": (F(0), F(1, 2))}
        assert "c" in arc.vertices

    def test_interior_to_vertex_same_edge(self, interval):
        p = interval.point("e", F(1, 3))
        arc = interval.arc(p, interval.vertex_point("0"))
        assert dict(arc.portions) == {"e": (F(0), F(1, 3))}
        arc = interval.arc(p, interval.vertex_point("1"))
        assert dict(arc.portions) == {"e": (F(1, 3), F(1))}

    def test_unknown_edge_raises(self, star3):
        with pytest.raises(PointOffDendrite):
            star3.point("nope", F(1, 2))

    @settings(max_examples=150, deadline=None)
    @given(trees_with_points(count=3, max_edges=7))
    def test_matches_metric_arc(self, data):
        X, pts = data
        for x, y in itertools.product(pts, repeat=2):
            assert X.arc(x, y) == metric_arc(X, x, y)


class TestConvexHull:
    def test_singleton(self, star3):
        p = star3.vertex_point("l1")
        assert star3.hull([p]).contains(p)

    def test_pair_is_arc(self, star3):
        x, y = star3.vertex_point("l1"), star3.vertex_point("l3")
        assert star3.hull([x, y]) == metric_arc(star3, x, y)

    def test_depth2_leaves_fill_tree(self):
        X = gehman_dendrite(2)
        leaves = [X.vertex_point(v) for v in gehman_leaves(X, 2)]
        assert X.hull(FiniteClosedSet(X, leaves)) == whole(X)

    def test_empty_raises(self, star3):
        with pytest.raises(EmptySet):
            star3.hull([])

    @settings(max_examples=40, deadline=None)
    @given(trees_with_points(count=5, max_edges=6))
    def test_matches_pairwise_union(self, data):
        X, pts = data
        hull = X.hull(pts)
        acc_vertices = set()
        acc_portions = {}
        for x, y in itertools.combinations_with_replacement(pts, 2):
            arc = metric_arc(X, x, y)
            acc_vertices |= set(arc.vertices)
            for eid, (lo, hi) in arc.portions.items():
                cur = acc_portions.get(eid)
                acc_portions[eid] = (lo, hi) if cur is None else (
                    min(cur[0], lo), max(cur[1], hi))
        from dendrodyn.dendrite import Subdendrite
        assert hull == Subdendrite._make(X, acc_vertices, acc_portions)

    @settings(max_examples=150, deadline=None)
    @given(trees_with_points(count=5, max_edges=7))
    def test_matches_arc_union_oracle(self, data):
        X, pts = data
        for k in range(1, len(pts) + 1):
            assert X.hull(pts[:k]) == arc_union_hull(X, pts[:k])

    def test_gehman_subtree_and_edge_points(self):
        X = gehman_dendrite(4)
        cases = [
            [X.vertex_point("010"), X.vertex_point("011")],
            [X.point("e01", F(1, 3)), X.point("e010", F(1, 2))],
            [X.point("e01", F(1, 3)), X.point("e01", F(2, 3))],
            [X.point("e0", F(1, 2)), X.vertex_point("1101")],
            [X.vertex_point("r"), X.point("e0110", F(1, 4))],
        ]
        for pts in cases:
            assert X.hull(pts) == arc_union_hull(X, pts)

    @settings(max_examples=30, deadline=None)
    @given(trees_with_points(count=5, max_edges=6))
    def test_hull_is_connected(self, data):
        X, pts = data
        assert is_connected(X.hull(pts))

    @settings(max_examples=30, deadline=None)
    @given(trees_with_points(count=4, max_edges=6))
    def test_monotone(self, data):
        X, pts = data
        small = X.hull(pts[:2])
        large = X.hull(pts)
        assert union_connected(small, large) == large


class TestNodeDegrees:
    """One degree count serves the endpoint set and the tower's branch points."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_node_graph_oracle(self, data):
        # hulls of one point (a degenerate portion when it lies inside an
        # edge), of two (an arc) and of more, and the whole tree
        X = data.draw(random_trees(max_edges=8))
        count = data.draw(st.integers(0, 4))
        sub = X.hull([data.draw(tree_points(X)) for _ in range(count)]) if count else whole(X)
        expected = node_degree_oracle(sub)
        degrees = sub._degrees()
        assert {_point(n): d for n, d in degrees.items()} == expected
        assert sub.endpoint_set() == FiniteClosedSet(X, [p for p, d in expected.items() if d <= 1])
        assert ({v for v, d in degrees.items() if d >= 3}
                == {p.vertex for p, d in expected.items() if d >= 3})

    def test_point_inside_an_edge(self, star3):
        p = star3.point("e1", F(1, 3))
        sub = star3.hull([p])
        assert sub._degrees() == {p: 0}
        assert sub.endpoint_set() == FiniteClosedSet(star3, [p])


class TestRetract:
    def test_identity_on_member(self, star3):
        sub = star3.arc(star3.vertex_point("l1"), star3.vertex_point("c"))
        p = star3.point("e1", F(1, 3))
        assert subdendrite_gates(star3, sub, [p]) == [p]

    def test_branch_point_forced(self, star3):
        sub = star3.arc(star3.vertex_point("l1"), star3.vertex_point("c"))
        assert (subdendrite_gates(star3, sub, [star3.vertex_point("l2")])
                == [star3.vertex_point("c")])

    def test_gehman_leaf_to_level1_hull(self):
        # exhaustive nearest-point search oracle over skeleton samples
        X = gehman_dendrite(3)
        hull = X.hull([X.vertex_point("0"), X.vertex_point("1")])
        for leaf in gehman_leaves(X, 3):
            p = X.vertex_point(leaf)
            [got] = subdendrite_gates(X, hull, [p])
            best = min(sample_points(hull), key=lambda q: (X.distance(p, q), str(q)))
            assert X.distance(p, got) == X.distance(p, best)
            assert got == X.vertex_point(leaf[0])

    def test_empty_raises(self, star3):
        from dendrodyn.dendrite import Subdendrite
        empty = Subdendrite._make(star3, set(), {})
        with pytest.raises(EmptySubdendrite):
            subdendrite_gates(star3, empty, [star3.vertex_point("c")])

    @settings(max_examples=40, deadline=None)
    @given(trees_with_points(count=5, max_edges=6))
    def test_bulk_gates_agree_with_retract(self, data):
        X, pts = data
        sub = X.hull(pts[:2])
        queries = pts[2:]
        gates = subdendrite_gates(X, sub, queries)
        assert gates == [metric_retract_point(X, sub, q) for q in queries]

    @settings(max_examples=40, deadline=None)
    @given(trees_with_points(count=3, max_edges=6))
    def test_idempotent_and_fixes_target(self, data):
        X, pts = data
        sub = X.hull(pts[:2])
        x = pts[2]
        [r1] = subdendrite_gates(X, sub, [x])
        assert sub.contains(r1)
        assert subdendrite_gates(X, sub, [r1]) == [r1]


@st.composite
def hulls_with_queries(draw, queries=6):
    """A random tree, the hull of one to three of its points, and query points."""
    X = draw(random_trees())
    ends = [draw(tree_points(X)) for _ in range(draw(st.integers(1, 3)))]
    return X, X.hull(ends), [draw(tree_points(X)) for _ in range(queries)]


def odometer_tower(depth):
    """The odometer tree, its minimal set (one leaf orbit) and its tower of sub-trees."""
    from dendrodyn.action import detect_finite_orbit
    from dendrodyn.equicontinuity import build_tree_tower

    system = odometer_system(depth)
    X = system.dendrite
    m = detect_finite_orbit(system.generators, leaf_point(X, depth, 0), 2 ** depth + 1).orbit
    return X, m, build_tree_tower(system.generators, m, depth - 2)


class TestGates:
    @settings(max_examples=150, deadline=None)
    @given(hulls_with_queries())
    def test_match_metric_oracles(self, data):
        X, sub, queries = data
        gates = subdendrite_gates(X, sub, queries)
        assert gates == swept_gates(X, sub, queries)
        assert gates == [metric_retract_point(X, sub, q) for q in queries]

    @pytest.mark.parametrize("depth", range(4, 9))
    def test_match_metric_oracles_on_odometer_tower(self, depth):
        X, m, tower = odometer_tower(depth)
        points = list(m)
        for level in tower.levels:
            tree = X.hull(level.frontier)
            gates = subdendrite_gates(X, tree, points)
            assert gates == swept_gates(X, tree, points)
            assert gates == [metric_retract_point(X, tree, x) for x in points]

    @pytest.mark.parametrize("vertices, portions", [
        ({"l1", "l2"}, {}),
        (set(), {"e1": (F(1, 4), F(1, 2)), "e2": (F(1, 4), F(1, 4))}),
        ({"c"}, {"e1": (F(1, 2), F(1))}),
    ])
    def test_disconnected_sub_raises(self, star3, vertices, portions):
        sub = Subdendrite._make(star3, vertices, portions)
        with pytest.raises(DendrodynError):
            subdendrite_gates(star3, sub, [star3.vertex_point("l3")])


class TestWeightedMetric:
    def test_reflexive(self, star3):
        p = star3.point("e1", F(1, 3))
        assert star3.distance(p, p) == 0

    def test_half_weight_edge(self):
        X = Dendrite(["a", "b"], [("e", "a", "b")], [F(1, 2)])
        assert X.distance(X.vertex_point("a"), X.vertex_point("b")) == F(1, 2)

    def test_gehman_sibling_leaves_plain(self):
        X = gehman_dendrite(3, leaf_weight="level")
        d = X.distance(X.vertex_point("000"), X.vertex_point("001"))
        assert d == 2 * F(1, 8)

    def test_gehman_sibling_leaves_tail(self):
        X = gehman_dendrite(3, leaf_weight="tail")
        d = X.distance(X.vertex_point("000"), X.vertex_point("001"))
        assert d == 2 * F(1, 4)

    @settings(max_examples=50, deadline=None)
    @given(trees_with_points(count=2, max_edges=6))
    def test_against_graph_oracle(self, data):
        X, (a, b) = data
        assert X.distance(a, b) == nx_metric_oracle(X, a, b)

    @settings(max_examples=50, deadline=None)
    @given(trees_with_points(count=3, max_edges=6))
    def test_metric_axioms(self, data):
        X, (a, b, c) = data
        dab = X.distance(a, b)
        dba = X.distance(b, a)
        dac = X.distance(a, c)
        dcb = X.distance(c, b)
        assert dab >= 0
        assert dab == dba
        assert (dab == 0) == (a == b)
        assert dab <= dac + dcb

    @settings(max_examples=30, deadline=None)
    @given(trees_with_points(count=4, max_edges=6))
    def test_diameter_attained_at_endpoint_pairs(self, data):
        # dual route: double-sweep diameter vs the endpoint-pair supremum
        X, pts = data
        sub = X.hull(pts)
        ends = list(sub.endpoint_set())
        pairwise = max((X.distance(p, q) for p in ends for q in ends),
                       default=Fraction(0))
        assert sub.diameter() == pairwise

    @settings(max_examples=150, deadline=None)
    @given(trees_with_points(count=5, max_edges=7))
    def test_diameter_matches_double_sweep_oracle(self, data):
        X, pts = data
        hulls = [X.hull(pts[:3]), X.hull(pts[2:]), X.hull(pts)]
        subs = hulls + [union_connected(hulls[0], hulls[1])]  # they share pts[2]
        subs += [X.arc(p, q) for p, q in itertools.combinations(pts, 2)]
        for sub in subs:
            assert sub.diameter() == double_sweep_diameter(sub)

    @settings(max_examples=150, deadline=None)
    @given(trees_with_points(count=5, max_edges=7))
    def test_hull_is_canonical(self, data):
        X, pts = data
        hull = X.hull(pts)
        assert hull == Subdendrite._make(X, hull.vertices, hull.portions)

    def test_disconnected_diameter_is_the_largest_piece(self, star3):
        # a full edge, a stub below c on e2, and a lone segment on e3
        sub = Subdendrite._make(star3, {"c"}, {"e1": (0, 1), "e2": (0, F(1, 4)),
                                               "e3": (F(1, 8), F(7, 8))})
        assert sub.diameter() == F(5, 4)
        cut = Subdendrite._make(star3, {"c", "l1"}, {"e1": (F(1, 2), 1),
                                                     "e3": (F(1, 4), F(3, 4))})
        assert cut.diameter() == F(1, 2)

    def test_arc_length_equals_distance(self, star3):
        a = star3.point("e1", F(1, 4))
        b = star3.point("e3", F(2, 3))
        assert star3.arc(a, b).diameter() == star3.distance(a, b)


class TestArcLengthMetric:
    """``Dendrite.distance`` is the length of the arc; the LCA metric is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_lca_and_graph_oracles(self, data):
        X, pts = data.draw(trees_with_points(count=3, max_edges=7))
        e = data.draw(st.sampled_from(X.edges))
        s, t = (F(data.draw(st.integers(1, 15)), 16) for _ in range(2))
        pairs = [(p, q) for p in pts for q in pts]  # equal points included
        pairs.append((X.point(e.eid, s), X.point(e.eid, t)))  # a same-edge pair
        for p, q in pairs:
            d = X.distance(p, q)
            assert d == metric_distance(X, p, q) == nx_metric_oracle(X, p, q)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_vertex_path_is_the_arc(self, data):
        X = data.draw(random_trees())
        a, b = (data.draw(st.sampled_from(sorted(X.vertices))) for _ in range(2))
        path = X.vertex_path(a, b)
        assert path[0] == a and path[-1] == b and len(set(path)) == len(path)
        length = sum((X.edge_between(u, v).weight for u, v in zip(path, path[1:])), F(0))
        assert length == metric_distance(X, X.vertex_point(a), X.vertex_point(b))
        assert path == X.vertex_path(b, a)[::-1]


class TestPointToSet:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bisect_matches_linear_scan(self, data):
        # the integer kernel's bisection against a scan of every same-edge
        # target on the Fraction oracle's sweep
        X = data.draw(random_trees(max_edges=3))
        targets = data.draw(st.lists(tree_points(X), min_size=1, max_size=12))
        queries = data.draw(st.lists(tree_points(X), min_size=1, max_size=12))
        dist, on_edge = _distance_to_set(X, targets)
        scale, lengths, places = _integer_lengths(X, targets + queries)
        swept = _sweep_to(X, lengths, places[:len(targets)])
        got = _distances_at(X, lengths, swept, places[len(targets):])
        assert [F(d, scale) for d in got] == [scanned_point_to_set(X, dist, on_edge, p)
                                              for p in queries]


@st.composite
def shared_edge_points(draw, X, max_size=8):
    """Points of ``X``, about half of them on one shared edge (parameters k/16)."""
    e = draw(st.sampled_from(X.edges))
    on_e = [X.point(e.eid, F(k, 16)) for k in draw(st.lists(st.integers(0, 16), max_size=4))]
    return on_e + draw(st.lists(tree_points(X), min_size=1, max_size=max_size - len(on_e)))


def oracle_distance(X, targets, p):
    """The distance from ``p`` to ``targets`` by the Fraction oracle kernel."""
    return _point_to_set(X, *_distance_to_set(X, targets), X.check_point(p))


class TestIntegerKernel:
    """Every set-distance query against the Fraction sweep kept in ``oracles``."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hausdorff_and_set_distance(self, data):
        X = data.draw(random_trees(max_edges=5))
        A = FiniteClosedSet(X, data.draw(shared_edge_points(X)))
        B = FiniteClosedSet(X, data.draw(shared_edge_points(X)))
        directed = [max(oracle_distance(X, dst.points, p) for p in src.points)
                    for src, dst in ((A, B), (B, A))]
        assert hausdorff_distance(A, B) == max(directed)
        for p in A.points:
            assert set_distance(X, p, B) == oracle_distance(X, B.points, p)

    @settings(max_examples=200, deadline=None)
    @given(trees_with_points(count=1, max_edges=6))
    def test_distance_function_vertex_values(self, data):
        X, (p,) = data
        dist, _ = _distance_to_set(X, [p])
        assert TestFunction.distance_to(X, p).vertex_values == dist

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_recurrence_witness_distances(self, data):
        # each generator fixes every vertex and moves points along their own
        # edge by a PL map, so every image shares the base point's edge
        X = data.draw(random_trees(max_edges=4))
        gens = GeneratorSet(X, [
            (sym, Homeo(X, {v: v for v in X.vertices},
                        {e.eid: (e.eid, data.draw(pl_maps())) for e in X.edges}))
            for sym in ("f", "g")])
        x = X.point(data.draw(st.sampled_from(X.edges)).eid, F(data.draw(st.integers(1, 15)), 16))
        eps = F(data.draw(st.integers(1, 16)), 8)
        diag = detect_recurrence(gens, x, eps, 2)
        for wit in diag.witnesses:
            assert wit.distance == oracle_distance(X, [x], wit.image)
            assert 0 < wit.distance < eps
        images = ((w, apply(evaluate_word(w, gens), x)) for w in word_ball(gens, 2)[1:])
        near = {(w, q) for w, q in images if q != x and oracle_distance(X, [x], q) < eps}
        assert {(wit.word, wit.image) for wit in diag.witnesses} == near


class TestHausdorff:
    def test_identity(self, star3):
        A = FiniteClosedSet(star3, [star3.vertex_point("l1")])
        assert hausdorff_distance(A, A) == 0

    def test_unit_edge_endpoints(self, interval):
        A = FiniteClosedSet(interval, [interval.vertex_point("0")])
        B = FiniteClosedSet(interval, [interval.vertex_point("1")])
        assert hausdorff_distance(A, B) == 1

    def test_midpoint_half(self, interval):
        A = FiniteClosedSet(interval, [interval.vertex_point("0")])
        B = FiniteClosedSet(interval, [interval.vertex_point("0"),
                                       interval.point("e", F(1, 2))])
        assert hausdorff_distance(A, B) == F(1, 2)

    def test_empty_raises(self, star3):
        A = FiniteClosedSet(star3, [star3.vertex_point("l1")])
        with pytest.raises(EmptySet):
            hausdorff_distance(A, FiniteClosedSet(star3, []))

    @settings(max_examples=40, deadline=None)
    @given(trees_with_points(count=6, max_edges=5))
    def test_against_pairwise_oracle(self, data):
        X, pts = data
        A = FiniteClosedSet(X, pts[:3])
        B = FiniteClosedSet(X, pts[3:])

        def directed(src, dst):
            return max(min(X.distance(p, q) for q in dst) for p in src)

        assert hausdorff_distance(A, B) == max(directed(A, B), directed(B, A))

    @settings(max_examples=30, deadline=None)
    @given(trees_with_points(count=6, max_edges=5))
    def test_metric_axioms(self, data):
        X, pts = data
        A = FiniteClosedSet(X, pts[:2])
        B = FiniteClosedSet(X, pts[2:4])
        C = FiniteClosedSet(X, pts[4:])
        dab = hausdorff_distance(A, B)
        assert dab == hausdorff_distance(B, A)
        assert (dab == 0) == (A == B)
        assert dab <= hausdorff_distance(A, C) + hausdorff_distance(C, B)


class TestCrossDendrite:
    """Objects from two different dendrites are refused, not mixed."""

    def test_hausdorff_distance_rejects_other_dendrite(self):
        X2, X3 = gehman_dendrite(2), gehman_dendrite(3)
        A = FiniteClosedSet(X2, [X2.vertex_point("00")])
        B = FiniteClosedSet(X3, [X3.vertex_point("000")])
        with pytest.raises(DendriteMismatch):
            hausdorff_distance(A, B)

    def test_gates_reject_other_dendrite(self):
        X2, X3 = gehman_dendrite(2), gehman_dendrite(3)
        with pytest.raises(DendriteMismatch):
            subdendrite_gates(X2, whole(X3), [X2.vertex_point("00")])


class TestMesh:
    def test_singleton_cells(self, star3):
        cells = [star3.arc(p, p) for p in
                 [star3.vertex_point("l1"), star3.vertex_point("c")]]
        assert mesh(cells) == 0

    def test_whole_unit_edge(self, interval):
        assert mesh([whole(interval)]) == 1

    def test_gehman_level1_subtrees(self):
        # leaf-pair enumeration oracle, plain weights
        X = gehman_dendrite(4, leaf_weight="level")
        cells = []
        for side in "01":
            pts = [X.vertex_point(v) for v in X.vertices
                   if v != "r" and v[0] == side]
            cells.append(X.hull(pts))
        per_cell = 2 * (F(1, 4) + F(1, 8) + F(1, 16))
        leaves = gehman_leaves(X, 4)
        brute = max(X.distance(X.vertex_point(a), X.vertex_point(b))
                    for a in leaves for b in leaves if a[0] == b[0])
        assert brute == per_cell
        assert mesh(cells) == per_cell

    def test_empty_raises(self):
        with pytest.raises(EmptyCover):
            mesh([])


class TestNearestOther:
    @settings(max_examples=150, deadline=None)
    @given(trees_with_points(count=6, max_edges=7))
    def test_matches_per_point_set_distance(self, data):
        X, pts = data
        pts = list(FiniteClosedSet(X, pts))
        expected = []
        for p in pts:
            rest = FiniteClosedSet(X, [q for q in pts if q != p])
            expected.append(set_distance(X, p, rest) if len(rest) else None)
        assert nearest_other_distances(X, pts) == expected

    @settings(max_examples=200, deadline=None)
    @given(trees_with_points(count=6, max_edges=8), st.data())
    def test_integer_sweep_matches_fraction_oracle(self, data, draw):
        # in the given order, with repeats, on weights over 1, 2, 4 and 8
        X, pts = data
        pts = pts + [draw.draw(st.sampled_from(pts))]
        assert nearest_other_distances(X, pts) == nearest_other_oracle(X, pts)

    def test_gehman_leaves(self):
        X = gehman_dendrite(4)
        leaves = [X.vertex_point(v) for v in sorted(gehman_leaves(X, 4))]
        # sibling leaves hang off one depth-3 vertex by two 1/8 tail edges
        assert nearest_other_distances(X, leaves) == [F(1, 4)] * 16

    def test_lone_point(self, star3):
        assert nearest_other_distances(star3, [star3.point("e2", F(1, 3))]) == [None]


def ends_and_branches(X):
    """The vertices of degree 1 and those of degree at least 3."""
    return ({v for v in X.vertices if degree(X, v) == 1},
            {v for v in X.vertices if degree(X, v) >= 3})


class TestBoundary:
    def test_single_edge(self, interval):
        ends, branches = ends_and_branches(interval)
        assert len(ends) == 2 and len(branches) == 0

    def test_three_star(self, star3):
        assert ends_and_branches(star3) == ({"l1", "l2", "l3"}, {"c"})

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_gehman_counts(self, depth):
        # count by level: the root has degree 2, so it is in neither class
        X = gehman_dendrite(depth)
        ends, branches = ends_and_branches(X)
        assert len(ends) == 2 ** depth
        assert len(branches) == 2 ** depth - 2


class TestArcDecomposition:
    """The edges in their chained enumeration, as (edge id, weight) pairs."""

    def test_single_edge_default(self):
        X = Dendrite(["a", "b"], [("e1", "a", "b")])
        assert [(e.eid, e.weight) for e in X.edges] == [("e1", F(1, 2))]

    def test_two_edge_path_default(self):
        X = Dendrite(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        assert [(e.eid, e.weight) for e in X.edges] == [("e1", F(1, 2)), ("e2", F(1, 4))]

    def test_gehman_shape_with_dyadic_rule(self):
        # depth-2 shape under the default rule: six dyadic weights in BFS order
        X = gehman_dendrite(2)
        shaped = Dendrite(sorted(X.vertices, key=str),
                          [(e.eid, e.u, e.v, e.level) for e in X.edges],
                          "dyadic")
        weights = [e.weight for e in shaped.edges]
        assert weights == [F(1, 2 ** i) for i in range(1, 7)]
        assert all(a > b for a, b in zip(weights, weights[1:]))


class TestIntegerVertexIds:
    def test_construction_and_metric(self):
        X = Dendrite([1, 2, 3], [(10, 1, 2), (11, 2, 3)], [1, 1])
        assert X.distance(X.vertex_point(1), X.vertex_point(3)) == 2
        assert ends_and_branches(X) == ({1, 3}, set())

    def test_serialization_round_trip(self):
        from dendrodyn import serialization as ser
        X = Dendrite([1, 2], [(7, 1, 2)], [F(1, 3)])
        back = ser.dendrite_from_json(ser.dendrite_to_json(X))
        assert back.same_space(X)
        p = ser.point_from_json({"edge": 7, "t": "1/2"}, back)
        assert p == back.point(7, F(1, 2))


class TestMeasureMetricIdentity:
    def test_arc_mass_matches_metric(self):
        from dendrodyn.measure import canonical_measure
        X = Dendrite(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        mu = canonical_measure(X)
        import random
        rng = random.Random(7)
        pts = X.skeleton_points()
        for _ in range(20):
            a, b = rng.choice(pts), rng.choice(pts)
            assert mu.arc_mass(a, b) == X.distance(a, b) / mu.norm
