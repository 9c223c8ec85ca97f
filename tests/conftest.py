import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dendrodyn.dendrite import Dendrite
from dendrodyn.measure import PLMeasure


@pytest.fixture(scope="session")
def star3():
    return Dendrite(["c", "l1", "l2", "l3"],
                    [("e1", "c", "l1"), ("e2", "c", "l2"), ("e3", "c", "l3")],
                    [1, 1, 1])


@pytest.fixture(scope="session")
def interval():
    from dendrodyn.zoo import unit_interval_dendrite
    return unit_interval_dendrite()


@pytest.fixture(scope="session")
def thompson():
    from dendrodyn.zoo import thompson_system
    return thompson_system()


@pytest.fixture(scope="session")
def odo3():
    from dendrodyn.zoo import odometer_system
    return odometer_system(3)


@pytest.fixture(scope="session")
def odo4():
    from dendrodyn.zoo import odometer_system
    return odometer_system(4)


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def random_trees(draw, max_edges=7, denominators=(1, 2, 4, 8)):
    """A random connected weighted tree with chained edge enumeration.

    Each edge is stored parent-to-child or child-to-parent at random, so
    storage orientation and root orientation disagree on some edges.  Edge
    weights are k/d with d drawn from ``denominators``.
    """
    n = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    weights = []
    for i in range(1, n + 1):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        ends = (f"v{parent}", f"v{i}")
        edges.append((f"e{i}",) + (ends[::-1] if draw(st.booleans()) else ends))
        num = draw(st.integers(min_value=1, max_value=8))
        den = draw(st.sampled_from(denominators))
        weights.append(Fraction(num, den))
    vertices = [f"v{k}" for k in range(n + 1)]
    return Dendrite(vertices, edges, weights)


@st.composite
def random_graphs(draw, max_edges=7, max_extra=2):
    """Raw ``(vertices, edges, weights)`` input for ``Dendrite``, with mixed int and str ids.

    Each new vertex hangs from an earlier one or starts a new component.  In
    about half the draws, up to ``max_extra`` further edges, each joining two
    vertices of one component, go in at random places of the enumeration.
    So some draws are trees, some are disconnected and some have cycles.
    Vertex and edge ids are ints or strings at random, drawn in a random
    order, so neither the least vertex nor the edge rank follows the
    enumeration; each edge is stored in a random orientation.
    """
    n = draw(st.integers(min_value=0, max_value=max_edges))
    labels = draw(st.permutations(range(n + 1)))
    vertices = [k if draw(st.booleans()) else f"v{k}" for k in labels]
    component = list(range(n + 1))
    pairs = []
    for i in range(1, n + 1):
        parent = draw(st.integers(min_value=-1, max_value=i - 1))
        if parent >= 0:  # otherwise vertex i starts a new component
            component[i] = component[parent]
            pairs.append((parent, i))
    extra = draw(st.integers(min_value=1, max_value=max_extra)) if draw(st.booleans()) else 0
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n))
        mates = [b for b in range(n + 1) if b != a and component[b] == component[a]]
        if mates:
            pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))),
                         (a, draw(st.sampled_from(mates))))
    edges = []
    for k, (a, b) in zip(draw(st.permutations(range(len(pairs)))), pairs):
        ends = (vertices[a], vertices[b])
        edges.append((k if draw(st.booleans()) else f"e{k}",)
                     + (ends[::-1] if draw(st.booleans()) else ends))
    weights = [Fraction(draw(st.integers(1, 8)), draw(st.sampled_from((1, 2, 4))))
               for _ in edges]
    return vertices, edges, weights


@st.composite
def tree_points(draw, dendrite, steps=16):
    """A random exact point of the given dendrite (edge parameters k/steps)."""
    use_vertex = draw(st.booleans())
    if use_vertex or not dendrite.edges:
        vid = draw(st.sampled_from(sorted(dendrite.vertices, key=str)))
        return dendrite.vertex_point(vid)
    e = draw(st.sampled_from([e.eid for e in dendrite.edges]))
    t = Fraction(draw(st.integers(min_value=0, max_value=steps)), steps)
    return dendrite.point(e, t)


@st.composite
def trees_with_points(draw, count=3, max_edges=7):
    dendrite = draw(random_trees(max_edges=max_edges))
    pts = [draw(tree_points(dendrite)) for _ in range(count)]
    return dendrite, pts


@st.composite
def random_measures(draw, dendrite, max_atoms=3, steps=16, density_denominators=(4,)):
    """A random non-zero measure: vertex and edge atoms plus density pieces.

    Atom parameters and piece ends are k/steps; densities are k/d for
    k = 0..4, with d drawn per piece from ``density_denominators``.
    """
    atoms = [(draw(tree_points(dendrite, steps)), Fraction(draw(st.integers(1, 8)), 8))
             for _ in range(draw(st.integers(min_value=0, max_value=max_atoms)))]
    densities = {}
    for e in dendrite.edges:
        cuts = sorted(draw(st.sets(st.integers(min_value=0, max_value=steps), max_size=4)))
        densities[e.eid] = [(Fraction(a, steps), Fraction(b, steps),
                             Fraction(draw(st.integers(0, 4)),
                                      draw(st.sampled_from(density_denominators))))
                            for a, b in zip(cuts, cuts[1:])]
    if not atoms and not any(r for rows in densities.values() for _, _, r in rows):
        atoms = [(draw(tree_points(dendrite, steps)), Fraction(1))]
    return PLMeasure(dendrite, atoms, densities)


@st.composite
def pl_maps(draw, max_breaks=4, denominator=32):
    """A random increasing PL bijection of [0, 1] with breakpoints and values k/denominator."""
    k = draw(st.integers(min_value=0, max_value=max_breaks))
    xs_mid = sorted(draw(st.sets(st.integers(min_value=1, max_value=denominator - 1),
                                 min_size=k, max_size=k)))
    ys_mid = sorted(draw(st.sets(st.integers(min_value=1, max_value=denominator - 1),
                                 min_size=k, max_size=k)))
    xs = [Fraction(0)] + [Fraction(x, denominator) for x in xs_mid] + [Fraction(1)]
    ys = [Fraction(0)] + [Fraction(y, denominator) for y in ys_mid] + [Fraction(1)]
    from dendrodyn.homeo import PLMap
    return PLMap(xs, ys)


def nx_metric_oracle(dendrite, a, b):
    """Independent distance oracle: Dijkstra on a graph with split edges."""
    import networkx as nx

    if a == b:
        return Fraction(0)
    g = nx.Graph()
    for e in dendrite.edges:
        g.add_edge(("v", e.u), ("v", e.v), weight=e.weight)

    def attach(p, tag):
        t = getattr(p, "t", None)
        if t is None:
            return ("v", p.vertex)
        node = (tag,)
        e = dendrite.edge(p.edge)
        g.add_edge(node, ("v", e.u), weight=t * e.weight)
        g.add_edge(node, ("v", e.v), weight=(1 - t) * e.weight)
        return node

    na = attach(a, "a")
    nb = attach(b, "b")
    if getattr(a, "edge", None) is not None and getattr(a, "edge", None) == getattr(b, "edge", None):
        # same-edge shortcut so the split graph stays exact
        g.add_edge(na, nb, weight=abs(a.t - b.t) * dendrite.edge(a.edge).weight)
    return nx.dijkstra_path_length(g, na, nb, weight="weight")
