"""Reference versions of the dendrite's metric, arc and nearest-point queries.

The library measures a distance as the length of its arc and finds arcs, gates
and retractions from the tree's topology alone (``Dendrite.hull`` and a root
walk in ``subdendrite_gates``), and it measures distances to a finite set on
integers over one common denominator (``_sweep_to``).  These are the earlier
algorithms that work by exact distances instead: ``_distance_to_set`` and
``_point_to_set`` sweep ``Fraction`` weights to a set and read a point off the
sweep, ``metric_distance`` meets at the lowest common ancestor over a table of
root distances, ``metric_arc`` joins the closest pair of anchor vertices,
``metric_retract_point`` compares the distance to every candidate point, and
``swept_gates`` carries (distance, gate) labels over the whole tree in two
passes.
``measure_oracle``, ``add_oracle`` and ``pl_value_oracle`` are the earlier
measure layer: a validating constructor that merges touching rows itself, a
sum on its own cut grid, and an indexed interpolation loop.
``tower_levels_oracle``, ``frontier_cover_oracle``, ``union_connected``,
``classify_oracle``, ``nearest_other_oracle`` and ``node_degree_oracle`` are
the earlier tower, cover and classification layer: one hull and one endpoint
set per tower level, one gate walk, one hull and one diameter per cell and
level, a nesting check through a validated union, ``Fraction`` sweeps over
2|V| - 1 skeleton probes and two-nearest labels, and a node graph of tagged
tuples that endpoints and branch points were counted on.  ``cell_gap_oracle``
measures a cover's gap pair by pair, and ``group_modulus_audit`` checks a
certified modulus against every element of the group at once, by a search
over pair orbits.  ``graph_oracle``,
``orientation_oracle``, ``edge_between_oracle``, ``add_one`` and
``orbit_layers_oracle`` are the earlier construction and orbit search:
components by relabelling, one sorted adjacency scan per vertex, an edge scan
per lookup, add-one-with-carry on every odometer label, and a copy of the
orbit per BFS layer.  Tests check the library against them.  The subdendrite
helpers at the end (``whole``, ``portion_graph``, ``intersection``,
``is_connected``, ``sample_points``) serve tests only.
"""

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

from dendrodyn.action import Classification
from dendrodyn.dendrite import (
    ONE,
    ZERO,
    Dendrite,
    DPoint,
    EdgePoint,
    FiniteClosedSet,
    Subdendrite,
    VertexPoint,
    _sweep_distances,
    subdendrite_gates,
)
from dendrodyn.equicontinuity import FrontierCover
from dendrodyn.errors import (
    CoverageGap,
    DendriteMismatch,
    DendrodynError,
    EmptySet,
    EmptySubdendrite,
    FrontierEmpty,
)
from dendrodyn.homeo import apply
from dendrodyn.measure import PLMeasure
from dendrodyn.util import frac, id_key, point_key

_ROOT_DISTANCES: WeakKeyDictionary = WeakKeyDictionary()


def _rootdist(X: Dendrite) -> dict:
    """Distance from each vertex to the root, once per dendrite."""
    table = _ROOT_DISTANCES.get(X)
    if table is None:
        table = {}
        for v in X._order:  # breadth-first, so a parent comes before its children
            pe = X._parent_edge[v]
            table[v] = ZERO if pe is None else table[X._parent[v]] + pe.weight
        _ROOT_DISTANCES[X] = table
    return table


def _anchors(X: Dendrite, p: DPoint) -> list[tuple[object, Fraction]]:
    """(vertex, cost from p to that vertex) pairs; one entry for vertices."""
    if isinstance(p, VertexPoint):
        return [(p.vertex, ZERO)]
    e = X.edge(p.edge)
    return [(e.u, p.t * e.weight), (e.v, (1 - p.t) * e.weight)]


def _lca(X: Dendrite, a, b):
    da, db = X._depth[a], X._depth[b]
    while da > db:
        a = X._parent[a]
        da -= 1
    while db > da:
        b = X._parent[b]
        db -= 1
    while a != b:
        a = X._parent[a]
        b = X._parent[b]
    return a


def _distance_to_set(dendrite: Dendrite, targets: Iterable[DPoint]):
    """Per-vertex distance to the nearest target plus sorted per-edge targets."""
    init: dict[object, Fraction] = {}
    on_edge: dict[object, list[Fraction]] = {}

    def relax(v, d):
        if v not in init or d < init[v]:
            init[v] = d

    count = 0
    for p in targets:
        count += 1
        p = dendrite.check_point(p)
        if isinstance(p, VertexPoint):
            relax(p.vertex, ZERO)
        else:
            e = dendrite.edge(p.edge)
            relax(e.u, p.t * e.weight)
            relax(e.v, (1 - p.t) * e.weight)
            on_edge.setdefault(p.edge, []).append(p.t)
    if count == 0:
        raise EmptySet("distance to an empty set")
    for ts in on_edge.values():
        ts.sort()
    weight = {e.eid: e.weight for e in dendrite.edges}
    return _sweep_distances(dendrite, init, weight), on_edge


def _point_to_set(dendrite: Dendrite, dist, on_edge, p: DPoint) -> Fraction:
    if isinstance(p, VertexPoint):
        return dist[p.vertex]
    e = dendrite.edge(p.edge)
    cands = [dist[e.u] + p.t * e.weight, dist[e.v] + (1 - p.t) * e.weight]
    ts = on_edge.get(p.edge, ())
    i = bisect_left(ts, p.t)  # only the targets either side of p can be nearest
    if i < len(ts):
        cands.append((ts[i] - p.t) * e.weight)
    if i > 0:
        cands.append((p.t - ts[i - 1]) * e.weight)
    return min(cands)


def vertex_distance(X: Dendrite, a, b) -> Fraction:
    if a == b:
        return ZERO
    lca = _lca(X, a, b)
    rootdist = _rootdist(X)
    return rootdist[a] + rootdist[b] - 2 * rootdist[lca]


def metric_distance(X: Dendrite, a: DPoint, b: DPoint) -> Fraction:
    """The distance through the nearest pair of anchor vertices."""
    a = X.check_point(a)
    b = X.check_point(b)
    if a == b:
        return ZERO
    if isinstance(a, EdgePoint) and isinstance(b, EdgePoint) and a.edge == b.edge:
        return abs(a.t - b.t) * X.edge(a.edge).weight
    best = None
    for va, ca in _anchors(X, a):
        for vb, cb in _anchors(X, b):
            d = ca + vertex_distance(X, va, vb) + cb
            if best is None or d < best:
                best = d
    return best


def metric_arc(X: Dendrite, x: DPoint, y: DPoint) -> Subdendrite:
    """The unique arc [x, y]; degenerate when x == y."""
    x = X.check_point(x)
    y = X.check_point(y)
    if x == y:
        if isinstance(x, VertexPoint):
            return Subdendrite._make(X, {x.vertex}, {})
        return Subdendrite._make(X, set(), {x.edge: (x.t, x.t)})
    if isinstance(x, EdgePoint) and isinstance(y, EdgePoint) and x.edge == y.edge:
        lo, hi = sorted((x.t, y.t))
        return Subdendrite._make(X, set(), {x.edge: (lo, hi)})

    best = None
    for va, ca in _anchors(X, x):
        for vb, cb in _anchors(X, y):
            d = ca + vertex_distance(X, va, vb) + cb
            if best is None or d < best[0]:
                best = (d, va, vb)
    _, va, vb = best
    chain = X.vertex_path(va, vb)
    vertices = set(chain)
    portions: dict[object, tuple[Fraction, Fraction]] = {}
    for a, b in zip(chain, chain[1:]):
        e = X.edge_between(a, b)
        portions[e.eid] = (ZERO, ONE)
    for p, anchor in ((x, va), (y, vb)):
        if isinstance(p, EdgePoint):
            e = X.edge(p.edge)
            if anchor == e.u:
                part = (ZERO, p.t)
            else:
                part = (p.t, ONE)
            prev = portions.get(p.edge)
            if prev is not None:
                part = (min(prev[0], part[0]), max(prev[1], part[1]))
            portions[p.edge] = part
    return Subdendrite._make(X, vertices, portions)


def metric_retract_point(X: Dendrite, sub: Subdendrite, x: DPoint) -> DPoint:
    """Nearest-point projection of ``x`` onto the connected subdendrite."""
    if sub.dendrite is not X and not X.same_space(sub.dendrite):
        raise DendriteMismatch("subdendrite lives on a different dendrite")
    if sub.is_empty():
        raise EmptySubdendrite("cannot retract onto an empty subdendrite")
    x = X.check_point(x)
    if sub.contains(x):
        return x
    candidates: list[tuple[Fraction, DPoint]] = []
    for v in sub.vertices:
        candidates.append((metric_distance(X, x, VertexPoint(v)), VertexPoint(v)))
    for eid, (lo, hi) in sub.portions.items():
        e = X.edge(eid)
        if isinstance(x, EdgePoint) and x.edge == eid:
            t = min(max(x.t, lo), hi)
            candidates.append((abs(x.t - t) * e.weight, X.point(eid, t)))
            continue
        du = metric_distance(X, x, VertexPoint(e.u))
        dv = metric_distance(X, x, VertexPoint(e.v))
        candidates.append((du + lo * e.weight, X.point(eid, lo)))
        candidates.append((dv + (1 - hi) * e.weight, X.point(eid, hi)))
    best = min(d for d, _ in candidates)
    winners = {p for d, p in candidates if d == best}
    assert len(winners) == 1, "nearest point on a subtree must be unique"
    return winners.pop()


def swept_gates(dendrite: Dendrite, sub: Subdendrite,
                points: Iterable[DPoint]) -> list[DPoint]:
    """Nearest point of ``sub`` for each query point, via one tree sweep.

    Equivalent to :func:`metric_retract_point` per point but amortised: a two-pass
    dynamic program carries (distance, gate) labels over the whole tree.
    """
    if sub.is_empty():
        raise EmptySubdendrite("cannot retract onto an empty subdendrite")
    best: dict[object, tuple[Fraction, DPoint]] = {}

    def relax(v, d, gate):
        cur = best.get(v)
        if cur is None or d < cur[0] or (d == cur[0] and point_key(gate) < point_key(cur[1])):
            best[v] = (d, gate)

    for v in sub.vertices:
        relax(v, ZERO, VertexPoint(v))
    portions = sub.portions
    for eid, (lo, hi) in portions.items():
        e = dendrite.edge(eid)
        if lo > 0:
            relax(e.u, lo * e.weight, dendrite.point(eid, lo))
        if hi < 1:
            relax(e.v, (1 - hi) * e.weight, dendrite.point(eid, hi))
    order = dendrite._order
    for v in reversed(order):
        pe = dendrite._parent_edge[v]
        if pe is not None and v in best:
            d, g = best[v]
            relax(dendrite._parent[v], d + pe.weight, g)
    for v in order:
        pe = dendrite._parent_edge[v]
        if pe is not None and dendrite._parent[v] in best:
            d, g = best[dendrite._parent[v]]
            relax(v, d + pe.weight, g)

    gates = []
    for p in points:
        p = dendrite.check_point(p)
        if isinstance(p, VertexPoint):
            gates.append(best[p.vertex][1])
            continue
        e = dendrite.edge(p.edge)
        cands: list[tuple[Fraction, DPoint]] = []
        if e.u in best:
            d, g = best[e.u]
            cands.append((d + p.t * e.weight, g))
        if e.v in best:
            d, g = best[e.v]
            cands.append((d + (1 - p.t) * e.weight, g))
        if p.edge in portions:
            lo, hi = portions[p.edge]
            t = min(max(p.t, lo), hi)
            cands.append((abs(p.t - t) * e.weight, dendrite.point(p.edge, t)))
        gates.append(min(cands, key=lambda dg: (dg[0], point_key(dg[1])))[1])
    return gates


# -- covers and classification before the rooted hull and the integer sweeps ------


def tower_levels_oracle(dendrite: Dendrite, orbits: Sequence[FiniteClosedSet]
                        ) -> list[tuple[Subdendrite, FiniteClosedSet, bool]]:
    """Each tower level's ``(tree, frontier, strict)``, one hull per level.

    Level n's tree is the hull of the first n orbits, its frontier is the
    tree's endpoint set, and the level is strict when that is its own orbit.
    """
    levels = []
    accumulated: list[DPoint] = []
    for orb in orbits:
        accumulated.extend(orb)  # so the trees nest
        tree = dendrite.hull(accumulated)
        frontier = tree.endpoint_set()
        levels.append((tree, frontier, frontier == orb))
    return levels


def frontier_cover_oracle(dendrite: Dendrite, m: FiniteClosedSet,
                          tree: Subdendrite, level: int = 0) -> FrontierCover:
    """``frontier_cover`` by gates: one gate walk, then one hull and one diameter per cell."""
    frontier = tree.endpoint_set()
    if len(frontier) == 0:
        raise FrontierEmpty("sub-tree has no frontier")
    anchors = set(frontier.points)
    assigned: dict[DPoint, list[DPoint]] = {a: [] for a in anchors}
    points = list(m)
    for x, gate in zip(points, subdendrite_gates(dendrite, tree, points)):
        if gate not in anchors:
            raise CoverageGap(
                f"minimal-set point {x!r} attaches at {gate!r}, outside the frontier")
        assigned[gate].append(x)
    cells = []
    for a in sorted(anchors, key=point_key):
        cells.append((a, dendrite.hull([a] + assigned[a])))
    return FrontierCover(level, tuple(cells), tuple(c.diameter() for _, c in cells))


def cell_gap_oracle(dendrite: Dendrite, m: FiniteClosedSet, cover: FrontierCover):
    """The least distance between points of ``m`` in different cells, pair by pair
    (None when no two cells hold a point of ``m``)."""
    points = list(m)
    owner = [next(a for a, cell in cover.cells if cell.contains(x)) for x in points]
    return min((metric_distance(dendrite, x, y)
                for i, x in enumerate(points) for j, y in enumerate(points[:i])
                if owner[i] != owner[j]), default=None)


def group_modulus_audit(gens, m: FiniteClosedSet, delta_table) -> list:
    """Each ``(eps, delta)`` row with the largest d(gx, gy) over the whole group
    and over the pairs x, y of ``m`` closer than delta.

    ``m`` is finite and every generator permutes it, so each pair's orbit
    under the signed generators is finite: a breadth-first search over it
    gives the exact supremum over the group, not a sample of words.
    """
    X = gens.dendrite
    points = list(m)
    at = {p: i for i, p in enumerate(points)}
    moves = [[at[apply(h, p)] for p in points] for _, _, h in gens.signed()]
    dist = {(i, j): metric_distance(X, points[i], points[j])
            for i in range(len(points)) for j in range(i)}  # unordered pairs, i > j
    sup: dict[tuple[int, int], Fraction] = {}
    for start in dist:
        if start in sup:
            continue
        orbit, todo = {start}, [start]
        while todo:
            i, j = todo.pop()
            for move in moves:
                a, b = move[i], move[j]
                pair = (a, b) if a > b else (b, a)
                if pair not in orbit:
                    orbit.add(pair)
                    todo.append(pair)
        worst = max(dist[pair] for pair in orbit)
        sup.update(dict.fromkeys(orbit, worst))
    return [(eps, delta, max((sup[pair] for pair, d in dist.items() if d < delta), default=ZERO))
            for eps, delta in delta_table]


def node_degree_oracle(sub: Subdendrite) -> dict:
    """Point -> number of segments at it, on a graph of ``("v", vertex)`` and
    ``("p", edge, t)`` nodes; endpoints have degree at most 1."""
    nodes: set = set()
    segments: list[tuple[object, object]] = []
    for v in sub.vertices:
        nodes.add(("v", v))
    for eid, (lo, hi) in sub.portions.items():
        e = sub.dendrite.edge(eid)
        n_lo = ("v", e.u) if lo == 0 else ("p", eid, lo)
        n_hi = ("v", e.v) if hi == 1 else ("p", eid, hi)
        nodes.add(n_lo)
        nodes.add(n_hi)
        if lo < hi:
            segments.append((n_lo, n_hi))
    degree = {n: 0 for n in nodes}
    for a, b in segments:
        degree[a] += 1
        degree[b] += 1
    return {VertexPoint(n[1]) if n[0] == "v" else EdgePoint(n[1], n[2]): d
            for n, d in degree.items()}


def union_connected(a: Subdendrite, b: Subdendrite) -> Subdendrite:
    """Union of two subdendrites whose union is known to be connected, validated."""
    parts = dict(a.portions)
    for eid, (lo, hi) in b.portions.items():
        if eid in parts:
            plo, phi = parts[eid]
            parts[eid] = (min(plo, lo), max(phi, hi))
        else:
            parts[eid] = (lo, hi)
    return Subdendrite._make(a.dendrite, set(a.vertices) | set(b.vertices), parts)


def nearest_other_oracle(dendrite: Dendrite, points: Sequence[DPoint]) -> list:
    """``nearest_other_distances`` with ``Fraction`` labels throughout."""
    points = [dendrite.check_point(p) for p in points]

    def two_nearest(entries):
        out = []
        for d, i in sorted(entries):
            if not out or out[0][1] != i:
                out.append((d, i))
                if len(out) == 2:
                    break
        return out

    near: dict = {}
    along: dict = {}
    for i, p in enumerate(points):
        for v, c in _anchors(dendrite, p):
            near.setdefault(v, []).append((c, i))
        if isinstance(p, EdgePoint):
            along.setdefault(p.edge, []).append((p.t, i))
    near = {v: two_nearest(seeds) for v, seeds in near.items()}

    def carry(src, dst, w):
        near[dst] = two_nearest(near.get(dst, []) + [(d + w, i) for d, i in near[src]])

    order = dendrite._order
    for v in reversed(order):
        pe = dendrite._parent_edge[v]
        if pe is not None and v in near:
            carry(v, dendrite._parent[v], pe.weight)
    for v in order:
        pe = dendrite._parent_edge[v]
        if pe is not None and dendrite._parent[v] in near:
            carry(dendrite._parent[v], v, pe.weight)
    cands = [[c + d for v, c in _anchors(dendrite, p) for d, j in near.get(v, ()) if j != i]
             for i, p in enumerate(points)]
    for eid, row in along.items():
        w = dendrite.edge(eid).weight
        row.sort()
        for (s, i), (t, j) in zip(row, row[1:]):
            cands[i].append((t - s) * w)
            cands[j].append((t - s) * w)
    return [min(c) if c else None for c in cands]


def classify_oracle(dendrite: Dendrite, m: FiniteClosedSet, eps,
                    *, certified_finite: bool = False) -> Classification:
    """``classify_minimal_set`` with one checked probe point per vertex and edge midpoint."""
    eps = Fraction(eps)
    if len(m) == 0:
        raise ValueError("cannot classify an empty set")
    if certified_finite:
        return Classification("finite-orbit", eps, {"size": len(m)})
    dist, on_edge = _distance_to_set(dendrite, m)
    gaps = [(p, _point_to_set(dendrite, dist, on_edge, p)) for p in dendrite.skeleton_points()]
    worst_probe, worst_gap = max(gaps, key=lambda pg: (pg[1], point_key(pg[0])))
    if worst_gap <= eps:
        return Classification("whole-space", eps, {"max_probe_gap": worst_gap})
    pts = list(m)
    gaps = nearest_other_oracle(dendrite, pts)
    witness = next((p for p, d in zip(pts, gaps) if d is None or d > eps), None)
    if witness is None:
        return Classification("cantor-like", eps,
                              {"max_probe_gap": worst_gap,
                               "sparse_witness": worst_probe})
    return Classification("inconclusive", eps,
                          {"max_probe_gap": worst_gap, "isolated_point": witness})


# -- the measure layer before one fill, one merge and one evaluator -----------------


def measure_oracle(dendrite: Dendrite, atoms=(), densities=None, norm=ONE) -> PLMeasure:
    """``PLMeasure(dendrite, atoms, densities, norm)``, checking and merging rows itself."""
    merged: dict = {}
    for p, w in atoms:
        p = dendrite.check_point(p)
        w = frac(w)
        if w < 0:
            raise ValueError("atom weights must be non-negative")
        if w:
            merged[p] = merged.get(p, ZERO) + w
    dens: dict = {}
    for eid, pieces in (densities or {}).items():
        dendrite.edge(eid)
        out: list = []
        for a, b, r in sorted((frac(a), frac(b), frac(r)) for a, b, r in pieces):
            if a > b or a < 0 or b > 1:
                raise ValueError(f"bad density piece [{a}, {b}]")
            if r < 0:
                raise ValueError("densities must be non-negative")
            if a == b or r == 0:
                continue
            if out and out[-1][1] > a:
                raise ValueError("density pieces overlap")
            if out and out[-1][1] == a and out[-1][2] == r:
                out[-1] = (out[-1][0], b, r)
            else:
                out.append((a, b, r))
        if out:
            dens[eid] = tuple(out)
    mu = PLMeasure.__new__(PLMeasure)
    mu.dendrite = dendrite
    mu.atoms = tuple(sorted(merged.items(), key=lambda kv: point_key(kv[0])))
    mu.densities = dict(sorted(dens.items(), key=lambda kv: id_key(kv[0])))
    mu.norm = frac(norm)
    return mu


def add_oracle(mu: PLMeasure, nu: PLMeasure) -> PLMeasure:
    """``mu + nu``: the densities of both, read at every cut of either, per edge."""
    if not mu.dendrite.same_space(nu.dendrite):
        raise DendriteMismatch("measures live on different dendrites")

    def level(pieces, t):
        for a, b, r in pieces:
            if a <= t < b:
                return r
        return ZERO

    dens: dict = {}
    for eid in set(mu.densities) | set(nu.densities):
        mine = mu.densities.get(eid, ())
        theirs = nu.densities.get(eid, ())
        cuts = sorted({ZERO, ONE} | {x for a, b, _ in (*mine, *theirs) for x in (a, b)})
        rows = []
        for lo, hi in zip(cuts, cuts[1:]):
            r = level(mine, lo) + level(theirs, lo)
            if r:
                rows.append((lo, hi, r))
        if rows:
            dens[eid] = rows
    return measure_oracle(mu.dendrite, mu.atoms + nu.atoms, dens, mu.norm)


def pl_value_oracle(xs: Sequence[Fraction], ys: Sequence[Fraction], t: Fraction) -> Fraction:
    """The value at ``t`` of the PL graph through ``(xs, ys)``, by index."""
    for i in range(len(xs) - 1):
        if t <= xs[i + 1]:
            span = xs[i + 1] - xs[i]
            return ys[i] + (ys[i + 1] - ys[i]) * (t - xs[i]) / span
    return ys[-1]


# -- the earlier construction: orientation, edge lookup, odometer, orbit layers ------


def graph_oracle(vertices: Iterable, edges: Sequence) -> tuple[object, int]:
    """``(first cycle edge id or None, component count)`` of raw construction input.

    A union-find by relabelling: every vertex carries its component's label,
    and joining two components rewrites one label everywhere.  The first edge,
    in enumeration order, whose ends already share a label closes a cycle.
    """
    label = {v: v for v in vertices}
    cycle_edge = None
    for eid, u, v, *_ in edges:
        if label[u] == label[v]:
            if cycle_edge is None:
                cycle_edge = eid
            continue
        old, new = label[u], label[v]
        label = {w: new if lab == old else lab for w, lab in label.items()}
    return cycle_edge, len(set(label.values()))


def orientation_oracle(X: Dendrite) -> dict:
    """The parent tables by one adjacency scan per vertex.

    A breadth-first walk from the least vertex in ``id_key`` order takes each
    vertex's edges in enumeration order.  Returns the tables by attribute
    name, plus each vertex's degree.
    """
    adj: dict = {v: [] for v in X.vertices}
    for e in X.edges:
        adj[e.u].append((e, e.v))
        adj[e.v].append((e, e.u))
    root = min(X.vertices, key=id_key)
    order, parent, parent_edge, depth = [root], {root: None}, {root: None}, {root: 0}
    for head in order:
        for e, other in adj[head]:
            if other in parent:
                continue
            parent[other] = head
            parent_edge[other] = e
            depth[other] = depth[head] + 1
            order.append(other)
    return {"_order": order, "_parent": parent, "_parent_edge": parent_edge,
            "_depth": depth,
            "degree": {v: len(incident) for v, incident in adj.items()}}


def degree(X: Dendrite, v) -> int:
    """The number of edges at vertex ``v``."""
    return sum((e.u == v) + (e.v == v) for e in X.edges)


def edge_between_oracle(X: Dendrite, a, b):
    """The edge joining two vertices, by scanning the edge list."""
    for e in X.edges:
        if (e.u == a and e.v == b) or (e.v == a and e.u == b):
            return e
    raise DendrodynError(f"no edge between {a!r} and {b!r}")


def add_one(label: str) -> str:
    """Binary add-one-with-carry on a least-significant-first bit string."""
    bits = list(label)
    for i, b in enumerate(bits):
        if b == "0":
            bits[i] = "1"
            return "".join(bits)
        bits[i] = "0"
    return "".join(bits)


def orbit_layers_oracle(gens, x: DPoint, radius: int):
    """BFS point layers; yields a copy of the cumulative set after each radius step."""
    x = gens.dendrite.check_point(x)
    seen = {x: None}
    frontier = [x]
    yield dict(seen)
    maps = [h for _, _, h in gens.signed()]
    for _ in range(radius):
        nxt = []
        for p in frontier:
            for h in maps:
                q = apply(h, p)
                if q not in seen:
                    seen[q] = None
                    nxt.append(q)
        frontier = nxt
        yield dict(seen)


# -- subdendrite helpers used by tests only ------------------------------------------


def whole(X: Dendrite) -> Subdendrite:
    """The whole tree as a subdendrite."""
    return Subdendrite._make(X, X.vertices, {e.eid: (ZERO, ONE) for e in X.edges})


def portion_graph(sub: Subdendrite) -> dict:
    """Node -> [(neighbour, segment length)]; nodes are vertices and portion ends."""
    adj: dict = {("v", v): [] for v in sub.vertices}
    for eid, (lo, hi) in sub.portions.items():
        e = sub.dendrite.edge(eid)
        a = ("v", e.u) if lo == 0 else ("p", eid, lo)
        b = ("v", e.v) if hi == 1 else ("p", eid, hi)
        adj.setdefault(a, [])
        adj.setdefault(b, [])
        if lo < hi:
            adj[a].append((b, (hi - lo) * e.weight))
            adj[b].append((a, (hi - lo) * e.weight))
    return adj


def intersection(a: Subdendrite, b: Subdendrite) -> Subdendrite:
    parts: dict[object, tuple[Fraction, Fraction]] = {}
    mine = dict(a.portions)
    for eid, (lo, hi) in b.portions.items():
        if eid in mine:
            plo, phi = mine[eid]
            nlo, nhi = max(plo, lo), min(phi, hi)
            if nlo <= nhi:
                parts[eid] = (nlo, nhi)
    return Subdendrite._make(a.dendrite, a.vertices & b.vertices, parts)


def is_connected(sub: Subdendrite) -> bool:
    adj = portion_graph(sub)
    if len(adj) <= 1:
        return True
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for nxt, _ in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(adj)


def sample_points(sub: Subdendrite) -> list[DPoint]:
    """Vertices plus portion boundaries and midpoints (for spot checks)."""
    pts = {VertexPoint(v) for v in sub.vertices}
    for eid, (lo, hi) in sub.portions.items():
        pts.add(sub.dendrite.point(eid, lo))
        pts.add(sub.dendrite.point(eid, hi))
        pts.add(sub.dendrite.point(eid, (lo + hi) / 2))
    return sorted(pts, key=point_key)
