"""Exact geometry of weighted finite trees used as truncated dendrites.

A dendrite is stored as a finite tree whose edges carry positive rational
weights and are enumerated in a chained order (every edge after the first
attaches to the already-built part in exactly one vertex).  Points are either
vertices or interior edge positions with a rational parameter, so all metric
quantities (arc lengths, Hausdorff distances, cover meshes) are exact.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import (
    ChainingViolation,
    DendriteMismatch,
    DendrodynError,
    EmptyCover,
    EmptySet,
    EmptySubdendrite,
    InvalidDendrite,
    PointOffDendrite,
)
from .util import Value, frac, id_key, integer_scale, point_key, set_field

ZERO = Fraction(0)
ONE = Fraction(1)


class VertexPoint(Value):
    __slots__ = _fields = ("vertex",)

    def __init__(self, vertex):
        set_field(self, "vertex", vertex)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.vertex == other.vertex
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex,))

    def __repr__(self):
        return f"V({self.vertex})"


class EdgePoint(Value):
    __slots__ = _fields = ("edge", "t")

    def __init__(self, edge, t: Fraction):
        set_field(self, "edge", edge)
        set_field(self, "t", t)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.edge == other.edge and self.t == other.t
        return NotImplemented

    def __hash__(self):
        return hash((self.edge, self.t))

    def __repr__(self):
        return f"P({self.edge}@{self.t})"


DPoint = VertexPoint | EdgePoint


class Edge(Value):
    __slots__ = _fields = ("eid", "u", "v", "level", "weight")

    def __init__(self, eid, u, v, level: int, weight: Fraction):
        set_field(self, "eid", eid)
        set_field(self, "u", u)
        set_field(self, "v", v)
        set_field(self, "level", level)
        set_field(self, "weight", weight)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.eid, self.u, self.v, self.level, self.weight)
                    == (other.eid, other.u, other.v, other.level, other.weight))
        return NotImplemented

    def __hash__(self):
        return hash((self.eid, self.u, self.v, self.level, self.weight))


class Dendrite:
    """A connected weighted tree; disconnected or cyclic input is refused.

    ``edges`` entries are ``(eid, u, v)`` or ``(eid, u, v, level)``; a missing
    level defaults to the 1-based enumeration index.  ``weight_rule`` is
    ``"dyadic"`` (edge number i weighs 2**-i) or an explicit weight sequence.
    """

    def __init__(self, vertices: Iterable, edges: Sequence, weight_rule="dyadic"):
        vset = frozenset(set(vertices))  # copied from a set, the table is sized to fit
        if not vset:
            raise InvalidDendrite("a dendrite needs at least one vertex")
        resolved: list[Edge] = []
        if weight_rule == "dyadic":
            weights = [Fraction(1, 2 ** (i + 1)) for i in range(len(edges))]
        else:
            weights = [frac(w) for w in weight_rule]
            if len(weights) != len(edges):
                raise InvalidDendrite("custom weight list does not match edge count")
        for i, (entry, w) in enumerate(zip(edges, weights)):
            if len(entry) == 3:
                eid, u, v = entry
                level = i + 1
            else:
                eid, u, v, level = entry
            if u not in vset or v not in vset:
                raise InvalidDendrite(f"edge {eid!r} references unknown vertices")
            if u == v:
                raise InvalidDendrite(f"edge {eid!r} is a loop")
            if w.numerator <= 0:  # a Fraction's sign is its numerator's
                raise InvalidDendrite(f"edge {eid!r} has non-positive weight")
            resolved.append(Edge(eid, u, v, int(level), w))
        self._edge_by_id = {e.eid: e for e in resolved}
        if len(self._edge_by_id) != len(resolved):
            raise InvalidDendrite("duplicate edge ids")

        self._vertices = vset
        self._edges = tuple(resolved)
        # the weights live on the edges; a custom rule is read back from them
        self._weight_rule = "dyadic" if weight_rule == "dyadic" else "custom"
        self._build_orientation()
        # a tree has |V| - 1 edges and one walk reaches all of it; anything else
        # has a cycle, named here, or is disconnected
        if len(resolved) != len(vset) - 1 or len(self._order) < len(vset):
            self._check_acyclic()
            raise InvalidDendrite("dendrite is not connected")
        self._check_chaining()

    # -- construction checks -------------------------------------------------

    def _check_acyclic(self):
        """Raise at the first edge, in enumeration order, that closes a cycle."""
        parent = {v: v for v in self._vertices}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self._edges:
            ra, rb = find(e.u), find(e.v)
            if ra == rb:
                raise InvalidDendrite(f"edge {e.eid!r} creates a cycle")
            parent[ra] = rb

    def _build_orientation(self):
        """BFS parent tables from the least vertex, children in enumeration order.

        The adjacency lists, filled in enumeration order, live only for the walk.
        """
        adj: dict[object, list[Edge]] = {v: [] for v in self._vertices}
        for e in self._edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        root = min(self._vertices, key=id_key)
        order: list[object] = [root]
        parent: dict[object, object | None] = {root: None}
        parent_edge: dict[object, Edge | None] = {root: None}
        depth: dict[object, int] = {root: 0}
        for head in order:  # the queue grows as it is read
            below = depth[head] + 1
            for e in adj[head]:
                other = e.v if e.u == head else e.u
                if other not in parent:
                    parent[other] = head
                    parent_edge[other] = e
                    depth[other] = below
                    order.append(other)
        self._order = order
        self._parent = parent
        self._parent_edge = parent_edge
        self._depth = depth

    def _check_chaining(self):
        """Every edge meets the part built before it in exactly one end."""
        seen: set[object] = set()
        for i, e in enumerate(self._edges):
            if i and (e.u in seen) == (e.v in seen):
                raise ChainingViolation(i + 1)
            seen.add(e.u)
            seen.add(e.v)

    # -- basic accessors -----------------------------------------------------

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def edge(self, eid) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise PointOffDendrite(f"unknown edge {eid!r}") from None

    def total_weight(self) -> Fraction:
        return sum((e.weight for e in self._edges), ZERO)

    def structure_key(self):
        return (tuple(sorted(self._vertices, key=id_key)),
                tuple((e.eid, e.u, e.v, e.level, e.weight) for e in self._edges))

    def same_space(self, other: "Dendrite") -> bool:
        return self is other or self.structure_key() == other.structure_key()

    # -- points --------------------------------------------------------------

    def vertex_point(self, vid) -> VertexPoint:
        if vid not in self._vertices:
            raise PointOffDendrite(f"unknown vertex {vid!r}")
        return VertexPoint(vid)

    def point(self, eid, t) -> DPoint:
        """Canonical point on edge ``eid``; parameters 0 and 1 become vertices."""
        e = self.edge(eid)
        t = frac(t)
        if t < 0 or t > 1:
            raise PointOffDendrite(f"parameter {t} outside [0, 1]")
        if t == 0:
            return VertexPoint(e.u)
        if t == 1:
            return VertexPoint(e.v)
        return EdgePoint(eid, t)

    def check_point(self, p: DPoint) -> DPoint:
        if isinstance(p, VertexPoint):
            return self.vertex_point(p.vertex)
        if isinstance(p, EdgePoint):
            return self.point(p.edge, p.t)
        raise PointOffDendrite(f"not a dendrite point: {p!r}")

    def skeleton_points(self) -> list[DPoint]:
        pts: list[DPoint] = [VertexPoint(v) for v in sorted(self._vertices, key=id_key)]
        pts.extend(self.point(e.eid, Fraction(1, 2)) for e in self._edges)
        return pts

    # -- metric --------------------------------------------------------------

    def distance(self, a: DPoint, b: DPoint) -> Fraction:
        """The length of the arc [a, b]."""
        return self.arc(a, b).diameter()

    def vertex_path(self, a, b) -> list:
        """Vertex chain from ``a`` to ``b`` along the unique tree path."""
        up, down = [a], [b]
        while up[-1] != down[-1]:  # climb from the deeper end until the ends meet
            if self._depth[up[-1]] < self._depth[down[-1]]:
                down.append(self._parent[down[-1]])
            else:
                up.append(self._parent[up[-1]])
        return up + down[-2::-1]

    def edge_between(self, a, b) -> Edge:
        """The edge joining ``a`` and ``b``: the parent edge of whichever is the child."""
        for vid in (a, b):
            if vid not in self._vertices:
                raise PointOffDendrite(f"unknown vertex {vid!r}")
        if self._parent[b] == a:
            return self._parent_edge[b]
        if self._parent[a] == b:
            return self._parent_edge[a]
        raise DendrodynError(f"no edge between {a!r} and {b!r}")

    # -- arcs and hulls --------------------------------------------------------

    def arc(self, x: DPoint, y: DPoint) -> "Subdendrite":
        """The unique arc [x, y]: the hull of its two ends, degenerate when x == y."""
        return self.hull((x, y))

    def _lower(self, e: Edge):
        """The endpoint of ``e`` farther from the root."""
        return e.v if self._parent_edge[e.v] is e else e.u

    def hull(self, points: Iterable[DPoint]) -> "Subdendrite":
        """Convex hull: smallest subtree containing the points.

        One upward walk marks the union of the points' root paths; the chain
        of single-branch vertices at its top that are not points is trimmed,
        down to the first branching, point, or edge carrying a point.
        """
        members: set = set()
        on_edge: dict[object, list[Fraction]] = {}
        starts = []
        for p in points:
            p = self.check_point(p)
            if isinstance(p, VertexPoint):
                members.add(p.vertex)
                starts.append(p.vertex)
            else:
                on_edge.setdefault(p.edge, []).append(p.t)
                starts.append(self._parent[self._lower(self._edge_by_id[p.edge])])
        if not starts:
            raise EmptySet("hull of an empty set")
        marked: set = set()
        below: dict[object, list[Edge]] = {}
        for v in starts:
            while v not in marked:
                marked.add(v)
                pe = self._parent_edge[v]
                if pe is None:
                    break
                v = self._parent[v]
                below.setdefault(v, []).append(pe)
        top = self._order[0]  # the root, where the first walk ended
        for eid in on_edge:
            e = self._edge_by_id[eid]
            if self._lower(e) not in marked:
                below.setdefault(self._parent[self._lower(e)], []).append(e)
        apex_edge = None
        while top not in members and len(below.get(top, ())) == 1:
            marked.discard(top)
            e = below.pop(top)[0]
            if e.eid in on_edge:
                apex_edge = e
                break
            top = self._lower(e)
        edges = [e for hanging in below.values() for e in hanging]
        if apex_edge is not None:
            edges.append(apex_edge)
        portions: dict[object, tuple[Fraction, Fraction]] = {}
        for e in edges:
            ends = on_edge.get(e.eid)
            if ends is None:  # an edge without points lies between two marked vertices
                portions[e.eid] = (ZERO, ONE)
                continue
            upper_end, lower_end = (ZERO, ONE) if self._lower(e) == e.v else (ONE, ZERO)
            if e is not apex_edge:
                ends = ends + [upper_end]
            if self._lower(e) in marked:
                ends = ends + [lower_end]
            portions[e.eid] = (min(ends), max(ends))
        return Subdendrite(self, frozenset(marked), portions)


def _node(p: DPoint):
    """A point's node in a tree: a vertex by its id, a point inside an edge as itself."""
    return p.vertex if isinstance(p, VertexPoint) else p


def _point(n) -> DPoint:
    return n if isinstance(n, EdgePoint) else VertexPoint(n)


class Subdendrite:
    """A connected union of vertices and rational edge portions.

    ``portions`` maps edge ids to ``(lo, hi)`` parts, in no set order, and
    is never mutated.  Canonical form: portions touching an edge end imply
    the end vertex is in the vertex set; parameter-0/1 degenerate portions
    are stored as vertices.  The constructor trusts its input to be
    canonical; :meth:`_make` canonicalises and checks.
    """

    __slots__ = ("dendrite", "vertices", "portions")

    def __init__(self, dendrite: Dendrite, vertices: frozenset, portions: dict):
        self.dendrite = dendrite
        self.vertices = vertices
        self.portions = portions

    @classmethod
    def _make(cls, dendrite: Dendrite, vertices: Iterable,
              portions: Mapping) -> "Subdendrite":
        vset = set(vertices)
        parts: dict[object, tuple[Fraction, Fraction]] = {}
        for eid, (lo, hi) in portions.items():
            e = dendrite.edge(eid)
            lo, hi = frac(lo), frac(hi)
            if lo < 0 or hi > 1 or lo > hi:
                raise PointOffDendrite(f"bad portion [{lo}, {hi}] on edge {eid!r}")
            if lo == 0:
                vset.add(e.u)
            if hi == 1:
                vset.add(e.v)
            if lo == hi:
                if 0 < lo < 1:
                    parts[eid] = (lo, hi)
                continue
            parts[eid] = (lo, hi)
        for v in vset:
            if v not in dendrite.vertices:
                raise PointOffDendrite(f"unknown vertex {v!r}")
        return cls(dendrite, frozenset(vset), parts)

    def __eq__(self, other):
        return (isinstance(other, Subdendrite)
                and self.vertices == other.vertices
                and self.portions == other.portions)

    def __hash__(self):
        return hash((self.vertices, frozenset(self.portions)))

    def __repr__(self):
        parts = sorted(self.portions.items(), key=lambda item: id_key(item[0]))
        return f"Subdendrite({sorted(self.vertices, key=id_key)}, {parts})"

    def is_empty(self) -> bool:
        return not self.vertices and not self.portions

    def contains(self, p: DPoint) -> bool:
        p = self.dendrite.check_point(p)
        if isinstance(p, VertexPoint):
            return p.vertex in self.vertices
        part = self.portions.get(p.edge)
        return part is not None and part[0] <= p.t <= part[1]

    def _degrees(self) -> dict:
        """The number of segments at each node: a vertex by its id, a portion
        end inside its edge as an ``EdgePoint`` (the convention of ``_node``)."""
        edge = self.dendrite._edge_by_id
        degree = dict.fromkeys(self.vertices, 0)
        for eid, (lo, hi) in self.portions.items():
            e = edge[eid]
            a = e.u if lo == 0 else EdgePoint(eid, lo)
            b = e.v if hi == 1 else EdgePoint(eid, hi)
            step = 0 if a == b else 1  # a single point inside the edge has no segment
            degree[a] = degree.get(a, 0) + step
            degree[b] = degree.get(b, 0) + step
        return degree

    def endpoint_set(self) -> "FiniteClosedSet":
        """Points whose removal keeps the subdendrite connected (tree leaves)."""
        return FiniteClosedSet(self.dendrite,
                               [_point(n) for n, d in self._degrees().items() if d <= 1])

    def diameter(self) -> Fraction:
        """The largest distance along the subdendrite, in one bottom-up pass.

        Each portion is a full edge, a stub hanging below its upper vertex, a
        stub rising above its lower vertex, or a lone segment touching
        neither end.  Stubs are branches of the vertex they touch; full edges
        carry a vertex's longest downward reach to its parent.  Folding the
        two longest branches per vertex, deepest vertices first, gives the
        longest path through each vertex.  A disconnected subdendrite gets
        the largest diameter of its pieces.
        """
        X = self.dendrite
        branches: dict[object, list[Fraction]] = {v: [] for v in self.vertices}
        up_edge: dict[object, Fraction] = {}  # lower vertex -> weight of its full parent edge
        best = ZERO
        for eid, (lo, hi) in self.portions.items():
            e = X.edge(eid)
            at_u, at_v = lo == 0, hi == 1
            if at_u and at_v:
                up_edge[X._lower(e)] = e.weight
            elif at_u or at_v:
                branches[e.u if at_u else e.v].append((hi - lo) * e.weight)
            else:
                best = max(best, (hi - lo) * e.weight)
        for v in sorted(branches, key=X._depth.__getitem__, reverse=True):
            reach = branches[v]
            if len(reach) > 1:
                reach.sort(reverse=True)
                best = max(best, reach[0] + reach[1])
            if v in up_edge:
                w = up_edge[v]
                branches[X._parent[v]].append(reach[0] + w if reach else w)
            elif reach:
                best = max(best, reach[0])
        return best


class FiniteClosedSet:
    """A finite, duplicate-free set of exact dendrite points."""

    __slots__ = ("dendrite", "points")

    def __init__(self, dendrite: Dendrite, points: Iterable[DPoint]):
        canonical = {dendrite.check_point(p) for p in points}
        self.dendrite = dendrite
        self.points = frozenset(canonical)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(sorted(self.points, key=point_key))

    def __contains__(self, p):
        return self.dendrite.check_point(p) in self.points

    def __eq__(self, other):
        return (isinstance(other, FiniteClosedSet)
                and self.points == other.points)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"FiniteClosedSet({sorted(self.points, key=point_key)})"


def _integer_lengths(dendrite: Dendrite, points: Sequence[DPoint]):
    """``(L, lengths, places)``: each edge's weight, and per point its place
    ``(vertex, None)`` or ``(edge id, s)`` with ``s`` its distance from the
    edge's ``u`` end, as integers over ``L``, twice their least common
    denominator, so that half of every length is whole."""
    edges, edge = dendrite.edges, dendrite._edge_by_id
    offsets = [p.t * edge[p.edge].weight if isinstance(p, EdgePoint) else None for p in points]
    lcd, _ = integer_scale(chain((e.weight for e in edges), filter(None, offsets)))
    scale, length = integer_scale([Fraction(1, 2 * lcd)])  # L = 2 * lcd, and x -> x*L
    places = [(p.vertex, None) if s is None else (p.edge, length(s))
              for p, s in zip(points, offsets)]
    return scale, {e.eid: length(e.weight) for e in edges}, places


def _sweep_to(dendrite: Dendrite, lengths: Mapping, places: Iterable) -> tuple[dict, dict]:
    """One sweep to the target ``places`` (see :func:`_integer_lengths`): every
    vertex's distance to them, and their sorted offsets on each edge."""
    init: dict[object, int] = {}
    on_edge: dict[object, list[int]] = {}
    for where, s in places:
        if s is None:
            init[where] = 0
            continue
        e = dendrite._edge_by_id[where]
        for v, c in ((e.u, s), (e.v, lengths[where] - s)):
            if init.get(v, c) >= c:
                init[v] = c
        on_edge.setdefault(where, []).append(s)
    if not init:
        raise EmptySet("distance to an empty set")
    for offsets in on_edge.values():
        offsets.sort()
    return _sweep_distances(dendrite, init, lengths), on_edge


def _sweep_distances(dendrite: Dendrite, init: Mapping, weight: Mapping) -> dict:
    """Least ``init[s] + d(s, v)`` over the seed vertices ``s``, for every vertex ``v``.

    Two passes over the rooted tree, up then down, on edge lengths ``weight``:
    integers over one common denominator, or exact weights in the tests'
    ``Fraction`` reference kernel.  ``None`` marks a vertex not reached yet.
    """
    dist = dict.fromkeys(dendrite.vertices)
    dist.update(init)
    order, parent, parent_edge = dendrite._order, dendrite._parent, dendrite._parent_edge
    for v in reversed(order):
        pe = parent_edge[v]
        if pe is None or dist[v] is None:
            continue
        cand = dist[v] + weight[pe.eid]
        up = parent[v]
        if dist[up] is None or cand < dist[up]:
            dist[up] = cand
    for v in order:
        pe = parent_edge[v]
        if pe is None:
            continue
        up = parent[v]
        if dist[up] is not None:
            cand = dist[up] + weight[pe.eid]
            if dist[v] is None or cand < dist[v]:
                dist[v] = cand
    return dist


def _distances_at(dendrite: Dendrite, lengths: Mapping, swept: tuple[dict, dict],
                  places: Iterable) -> list[int]:
    """The distance from each place to the targets ``swept``: a vertex's sweep
    value, or along an edge the nearer route through either end or to a
    target on the edge, where only the two found by bisection can win."""
    dist, on_edge = swept
    edge = dendrite._edge_by_id
    out = []
    for where, s in places:
        if s is None:
            out.append(dist[where])
            continue
        e = edge[where]
        d = min(dist[e.u] + s, dist[e.v] + lengths[where] - s)
        offsets = on_edge.get(where)
        if offsets:
            i = bisect_left(offsets, s)
            if i < len(offsets):
                d = min(d, offsets[i] - s)
            if i:
                d = min(d, s - offsets[i - 1])
        out.append(d)
    return out


def set_distance(dendrite: Dendrite, p: DPoint, targets: FiniteClosedSet) -> Fraction:
    scale, lengths, places = _integer_lengths(dendrite, [*targets.points, dendrite.check_point(p)])
    swept = _sweep_to(dendrite, lengths, places[:-1])
    return Fraction(_distances_at(dendrite, lengths, swept, places[-1:])[0], scale)


def _two_nearest(entries) -> list[tuple[int, int]]:
    """The two smallest (distance, source) entries with different sources."""
    out = []
    for d, i in sorted(entries):
        if not out or out[0][1] != i:
            out.append((d, i))
            if len(out) == 2:
                break
    return out


def nearest_other_distances(dendrite: Dendrite, points: Sequence[DPoint]
                            ) -> list[Fraction | None]:
    """Distance from each point to the nearest other one, via one tree sweep.

    A two-pass dynamic program carries, per vertex, the two nearest sources
    with different indices, so excluding the point itself leaves its nearest
    other.  Points on one edge also see their neighbours along it.  ``None``
    marks a point when there is no other point.  Lengths are integers over
    one common denominator (edge weights and the points' offsets along their
    edges); only the results become ``Fraction``s.
    """
    points = [dendrite.check_point(p) for p in points]
    scale, W, places = _integer_lengths(dendrite, points)
    near: dict[object, list[tuple[int, int]]] = {}
    along: dict[object, list[tuple[int, int]]] = {}
    anchors = []  # per point, (vertex, scaled cost from the point) pairs
    for i, (where, s) in enumerate(places):
        if s is None:
            ends = [(where, 0)]
        else:
            e = dendrite._edge_by_id[where]
            ends = [(e.u, s), (e.v, W[where] - s)]
            along.setdefault(where, []).append((s, i))
        anchors.append(ends)
        for v, c in ends:
            near.setdefault(v, []).append((c, i))
    near = {v: _two_nearest(seeds) for v, seeds in near.items()}

    def carry(src, dst, w):
        moved = [(d + w, i) for d, i in near[src]]
        near[dst] = _two_nearest(near[dst] + moved) if dst in near else moved

    order = dendrite._order
    for v in reversed(order):
        pe = dendrite._parent_edge[v]
        if pe is not None and v in near:
            carry(v, dendrite._parent[v], W[pe.eid])
    for v in order:
        pe = dendrite._parent_edge[v]
        if pe is not None and dendrite._parent[v] in near:
            carry(dendrite._parent[v], v, W[pe.eid])
    cands = [[c + d for v, c in ends for d, j in near[v] if j != i]
             for i, ends in enumerate(anchors)]
    for row in along.values():
        row.sort()
        for (s, i), (t, j) in zip(row, row[1:]):
            cands[i].append(t - s)
            cands[j].append(t - s)
    return [Fraction(min(c), scale) if c else None for c in cands]


def subdendrite_gates(dendrite: Dendrite, sub: Subdendrite,
                      points: Iterable[DPoint]) -> list[DPoint]:
    """The gate of each query point on the connected ``sub``: its first point of ``sub``.

    In a tree the gate is also the nearest point, yet it needs no distance.
    A point on an edge that ``sub`` covers part of is clamped into that
    portion.  Any other point climbs towards the root (memoised per vertex)
    to the first point of ``sub`` it meets, or to ``sub``'s top point, the
    one nearest the root, if its root path misses ``sub``.
    """
    if sub.dendrite is not dendrite and not dendrite.same_space(sub.dendrite):
        raise DendriteMismatch("subdendrite lives on a different dendrite")
    if sub.is_empty():
        raise EmptySubdendrite("cannot retract onto an empty subdendrite")
    parent, parent_edge, lower = dendrite._parent, dendrite._parent_edge, dendrite._lower
    portions = sub.portions
    # a top point has nothing of sub right above it; each piece of sub has one
    tops: list[DPoint] = []
    entry: dict[object, DPoint] = {}  # edge id -> first point of sub met climbing the edge
    for eid, (lo, hi) in portions.items():
        e = dendrite.edge(eid)
        first, last = (lo, hi) if lower(e) == e.u else (hi, lo)
        entry[eid] = dendrite.point(eid, first)
        if isinstance(dendrite.point(eid, last), EdgePoint):  # stops below the upper vertex
            tops.append(dendrite.point(eid, last))
    gate_of = {v: VertexPoint(v) for v in sub.vertices}  # memo: vertex -> its gate
    tops += [g for v, g in gate_of.items()
             if parent_edge[v] is None or entry.get(parent_edge[v].eid) != g]
    if len(tops) != 1:
        raise DendrodynError("cannot retract onto a disconnected subdendrite")
    top = tops[0]

    def climb(v) -> DPoint:
        path = []
        while v not in gate_of:
            path.append(v)
            pe = parent_edge[v]
            if pe is None or pe.eid in entry:
                gate_of[v] = top if pe is None else entry[pe.eid]
                break
            v = parent[v]
        for w in path:
            gate_of[w] = gate_of[v]
        return gate_of[v]

    gates = []
    for p in points:
        p = dendrite.check_point(p)
        if isinstance(p, VertexPoint):
            start = p.vertex
        else:
            part = portions.get(p.edge)
            if part is not None:
                gates.append(dendrite.point(p.edge, min(max(p.t, part[0]), part[1])))
                continue
            start = parent[lower(dendrite.edge(p.edge))]
        gates.append(climb(start))
    return gates


def hausdorff_distance(a: FiniteClosedSet, b: FiniteClosedSet) -> Fraction:
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("Hausdorff distance needs non-empty sets")
    if not a.dendrite.same_space(b.dendrite):
        raise DendriteMismatch("sets live on different dendrites")

    X = a.dendrite
    scale, lengths, places = _integer_lengths(X, [*a.points, *b.points])
    at_a, at_b = places[:len(a)], places[len(a):]

    def directed(src: list, dst: list) -> int:
        return max(_distances_at(X, lengths, _sweep_to(X, lengths, dst), src))

    return Fraction(max(directed(at_a, at_b), directed(at_b, at_a)), scale)


def mesh(cover: Sequence[Subdendrite]) -> Fraction:
    cells = list(cover)
    if not cells:
        raise EmptyCover("mesh of an empty cover")
    return max(cell.diameter() for cell in cells)


def eps_grid_values(eps_grid: Sequence) -> list[Fraction]:
    """An epsilon grid as Fractions; ValueError unless positive and strictly decreasing."""
    eps_grid = [frac(e) for e in eps_grid]
    if any(e <= 0 for e in eps_grid):
        raise ValueError("epsilon grid entries must be positive")
    if any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    return eps_grid
