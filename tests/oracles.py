"""Metric reference versions of the dendrite's arc and nearest-point queries.

The library finds arcs, gates and retractions from the tree's topology alone
(``Dendrite.hull`` and a root walk in ``subdendrite_gates``).  These are the
earlier algorithms that find them by exact distances instead: ``metric_arc``
joins the closest pair of anchor vertices, ``metric_retract_point`` compares
the distance to every candidate point, and ``swept_gates`` carries (distance,
gate) labels over the whole tree in two passes.  Tests check the library
against them.
"""

from fractions import Fraction
from typing import Iterable

from dendrodyn.dendrite import ONE, ZERO, Dendrite, DPoint, EdgePoint, Subdendrite, VertexPoint
from dendrodyn.errors import DendriteMismatch, EmptySubdendrite
from dendrodyn.util import point_key


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
    for va, ca in X._anchors(x):
        for vb, cb in X._anchors(y):
            d = ca + X.vertex_distance(va, vb) + cb
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
        candidates.append((X.distance(x, VertexPoint(v)), VertexPoint(v)))
    for eid, (lo, hi) in sub.portions:
        e = X.edge(eid)
        if isinstance(x, EdgePoint) and x.edge == eid:
            t = min(max(x.t, lo), hi)
            candidates.append((abs(x.t - t) * e.weight, X.point(eid, t)))
            continue
        du = X.distance(x, VertexPoint(e.u))
        dv = X.distance(x, VertexPoint(e.v))
        candidates.append((du + lo * e.weight, X.point(eid, lo)))
        candidates.append((dv + (1 - hi) * e.weight, X.point(eid, hi)))
    best = min(d for d, _ in candidates)
    winners = {p for d, p in candidates if d == best}
    assert len(winners) == 1, "nearest point on a subtree must be unique"
    return winners.pop()


def swept_gates(dendrite: Dendrite, sub: Subdendrite,
                points: Iterable[DPoint]) -> list[DPoint]:
    """Nearest point of ``sub`` for each query point, via one tree sweep.

    Equivalent to :meth:`Dendrite.retract_point` per point but amortised: a two-pass dynamic
    program carries (distance, gate) labels over the whole tree.
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
    portions = sub.portion_map()
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
