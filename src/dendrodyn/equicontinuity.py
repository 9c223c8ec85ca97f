"""Sub-tree towers, frontier covers and the equicontinuity certificate.

The tower collects finite orbits among the branch points of the invariant
hull, ordered by distance from a fixed scan root, and takes hulls of their
unions.  Around each frontier point of a tower level hangs a cover cell: the
closure of the minimal-set portions attached there and nowhere else.  If every
generator permutes the cells exactly and the cell meshes shrink, one modulus
works for the whole generated group, which is the certificate's content.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from .dendrite import (
    Dendrite,
    DPoint,
    EdgePoint,
    FiniteClosedSet,
    Subdendrite,
    VertexPoint,
    _distances_at,
    _integer_lengths,
    _node,
    _point,
    _sweep_to,
    eps_grid_values,
)
from .errors import (
    BudgetExceeded,
    CoverageGap,
    EmptyCover,
    FrontierEmpty,
    NoFiniteOrbitFound,
    NotProbability,
)
from .homeo import apply, image_subdendrite
from .action import GeneratorSet, _is_closed, detect_finite_orbit, word_ball, word_images
from .measure import PLMeasure, push_forward
from .util import Record, frac, id_key, integer_scale, point_key

ZERO = Fraction(0)


class TowerLevel(Record):
    index: int
    orbit: FiniteClosedSet
    frontier: FiniteClosedSet
    strict: bool


class TreeTower(Record, uncompared=("rooted",)):
    levels: tuple[TowerLevel, ...]
    rooted: _RootedHull  # the hull of the minimal set and every level, ranked by level
    corrupt_cover: bool = False  # the negative control: every cover loses part of a cell

    def __len__(self):
        return len(self.levels)

    def cover(self, n: int) -> FrontierCover:
        """The cover of level ``n``'s tree; raises its coverage gap, if any.

        A tower built with ``corrupt_cover`` hands out the cover through
        :func:`tamper_remove_edge`.
        """
        cover = self.rooted.cover(n, n)
        return tamper_remove_edge(cover) if self.corrupt_cover else cover


def _branch_order(X: Dendrite, hull: Subdendrite) -> list:
    """The hull's branch points (vertices only), nearest its smallest vertex first.

    A function of its own, so that the sweep's per-vertex dicts are freed
    before the tower's rooted hull is built (peak memory).
    """
    branch_points = [v for v, d in hull._degrees().items() if d >= 3]
    if not branch_points:
        raise NoFiniteOrbitFound("the hull has no branch points to scan")
    _, lengths, _ = _integer_lengths(X, ())
    from_root, _ = _sweep_to(X, lengths, [(min(hull.vertices, key=id_key), None)])
    branch_points.sort(key=lambda v: (from_root[v], id_key(v)))
    return branch_points


def build_tree_tower(gens: GeneratorSet, m: FiniteClosedSet, n_max: int,
                     *, minimal_class: str = "cantor-like",
                     orbit_budget: int | None = None,
                     corrupt_cover: bool = False) -> TreeTower:
    """Nested sub-trees of the hull of ``m`` with finite-orbit frontiers.

    ``minimal_class`` is "cantor-like" or "finite", which short-circuits to
    the one-level tower [m]; ``n_max`` must be at least 1 (``ValueError``
    otherwise).  Branch points are scanned in increasing distance from the
    hull's smallest vertex; the first certified orbits win.  Level n's tree
    is the hull of the first n orbits; every frontier is read off one rooted
    hull, which the tower keeps for its covers.  ``corrupt_cover`` makes the
    tower the negative control, whose covers are corrupted.
    """
    if minimal_class not in ("finite", "cantor-like"):
        raise ValueError(f"minimal_class must be 'finite' or 'cantor-like', got {minimal_class!r}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    X = gens.dendrite
    hull = X.hull(m)
    if minimal_class == "finite":
        rooted = _RootedHull(X, hull, m, [m])
        return TreeTower((TowerLevel(1, m, rooted.frontiers[0], strict=True),), rooted,
                         corrupt_cover)

    budget = orbit_budget if orbit_budget is not None else max(64, 2 ** n_max)
    orbits: list[FiniteClosedSet] = []
    visited: set[DPoint] = set()
    pending_growth = None
    for b in _branch_order(X, hull):
        pb = VertexPoint(b)
        if pb in visited:
            continue
        result = detect_finite_orbit(gens, pb, budget)
        if not result.found:
            pending_growth = result.growth
            continue
        orbits.append(result.orbit)
        visited.update(result.orbit.points)
        if len(orbits) >= n_max:
            break
    if not orbits:  # the scan met a branch point, so each one ran out of budget
        raise BudgetExceeded(f"no orbit closed within budget {budget}; growth {pending_growth}")

    if not all(map(hull.contains, visited)):  # an orbit leaves hull(m), so m is not invariant
        hull = X.hull(chain(m.points, visited))
    rooted = _RootedHull(X, hull, m, orbits)
    levels = []
    for i, (orb, frontier) in enumerate(zip(orbits, rooted.frontiers), start=1):
        if not _is_closed(gens, dict.fromkeys(frontier)):
            raise CoverageGap(f"frontier at level {i} is not generator-closed")
        levels.append(TowerLevel(i, orb, frontier, frontier == orb))
    return TreeTower(tuple(levels), rooted, corrupt_cover)


class FrontierCover(Record):
    level: int
    cells: tuple[tuple[DPoint, Subdendrite], ...]
    diameters: tuple[Fraction, ...]  # per cell, in the order of ``cells``

    def mesh(self) -> Fraction:
        if not self.diameters:
            raise EmptyCover("mesh of an empty cover")
        return max(self.diameters)


class _RootedHull:
    """A tower's hull, rooted at a first-level point, with two labels per node.

    Level n's tree is the hull of the point sets ``levels[:n]``; the hull
    must hold them all.  Nodes are the hull's vertices (by id) and its cut
    points (``EdgePoint``s): the minimal-set and level points inside edges.
    A segment runs between consecutive nodes along a portion, kept as an
    ``(edge id, (lo, hi))`` item in order along its edge; an uncut portion
    keeps the hull's own ``(lo, hi)``, which the cells then share.  Nodes are
    numbered breadth-first from the root, the least first-level point by
    ``point_key``, so each segment has a lower node.  Every level tree holds
    the root, so it is the union of the arcs from the root to its points.

    A node's rank is the first level with a point at or below it: the node
    lies in level n's tree exactly when its rank is at most n, and is a
    frontier point there when, besides, no child (at the root, no two
    children) has rank at most n.  Its diameter below, from one bottom-up
    pass on segment lengths that are integers over the common denominator
    ``scale``, is the larger of its two longest reaches summed and the
    largest diameter below a child; the same pass carries its distance to
    the nearest minimal-set node below.  Each cover level is then one
    top-down pass (:meth:`cover`), and each level's gap one bottom-up pass
    over that level's tree (:meth:`gap`).
    """

    def __init__(self, dendrite: Dendrite, hull: Subdendrite, m: FiniteClosedSet,
                 levels: Sequence[FiniteClosedSet]):
        X = dendrite
        anchors = [a for points in levels for a in points.points]
        at: dict[object, set] = {}  # edge id -> cut parameters
        for p in chain(m.points, anchors):
            if isinstance(p, EdgePoint):
                at.setdefault(p.edge, set()).add(p.t)
        adj: dict[object, list] = {v: [] for v in hull.vertices}
        items, lengths = [], []  # per segment
        for item in hull.portions.items():
            eid, (lo, hi) = item
            e = X._edge_by_id[eid]
            ts = sorted(t for t in at[eid] if lo < t < hi) if eid in at else ()
            whole = not ts and lo == 0 and hi == 1  # the common case
            if whole:
                run = ((lo, e.u), (hi, e.v))
            else:
                run = [(t, e.u if t == 0 else e.v if t == 1 else EdgePoint(eid, t))
                       for t in (lo, *ts, hi)]
            if lo == hi:
                adj[run[0][1]] = []
                continue
            for (a, na), (b, nb) in zip(run, run[1:]):
                adj.setdefault(na, []).append((nb, len(items)))
                adj.setdefault(nb, []).append((na, len(items)))
                items.append(item if not ts else (eid, (a, b)))
                lengths.append(e.weight if whole else (b - a) * e.weight)
        self.scale, length = integer_scale(lengths)
        top = _node(min(levels[0].points, key=point_key))
        order, index, parent = [top], {top: 0}, [0]
        lower = [0] * len(items)  # per segment, its lower node
        for k, n in enumerate(order):  # breadth-first; the list grows as it is read
            for nb, i in adj[n]:
                if nb not in index:
                    index[nb] = lower[i] = len(order)
                    order.append(nb)
                    parent.append(k)
        reach = [0] * len(order)  # the length of the segment above each node
        for i, k in enumerate(lower):
            reach[k] = length(lengths[i])
        past = len(levels) + 1
        rank = [past] * len(order)  # past every level until a level point is met
        entered: dict[int, list[int]] = {}  # node -> its children's ranks, least first
        for n, points in enumerate(levels, start=1):
            for a in points.points:  # mark the way up, down to an earlier level's mark
                k = index[_node(a)]
                while rank[k] > n:
                    rank[k] = n
                    if k:
                        k = parent[k]
                        entered.setdefault(k, []).append(n)
        self.minimal = minimal = bytearray(len(order))  # 1 at the minimal set's nodes
        for x in m.points:
            minimal[index[_node(x)]] = 1
        self.far = far = sum(reach) + 1  # past every distance in the hull
        near = [0 if x else far for x in minimal]  # to the nearest minimal-set node below
        height, second, diam = [0] * len(order), [0] * len(order), [0] * len(order)
        for k in range(len(order) - 1, 0, -1):
            d = max(diam[k], height[k] + second[k])
            diam[k] = d
            p, r = parent[k], height[k] + reach[k]
            if r > height[p]:
                height[p], second[p] = r, height[p]
            elif r > second[p]:
                second[p] = r
            if d > diam[p]:
                diam[p] = d
            if near[k] + reach[k] < near[p]:
                near[p] = near[k] + reach[k]
        self.dendrite, self.order, self.parent, self.rank = X, order, parent, rank
        self.items, self.lower = items, lower
        self.index = {n: index[n] for n in map(_node, anchors)}
        self.below = {k: (diam[k], near[k]) for k in self.index.values()}
        self.children = [(k, height[k] + reach[k], diam[k], near[k] + reach[k])
                         for k in range(1, len(order)) if parent[k] == 0]
        # every level tree's nodes but the root, each below its parent, deepest first
        self.tree = [(k, reach[k]) for k in range(len(order) - 1, 0, -1) if rank[k] < past]
        ends: list[list] = [[] for _ in levels]  # every tree's endpoints are level points
        for node, k in self.index.items():
            kids = entered.get(k, ())[not k:]  # a root with one child in the tree is an end
            for n in range(rank[k], kids[0] if kids else past):
                ends[n - 1].append(_point(node))
        self.frontiers = [FiniteClosedSet(X, points) for points in ends]

    def cover(self, n: int, level: int) -> FrontierCover:
        """The cover, labelled ``level``, of the ``n``-th level's tree.

        A top-down pass labels every node with its gate on the tree, the
        first node of rank at most ``n`` on its way up.  A minimal-set point
        whose gate is no frontier point is a coverage gap; every other node
        and the segment above it belong to its gate's cell.  A cell meets an
        edge in one interval, and that edge's segments come in order along
        it, so a cut portion's segments merge into their first ``lo`` and
        last ``hi``.
        """
        order, index, parent, rank = self.order, self.index, self.parent, self.rank
        frontier = self.frontiers[n - 1]
        gate = [0] * len(order)
        for k in range(1, len(order)):
            gate[k] = k if rank[k] <= n else gate[parent[k]]
        anchors = {index[_node(a)]: a for a in frontier.points}
        stray = [k for k, x in enumerate(self.minimal) if x and gate[k] not in anchors]
        if stray:
            x, g = min(((_point(order[k]), _point(order[gate[k]])) for k in stray),
                       key=lambda xg: point_key(xg[0]))
            raise CoverageGap(f"minimal-set point {x!r} attaches at {g!r}, outside the frontier")
        members = {k: (set(), {}) for k in anchors}
        for (eid, seg), k in zip(self.items, self.lower):
            if rank[k] <= n:
                continue
            nodes, parts = members[gate[k]]
            part = parts.get(eid)
            parts[eid] = seg if part is None else (part[0], seg[1])
            if not isinstance(order[k], EdgePoint):
                nodes.add(order[k])
        cells, diameters = [], []
        for a in sorted(frontier.points, key=point_key):
            k = index[_node(a)]
            nodes, parts = members[k]
            if isinstance(a, VertexPoint):
                nodes.add(a.vertex)
            elif not parts:
                parts[a.edge] = (a.t, a.t)
            cells.append((a, Subdendrite(self.dendrite, frozenset(nodes), parts)))
            if k == 0:  # the root's cell leaves out the branch holding the tree
                outer = [(r, d) for c, r, d, _ in self.children if rank[c] > n]
                reach = sorted((r for r, _ in outer), reverse=True)
                d = max([sum(reach[:2])] + [d for _, d in outer])
            else:
                d = self.below[k][0]
            diameters.append(Fraction(d, self.scale))
        return FrontierCover(level, tuple(cells), tuple(diameters))

    def gap(self, n: int) -> Fraction | None:
        """The least distance between minimal-set points in different cells of level ``n``.

        A cell meets the level tree only at its anchor, so points in the
        cells of anchors a and b lie h_a + d(a, b) + h_b apart at least,
        h being an anchor's distance to the nearest minimal-set point in its
        cell.  One bottom-up pass over the tree's nodes carries the least
        h_a + d(a, node) over the anchors below each node, and pairs the
        value coming up from each child with the least one met so far.
        None when fewer than two cells hold a minimal-set point.
        """
        rank, parent, far = self.rank, self.parent, self.far
        best = {}  # node -> the least h_a + d(a, node) over the anchors at or below it
        for a in self.frontiers[n - 1].points:
            k = self.index[_node(a)]
            if k:
                h = self.below[k][1]
            else:  # the root's cell is its own point and the branches off the tree
                h = 0 if self.minimal[0] else min(
                    [far] + [up for c, _, _, up in self.children if rank[c] > n])
            if h < far:
                best[k] = h
        least = far
        for k, reach in self.tree:
            if rank[k] > n or k not in best:
                continue
            d, p = best[k] + reach, parent[k]
            met = best.get(p)
            if met is None or d < met:
                best[p] = d
            if met is not None and met + d < least:
                least = met + d
        return None if least == far else Fraction(least, self.scale)


def frontier_cover(dendrite: Dendrite, m: FiniteClosedSet,
                   tree: Subdendrite, level: int = 0) -> FrontierCover:
    """One cell per frontier point: the arcs to minimal-set points that touch
    the sub-tree only at that frontier point.

    This is the one-level case of a tower's covers, on the hull of ``m`` and
    the tree's frontier.
    """
    frontier = tree.endpoint_set()
    if len(frontier) == 0:
        raise FrontierEmpty("sub-tree has no frontier")
    hull = dendrite.hull(chain(m.points, frontier.points))
    return _RootedHull(dendrite, hull, m, [frontier]).cover(1, level)


class EquivarianceReport(Record):
    level: int
    ok: bool
    counterexample: tuple[str, int, DPoint] | None


def verify_cover_equivariance(gens: GeneratorSet, cover: FrontierCover
                              ) -> EquivarianceReport:
    """Exact per-generator check that cells map onto cells over moved anchors.

    Positive generators suffice: a homeomorphism that permutes the finitely
    many cells exactly has an inverse doing the inverse permutation, and
    compositions extend the property to every word.  The check stops at the
    first failing ``(symbol, anchor)``, generators in order and cells in
    cover order, which is the counterexample.
    """
    cell_of = dict(cover.cells)
    for sym in gens.symbols:
        h = gens.homeo(sym, 1)
        for anchor, cell in cover.cells:
            expected = cell_of.get(apply(h, anchor))
            if expected is None or image_subdendrite(h, cell) != expected:
                return EquivarianceReport(cover.level, False, (sym, 1, anchor))
    return EquivarianceReport(cover.level, True, None)


class CertificateLevel(Record):
    index: int
    mesh: Fraction
    equivariant: bool
    strict: bool
    cell_count: int


class EquicontinuityCertificate(Record):
    verdict: str  # "Certified" | "Failed"
    levels: tuple[CertificateLevel, ...]
    delta_table: tuple[tuple[Fraction, Fraction], ...]
    explanation: str
    witness: tuple | None = None


def _delta_table(meshes: Sequence[Fraction], gaps: Sequence[Fraction | None],
                 eps_grid: Sequence[Fraction]):
    """delta(eps) = the largest min(mesh, gap) over the levels whose mesh is at most eps.

    Points of the minimal set closer than a level's gap share a cell, which
    every group element maps into one cell, so their images are at most the
    mesh apart.  A level with no gap (one cell) gives its mesh; no fitting
    level gives 0.
    """
    rows = []
    for eps in eps_grid:
        fitting = [m if g is None else min(m, g) for m, g in zip(meshes, gaps) if m <= eps]
        rows.append((Fraction(eps), max(fitting) if fitting else ZERO))
    return tuple(rows)


def equicontinuity_certificate(gens: GeneratorSet, tower: TreeTower,
                               *, mesh_target: Fraction | None = None,
                               eps_grid: Sequence[Fraction] | None = None
                               ) -> EquicontinuityCertificate:
    """Check the covers of a tower built from ``gens`` and certify a uniform modulus.

    Certified: every level is exactly equivariant and meshes strictly decay
    (reaching ``mesh_target`` when one is given); such a modulus is valid for
    the entire generated group, not just the sampled generators.  A one-level
    tower shows no decay, and its explanation says so.  Failed states a
    witness.  A tower built with ``corrupt_cover`` is checked on its
    corrupted covers.  A given ``eps_grid`` must be positive and strictly
    decreasing (``ValueError`` otherwise); it and ``mesh_target`` are exact
    rationals (``TypeError`` for a float).
    """
    if eps_grid is not None:
        eps_grid = eps_grid_values(eps_grid)
    if mesh_target is not None:
        mesh_target = frac(mesh_target)
    levels = []
    witness = None
    all_equivariant = True
    meshes: list[Fraction] = []
    gaps: list[Fraction | None] = []
    for level in tower.levels:
        cover = tower.cover(level.index)  # dropped once checked
        report = verify_cover_equivariance(gens, cover)
        if not report.ok and witness is None:
            witness = report.counterexample
        all_equivariant = all_equivariant and report.ok
        cell_mesh = cover.mesh()
        meshes.append(cell_mesh)
        gaps.append(tower.rooted.gap(level.index))
        levels.append(CertificateLevel(level.index, cell_mesh, report.ok,
                                       level.strict, len(cover.cells)))

    if eps_grid is None:
        eps_grid = sorted({m for m in meshes if m > 0} | {Fraction(1)}, reverse=True)
    table = _delta_table(meshes, gaps, eps_grid)

    decaying = all(a > b for a, b in zip(meshes, meshes[1:]))
    target_ok = mesh_target is None or (meshes and meshes[-1] <= mesh_target)
    if not all_equivariant:
        verdict = "Failed"
        explanation = f"equivariance counterexample at {witness!r}"
    elif decaying and target_ok:
        verdict = "Certified"
        if len(meshes) > 1:
            explanation = ("cells are permuted exactly by every generator and the "
                           "mesh decays strictly; the modulus holds for the whole group")
        else:
            explanation = ("cells are permuted exactly by every generator; the modulus "
                           "rests on one level, so no decay is shown")
    else:
        verdict = "Failed"
        explanation = ("mesh sequence does not decay to the requested target"
                       if not target_ok else "mesh sequence is not strictly decreasing")
    return EquicontinuityCertificate(verdict, tuple(levels), table, explanation, witness)


def tamper_remove_edge(cover: FrontierCover) -> FrontierCover:
    """Deterministically corrupt a cover: drop part of the first non-trivial cell."""
    cells = list(cover.cells)
    diameters = list(cover.diameters)
    for i, (anchor, cell) in enumerate(cells):
        if cell.portions:
            portions = dict(cell.portions)
            eid = sorted(portions, key=lambda k: str(k))[0]
            del portions[eid]
            broken = Subdendrite._make(cell.dendrite, set(cell.vertices), portions)
            cells[i] = (anchor, broken)
            diameters[i] = broken.diameter()
            break
    return FrontierCover(cover.level, tuple(cells), tuple(diameters))


# a measure's spread is the radius of the smallest ball holding this share of its mass
MASS_THRESHOLD = Fraction(15, 16)


class ProximalityTrace(Record):
    rows: tuple[tuple[int, Fraction, str], ...]  # (radius, spread, best word)


def _spread(mu: PLMeasure, threshold: Fraction) -> Fraction:
    """Smallest radius of a vertex- or atom-centred closed ball holding the threshold.

    Per centre, one distance sweep (``_sweep_to``) gives every vertex's and
    atom's distance.
    The ball mass is then a non-decreasing function of the radius: an atom is
    a jump at its distance, and a density piece of density r is a ramp of
    slope r over the radii at which the ball sweeps across it.  One sorted
    pass over those breakpoints finds the exact crossing, comparing the
    threshold against the left limit before adding a breakpoint's jumps.

    All of it runs on integers.  Radii are scaled by one common denominator
    ``L`` (edge weights, and piece ends and atom parameters times their edge's
    weight), masses per unit of radius by another, ``M`` (densities, atom
    weights and the threshold), so masses are integers over ``L*M``.  Only
    the crossing becomes a ``Fraction``.
    """
    X = mu.dendrite
    weight = {e.eid: e.weight for e in X.edges}
    spans = [(eid, [(a * weight[eid], b * weight[eid], r) for a, b, r in pieces])
             for eid, pieces in mu.densities.items()]
    inside = {p: p.t * weight[p.edge] for p, _ in mu.atoms if isinstance(p, EdgePoint)}
    scale, length = integer_scale(chain(
        weight.values(), (x for _, rows in spans for a, b, _ in rows for x in (a, b)),
        inside.values()))
    _, rate = integer_scale(chain((r for _, rows in spans for _, _, r in rows),
                                  (w for _, w in mu.atoms), (threshold,)))
    W = {eid: length(w) for eid, w in weight.items()}
    ramps = [(X.edge(eid), W[eid], [(length(a), length(b), rate(r)) for a, b, r in rows])
             for eid, rows in spans]
    # a place is (vertex, None) or (edge id, scaled distance from its u end)
    places = {p: (p.edge, length(s)) for p, s in inside.items()}
    atoms = [places[p] if p in places else (p.vertex, None) for p, _ in mu.atoms]
    jumps = [rate(w) * scale for _, w in mu.atoms]
    theta = rate(threshold) * scale
    # centres: every vertex, then every atom inside an edge (an atom at a
    # vertex is already a centre)
    centers = [(v, None) for v in sorted(X.vertices, key=lambda v: point_key(VertexPoint(v)))]
    centers.extend(places.values())
    best_num, best_den = 1, 0  # the best radius so far times L, as a ratio; 1/0 is none yet
    for where, c in centers:
        swept = _sweep_to(X, W, [(where, c)])
        dist = swept[0]
        events = [(d, jump, 0)  # (radius, jump, slope change)
                  for d, jump in zip(_distances_at(X, W, swept, atoms), jumps)]
        for e, w, rows in ramps:
            if c is not None and e.eid == where:
                # the centre's own edge is swept outwards on both sides of c
                for a, b, r in rows:
                    if b > c:
                        events.append((max(a, c) - c, 0, r))
                        events.append((b - c, 0, -r))
                    if a < c:
                        events.append((c - min(b, c), 0, r))
                        events.append((c - a, 0, -r))
                continue
            # in a tree the far endpoint is exactly one edge weight farther,
            # so the ball enters every other edge from its nearer endpoint
            du, dv = dist[e.u], dist[e.v]
            for a, b, r in rows:
                if du < dv:
                    events.append((du + a, 0, r))
                    events.append((du + b, 0, -r))
                else:
                    events.append((dv + w - b, 0, r))
                    events.append((dv + w - a, 0, -r))
        events.sort()
        mass = slope = prev = 0
        for r, jump, dslope in events:
            if prev * best_den >= best_num:
                break
            left = mass + slope * (r - prev)
            if left >= theta:
                # mass < theta <= left, so slope > 0, unless the
                # threshold is already met by the empty walk
                num, den = (prev * slope + theta - mass, slope) if slope else (prev, 1)
            elif left + jump >= theta:
                num, den = r, 1
            else:
                mass, slope, prev = left + jump, slope + dslope, r
                continue
            if num * best_den < best_num * den:
                best_num, best_den = num, den
            break
    assert best_den, "a ball of full diameter always reaches the threshold"
    return Fraction(best_num, best_den * scale)


def strong_proximality_scan(gens: GeneratorSet, mu0: PLMeasure, radius: int
                            ) -> ProximalityTrace:
    """Greedy contraction trace: the running-minimum spread over the word ball.

    Diagnostic only.  A trace falling toward zero is evidence that pushed
    measures concentrate toward a point mass; an isometric action keeps the
    trace flat.
    """
    if not mu0.is_probability():
        raise NotProbability("the scanned measure must be a probability")
    best = best_word = None
    last = None  # (measure, spread) of the last spread computed
    rows = {}  # by radius; the ball lists words by length, so the last one sets the row
    for w, mu in word_images(gens, word_ball(gens, radius), mu0, push_forward):
        if last is None or mu != last[0]:  # an equal measure has the same spread
            last = (mu, _spread(mu, MASS_THRESHOLD))
        s = last[1]
        if best is None or s < best:
            best, best_word = s, w
        rows[len(w)] = (len(w), best, str(best_word))
    return ProximalityTrace(tuple(rows.values()))
