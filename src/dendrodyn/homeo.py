"""Exact homeomorphisms of dendrites.

Every representable homeomorphism is a vertex permutation together with one
monotone piecewise-linear bijection of [0, 1] per edge, mapping the edge onto
its image edge in storage coordinates.  Interval maps (the single-edge case)
and tree automorphisms are the same object, so composition, inversion and
canonical equality are uniform.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .dendrite import Dendrite, DPoint, Subdendrite, VertexPoint
from .errors import DendriteMismatch, DendrodynError, InvalidHomeo, PointOffDendrite
from .util import Record, frac, id_key

ZERO = Fraction(0)
ONE = Fraction(1)


class PLMap:
    """A strictly monotone piecewise-linear bijection of [0, 1].

    ``xs`` is strictly increasing from 0 to 1; ``ys`` is strictly monotone with
    endpoint values {0, 1} (increasing maps are orientation-preserving).
    Stored in canonical form: collinear interior breakpoints are merged, so
    equality of canonical maps is equality of functions.  A canonical map with
    two breakpoints is therefore the identity or the flip t -> 1 - t
    (:attr:`linear`); :meth:`identity` and :meth:`flip` return one shared
    instance each, which is safe because nothing mutates a ``PLMap``.
    """

    __slots__ = ("xs", "ys", "increasing", "linear")

    def __init__(self, xs: Sequence, ys: Sequence, _canonical: bool = False):
        xs = tuple(frac(x) for x in xs)
        ys = tuple(frac(y) for y in ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise InvalidHomeo("breakpoint and value lists must match, length >= 2")
        if xs[0] != 0 or xs[-1] != 1:
            raise InvalidHomeo("breakpoints must span [0, 1]")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InvalidHomeo("breakpoints must be strictly increasing")
        if {ys[0], ys[-1]} != {ZERO, ONE}:
            raise InvalidHomeo("boundary values must be 0 and 1")
        increasing = ys[0] == 0
        pairs = zip(ys, ys[1:])
        if increasing and any(a >= b for a, b in pairs):
            raise InvalidHomeo("values must be strictly increasing")
        if not increasing and any(a <= b for a, b in pairs):
            raise InvalidHomeo("values must be strictly decreasing")
        if not _canonical:
            xs, ys = _merge_collinear(xs, ys)
        self.xs = xs
        self.ys = ys
        self.increasing = increasing
        self.linear = len(xs) == 2

    @staticmethod
    def identity() -> "PLMap":
        return _IDENTITY

    @staticmethod
    def flip() -> "PLMap":
        return _FLIP

    def __call__(self, t: Fraction) -> Fraction:
        t = frac(t)
        if t < 0 or t > 1:
            raise PointOffDendrite(f"parameter {t} outside [0, 1]")
        return _pl_value(self.xs, self.ys, t)

    def inverse(self) -> "PLMap":
        if self.linear:
            return self
        if self.increasing:
            return PLMap(self.ys, self.xs)
        return PLMap(tuple(reversed(self.ys)), tuple(reversed(self.xs)))

    def after(self, other: "PLMap") -> "PLMap":
        """The composite self(other(t)), exact on the refined breakpoint grid."""
        if self.linear and other.linear:
            return _IDENTITY if self.increasing == other.increasing else _FLIP
        grid = set(other.xs)
        inv = other.inverse()
        for x in self.xs:
            grid.add(inv(x))
        xs = tuple(sorted(grid))
        ys = tuple(self(other(x)) for x in xs)
        return PLMap(xs, ys)

    def __eq__(self, other):
        return isinstance(other, PLMap) and self.xs == other.xs and self.ys == other.ys

    def __hash__(self):
        return hash((self.xs, self.ys))

    def __repr__(self):
        return f"PLMap({list(self.xs)} -> {list(self.ys)})"


_IDENTITY = PLMap((ZERO, ONE), (ZERO, ONE), _canonical=True)
_FLIP = PLMap((ZERO, ONE), (ONE, ZERO), _canonical=True)


def _pl_value(xs: Sequence[Fraction], ys: Sequence[Fraction], t: Fraction) -> Fraction:
    """The value at ``t`` in [0, 1] of the PL graph with breakpoints ``xs`` from 0 to 1."""
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def _merge_collinear(xs, ys):
    keep = [0]
    for i in range(1, len(xs) - 1):
        a, b, c = keep[-1], i, i + 1
        left = (ys[b] - ys[a]) * (xs[c] - xs[b])
        right = (ys[c] - ys[b]) * (xs[b] - xs[a])
        if left != right:
            keep.append(i)
    keep.append(len(xs) - 1)
    return tuple(xs[i] for i in keep), tuple(ys[i] for i in keep)


class Violation(Record):
    kind: str
    detail: str


class ValidationReport(Record):
    valid: bool
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


class Homeo:
    """Exact homeomorphism: vertex map plus per-edge PL reparametrizations.

    ``edge_map`` sends each edge id to ``(target edge id, PLMap)`` where the
    PL map is expressed in the storage orientation of source and target.
    Construction performs no checking; use :func:`validate` or the checked
    constructors :func:`tree_automorphism` / :func:`interval_homeo`.
    """

    __slots__ = ("dendrite", "vertex_map", "edge_map")

    def __init__(self, dendrite: Dendrite, vertex_map: Mapping, edge_map: Mapping):
        self.dendrite = dendrite
        self.vertex_map = dict(vertex_map)
        self.edge_map = {eid: (target, plm) for eid, (target, plm) in edge_map.items()}

    @classmethod
    def _trusted(cls, dendrite: Dendrite, vertex_map: dict, edge_map: dict) -> "Homeo":
        """Keep maps that the caller built for this homeomorphism and hands over.

        Precondition: two fresh dicts, and every edge entry a
        ``(target, PLMap)`` tuple; nothing is copied or checked.
        """
        h = cls.__new__(cls)
        h.dendrite = dendrite
        h.vertex_map = vertex_map
        h.edge_map = edge_map
        return h

    def canonical_key(self):
        vm = tuple(sorted(self.vertex_map.items(), key=lambda kv: id_key(kv[0])))
        em = tuple(sorted(((eid, tgt, plm.xs, plm.ys)
                           for eid, (tgt, plm) in self.edge_map.items()),
                          key=lambda row: id_key(row[0])))
        return (vm, em)

    def __eq__(self, other):
        return (isinstance(other, Homeo)
                and self.dendrite.same_space(other.dendrite)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        moved = sum(1 for k, v in self.vertex_map.items() if k != v)
        return f"Homeo(<{moved} moved vertices, {len(self.edge_map)} edges>)"


def identity_homeo(dendrite: Dendrite) -> Homeo:
    return Homeo._trusted(dendrite,
                          {v: v for v in dendrite.vertices},
                          {e.eid: (e.eid, PLMap.identity()) for e in dendrite.edges})


def tree_automorphism(dendrite: Dendrite, vertex_map: Mapping,
                      reparams: Mapping | None = None) -> Homeo:
    """Checked constructor from a vertex permutation.

    Each edge (u, v) must map onto an existing edge between the vertex images;
    optional ``reparams`` supplies an increasing PLMap per source edge measured
    from the image of u.
    """
    vm = dict(vertex_map)
    if vm.keys() != dendrite.vertices or set(vm.values()) != dendrite.vertices:
        raise InvalidHomeo("vertex map is not a permutation of the vertex set")
    unknown = reparams.keys() - dendrite._edge_by_id.keys() if reparams else ()
    if unknown:
        raise InvalidHomeo("reparams name unknown edges " + ", ".join(sorted(map(repr, unknown))))
    identity = PLMap.identity()
    edge_map = {}
    for e in dendrite.edges:
        nu, nv = vm[e.u], vm[e.v]
        plm = identity if reparams is None else reparams.get(e.eid, identity)
        if not plm.increasing:
            raise InvalidHomeo("reparams must be orientation-preserving from the u-side")
        try:
            target = dendrite.edge_between(nu, nv)
        except DendrodynError:
            raise InvalidHomeo(f"edge {e.eid!r} has no image edge between "
                               f"{nu!r} and {nv!r}") from None
        if target.u == nu:
            edge_map[e.eid] = (target.eid, plm)
        else:
            edge_map[e.eid] = (target.eid, PLMap.flip().after(plm))
    return Homeo._trusted(dendrite, vm, edge_map)


def interval_homeo(dendrite: Dendrite, xs: Sequence, ys: Sequence) -> Homeo:
    """A PL self-map of a single-edge dendrite (the unit interval)."""
    if len(dendrite.edges) != 1:
        raise InvalidHomeo("interval homeomorphisms need a single-edge dendrite")
    e = dendrite.edges[0]
    plm = PLMap(xs, ys)
    if plm.increasing:
        vm = {e.u: e.u, e.v: e.v}
    else:
        vm = {e.u: e.v, e.v: e.u}
    return Homeo._trusted(dendrite, vm, {e.eid: (e.eid, plm)})


def apply(h: Homeo, p: DPoint) -> DPoint:
    p = h.dendrite.check_point(p)
    if isinstance(p, VertexPoint):
        try:
            return VertexPoint(h.vertex_map[p.vertex])
        except KeyError:
            raise PointOffDendrite(f"vertex {p.vertex!r} missing from map") from None
    try:
        target, plm = h.edge_map[p.edge]
    except KeyError:
        raise PointOffDendrite(f"edge {p.edge!r} missing from map") from None
    return h.dendrite.point(target, plm(p.t))


def compose(first: Homeo, second: Homeo) -> Homeo:
    """The composite applying ``second`` first, then ``first``."""
    if not first.dendrite.same_space(second.dendrite):
        raise DendriteMismatch("cannot compose homeomorphisms of different dendrites")
    vm = {v: first.vertex_map[second.vertex_map[v]] for v in second.vertex_map}
    em = {}
    for eid, (mid, plm2) in second.edge_map.items():
        tgt, plm1 = first.edge_map[mid]
        em[eid] = (tgt, plm1.after(plm2))
    return Homeo._trusted(first.dendrite, vm, em)


def invert(h: Homeo) -> Homeo:
    vm = {}
    for k, v in h.vertex_map.items():
        if v in vm:
            raise InvalidHomeo("vertex map is not injective; no inverse exists")
        vm[v] = k
    em = {}
    for eid, (tgt, plm) in h.edge_map.items():
        if tgt in em:
            raise InvalidHomeo("edge map is not injective; no inverse exists")
        em[tgt] = (eid, plm.inverse())
    if em.keys() != h.edge_map.keys():
        raise InvalidHomeo("edge map is not surjective; no inverse exists")
    return Homeo._trusted(h.dendrite, vm, em)


def validate(h: Homeo) -> ValidationReport:
    """Check the homeomorphism axioms; violations are reported, not raised.

    The checks are structural and cover every point, not samples.  Each
    ``PLMap`` is a strictly monotone bijection of [0, 1] by construction, so a
    bijective vertex map together with a bijective edge map whose images
    agree with it at the endpoints makes ``h`` a homeomorphism.
    """
    X = h.dendrite
    vertices = X.vertices
    violations: list[Violation] = []
    notes: list[str] = []

    if h.vertex_map.keys() != vertices:
        violations.append(Violation("domain", "vertex map domain differs from vertex set"))
    images = set(h.vertex_map.values())
    if len(images) != len(h.vertex_map):
        violations.append(Violation("not-injective",
                                    "vertex map sends two vertices to one"))
    if not images <= vertices:
        violations.append(Violation("off-dendrite", "vertex image outside the dendrite"))
    elif len(images) < len(vertices):
        violations.append(Violation("not-surjective", "vertex map misses vertices"))
    unknown = h.edge_map.keys() - X._edge_by_id.keys()
    if unknown:
        violations.append(Violation("domain", "edge map names unknown edges "
                                              + ", ".join(sorted(map(repr, unknown)))))

    weight_compatible = linear = True
    for e in X.edges:
        entry = h.edge_map.get(e.eid)
        if entry is None:
            violations.append(Violation("edge-missing", f"edge {e.eid!r} has no image"))
            continue
        tgt_id, plm = entry
        try:
            tgt = X.edge(tgt_id)
        except PointOffDendrite:
            violations.append(Violation("off-dendrite",
                                        f"edge {e.eid!r} maps to unknown edge {tgt_id!r}"))
            continue
        nu = h.vertex_map.get(e.u)
        nv = h.vertex_map.get(e.v)
        expected = (tgt.u, tgt.v) if plm.increasing else (tgt.v, tgt.u)
        if (nu, nv) != expected:
            violations.append(Violation(
                "endpoint-mismatch",
                f"edge {e.eid!r}: endpoints map to ({nu!r}, {nv!r}) but the "
                f"assigned image edge runs ({expected[0]!r}, {expected[1]!r})"))
        if tgt.level != e.level:
            violations.append(Violation("level",
                                        f"edge {e.eid!r} changes level "
                                        f"{e.level} -> {tgt.level}"))
        # equal weights are often one shared Fraction, which spares the comparison
        if tgt.weight is not e.weight and tgt.weight != e.weight:
            weight_compatible = False
        if not plm.linear:
            linear = False

    if len({tgt for tgt, _ in h.edge_map.values()}) != len(h.edge_map):
        violations.append(Violation("not-injective", "two edges share an image edge"))

    if not violations:
        # an isometry maps every edge onto one of equal weight by a linear map
        if not weight_compatible:
            notes.append("weights not preserved")
        else:
            notes.append("isometric" if linear else "edge maps not linear")

    return ValidationReport(valid=not violations,
                            violations=tuple(violations),
                            notes=tuple(notes))


def image_subdendrite(h: Homeo, sub: Subdendrite) -> Subdendrite:
    """Exact image of a subdendrite (portions map to portions).

    ``h`` must be a validated homeomorphism, as every generator of a checked
    ``GeneratorSet`` is: its edge map is injective and agrees with its vertex
    map at the endpoints, so the image of a canonical subdendrite is canonical
    with one portion per image edge.  Identity and flip reparametrizations
    relabel a portion without evaluating the map.
    """
    portions: dict = {}
    for eid, (lo, hi) in sub.portions.items():
        tgt, plm = h.edge_map[eid]
        if plm.linear:
            portions[tgt] = (lo, hi) if plm.increasing else (1 - hi, 1 - lo)
        elif plm.increasing:
            portions[tgt] = (plm(lo), plm(hi))
        else:
            portions[tgt] = (plm(hi), plm(lo))
    return Subdendrite(h.dendrite, frozenset({h.vertex_map[v] for v in sub.vertices}),
                       portions)
