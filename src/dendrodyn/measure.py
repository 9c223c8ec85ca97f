"""Exact measures on dendrites: atoms plus piecewise-constant edge densities.

Piecewise-constant densities are closed under push-forward along piecewise
linear homeomorphisms, so the whole pipeline (canonical measure, transport,
integration, averaging, invariance defects) stays in rational arithmetic.
Mass of a density piece is density x parameter length x edge weight.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .action import Word, reduce_word, word_images
from .dendrite import Dendrite, DPoint, EdgePoint, VertexPoint, _integer_lengths, _sweep_to
from .errors import (
    DendriteMismatch,
    DomainMismatch,
    NotCertifiedOrbit,
    NotProbability,
    UnknownSymbol,
)
from .homeo import Homeo, _pl_value, apply
from .util import Record, frac, id_key, integer_scale, point_key

ZERO = Fraction(0)
ONE = Fraction(1)

Piece = tuple[Fraction, Fraction, Fraction]  # (lo, hi, density)


def _canonical_pieces(pieces: Iterable[Piece]) -> list[Piece]:
    """Checked rows in increasing order, without empty rows or zero densities."""
    rows = sorted((frac(a), frac(b), frac(r)) for a, b, r in pieces)
    out: list[Piece] = []
    for a, b, r in rows:
        if a > b or a < 0 or b > 1:
            raise ValueError(f"bad density piece [{a}, {b}]")
        if r < 0:
            raise ValueError("densities must be non-negative")
        if a == b or r == 0:
            continue
        if out and out[-1][1] > a:
            raise ValueError("density pieces overlap")
        out.append((a, b, r))
    return out


class PLMeasure:
    """A finite measure: rational atoms plus per-edge piecewise densities."""

    __slots__ = ("dendrite", "atoms", "densities", "norm")

    def __init__(self, dendrite: Dendrite,
                 atoms: Iterable[tuple[DPoint, Fraction]] = (),
                 densities: Mapping[object, Iterable[Piece]] | None = None,
                 norm: Fraction = ONE):
        checked = []
        for p, w in atoms:
            p = dendrite.check_point(p)
            w = frac(w)
            if w < 0:
                raise ValueError("atom weights must be non-negative")
            if w:
                checked.append((p, w))
        dens: dict[object, list[Piece]] = {}
        for eid, pieces in (densities or {}).items():
            dendrite.edge(eid)
            dens[eid] = _canonical_pieces(pieces)
        self._fill(dendrite, checked, dens, frac(norm))

    @classmethod
    def _trusted(cls, dendrite: Dendrite, atoms: Iterable[tuple[DPoint, Fraction]],
                 densities: Mapping[object, Sequence[Piece]], norm: Fraction) -> "PLMeasure":
        """Build from atoms and rows this library computed itself; nothing is checked.

        Precondition: every atom is a canonical point of ``dendrite`` with a
        positive ``Fraction`` weight, and each edge's rows are exact
        ``(lo, hi, density)`` with ``0 <= lo < hi <= 1`` and a positive density,
        disjoint and listed in increasing or decreasing order.
        """
        mu = cls.__new__(cls)
        mu._fill(dendrite, atoms, densities, norm)
        return mu

    def _fill(self, dendrite, atoms, densities, norm):
        """Set the canonical fields from rows that meet :meth:`_trusted`'s precondition.

        Repeated atoms are added, a decreasing edge's rows reversed, touching
        rows of equal density merged, and atoms sorted by point and edges by id.
        """
        merged: dict[DPoint, Fraction] = {}
        for p, w in atoms:
            merged[p] = merged[p] + w if p in merged else w
        dens: dict[object, tuple[Piece, ...]] = {}
        for eid, rows in densities.items():
            if not rows:
                continue
            if rows[0][0] > rows[-1][0]:
                rows = rows[::-1]
            out = [rows[0]]
            for row in rows[1:]:
                lo, hi, r = out[-1]
                if hi == row[0] and r == row[2]:
                    out[-1] = (lo, row[1], r)
                else:
                    out.append(row)
            dens[eid] = tuple(out)
        self.dendrite = dendrite
        self.atoms = tuple(sorted(merged.items(), key=lambda kv: point_key(kv[0])))
        self.densities = dict(sorted(dens.items(), key=lambda kv: id_key(kv[0])))
        self.norm = norm

    def total_mass(self) -> Fraction:
        total = sum((w for _, w in self.atoms), ZERO)
        for eid, pieces in self.densities.items():
            w = self.dendrite.edge(eid).weight
            total += sum(((b - a) * r * w for a, b, r in pieces), ZERO)
        return total

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def require_probability(self):
        if not self.is_probability():
            raise NotProbability(f"total mass is {self.total_mass()}, not 1")

    def scaled(self, factor: Fraction) -> "PLMeasure":
        factor = frac(factor)
        return PLMeasure(
            self.dendrite,
            [(p, w * factor) for p, w in self.atoms],
            {eid: [(a, b, r * factor) for a, b, r in pieces]
             for eid, pieces in self.densities.items()},
            norm=self.norm)

    def add(self, other: "PLMeasure") -> "PLMeasure":
        if not self.dendrite.same_space(other.dendrite):
            raise DendriteMismatch("measures live on different dendrites")
        return _mixture(self, (self, other), ONE)

    def arc_mass(self, x: DPoint, y: DPoint) -> Fraction:
        """Measure of the closed arc [x, y] (atoms on the arc included)."""
        arc = self.dendrite.arc(x, y)
        total = ZERO
        for p, w in self.atoms:
            if arc.contains(p):
                total += w
        portions = arc.portions
        for eid, pieces in self.densities.items():
            if eid not in portions:
                continue
            lo, hi = portions[eid]
            w = self.dendrite.edge(eid).weight
            for a, b, r in pieces:
                aa, bb = max(a, lo), min(b, hi)
                if aa < bb:
                    total += (bb - aa) * r * w
        return total

    def ball_mass(self, center: DPoint, radius: Fraction) -> Fraction:
        """Mass of the closed metric ball around ``center``."""
        radius = frac(radius)
        center = self.dendrite.check_point(center)
        total = ZERO
        for p, w in self.atoms:
            if self.dendrite.distance(center, p) <= radius:
                total += w
        for eid, pieces in self.densities.items():
            e = self.dendrite.edge(eid)
            if isinstance(center, EdgePoint) and center.edge == eid:
                # points of the center's own edge are reached directly
                span = radius / e.weight
                intervals = [(max(center.t - span, ZERO),
                              min(center.t + span, ONE))]
            else:
                # covered parameters: prefix [0, s_u] from u plus suffix [s_v, 1]
                du = self.dendrite.distance(center, VertexPoint(e.u))
                dv = self.dendrite.distance(center, VertexPoint(e.v))
                su = (radius - du) / e.weight if radius >= du else None
                sv = 1 - (radius - dv) / e.weight if radius >= dv else None
                intervals = []
                if su is not None:
                    intervals.append((ZERO, min(su, ONE)))
                if sv is not None:
                    intervals.append((max(sv, ZERO), ONE))
                if len(intervals) == 2 and intervals[0][1] >= intervals[1][0]:
                    intervals = [(ZERO, ONE)]
            for lo, hi in intervals:
                for a, b, r in pieces:
                    aa, bb = max(a, lo), min(b, hi)
                    if aa < bb:
                        total += (bb - aa) * r * e.weight
        return total

    def __eq__(self, other):
        return (isinstance(other, PLMeasure)
                and self.dendrite.same_space(other.dendrite)
                and self.atoms == other.atoms
                and self.densities == other.densities)

    def __repr__(self):
        return (f"PLMeasure({len(self.atoms)} atoms, "
                f"{len(self.densities)} density edges, mass {self.total_mass()})")


def dirac(dendrite: Dendrite, p: DPoint, weight: Fraction = ONE) -> PLMeasure:
    return PLMeasure(dendrite, [(p, weight)])


def canonical_measure(dendrite: Dendrite) -> PLMeasure:
    """Length measure of the arc decomposition, normalised to a probability.

    Each edge carries constant density 1/W where W is the total weight, so the
    mass of any arc equals its metric length divided by W.  W is stored on the
    measure as the normalisation constant.
    """
    total = dendrite.total_weight()
    dens = {e.eid: [(ZERO, ONE, Fraction(1, 1) / total)] for e in dendrite.edges}
    return PLMeasure(dendrite, (), dens, norm=total)


def push_forward(h: Homeo, mu: PLMeasure) -> PLMeasure:
    """Exact image measure: atoms transport, densities pick up 1/|slope|.

    Each edge is one integer walk over its pieces and its map's segments
    (:func:`_overlaps`); each row's two ends and its density become a
    ``Fraction`` once.  A decreasing map lists an edge's rows right to left,
    which :meth:`PLMeasure._trusted` reverses.
    """
    if not h.dendrite.same_space(mu.dendrite):
        raise DendriteMismatch("homeomorphism acts on a different dendrite")
    atoms = [(apply(h, p), w) for p, w in mu.atoms]
    edge = mu.dendrite.edge
    dens: dict[object, list[Piece]] = {}
    for eid, pieces in mu.densities.items():
        tgt_id, plm = h.edge_map[eid]
        src, tgt = edge(eid).weight, edge(tgt_id).weight
        sx, sy, sr, overlaps = _overlaps(pieces, plm.xs, plm.ys)
        # density r/sr times the weight ratio src/tgt over the slope rise*sx/(sy*width)
        num = sy * src.numerator * tgt.denominator
        den = sr * sx * src.denominator * tgt.numerator
        rows = dens.setdefault(tgt_id, [])
        for lo, hi, r, x0, width, y0, rise in overlaps:
            base, y_den = y0 * width - rise * x0, sy * width
            ya, yb = Fraction(base + rise * lo, y_den), Fraction(base + rise * hi, y_den)
            density = Fraction(r * width * num, den * abs(rise))
            rows.append((ya, yb, density) if rise > 0 else (yb, ya, density))
    return PLMeasure._trusted(mu.dendrite, atoms, dens, mu.norm)


def _overlaps(pieces: Sequence[Piece], xs: Sequence[Fraction], ys: Sequence[Fraction]):
    """One integer two-pointer walk over density pieces and a PL graph's segments.

    ``pieces`` are sorted and disjoint; ``(xs, ys)`` are the breakpoints of a
    piecewise-linear function on [0, 1].  Piece ends and breakpoints are
    scaled to integers by one common denominator ``sx``, values by ``sy`` and
    densities by ``sr``.  Returns ``(sx, sy, sr, rows)`` with one integer row
    ``(lo, hi, r, x0, width, y0, rise)`` for every overlap ``[lo, hi]`` of
    positive length between a piece of density ``r`` and the segment that
    starts at ``(x0, y0)`` and spans ``width`` and ``rise``.
    """
    sx, at = integer_scale([*xs, *(t for a, b, _ in pieces for t in (a, b))])
    sy, up = integer_scale(ys)
    sr, level = integer_scale(r for _, _, r in pieces)
    ts, vs = [at(x) for x in xs], [up(y) for y in ys]
    scaled = [(at(a), at(b), level(r)) for a, b, r in pieces]
    rows, i, n = [], 0, len(scaled)
    for x0, x1, y0, y1 in zip(ts, ts[1:], vs, vs[1:]):
        while i < n:
            a, b, r = scaled[i]
            if a >= x1:
                break
            rows.append((max(a, x0), min(b, x1), r, x0, x1 - x0, y0, y1 - y0))
            if b > x1:  # the piece runs on into the next segment
                break
            i += 1
    return sx, sy, sr, rows


class TestFunction:
    """A continuous piecewise-linear observable with rational data."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ("dendrite", "vertex_values", "edge_data", "name")

    def __init__(self, dendrite: Dendrite, vertex_values: Mapping,
                 edge_data: Mapping[object, tuple[Sequence, Sequence]],
                 name: str = ""):
        vv = {v: frac(val) for v, val in vertex_values.items()}
        if set(vv) != set(dendrite.vertices):
            raise DomainMismatch("vertex values must cover every vertex")
        ed = {}
        for e in dendrite.edges:
            xs, ys = edge_data.get(e.eid, ((ZERO, ONE), (vv[e.u], vv[e.v])))
            xs = tuple(frac(x) for x in xs)
            ys = tuple(frac(y) for y in ys)
            if len(xs) != len(ys) or len(xs) < 2 or xs[0] != 0 or xs[-1] != 1:
                raise DomainMismatch(f"bad breakpoints on edge {e.eid!r}")
            if any(a >= b for a, b in zip(xs, xs[1:])):
                raise DomainMismatch(f"breakpoints not increasing on edge {e.eid!r}")
            if ys[0] != vv[e.u] or ys[-1] != vv[e.v]:
                raise DomainMismatch(f"discontinuity at the ends of edge {e.eid!r}")
            ed[e.eid] = (xs, ys)
        self.dendrite = dendrite
        self.vertex_values = vv
        self.edge_data = ed
        self.name = name

    @classmethod
    def distance_to(cls, dendrite: Dendrite, p: DPoint) -> "TestFunction":
        """The exact distance function x -> d(x, p)."""
        p = dendrite.check_point(p)
        scale, lengths, places = _integer_lengths(dendrite, [p])
        dist, _ = _sweep_to(dendrite, lengths, places)
        vv = {v: Fraction(d, scale) for v, d in dist.items()}
        ed = {}
        for e in dendrite.edges:
            du, dv = vv[e.u], vv[e.v]
            xs, ys = [ZERO], [du]
            if isinstance(p, EdgePoint) and p.edge == e.eid:
                xs.append(p.t)
                ys.append(ZERO)
            else:
                # one kink where the nearest route switches endpoints
                t_star = (dv - du + e.weight) / (2 * e.weight)
                if 0 < t_star < 1:
                    xs.append(t_star)
                    ys.append(du + t_star * e.weight)
            xs.append(ONE)
            ys.append(dv)
            ed[e.eid] = (tuple(xs), tuple(ys))
        return cls(dendrite, vv, ed, name=f"dist({p!r})")

    def __call__(self, p: DPoint) -> Fraction:
        return self._at(self.dendrite.check_point(p))

    def _at(self, p: DPoint) -> Fraction:
        """The value at a point already checked against the dendrite."""
        if isinstance(p, VertexPoint):
            return self.vertex_values[p.vertex]
        return _pl_value(*self.edge_data[p.edge], p.t)

    def sup_norm(self) -> Fraction:
        vals = [abs(v) for v in self.vertex_values.values()]
        for _, ys in self.edge_data.values():
            vals.extend(abs(y) for y in ys)
        return max(vals)


def integrate(mu: PLMeasure, f: TestFunction) -> Fraction:
    """Exact integral: atoms weight point values, pieces are trapezoids.

    Each edge is one integer walk over its pieces and ``f``'s segments there
    (:func:`_overlaps`); the trapezoids are summed over the least common
    multiple of their segments' widths, and each edge's total becomes one
    ``Fraction``.
    """
    if not mu.dendrite.same_space(f.dendrite):
        raise DomainMismatch("function defined on a different dendrite")
    total = ZERO
    for p, w in mu.atoms:
        total += w * f._at(p)
    for eid, pieces in mu.densities.items():
        sx, sy, sr, overlaps = _overlaps(pieces, *f.edge_data[eid])
        by_width: dict[int, int] = {}  # width -> its trapezoids, times 2*sx*sy*sr*width
        for lo, hi, r, x0, width, y0, rise in overlaps:
            by_width[width] = by_width.get(width, 0) + r * (hi - lo) * (
                2 * y0 * width + rise * (lo + hi - 2 * x0))
        common = lcm(*by_width)
        edge_total = sum(area * (common // width) for width, area in by_width.items())
        w = mu.dendrite.edge(eid).weight
        total += Fraction(edge_total * w.numerator, 2 * sx * sy * sr * common * w.denominator)
    return total


def uniform_orbit_measure(orbit_result) -> PLMeasure:
    """Equal atoms on a certified finite orbit (exactly invariant)."""
    points = getattr(orbit_result, "orbit", None)
    if points is not None:
        if not orbit_result.found:
            raise NotCertifiedOrbit("orbit detection did not certify closure")
    else:
        if not getattr(orbit_result, "closed", False):
            raise NotCertifiedOrbit("orbit report is not closed")
        points = orbit_result.points
    n = len(points)
    if n == 0:
        raise NotCertifiedOrbit("empty orbit")
    return PLMeasure(points.dendrite, [(p, Fraction(1, n)) for p in points])


class FolnerScheme(Record):
    """An indexed family n -> finite word list, adapted to named generators."""

    name: str
    symbols: tuple[str, ...]
    family: Callable[[int], tuple]

    def words(self, n: int) -> tuple:
        ws = tuple(self.family(n))
        if not ws:
            raise ValueError(f"empty averaging set at index {n}")
        if len(set(ws)) != len(ws):
            raise ValueError(f"duplicate words in averaging set at index {n}")
        return ws


def folner_average(gens, scheme: FolnerScheme, mu0: PLMeasure, n: int) -> PLMeasure:
    """The exact mixture |F_n|^-1 sum of pushed measures over the word set."""
    mu0.require_probability()
    words = scheme.words(n)
    images = (image for _, image in word_images(gens, words, mu0, push_forward))
    return _mixture(mu0, images, Fraction(1, len(words)))


def _mixture(mu0: PLMeasure, measures: Iterable[PLMeasure], share: Fraction) -> PLMeasure:
    """``share`` times the sum of ``measures`` (on ``mu0``'s space), in one merge.

    Atoms are concatenated.  Per edge, the piece ends of every input are
    scaled to one common denominator and the densities to another, so the
    pieces become integer steps of a difference map; one sorted pass turns it
    back into a piecewise-constant density, building each row's ``Fraction``s once.
    """
    atoms: list[tuple[DPoint, Fraction]] = []
    by_edge: dict[object, list[Sequence[Piece]]] = {}
    for mu in measures:
        atoms.extend((p, w * share) for p, w in mu.atoms)
        for eid, pieces in mu.densities.items():
            by_edge.setdefault(eid, []).append(pieces)
    dens: dict[object, list[Piece]] = {}
    for eid, inputs in by_edge.items():
        scale, at = integer_scale(x for pieces in inputs for a, b, _ in pieces for x in (a, b))
        per, level_of = integer_scale(r for pieces in inputs for _, _, r in pieces)
        diff: dict[int, int] = {}  # scaled parameter -> scaled density jump
        for pieces in inputs:
            for a, b, r in pieces:
                step, a, b = level_of(r), at(a), at(b)
                diff[a] = diff.get(a, 0) + step
                diff[b] = diff.get(b, 0) - step
        cuts = sorted(x for x, step in diff.items() if step)
        rows = dens[eid] = []
        level, hi, den = 0, Fraction(cuts[0], scale), per * share.denominator
        for x, y in zip(cuts, cuts[1:]):
            level += diff[x]
            lo, hi = hi, Fraction(y, scale)
            if level:
                rows.append((lo, hi, Fraction(level * share.numerator, den)))
    return PLMeasure._trusted(mu0.dendrite, atoms, dens, mu0.norm)


def invariance_defect(gens, mu: PLMeasure, fns: Sequence[TestFunction]) -> Fraction:
    """Worst one-generator transport discrepancy over the test dictionary."""
    mu.require_probability()
    before = [integrate(mu, f) for f in fns]
    worst = ZERO
    for sym in gens.symbols:
        pushed = push_forward(gens.homeo(sym, 1), mu)
        for f, base in zip(fns, before):
            gap = abs(integrate(pushed, f) - base)
            if gap > worst:
                worst = gap
    return worst


def folner_ratio(scheme: FolnerScheme, g, n: int) -> Fraction:
    """Exact |gF_n symmetric-difference F_n| / |F_n| on reduced words."""
    if isinstance(g, str):
        g = Word.parse(g)
    for sym, _ in g.letters:
        if sym not in scheme.symbols:
            raise UnknownSymbol(f"unknown generator {sym!r} for the scheme {scheme.name}")
    words = [reduce_word(w) for w in scheme.words(n)]
    base = set(words)
    shifted = {reduce_word(Word(g.letters + w.letters)) for w in words}
    return Fraction(len(base ^ shifted), len(base))
