"""Words over generator sets, orbit enumeration and minimal-set estimation.

The acting group is always explored through word balls under free reduction;
relations between the generators can only merge image points, never lose
them, so orbit sets are deduplicated by image rather than by word.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .dendrite import (
    Dendrite,
    DPoint,
    EdgePoint,
    FiniteClosedSet,
    VertexPoint,
    _distances_at,
    _integer_lengths,
    _sweep_to,
    nearest_other_distances,
)
from .errors import DendriteMismatch, UnknownSymbol
from .homeo import Homeo, apply, compose, identity_homeo, invert, validate
from .util import Record, Value, frac, id_key, set_field

ZERO = Fraction(0)


class Word(Value):
    """A signed word in the generators; letters are (symbol, +1|-1)."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...] = ()):
        set_field(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse "f g^-1 f^2" style text into a word."""
        letters: list[tuple[str, int]] = []
        for token in text.split():
            if token == "e":
                continue
            if "^" in token:
                sym, exp = token.split("^", 1)
                try:
                    exp = int(exp)
                except ValueError:
                    raise UnknownSymbol(f"bad exponent in token {token!r}") from None
            else:
                sym, exp = token, 1
            if not sym:
                raise UnknownSymbol(f"bad token {token!r}")
            sign = 1 if exp > 0 else -1
            letters.extend([(sym, sign)] * abs(exp))
        return cls(tuple(letters))

    def __str__(self):
        if not self.letters:
            return "e"
        return " ".join(s if sign > 0 else f"{s}^-1" for s, sign in self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return reduce_word(Word(self.letters + other.letters))

    def is_reduced(self) -> bool:
        return all(not (a == b and sa == -sb)
                   for (a, sa), (b, sb) in zip(self.letters, self.letters[1:]))

    def first_letter(self) -> tuple[str, int] | None:
        return self.letters[0] if self.letters else None


def reduce_word(w: Word) -> Word:
    stack: list[tuple[str, int]] = []
    for sym, sign in w.letters:
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return Word(tuple(stack))


def word_power(symbol: str, k: int) -> Word:
    sign = 1 if k >= 0 else -1
    return Word(tuple((symbol, sign) for _ in range(abs(k))))


class GeneratorSet:
    """Named generators acting on one dendrite (inverses are implicit)."""

    def __init__(self, dendrite: Dendrite, items: Sequence[tuple[str, Homeo]],
                 *, check: bool = True):
        symbols = [sym for sym, _ in items]
        if len(set(symbols)) != len(symbols):
            raise UnknownSymbol("duplicate generator symbols")
        if "e" in symbols:
            raise UnknownSymbol("'e' is reserved for the empty word")
        for sym, h in items:
            if not h.dendrite.same_space(dendrite):
                raise DendriteMismatch(f"generator {sym!r} acts on a different dendrite")
            if check:
                report = validate(h)
                if not report.valid:
                    first = report.first()
                    raise UnknownSymbol(
                        f"generator {sym!r} fails validation: {first.kind}: {first.detail}")
        self.dendrite = dendrite
        self.items = tuple(items)
        self._by_symbol = dict(items)
        self._inverses: dict[str, Homeo] = {}

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.items)

    def homeo(self, symbol: str, sign: int = 1) -> Homeo:
        if symbol not in self._by_symbol:
            raise UnknownSymbol(f"unknown generator {symbol!r}")
        if sign > 0:
            return self._by_symbol[symbol]
        if symbol not in self._inverses:
            self._inverses[symbol] = invert(self._by_symbol[symbol])
        return self._inverses[symbol]

    def signed(self) -> list[tuple[str, int, Homeo]]:
        out = []
        for sym in self.symbols:
            out.append((sym, 1, self.homeo(sym, 1)))
            out.append((sym, -1, self.homeo(sym, -1)))
        return out


def word_ball(gens: GeneratorSet, radius: int) -> list[Word]:
    """All reduced words of length <= radius, identity included."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    ball: list[Word] = [Word.identity()]
    frontier: list[Word] = [Word.identity()]
    alphabet = [(sym, sign) for sym in gens.symbols for sign in (1, -1)]
    for _ in range(radius):
        nxt: list[Word] = []
        for w in frontier:
            last = w.letters[-1] if w.letters else None
            for sym, sign in alphabet:
                if last is not None and last[0] == sym and last[1] == -sign:
                    continue
                nxt.append(Word(w.letters + ((sym, sign),)))
        ball.extend(nxt)
        frontier = nxt
    return ball


def evaluate_word(w: Word, gens: GeneratorSet) -> Homeo:
    w = reduce_word(w)
    result = identity_homeo(gens.dendrite)
    for sym, sign in reversed(w.letters):
        result = compose(gens.homeo(sym, sign), result)
    return result


def word_images(gens: GeneratorSet, words: Iterable[Word], start, step):
    """Yield ``(word, image)`` per word, in order, without composing homeos.

    The empty word maps to ``start``; the reduced word ``l w`` maps to
    ``step(gens.homeo(l), image of w)``, memoised by suffix to share work.
    """
    images = {(): start}
    for w in words:
        letters = reduce_word(w).letters
        for j in reversed(range(len(letters))):
            if letters[j:] not in images:
                images[letters[j:]] = step(gens.homeo(*letters[j]), images[letters[j + 1:]])
        yield w, images[letters]


class OrbitReport(Record):
    base: DPoint
    radius: int
    points: FiniteClosedSet
    closed: bool
    growth: tuple[int, ...]


def _orbit_layers(gens: GeneratorSet, x: DPoint, radius: int):
    """BFS point layers; yields ``(seen, size)`` after each radius step.

    ``seen`` is one dict, grown in place, whose keys are the points in BFS
    discovery order, so iterating it does not depend on hashing
    (``PYTHONHASHSEED``).  The ball of the step's radius is its first
    ``size`` keys.
    """
    x = gens.dendrite.check_point(x)
    seen = {x: None}
    frontier = [x]
    yield seen, 1
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
        yield seen, len(seen)


def _is_closed(gens: GeneratorSet, points: dict) -> bool:
    """Strong invariance: every signed generator maps the set into itself.

    Points are tried newest first, in reverse BFS discovery order: the
    outermost layer is where a point most likely leaves the set, and the
    order does not depend on hashing, so the ``apply`` work is reproducible.
    """
    for _, _, h in gens.signed():
        for p in reversed(points):
            if apply(h, p) not in points:
                return False
    return True


def orbit(gens: GeneratorSet, x: DPoint, radius: int) -> OrbitReport:
    growth = []
    for points, size in _orbit_layers(gens, x, radius):
        growth.append(size)
    return OrbitReport(base=gens.dendrite.check_point(x),
                       radius=radius,
                       points=FiniteClosedSet(gens.dendrite, points),
                       closed=_is_closed(gens, points),
                       growth=tuple(growth))


class FiniteOrbitResult(Record):
    found: bool
    orbit: FiniteClosedSet | None
    radius: int | None
    growth: tuple[int, ...]


def detect_finite_orbit(gens: GeneratorSet, x: DPoint, budget: int) -> FiniteOrbitResult:
    """First radius at which the orbit ball is generator-closed, if any.

    Interior images land in the ball by construction, so the ball at radius r
    is closed exactly when the radius r+1 layer adds nothing; one look-ahead
    step certifies closure without a full invariance scan.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    growth: list[int] = []
    for r, (points, size) in enumerate(_orbit_layers(gens, x, budget + 1)):
        growth.append(size)
        if r and size == growth[-2]:  # nothing new, so the ball is all of points
            return FiniteOrbitResult(True, FiniteClosedSet(gens.dendrite, points),
                                     max(r - 1, 1), tuple(growth[:-1]))
    return FiniteOrbitResult(False, None, None, tuple(growth[:budget + 1]))


class MinimalSetApprox(Record):
    points: FiniteClosedSet
    radius: int
    increments: tuple[Fraction, ...]
    eps: Fraction
    converged: bool
    certified_finite: bool
    closed_radius: int | None


def minimal_set_approx(gens: GeneratorSet, x: DPoint, radius: int,
                       eps: Fraction) -> MinimalSetApprox:
    """Orbit ball with Hausdorff increments between consecutive radii.

    Each ball holds the one before it, so an increment is the largest
    distance from the new layer to the previous ball (0 for an empty layer):
    one sweep per radius on the final ball's integer lengths.
    """
    if radius < 2:
        raise ValueError("radius must be at least 2")
    eps = frac(eps)
    sizes = []
    for points, size in _orbit_layers(gens, x, radius):
        sizes.append(size)
    X = gens.dendrite
    scale, lengths, places = _integer_lengths(X, list(points))
    increments = tuple(
        Fraction(max(_distances_at(X, lengths, _sweep_to(X, lengths, places[:before]),
                                   places[before:after]), default=0), scale)
        for before, after in zip(sizes, sizes[1:]))
    closed_radius = None
    for r in range(1, len(sizes)):
        if sizes[r] == sizes[r - 1]:
            closed_radius = max(r - 1, 1)
            break
    if closed_radius is None and _is_closed(gens, points):
        closed_radius = len(sizes) - 1
    converged = bool(increments) and increments[-1] < eps
    return MinimalSetApprox(points=FiniteClosedSet(X, points),
                            radius=radius,
                            increments=increments,
                            eps=eps,
                            converged=converged,
                            certified_finite=closed_radius is not None,
                            closed_radius=closed_radius)


def _worst_probe(dendrite: Dendrite, m: FiniteClosedSet) -> tuple[DPoint, Fraction]:
    """The skeleton probe farthest from ``m`` and its distance, from one integer sweep.

    The probes are the vertices and the edge midpoints, read off one sweep
    to ``m``; the kernel's lengths are even, so a midpoint is an integer
    place.  Ties go to the largest ``point_key``: midpoints before vertices,
    then by id.
    """
    scale, W, places = _integer_lengths(dendrite, list(m.points))
    swept = _sweep_to(dendrite, W, places)
    dist = swept[0]
    mid = dict(zip(W, _distances_at(dendrite, W, swept, [(eid, w // 2) for eid, w in W.items()])))
    worst = max(max(dist.values()), max(mid.values(), default=-1))
    ties = [eid for eid, d in mid.items() if d == worst]
    if ties:
        probe = EdgePoint(max(ties, key=id_key), Fraction(1, 2))
    else:
        probe = VertexPoint(max((v for v, d in dist.items() if d == worst), key=id_key))
    return probe, Fraction(worst, scale)


class Classification(Record, uncompared=("details",)):
    kind: str  # "finite-orbit" | "whole-space" | "cantor-like" | "inconclusive"
    eps: Fraction
    details: dict


def classify_minimal_set(dendrite: Dendrite, m: FiniteClosedSet, eps,
                         *, certified_finite: bool = False) -> Classification:
    """Resolution-bounded verdict on the character of an approximate minimal set.

    A certified closed orbit wins outright.  Otherwise the set is epsilon-dense
    (whole space), or epsilon-perfect but not dense (Cantor-like at this
    resolution), or nothing fires.  Never a proof; the epsilon is recorded.
    """
    eps = frac(eps)
    if len(m) == 0:
        raise ValueError("cannot classify an empty set")
    if certified_finite:
        return Classification("finite-orbit", eps, {"size": len(m)})
    worst_probe, worst_gap = _worst_probe(dendrite, m)
    if worst_gap <= eps:
        return Classification("whole-space", eps, {"max_probe_gap": worst_gap})
    pts = list(m)
    gaps = nearest_other_distances(dendrite, pts)
    witness = next((p for p, d in zip(pts, gaps) if d is None or d > eps), None)
    if witness is None:
        return Classification("cantor-like", eps,
                              {"max_probe_gap": worst_gap,
                               "sparse_witness": worst_probe})
    return Classification("inconclusive", eps,
                          {"max_probe_gap": worst_gap, "isolated_point": witness})


class RecurrenceWitness(Record):
    word: Word
    image: DPoint
    distance: Fraction


class RecurrenceDiagnostic(Record):
    base: DPoint
    eps: Fraction
    max_length: int
    witnesses: tuple[RecurrenceWitness, ...]


def detect_recurrence(gens: GeneratorSet, x: DPoint, eps, max_length: int
                      ) -> RecurrenceDiagnostic:
    """Words w with 1 <= |w| <= L moving x a positive distance below eps.

    A finite surrogate for net recurrence: it can only ever certify presence
    of near-returns, never their absence.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    eps = frac(eps)
    X = gens.dendrite
    x = X.check_point(x)
    moved = [(w, image) for w, image in word_images(gens, word_ball(gens, max_length)[1:],
                                                   x, apply) if image != x]
    scale, lengths, places = _integer_lengths(X, [x] + [image for _, image in moved])
    dists = _distances_at(X, lengths, _sweep_to(X, lengths, places[:1]), places[1:])
    bound = eps * scale
    witnesses = [RecurrenceWitness(w, image, Fraction(d, scale))
                 for (w, image), d in zip(moved, dists) if d < bound]
    witnesses.sort(key=lambda wit: (wit.distance, len(wit.word), str(wit.word)))
    return RecurrenceDiagnostic(x, eps, max_length, tuple(witnesses))
