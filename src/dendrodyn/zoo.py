"""Canonical example systems.

* Thompson's group generators f and g acting on the unit interval by dyadic
  piecewise-linear rearrangements.
* The binary odometer (add one with carry, least-significant branch first)
  acting on a depth-D binary-tree dendrite whose leaf set stands in for the
  Cantor set of ends.
* Free-group word machinery: cylinders, the partition by first letter and the
  two-piece paradoxical decomposition.
* Averaging schemes for single-generator (integer) subgroups.
"""

from __future__ import annotations

from fractions import Fraction

from .action import GeneratorSet, Word, word_ball, word_power
from .dendrite import Dendrite, DPoint, VertexPoint
from .errors import ConfigInvalid, NotReduced
from .homeo import Homeo, PLMap, interval_homeo, tree_automorphism
from .measure import FolnerScheme
from .util import Record, read_param

ZERO = Fraction(0)
ONE = Fraction(1)


# -- the unit interval and Thompson's generators --------------------------------


def unit_interval_dendrite() -> Dendrite:
    """A single unit-weight edge; interval points are edge parameters."""
    return Dendrite(["0", "1"], [("e", "0", "1", 1)], [1])


def interval_value(p: DPoint) -> Fraction:
    """The value in [0, 1] of a point of the unit interval, for reporting."""
    if isinstance(p, VertexPoint):
        return Fraction(int(p.vertex))
    return p.t


def thompson_generators(dendrite: Dendrite | None = None) -> tuple[Homeo, Homeo]:
    """The two standard dyadic rearrangements generating Thompson's group.

    f: (0, 1/2, 3/4, 1) -> (0, 1/4, 1/2, 1)
    g: (0, 1/2, 3/4, 7/8, 1) -> (0, 1/2, 5/8, 3/4, 1)
    """
    X = dendrite if dendrite is not None else unit_interval_dendrite()
    f = interval_homeo(X, [0, Fraction(1, 2), Fraction(3, 4), 1],
                       [0, Fraction(1, 4), Fraction(1, 2), 1])
    g = interval_homeo(X, [0, Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), 1],
                       [0, Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), 1])
    return f, g


# -- binary-tree dendrite and the odometer ---------------------------------------


def gehman_dendrite(depth: int, leaf_weight: str = "tail") -> Dendrite:
    """Complete binary tree of the given depth with dyadic level weights.

    Vertices are bit strings (root "r"); the vertex b1..bk sits at level k and
    its label is read least-significant-bit first.  Level-i edges weigh 2**-i.
    ``leaf_weight`` controls the deepest level:

    * ``"tail"`` (default): leaf edges weigh 2**(1-depth), absorbing the whole
      truncated continuation, so distances between leaves equal the distances
      between the ends of the untruncated tree.
    * ``"level"``: plain 2**-depth weights.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if leaf_weight not in ("tail", "level"):
        raise ValueError("leaf_weight must be 'tail' or 'level'")
    vertices = ["r"]
    edges = []
    weights = []
    labels = [""]
    for level in range(1, depth + 1):
        new_labels = []
        w = Fraction(1, 2 ** level)
        if level == depth and leaf_weight == "tail":
            w = Fraction(1, 2 ** (depth - 1))
        for label in labels:
            for bit in "01":
                child = label + bit
                parent = label if label else "r"
                vertices.append(child)
                edges.append(("e" + child, parent, child, level))
                weights.append(w)
                new_labels.append(child)
        labels = new_labels
    return Dendrite(vertices, edges, weights)


def odometer(depth: int, dendrite: Dendrite | None = None) -> Homeo:
    """The adding machine on the depth-D binary tree.

    Prefix compatibility of binary addition makes the vertex map a level
    preserving tree automorphism; its restriction to level k is one 2**k
    cycle.  Edge reparametrizations are the identity, so it is an isometry.
    A child's image is a child of its parent's image: the bit it adds is
    kept, or flipped when the carry reaches it, which happens exactly when
    the parent's label is all ones.
    """
    X = dendrite if dendrite is not None else gehman_dendrite(depth)
    own = {v: v for v in X.vertices}  # a label -> the tree's own vertex id
    vm = {"r": "r"}
    for e in X.edges:  # level by level, each edge running from parent u to child v
        bit = e.v[-1]
        if "0" not in e.u:  # the root's empty label counts as all ones
            bit = "1" if bit == "0" else "0"
        image = vm[e.u]
        vm[e.v] = own[bit if image == "r" else image + bit]
    return tree_automorphism(X, vm)


def leaf_point(dendrite: Dendrite, depth: int, index: int = 0) -> DPoint:
    """The leaf whose label encodes ``index`` (LSB first), for ``0 <= index < 2**depth``."""
    if not 0 <= index < 2 ** depth:
        raise ValueError(f"leaf index {index} outside [0, {2 ** depth})")
    label = "".join("1" if index & (1 << i) else "0" for i in range(depth))
    return dendrite.vertex_point(label)


def corrupted_leaf_collapse(depth: int, dendrite: Dendrite | None = None) -> Homeo:
    """Negative-control artifact: two leaves map to one (not a homeomorphism).

    The map stays total, so forward checks run and report violations instead
    of crashing; it has no inverse.
    """
    X = dendrite if dendrite is not None else gehman_dendrite(depth)
    first = "0" * depth
    second = "1" + "0" * (depth - 1)
    vm = {v: v for v in X.vertices}
    vm[first] = second
    em = {e.eid: (e.eid, PLMap.identity()) for e in X.edges}
    em["e" + first] = ("e" + second, PLMap.identity())
    return Homeo(X, vm, em)


# -- free-group machinery --------------------------------------------------------


def free_group_cylinder(w: Word, letter: tuple[str, int]) -> bool:
    """Membership of a reduced word in the cylinder of words starting with
    the signed letter; the empty word lies in no cylinder."""
    if not w.is_reduced():
        raise NotReduced(f"{w} is not reduced")
    return w.first_letter() == letter


class ParadoxReport(Record, uncompared=("first_letter_counts",)):
    max_length: int
    total_words: int
    first_letter_counts: dict
    partition_ok: bool
    two_piece_checked: int
    two_piece_ok: bool
    literal_missing: tuple[str, ...]
    literal_overlap: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.partition_ok and self.two_piece_ok


def _free_words(max_length: int) -> list[Word]:
    class _Stub:
        symbols = ("s", "t")
    return word_ball(_Stub(), max_length)


def verify_paradox_partition(max_length: int) -> ParadoxReport:
    """Enumerate the free group on s, t up to length L and check two facts.

    (a) Every word lies in exactly one of: the identity, or the cylinder of
        its first signed letter (four cylinders).
    (b) Two-piece decomposition: every word either starts with s (one piece)
        or is s times a word starting with s^-1 (the other piece); verified on
        interior words (length <= L-1) whose translate stays inside the ball.

    The naive variant pairing the s-cylinder with its s^-1 translate is also
    evaluated literally; its failures (missed and doubly covered words) are
    archived rather than silently corrected.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    words = _free_words(max_length)
    letters = [("s", 1), ("s", -1), ("t", 1), ("t", -1)]
    counts = {"e": 0}
    for letter in letters:
        sym, sign = letter
        counts[sym if sign > 0 else f"{sym}^-1"] = 0
    partition_ok = True
    for w in words:
        hits = [letter for letter in letters if free_group_cylinder(w, letter)]
        if len(w) == 0:
            counts["e"] += 1
            if hits:
                partition_ok = False
        else:
            if len(hits) != 1:
                partition_ok = False
            else:
                sym, sign = hits[0]
                counts[sym if sign > 0 else f"{sym}^-1"] += 1

    s = Word((("s", 1),))
    s_inv = Word((("s", -1),))
    two_ok = True
    checked = 0
    for w in words:
        if len(w) > max_length - 1:
            continue
        checked += 1
        in_ws = free_group_cylinder(w, ("s", 1))
        in_translate = free_group_cylinder(s_inv * w, ("s", -1))
        if in_ws == in_translate:
            two_ok = False

    missing = []
    overlap = []
    for w in words:
        in_ws = free_group_cylinder(w, ("s", 1))
        translated = s * w
        in_sinv_ws = len(translated) <= max_length and free_group_cylinder(
            translated, ("s", 1))
        if not in_ws and not in_sinv_ws and len(translated) <= max_length:
            missing.append(str(w))
        if in_ws and in_sinv_ws:
            overlap.append(str(w))
    return ParadoxReport(max_length=max_length,
                         total_words=len(words),
                         first_letter_counts=counts,
                         partition_ok=partition_ok,
                         two_piece_checked=checked,
                         two_piece_ok=two_ok,
                         literal_missing=tuple(sorted(missing)),
                         literal_overlap=tuple(sorted(overlap)))


def folner_scheme_Z(symbol: str = "g") -> FolnerScheme:
    """F_n = the symmetric power window {symbol**k : -n <= k <= n}."""
    def family(n: int):
        if n < 0:
            raise ValueError("index must be non-negative")
        return tuple(word_power(symbol, k) for k in range(-n, n + 1))
    return FolnerScheme(name=f"z-powers({symbol})", symbols=(symbol,), family=family)


# -- registry ---------------------------------------------------------------------


class ZooSystem(Record, uncompared=("properties",)):
    name: str
    dendrite: Dendrite
    generators: GeneratorSet
    properties: dict
    corrupt_cover: bool = False


def thompson_system() -> ZooSystem:
    X = unit_interval_dendrite()
    f, g = thompson_generators(X)
    gens = GeneratorSet(X, [("f", f), ("g", g)])
    return ZooSystem("thompson", X, gens, {
        "description": "Thompson's group generators on the unit interval",
        "fixed_points": ["0", "1"],
        "expected_minimal_class": "finite-orbit",
    })


def thompson_f_system() -> ZooSystem:
    X = unit_interval_dendrite()
    f, _ = thompson_generators(X)
    gens = GeneratorSet(X, [("f", f)])
    return ZooSystem("thompson-f", X, gens, {
        "description": "single dyadic PL map with attracting fixed point 0",
        "expected_minimal_class": "finite-orbit",
    })


def odometer_system(depth: int, leaf_weight: str = "tail",
                    corrupt_cover: bool = False) -> ZooSystem:
    X = gehman_dendrite(depth, leaf_weight)
    g = odometer(depth, X)
    gens = GeneratorSet(X, [("g", g)])
    name = f"odometer-corrupt:D={depth}" if corrupt_cover else f"odometer:D={depth}"
    return ZooSystem(name, X, gens, {
        "description": "binary adding machine on the depth-%d tree" % depth,
        "depth": depth,
        "leaf_weight": leaf_weight,
        "expected_minimal_class": "cantor-like",
        "folner": "z-powers(g)",
    }, corrupt_cover=corrupt_cover)


# the parameters each system spec accepts, read by list_systems and get_system
_SYSTEM_PARAMETERS = {"thompson": (), "thompson-f": (), "odometer": ("D", "leaf"),
                     "odometer-corrupt": ("D", "leaf")}


def list_systems() -> list[dict]:
    rows = [
        ("thompson", "Thompson generators f, g on [0, 1]"),
        ("thompson-f", "the single generator f on [0, 1]"),
        ("odometer:D=<depth>", "binary adding machine on the depth-D tree"),
        ("odometer-corrupt:D=<depth>",
         "odometer with a deliberately corrupted cover (negative control)"),
    ]
    return [{"name": name, "parameters": list(_SYSTEM_PARAMETERS[name.partition(":")[0]]),
             "summary": summary}
            for name, summary in rows]


def get_system(spec: str) -> ZooSystem:
    """Resolve a system name like ``odometer:D=8`` or ``thompson``."""
    name, _, args = spec.partition(":")
    pairs = []
    if args:
        for part in args.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ConfigInvalid(f"bad system parameter {part!r} in {spec!r}")
            pairs.append((key.strip(), value.strip()))
    if name not in _SYSTEM_PARAMETERS:
        raise ConfigInvalid(f"unknown zoo system {spec!r}")
    params = {}
    for key, value in pairs:
        if key not in _SYSTEM_PARAMETERS[name]:
            raise ConfigInvalid(f"unknown parameter {key!r} for {name} in {spec!r}")
        if key in params:
            raise ConfigInvalid(f"repeated parameter {key!r} in {spec!r}")
        params[key] = value
    if name == "thompson":
        return thompson_system()
    if name == "thompson-f":
        return thompson_f_system()
    if "D" not in params:
        raise ConfigInvalid(f"{name} needs a depth, e.g. {name}:D=6")
    depth = read_param(params["D"], f"depth D in {spec!r}", minimum=1)
    leaf = params.get("leaf", "tail")
    if leaf not in ("tail", "level"):
        raise ConfigInvalid(f"leaf must be 'tail' or 'level' in {spec!r}")
    return odometer_system(depth, leaf, corrupt_cover=(name == "odometer-corrupt"))
