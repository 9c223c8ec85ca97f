import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrodyn.dendrite import Dendrite, Subdendrite
from dendrodyn.errors import DendriteMismatch, DendrodynError, InvalidHomeo
from dendrodyn.homeo import (
    Homeo,
    PLMap,
    apply,
    compose,
    identity_homeo,
    image_subdendrite,
    interval_homeo,
    invert,
    tree_automorphism,
    validate,
)
from dendrodyn.zoo import (
    corrupted_leaf_collapse,
    gehman_dendrite,
    get_system,
    odometer,
    thompson_generators,
    unit_interval_dendrite,
)

from conftest import pl_maps, random_trees, tree_points
from oracles import degree

F = Fraction


def sample_dyadic(rng, depth=10):
    """A uniformly random dyadic rational strictly inside (0, 1)."""
    q = 2 ** depth
    return F(rng.randrange(1, q), q)


def round_trip_failure(h, seed=0, samples=8):
    """Reference bijectivity probe: the first skeleton point, or random dyadic
    point per edge, that ``invert(h)`` fails to send back; None if all return."""
    X = h.dendrite
    inv = invert(h)
    rng = random.Random(seed)
    probes = X.skeleton_points()
    for e in X.edges:
        probes.extend(X.point(e.eid, sample_dyadic(rng)) for _ in range(samples))
    return next((p for p in probes if apply(inv, apply(h, p)) != p), None)


@st.composite
def mirrored_automorphisms(draw):
    """A random tree doubled across a joining edge, with the swap of the two
    copies (or the identity) and a random reparametrization of every edge."""
    T = draw(random_trees(max_edges=5))
    edges = [("j", "a-v0", "b-v0", 0)]
    weights = [F(1)]
    for e in T.edges:
        for side in "ab":
            ends = (f"{side}-{e.u}", f"{side}-{e.v}")
            edges.append((f"{side}-{e.eid}",) + (ends[::-1] if draw(st.booleans()) else ends)
                         + (e.level,))
            weights.append(e.weight)
    X = Dendrite([f"{side}-{v}" for v in T.vertices for side in "ab"], edges, weights)
    swap = {"a": "b", "b": "a"} if draw(st.booleans()) else {"a": "a", "b": "b"}
    vm = {v: swap[v[0]] + v[1:] for v in X.vertices}
    # identity reparametrizations on edges stored against the swap become flips
    reparams = {e.eid: draw(st.one_of(st.just(PLMap.identity()), pl_maps()))
                for e in X.edges}
    return tree_automorphism(X, vm, reparams)


def evaluated_image(h, sub):
    """Reference image: evaluate every portion end, merge, re-validate."""
    vertices = {h.vertex_map[v] for v in sub.vertices}
    portions = {}
    for eid, (lo, hi) in sub.portions.items():
        tgt, plm = h.edge_map[eid]
        a, b = plm(lo), plm(hi)
        if a > b:
            a, b = b, a
        if tgt in portions:
            plo, phi = portions[tgt]
            portions[tgt] = (min(plo, a), max(phi, b))
        else:
            portions[tgt] = (a, b)
    return Subdendrite._make(h.dendrite, vertices, portions)


@pytest.fixture(scope="module")
def X():
    return unit_interval_dendrite()


@pytest.fixture(scope="module")
def fg(X):
    return thompson_generators(X)


def ival(X, t):
    return X.point("e", F(t))


def tval(p):
    if hasattr(p, "t"):
        return p.t
    return F(int(p.vertex))


class TestPLMap:
    def test_identity(self):
        m = PLMap.identity()
        assert m(F(1, 3)) == F(1, 3)

    def test_collinear_merge(self):
        m = PLMap([0, F(1, 2), 1], [0, F(1, 2), 1])
        assert m == PLMap.identity()

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidHomeo):
            PLMap([0, F(1, 2), 1], [0, F(1, 2), F(1, 2)])

    def test_inverse_round_trip(self):
        m = PLMap([0, F(1, 2), 1], [0, F(1, 4), 1])
        assert m.inverse()(F(1, 4)) == F(1, 2)
        assert m.inverse().inverse() == m

    def test_decreasing_supported(self):
        m = PLMap.flip()
        assert m(F(1, 4)) == F(3, 4)
        assert not m.increasing
        assert m.inverse() == m

    @settings(max_examples=50, deadline=None)
    @given(pl_maps(), pl_maps())
    def test_compose_pointwise(self, m1, m2):
        comp = m1.after(m2)
        for k in range(0, 17):
            t = F(k, 16)
            assert comp(t) == m1(m2(t))

    @settings(max_examples=40, deadline=None)
    @given(pl_maps(), pl_maps(), pl_maps())
    def test_compose_associative(self, m1, m2, m3):
        assert m1.after(m2).after(m3) == m1.after(m2.after(m3))

    @settings(max_examples=40, deadline=None)
    @given(pl_maps())
    def test_inverse_law(self, m):
        assert m.after(m.inverse()) == PLMap.identity()

    def test_linear_maps_are_the_shared_identity_and_flip(self):
        ident, flip = PLMap.identity(), PLMap.flip()
        assert PLMap.identity() is ident and PLMap.flip() is flip
        assert ident.linear and flip.linear
        assert not PLMap([0, F(1, 2), 1], [0, F(1, 4), 1]).linear
        # collinear breakpoints merge, so a map given on a finer grid is linear too
        assert PLMap([0, F(1, 3), 1], [1, F(2, 3), 0]).linear
        assert ident.inverse() is ident and flip.inverse() is flip
        assert ident.after(ident) is ident and flip.after(flip) is ident
        assert ident.after(flip) is flip and flip.after(ident) is flip


class TestApply:
    def test_identity(self, X):
        h = identity_homeo(X)
        p = ival(X, "1/3")
        assert apply(h, p) == p

    def test_thompson_f_values(self, X, fg):
        f, _ = fg
        assert tval(apply(f, ival(X, "1/2"))) == F(1, 4)
        assert tval(apply(f, ival(X, "3/4"))) == F(1, 2)
        assert apply(f, X.vertex_point("0")) == X.vertex_point("0")
        assert apply(f, X.vertex_point("1")) == X.vertex_point("1")

    def test_thompson_g_values(self, X, fg):
        _, g = fg
        assert tval(apply(g, ival(X, "7/8"))) == F(3, 4)
        assert tval(apply(g, ival(X, "3/4"))) == F(5, 8)
        assert tval(apply(g, ival(X, "1/2"))) == F(1, 2)


class TestCompose:
    def test_right_identity(self, X, fg):
        f, _ = fg
        assert compose(f, identity_homeo(X)) == f

    def test_inverse_law(self, X, fg):
        f, _ = fg
        assert compose(f, invert(f)) == identity_homeo(X)

    def test_pointwise_order(self, X, fg):
        # g first, then f
        f, g = fg
        comp = compose(f, g)
        assert tval(apply(comp, ival(X, "7/8"))) == F(1, 2)

    def test_mismatch_raises(self, X, fg):
        f, _ = fg
        other = gehman_dendrite(2)
        with pytest.raises(DendriteMismatch):
            compose(f, identity_homeo(other))

    @settings(max_examples=30, deadline=None)
    @given(pl_maps(), pl_maps())
    def test_apply_is_homomorphism(self, m1, m2):
        X = unit_interval_dendrite()
        h1 = interval_homeo(X, m1.xs, m1.ys)
        h2 = interval_homeo(X, m2.xs, m2.ys)
        comp = compose(h1, h2)
        rng = random.Random(11)
        for _ in range(10):
            t = F(rng.randrange(0, 65), 64)
            p = X.point("e", t)
            assert apply(comp, p) == apply(h1, apply(h2, p))


class TestInvert:
    def test_identity(self, X):
        assert invert(identity_homeo(X)) == identity_homeo(X)

    def test_thompson_f_branch(self, X, fg):
        f, _ = fg
        assert tval(apply(invert(f), ival(X, "1/4"))) == F(1, 2)

    def test_involution(self, X, fg):
        f, g = fg
        assert invert(invert(g)) == g

    def test_odometer_inverse_is_subtract_one(self):
        X = gehman_dendrite(3)
        g = odometer(3, X)
        ginv = invert(g)
        # permutation-inverse oracle on every vertex
        for v in X.vertices:
            assert ginv.vertex_map[g.vertex_map[v]] == v
        assert compose(g, ginv) == identity_homeo(X)


class TestValidate:
    def test_thompson_valid(self, fg):
        f, g = fg
        assert validate(f).valid
        assert validate(g).valid

    def test_monotonicity_violation_reported(self):
        with pytest.raises(InvalidHomeo):
            PLMap([0, F(1, 2), 1], [0, F(3, 4), F(1, 2)])

    def test_vertex_collapse_not_injective(self):
        h = corrupted_leaf_collapse(3)
        report = validate(h)
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert "not-injective" in kinds

    def test_level_violation(self):
        X = Dendrite(["a", "b", "c"], [("e1", "a", "b", 1), ("e2", "b", "c", 2)],
                     [F(1, 2), F(1, 2)])
        # swap the path around its midpoint: levels cannot be preserved
        h = tree_automorphism(X, {"a": "c", "b": "b", "c": "a"})
        report = validate(h)
        assert not report.valid
        assert {v.kind for v in report.violations} == {"level"}

    def test_orientation_reversing_interval_map(self, X):
        flip = interval_homeo(X, [0, F(1, 4), 1], [1, F(1, 2), 0])
        report = validate(flip)
        assert report.valid
        assert tval(apply(flip, ival(X, "1/4"))) == F(1, 2)
        assert apply(flip, X.vertex_point("0")) == X.vertex_point("1")
        assert compose(flip, invert(flip)) == identity_homeo(X)

    @pytest.mark.parametrize("spec", ["thompson", "thompson-f", "odometer:D=1",
                                      "odometer:D=4", "odometer:D=6,leaf=level",
                                      "odometer-corrupt:D=5"])
    def test_zoo_generators_pass_round_trip(self, spec):
        gens = get_system(spec).generators
        for sym in gens.symbols:
            for sign in (1, -1):
                h = gens.homeo(sym, sign)
                assert validate(h).valid
                assert round_trip_failure(h) is None

    @settings(max_examples=60, deadline=None)
    @given(mirrored_automorphisms())
    def test_random_automorphisms_pass_round_trip(self, h):
        assert validate(h).valid
        assert round_trip_failure(h) is None
        assert round_trip_failure(invert(h), seed=1) is None

    def test_unknown_edge_key_reported(self):
        g = odometer(3)
        bad = Homeo(g.dendrite, g.vertex_map,
                    {**g.edge_map, "nowhere": ("nowhere", PLMap.identity())})
        report = validate(bad)
        assert not report.valid
        assert {v.kind for v in report.violations} == {"domain"}

    def test_odometer_validates_isometric(self):
        g = odometer(4)
        report = validate(g)
        assert report.valid
        assert "isometric" in report.notes

    def test_thompson_maps_are_not_isometric(self, fg):
        # they preserve the one edge's weight but stretch parts of it
        for h in fg:
            for g in (h, invert(h)):
                report = validate(g)
                assert report.valid
                assert "isometric" not in report.notes

    def test_weight_change_is_noted(self):
        X = Dendrite(["a", "b", "c"], [("e1", "a", "b", 1), ("e2", "b", "c", 1)], [1, 2])
        report = validate(tree_automorphism(X, {"a": "c", "b": "b", "c": "a"}))
        assert report.valid and report.notes == ("weights not preserved",)


class TestTreeAuto:
    def test_degree_preserved(self):
        X = gehman_dendrite(3)
        g = odometer(3, X)
        for v in X.vertices:
            assert degree(X, v) == degree(X, g.vertex_map[v])

    def test_endpoints_to_endpoints(self):
        X = gehman_dendrite(3)
        g = odometer(3, X)
        for keep in (lambda d: d == 1, lambda d: d >= 3):  # endpoints, branch points
            points = {X.vertex_point(v) for v in X.vertices if keep(degree(X, v))}
            assert {apply(g, p) for p in points} == points

    def test_level_uniform_weights_give_isometry(self):
        X = gehman_dendrite(4)
        g = odometer(4, X)
        rng = random.Random(3)
        pts = X.skeleton_points()
        for _ in range(40):
            a, b = rng.choice(pts), rng.choice(pts)
            assert X.distance(apply(g, a), apply(g, b)) == X.distance(a, b)

    def test_missing_image_edge_rejected(self, star3):
        with pytest.raises(InvalidHomeo):
            tree_automorphism(star3, {"c": "l1", "l1": "c", "l2": "l2", "l3": "l3"})

    @pytest.mark.parametrize("build, message", [
        (lambda X: tree_automorphism(X, {"c": "c", "l1": "l1", "l2": "l2"}),
         "vertex map is not a permutation of the vertex set"),
        (lambda X: tree_automorphism(X, {"c": "c", "l1": "l1", "l2": "l1", "l3": "l3"}),
         "vertex map is not a permutation of the vertex set"),
        (lambda X: tree_automorphism(X, {"c": "c", "l1": "zz", "l2": "l2", "l3": "l3"}),
         "vertex map is not a permutation of the vertex set"),
        (lambda X: tree_automorphism(X, {v: v for v in X.vertices}, {"e2": PLMap.flip()}),
         "reparams must be orientation-preserving from the u-side"),
        (lambda X: tree_automorphism(X, {v: v for v in X.vertices},
                                     {"nope": PLMap([0, "1/2", 1], [0, "1/4", 1])}),
         "reparams name unknown edges 'nope'"),
        (lambda X: tree_automorphism(X, {v: v for v in X.vertices},
                                     {7: PLMap.identity(), "e1": PLMap.identity(),
                                      "nope": PLMap.identity()}),
         "reparams name unknown edges 'nope', 7"),
        (lambda X: tree_automorphism(X, {"c": "l1", "l1": "c", "l2": "l2", "l3": "l3"}),
         "edge 'e2' has no image edge between 'l1' and 'l2'"),
        (lambda X: interval_homeo(X, [0, 1], [0, 1]),
         "interval homeomorphisms need a single-edge dendrite"),
        (lambda X: invert(Homeo(X, {"c": "c", "l1": "l1", "l2": "l1", "l3": "l3"}, {})),
         "vertex map is not injective; no inverse exists"),
        (lambda X: invert(Homeo(X, {v: v for v in X.vertices},
                                {"e1": ("e1", PLMap.identity()),
                                 "e2": ("e1", PLMap.identity())})),
         "edge map is not injective; no inverse exists"),
        (lambda X: invert(Homeo(X, {v: v for v in X.vertices},
                                {"e1": ("e2", PLMap.identity())})),
         "edge map is not surjective; no inverse exists"),
    ])
    def test_error_messages(self, star3, build, message):
        with pytest.raises(DendrodynError) as err:
            build(star3)
        assert type(err.value) is InvalidHomeo and str(err.value) == message

    def test_public_constructor_copies_and_tuples(self, star3):
        vm = {v: v for v in star3.vertices}
        em = {e.eid: [e.eid, PLMap.identity()] for e in star3.edges}
        h = Homeo(star3, vm, em)
        vm["c"] = "l1"
        em["e1"][0] = "e2"
        assert h.vertex_map["c"] == "c"
        assert h.edge_map["e1"] == ("e1", PLMap.identity())
        assert h == identity_homeo(star3)

    def test_image_subdendrite_thompson(self, X, fg):
        # real PL maps: the image of an arc is the arc between the end images
        sub = X.arc(ival(X, "1/3"), ival(X, "7/8"))
        for g in fg:
            for h in (g, invert(g)):
                expect = X.arc(apply(h, ival(X, "1/3")), apply(h, ival(X, "7/8")))
                assert image_subdendrite(h, sub) == expect == evaluated_image(h, sub)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_image_matches_evaluating_oracle(self, data):
        h = data.draw(mirrored_automorphisms())
        X = h.dendrite
        pts = data.draw(st.lists(tree_points(X), min_size=1, max_size=4))
        sub = X.hull(pts)
        for g in (h, invert(h)):
            assert image_subdendrite(g, sub) == evaluated_image(g, sub)

    def test_image_subdendrite_exact(self):
        X = gehman_dendrite(3)
        g = odometer(3, X)
        sub = X.hull([X.vertex_point("000"), X.vertex_point("010")])
        img = image_subdendrite(g, sub)
        expect = X.hull([apply(g, X.vertex_point("000")),
                         apply(g, X.vertex_point("010"))])
        assert img == expect
