import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrodyn.action import Word, detect_finite_orbit, evaluate_word, orbit
from dendrodyn.dendrite import Dendrite, VertexPoint
from dendrodyn.errors import DendrodynError, NotCertifiedOrbit, NotProbability
from dendrodyn.homeo import PLMap, _pl_value, interval_homeo, invert
from dendrodyn.measure import (
    FolnerScheme,
    PLMeasure,
    _mixture,
    TestFunction,
    canonical_measure,
    dirac,
    folner_average,
    folner_ratio,
    integrate,
    invariance_defect,
    push_forward,
    uniform_orbit_measure,
)
from dendrodyn.zoo import (
    folner_scheme_Z,
    gehman_dendrite,
    leaf_point,
    odometer_system,
    thompson_system,
    unit_interval_dendrite,
)

from conftest import pl_maps, random_measures, random_trees, tree_points
from oracles import add_oracle, degree, measure_oracle, metric_distance, pl_value_oracle

F = Fraction


@pytest.fixture(scope="module")
def thomp():
    return thompson_system()


@pytest.fixture(scope="module")
def odo6():
    return odometer_system(6)


class TestCanonicalMeasure:
    def test_single_edge_uniform(self):
        X = unit_interval_dendrite()
        mu = canonical_measure(X)
        assert mu.total_mass() == 1
        assert mu.arc_mass(X.vertex_point("0"), X.point("e", F(1, 3))) == F(1, 3)

    def test_constant_one_integrates_to_one(self):
        X = gehman_dendrite(3)
        mu = canonical_measure(X)
        assert integrate(mu, TestFunction(X, dict.fromkeys(X.vertices, 1), {})) == 1

    def test_gehman_shape_with_dyadic_rule_arc_mass(self):
        # depth-2 shape, enumeration weights 1/2 .. 1/64
        base = gehman_dendrite(2)
        X = Dendrite(sorted(base.vertices, key=str),
                     [(e.eid, e.u, e.v, e.level) for e in base.edges], "dyadic")
        mu = canonical_measure(X)
        total = sum(F(1, 2 ** i) for i in range(1, 7))
        assert mu.norm == total
        arc_mass = mu.arc_mass(X.vertex_point("0"), X.vertex_point("1"))
        assert arc_mass == (F(1, 2) + F(1, 4)) / total

    def test_edge_masses_proportional_to_weights(self):
        X = gehman_dendrite(2, leaf_weight="level")
        mu = canonical_measure(X)
        for e in X.edges:
            assert mu.arc_mass(X.vertex_point(e.u), X.vertex_point(e.v)) == \
                e.weight / mu.norm


class TestPushForward:
    def test_identity(self, thomp):
        from dendrodyn.homeo import identity_homeo
        mu = canonical_measure(thomp.dendrite)
        assert push_forward(identity_homeo(thomp.dendrite), mu) == mu

    def test_thompson_f_density(self, thomp):
        mu = canonical_measure(thomp.dendrite)
        pushed = push_forward(thomp.generators.homeo("f"), mu)
        assert pushed.densities["e"] == (
            (F(0), F(1, 4), F(2)),
            (F(1, 4), F(1, 2), F(1)),
            (F(1, 2), F(1), F(1, 2)),
        )

    def test_thompson_f_density_quadrature_oracle(self, thomp):
        # float change-of-variables check of the same masses
        X, gens = thomp.dendrite, thomp.generators
        pushed = push_forward(gens.homeo("f"), canonical_measure(X))
        f = lambda x: x / 2 if x <= 0.5 else (x - 0.25 if x < 0.75 else 2 * x - 1)
        n = 20000
        for lo, hi in [(0, 0.25), (0.25, 0.5), (0.5, 1.0)]:
            count = sum(1 for k in range(n) if lo <= f((k + 0.5) / n) < hi)
            exact = pushed.arc_mass(X.point("e", F(lo).limit_denominator(4)),
                                    X.point("e", F(hi).limit_denominator(4)))
            assert abs(count / n - float(exact)) < 0.001

    def test_atom_transport(self, thomp):
        X = thomp.dendrite
        mu = dirac(X, X.point("e", F(3, 4)))
        pushed = push_forward(thomp.generators.homeo("f"), mu)
        assert pushed.atoms == ((X.point("e", F(1, 2)), F(1)),)

    def test_mass_conserved_on_zoo_words(self, thomp, odo6):
        rng = random.Random(13)
        for system in (thomp, odo6):
            X, gens = system.dendrite, system.generators
            mu = canonical_measure(X).scaled(F(1, 2)).add(
                dirac(X, X.skeleton_points()[0], F(1, 2)))
            for _ in range(10):
                word = Word(tuple((rng.choice(gens.symbols), rng.choice((1, -1)))
                                  for _ in range(rng.randrange(1, 5))))
                pushed = push_forward(evaluate_word(word, gens), mu)
                assert pushed.total_mass() == mu.total_mass()

    def test_weight_changing_edge_swap(self):
        # densities pick up the weight ratio so arc masses transport exactly
        from dendrodyn.homeo import apply, tree_automorphism
        from dendrodyn.measure import PLMeasure
        X = Dendrite(["a", "b", "c"], [("e1", "a", "b", 1), ("e2", "b", "c", 1)],
                     [F(1, 2), F(1, 4)])
        h = tree_automorphism(X, {"a": "c", "b": "b", "c": "a"})
        mu = PLMeasure(X, [], {"e1": [(F(0), F(1), F(3))]})
        pushed = push_forward(h, mu)
        assert pushed.densities == {"e2": ((F(0), F(1), F(6)),)}
        assert pushed.total_mass() == mu.total_mass() == F(3, 2)
        p = X.point("e1", F(1, 2))
        assert mu.arc_mass(X.vertex_point("a"), p) ==             pushed.arc_mass(X.vertex_point("c"), apply(h, p)) == F(3, 4)

    @settings(max_examples=30, deadline=None)
    @given(pl_maps())
    def test_mass_conserved_random_pl(self, m):
        X = unit_interval_dendrite()
        h = interval_homeo(X, m.xs, m.ys)
        mu = canonical_measure(X)
        assert push_forward(h, mu).total_mass() == 1


def push_forward_oracle(h, mu):
    """The per-piece push-forward the one-walk version replaced.

    For every piece it scans every segment of the edge's map and evaluates
    the map at both ends of each overlap.
    """
    from dendrodyn.homeo import apply
    atoms = [(apply(h, p), w) for p, w in mu.atoms]
    dens = {}
    for eid, pieces in mu.densities.items():
        tgt_id, plm = h.edge_map[eid]
        w_src = mu.dendrite.edge(eid).weight
        w_tgt = mu.dendrite.edge(tgt_id).weight
        rows = dens.setdefault(tgt_id, [])
        for a, b, r in pieces:
            for x0, x1, y0, y1 in zip(plm.xs, plm.xs[1:], plm.ys, plm.ys[1:]):
                slope = (y1 - y0) / (x1 - x0)
                aa, bb = max(a, x0), min(b, x1)
                if aa >= bb:
                    continue
                ya, yb = plm(aa), plm(bb)
                if ya > yb:
                    ya, yb = yb, ya
                rows.append((ya, yb, r * w_src / (abs(slope) * w_tgt)))
    return PLMeasure(mu.dendrite, atoms, dens, norm=mu.norm)


def integrate_oracle(mu, f):
    """The per-point trapezoid integral the one-walk version replaced."""
    total = F(0)
    for p, w in mu.atoms:
        total += w * f(p)
    for eid, pieces in mu.densities.items():
        weight = mu.dendrite.edge(eid).weight
        xs, _ = f.edge_data[eid]
        for a, b, r in pieces:
            cuts = sorted({a, b} | {x for x in xs if a < x < b})
            for lo, hi in zip(cuts, cuts[1:]):
                flo = f(mu.dendrite.point(eid, lo))
                fhi = f(mu.dendrite.point(eid, hi))
                total += r * weight * (flo + fhi) / 2 * (hi - lo)
    return total


@st.composite
def tree_automorphisms(draw, dendrite, denominator=32):
    """A tree automorphism with random PL reparametrizations.

    The vertex map is the identity or swaps two leaves that share a
    neighbour; storage orientations are random, so some edges flip.
    Reparametrization breakpoints and values are k/denominator.
    """
    from dendrodyn.homeo import PLMap, tree_automorphism
    vm = {v: v for v in dendrite.vertices}
    leaves = {}
    for e in dendrite.edges:
        for leaf, hub in ((e.u, e.v), (e.v, e.u)):
            if degree(dendrite, leaf) == 1:
                leaves.setdefault(hub, []).append(leaf)
    pairs = [sorted(group)[:2] for _, group in sorted(leaves.items())
             if len(group) >= 2]
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        vm[a], vm[b] = b, a
    reparams = {e.eid: (draw(pl_maps(denominator=denominator)) if draw(st.booleans())
                        else PLMap.identity())
                for e in dendrite.edges}
    return tree_automorphism(dendrite, vm, reparams)


@st.composite
def pl_functions(draw, dendrite, steps=16, denominator=4):
    """A random continuous PL function with breakpoints k/steps and values k/denominator."""
    values = st.integers(-2 * denominator, 2 * denominator).map(lambda k: F(k, denominator))
    vv = {v: draw(values) for v in dendrite.vertices}
    ed = {}
    for e in dendrite.edges:
        mids = sorted(draw(st.sets(st.integers(1, steps - 1), max_size=3)))
        xs = [F(0)] + [F(x, steps) for x in mids] + [F(1)]
        ys = [vv[e.u]] + [draw(values) for _ in mids] + [vv[e.v]]
        ed[e.eid] = (xs, ys)
    return TestFunction(dendrite, vv, ed)


def thompson_words(gens):
    letters = st.tuples(st.sampled_from(gens.symbols), st.sampled_from((1, -1)))
    return st.lists(letters, min_size=1, max_size=6).map(lambda ls: Word(tuple(ls)))


class TestOneWalkOracles:
    """The one-walk kernels against the per-piece code they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_push_forward_tree_automorphisms(self, data):
        X = data.draw(random_trees(max_edges=5))
        mu = data.draw(random_measures(X))
        h = data.draw(tree_automorphisms(X))
        assert push_forward(h, mu) == push_forward_oracle(h, mu)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_push_forward_thompson_words(self, thomp, data):
        X, gens = thomp.dendrite, thomp.generators
        mu = data.draw(random_measures(X))
        for w in (data.draw(thompson_words(gens)), data.draw(thompson_words(gens))):
            h = evaluate_word(w, gens)
            pushed = push_forward(h, mu)
            assert pushed == push_forward_oracle(h, mu)
            mu = pushed  # the second word acts on breakpoints off the sixteenths

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_integrate_tree_automorphisms(self, data):
        X = data.draw(random_trees(max_edges=5))
        mu = data.draw(random_measures(X))
        f = data.draw(pl_functions(X))
        assert integrate(mu, f) == integrate_oracle(mu, f)
        pushed = push_forward(data.draw(tree_automorphisms(X)), mu)
        assert integrate(pushed, f) == integrate_oracle(pushed, f)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_integrate_thompson_words(self, thomp, data):
        X, gens = thomp.dendrite, thomp.generators
        mu = data.draw(random_measures(X))
        pushed = push_forward(evaluate_word(data.draw(thompson_words(gens)), gens), mu)
        f = data.draw(pl_functions(X))
        assert integrate(pushed, f) == integrate_oracle(pushed, f)

    # Non-dyadic inputs: with every denominator a power of two, a scale slip
    # (values scaled by sx instead of sy, say) can cancel and go unseen.

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_non_dyadic_tree_automorphisms(self, data):
        X = data.draw(random_trees(max_edges=5, denominators=(1, 3, 5)))
        mu = data.draw(random_measures(X, steps=15, density_denominators=(3, 7)))
        h = data.draw(tree_automorphisms(X, denominator=21))
        pushed = push_forward(h, mu)
        assert pushed == push_forward_oracle(h, mu)
        f = data.draw(pl_functions(X, steps=9, denominator=5))
        assert integrate(mu, f) == integrate_oracle(mu, f)
        assert integrate(pushed, f) == integrate_oracle(pushed, f)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_non_dyadic_decreasing_interval_map(self, data):
        X = unit_interval_dendrite()
        m = data.draw(pl_maps(denominator=15))
        h = interval_homeo(X, m.xs, [1 - y for y in m.ys])
        mu = data.draw(random_measures(X, steps=15, density_denominators=(3, 7)))
        pushed = push_forward(h, mu)
        assert pushed == push_forward_oracle(h, mu)
        f = data.draw(pl_functions(X, steps=9, denominator=5))
        assert integrate(pushed, f) == integrate_oracle(pushed, f)


def fields(mu):
    """Everything a measure stores, in order (``==`` ignores ``norm`` and edge order)."""
    return mu.dendrite, mu.atoms, list(mu.densities.items()), mu.norm


class TestTrustedConstruction:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_push_forward_rows_give_the_validated_measure(self, data):
        # the rows push_forward hands to _trusted, read back through the
        # validating constructor: a decreasing map lists rows right to left,
        # and pushing back by the inverse leaves touching rows of equal density
        if data.draw(st.booleans()):
            X = data.draw(random_trees(max_edges=5))
            h = data.draw(tree_automorphisms(X))
        else:
            X = unit_interval_dendrite()
            m = data.draw(pl_maps())
            h = interval_homeo(X, m.xs, [1 - y for y in m.ys])
        mu = data.draw(random_measures(X))
        with mock.patch.object(PLMeasure, "_trusted", wraps=PLMeasure._trusted) as spy:
            pushed = push_forward(h, mu)
            back = push_forward(invert(h), pushed)
        assert [fields(pushed), fields(back)] == [
            fields(PLMeasure(*call.args)) for call in spy.call_args_list]
        assert fields(back) == fields(mu)


@st.composite
def overlapping_measures(draw, dendrite):
    """Two measures with shared atom points, coarse rows that touch across them,
    edges that only one carries, and norms 1, 2 or 3/2."""
    pool = [draw(tree_points(dendrite, 4)) for _ in range(3)]
    mus = []
    for _ in range(2):
        atoms = [(draw(st.sampled_from(pool)), F(draw(st.integers(1, 3)), 4))
                 for _ in range(draw(st.integers(0, 3)))]
        dens = {}
        for e in dendrite.edges:
            if draw(st.booleans()):
                cuts = sorted(draw(st.sets(st.integers(0, 4), max_size=5)))
                dens[e.eid] = [(F(a, 4), F(b, 4), F(draw(st.integers(0, 2)), 2))
                               for a, b in zip(cuts, cuts[1:])]
        norm = draw(st.sampled_from((F(1), F(2), F(3, 2))))
        mus.append(PLMeasure(dendrite, atoms, dens, norm=norm))
    return mus


@st.composite
def constructor_inputs(draw, dendrite):
    """Arguments for ``PLMeasure``: shuffled, touching, empty and zero-density rows
    and zero and repeated atoms, with at most one fault that the constructor refuses."""
    fault = draw(st.sampled_from((None, None, "point", "weight", "row", "overlap", "edge")))
    points = [draw(tree_points(dendrite, 4)) for _ in range(2)]
    atoms = [(draw(st.sampled_from(points)), F(draw(st.integers(0, 3)), 4))
             for _ in range(draw(st.integers(0, 3)))]
    atoms += {"point": [(VertexPoint("nowhere"), F(1))],
              "weight": [(points[0], F(-1, 4))]}.get(fault, [])
    dens = {}
    for e in dendrite.edges:
        cuts = sorted(draw(st.sets(st.integers(0, 4), max_size=5)))
        rows = [(F(a, 4), F(b, 4), F(draw(st.integers(0, 2)), 2))
                for a, b in zip(cuts, cuts[1:])]
        rows += [(F(a, 4), F(a, 4), F(1)) for a in cuts[:1]]  # empty
        rows += [(F(0), F(1), F(0))] * draw(st.integers(0, 1))  # zero density
        if fault == "row" and draw(st.booleans()):  # may leave [0, 1] or be negative
            ends = st.integers(-1, 5).map(lambda k: F(k, 4))
            rows.append((draw(ends), draw(ends), F(draw(st.integers(-1, 2)), 2)))
        if fault == "overlap" and draw(st.booleans()):
            a = draw(st.integers(0, 3))
            rows.append((F(a, 4), F(draw(st.integers(a + 1, 4)), 4), F(1, 2)))
        dens[e.eid] = draw(st.permutations(rows))
    if fault == "edge":
        dens["no-such-edge"] = []
    norm = draw(st.sampled_from((1, "3/2", F(2))))
    return draw(st.permutations(atoms)), dens, norm


def outcome(make, *args):
    """The fields ``make(*args)`` stores, or the type and text of what it raised."""
    try:
        return fields(make(*args))
    except (ValueError, DendrodynError) as exc:
        return type(exc), str(exc)


class TestCanonicalFormOracles:
    """One fill, one merge and one evaluator against the code they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_add_matches_cut_grid_add(self, data):
        X = data.draw(random_trees(max_edges=4))
        mu, nu = data.draw(overlapping_measures(X))
        assert fields(mu.add(nu)) == fields(add_oracle(mu, nu))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_constructor_matches_validating_oracle(self, data):
        X = data.draw(random_trees(max_edges=4))
        atoms, dens, norm = data.draw(constructor_inputs(X))
        assert outcome(PLMeasure, X, atoms, dens, norm) == \
            outcome(measure_oracle, X, atoms, dens, norm)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pl_value_matches_indexed_loop(self, data):
        m = data.draw(pl_maps())
        plm = PLMap(m.xs, m.ys if data.draw(st.booleans()) else [1 - y for y in m.ys])
        probe = F(data.draw(st.integers(0, 64)), 64)
        for t in {F(0), F(1), probe, *plm.xs}:
            assert plm(t) == _pl_value(plm.xs, plm.ys, t) == \
                pl_value_oracle(plm.xs, plm.ys, t)
        X = data.draw(random_trees(max_edges=3))
        f = data.draw(pl_functions(X))
        for eid, (xs, ys) in f.edge_data.items():
            for t in {F(0), F(1), probe, *xs}:
                assert f(X.point(eid, t)) == _pl_value(xs, ys, t) == \
                    pl_value_oracle(xs, ys, t)


class TestIntegrate:
    def test_total_mass(self, thomp):
        mu = canonical_measure(thomp.dendrite)
        one = TestFunction(thomp.dendrite, dict.fromkeys(thomp.dendrite.vertices, 1), {})
        assert integrate(mu, one) == mu.total_mass()

    def test_dirac_evaluates(self, thomp):
        X = thomp.dendrite
        f = TestFunction.distance_to(X, X.vertex_point("0"))
        p = X.point("e", F(2, 5))
        assert integrate(dirac(X, p), f) == f(p) == F(2, 5)

    def test_uniform_identity_function(self):
        X = unit_interval_dendrite()
        f = TestFunction(X, {"0": 0, "1": 1}, {})
        assert integrate(canonical_measure(X), f) == F(1, 2)

    def test_linear_in_function_and_measure(self, thomp):
        X = thomp.dendrite
        mu = canonical_measure(X)
        nu = dirac(X, X.point("e", F(1, 3)))
        f = TestFunction.distance_to(X, X.vertex_point("0"))
        g = TestFunction(X, dict.fromkeys(X.vertices, F(2, 3)), {})
        fg = TestFunction(X, {v: f.vertex_values[v] + g.vertex_values[v]
                              for v in X.vertices},
                          {eid: (xs, tuple(y + F(2, 3) for y in ys))
                           for eid, (xs, ys) in f.edge_data.items()})
        assert integrate(mu, fg) == integrate(mu, f) + integrate(mu, g)
        mix = mu.scaled(F(1, 2)).add(nu.scaled(F(1, 2)))
        assert integrate(mix, f) == \
            F(1, 2) * integrate(mu, f) + F(1, 2) * integrate(nu, f)

    def test_riemann_oracle(self, thomp):
        X = thomp.dendrite
        mu = push_forward(thomp.generators.homeo("g"), canonical_measure(X))
        f = TestFunction.distance_to(X, X.point("e", F(1, 2)))
        exact = integrate(mu, f)
        g = lambda x: x if x <= 0.5 else (x / 2 + 0.25 if x < 0.75 else
                                          (x - 0.125 if x < 0.875 else 2 * x - 1))
        n = 40000
        approx = sum(abs(g((k + 0.5) / n) - 0.5) for k in range(n)) / n
        assert abs(float(exact) - approx) < 0.001

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_distance_function_matches_per_pair_distances(self, data):
        X = data.draw(random_trees())
        p, q = data.draw(tree_points(X)), data.draw(tree_points(X))
        f = TestFunction.distance_to(X, p)
        assert f.vertex_values == {v: metric_distance(X, X.vertex_point(v), p)
                                   for v in X.vertices}
        assert f(q) == metric_distance(X, q, p)


class TestUniformOrbitMeasure:
    def test_fixed_point_dirac(self, thomp):
        res = detect_finite_orbit(thomp.generators,
                                  thomp.dendrite.vertex_point("0"), 3)
        mu = uniform_orbit_measure(res)
        assert mu.atoms == ((thomp.dendrite.vertex_point("0"), F(1)),)
        assert invariance_defect(thomp.generators, mu, [
            TestFunction.distance_to(thomp.dendrite, thomp.dendrite.vertex_point("1"))
        ]) == 0

    def test_eight_point_level(self):
        system = odometer_system(3)
        res = detect_finite_orbit(system.generators, leaf_point(system.dendrite, 3), 8)
        mu = uniform_orbit_measure(res)
        assert len(mu.atoms) == 8
        assert all(w == F(1, 8) for _, w in mu.atoms)
        pushed = push_forward(system.generators.homeo("g"), mu)
        assert pushed == mu

    def test_two_point_orbit(self):
        system = odometer_system(1)
        res = detect_finite_orbit(system.generators, leaf_point(system.dendrite, 1), 4)
        mu = uniform_orbit_measure(res)
        assert sorted(w for _, w in mu.atoms) == [F(1, 2), F(1, 2)]

    def test_uncertified_rejected(self, thomp):
        res = detect_finite_orbit(thomp.generators,
                                  thomp.dendrite.point("e", F(1, 2)), 2)
        with pytest.raises(NotCertifiedOrbit):
            uniform_orbit_measure(res)


def mixture_oracle(mu0, measures, share):
    """The ``Fraction``-keyed merge the integer one replaced."""
    atoms = []
    steps = {}  # edge -> parameter -> jump
    for mu in measures:
        atoms.extend(mu.atoms)
        for eid, pieces in mu.densities.items():
            diff = steps.setdefault(eid, {})
            for a, b, r in pieces:
                diff[a] = diff.get(a, F(0)) + r
                diff[b] = diff.get(b, F(0)) - r
    dens = {}
    for eid, diff in steps.items():
        rows = dens[eid] = []
        level = F(0)
        cuts = sorted(diff)
        for lo, hi in zip(cuts, cuts[1:]):
            level += diff[lo]
            if level:
                rows.append((lo, hi, level * share))
    return PLMeasure(mu0.dendrite, [(p, w * share) for p, w in atoms], dens,
                     norm=mu0.norm)


class TestFolnerAverage:
    def test_index_zero_returns_seed(self, odo6):
        scheme = folner_scheme_Z("g")
        mu0 = dirac(odo6.dendrite, leaf_point(odo6.dendrite, 6))
        assert folner_average(odo6.generators, scheme, mu0, 0) == mu0

    def test_invariant_seed_fixed(self, odo6):
        scheme = folner_scheme_Z("g")
        mu0 = canonical_measure(odo6.dendrite)
        assert folner_average(odo6.generators, scheme, mu0, 3) == mu0

    def test_five_atoms_along_cycle(self):
        system = odometer_system(3)
        scheme = folner_scheme_Z("g")
        mu0 = dirac(system.dendrite, leaf_point(system.dendrite, 3))
        nu = folner_average(system.generators, scheme, mu0, 2)
        assert len(nu.atoms) == 5
        assert all(w == F(1, 5) for _, w in nu.atoms)

    def test_requires_probability(self, odo6):
        scheme = folner_scheme_Z("g")
        mu0 = dirac(odo6.dendrite, leaf_point(odo6.dendrite, 6), F(1, 3))
        with pytest.raises(NotProbability):
            folner_average(odo6.generators, scheme, mu0, 1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_merge_matches_fraction_merge(self, data):
        # non-dyadic weights, piece ends and densities, so the per-edge common
        # denominators are exercised; the share is not a unit fraction
        X = data.draw(random_trees(max_edges=5, denominators=(3, 5, 7, 12)))
        mus = [data.draw(random_measures(X, steps=35, density_denominators=(11, 4)))
               for _ in range(data.draw(st.integers(1, 4)))]
        share = F(data.draw(st.integers(1, 6)), data.draw(st.sampled_from((7, 9))))
        assert fields(_mixture(mus[0], mus, share)) == fields(mixture_oracle(mus[0], mus, share))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_merge_matches_add_chain(self, data):
        # oracle: the scaled-and-added accumulation the one merge replaced
        X = data.draw(random_trees(max_edges=5))
        mus = [data.draw(random_measures(X)) for _ in range(data.draw(st.integers(1, 4)))]
        share = F(1, len(mus))
        chain = mus[0].scaled(share)
        for mu in mus[1:]:
            chain = add_oracle(chain, mu.scaled(share))
        assert _mixture(mus[0], mus, share) == chain


class TestBallMass:
    def test_interior_center_covers_own_edge_directly(self, thomp):
        # points of the center's edge are reached along the edge, not through
        # the endpoints
        X = thomp.dendrite
        mu = canonical_measure(X).scaled(F(1, 2)).add(
            dirac(X, X.point("e", F(1, 3)), F(1, 2)))
        c = X.point("e", F(1, 3))
        assert mu.ball_mass(c, F(1, 4)) == F(3, 4)
        assert mu.ball_mass(c, F(1, 3)) == F(5, 6)
        assert mu.ball_mass(c, F(2, 3)) == 1

    def test_vertex_center(self, thomp):
        X = thomp.dendrite
        mu = canonical_measure(X)
        assert mu.ball_mass(X.vertex_point("0"), F(1, 4)) == F(1, 4)
        assert mu.ball_mass(X.vertex_point("1"), F(1, 2)) == F(1, 2)

    def test_cross_edge_coverage(self):
        from dendrodyn.zoo import gehman_dendrite
        X = gehman_dendrite(2, leaf_weight="level")
        mu = canonical_measure(X)
        # ball around the root: covers a prefix of both level-1 edges
        got = mu.ball_mass(X.vertex_point("r"), F(1, 4))
        assert got == 2 * F(1, 4) / 2 / X.total_weight() * 2

    def test_spread_values_match_discretization_oracle(self, thomp):
        # frozen from a 2000-sample float oracle agreeing to 3 decimals
        from dendrodyn.equicontinuity import _spread
        X = thomp.dendrite
        pushed = push_forward(thomp.generators.homeo("f"), canonical_measure(X))
        assert _spread(pushed, F(15, 16)) == F(7, 8)
        mixture = canonical_measure(X).scaled(F(1, 2)).add(
            dirac(X, X.point("e", F(1, 3)), F(1, 2)))
        assert _spread(mixture, F(15, 16)) == F(13, 24)
        odo = odometer_system(3)
        assert _spread(canonical_measure(odo.dendrite), F(15, 16)) == F(31, 32)


def five_function_dictionary(system, depth):
    X = system.dendrite
    probes = [leaf_point(X, depth, 0), X.vertex_point("r"), X.vertex_point("0"),
              X.vertex_point("1"), leaf_point(X, depth, 2 ** depth - 1)]
    return [TestFunction.distance_to(X, p) for p in probes]


class TestInvarianceDefect:
    def test_dirac_at_moved_point(self, odo6):
        X = odo6.dendrite
        x = leaf_point(X, 6)
        f = TestFunction.distance_to(X, x)
        mu = dirac(X, x)
        gx = evaluate_word(Word.parse("g"), odo6.generators)
        from dendrodyn.homeo import apply
        expected = abs(f(apply(gx, x)) - f(x))
        assert invariance_defect(odo6.generators, mu, [f]) == expected

    def test_window_average_defect_bound_and_decay(self, odo6):
        # transport oracle: defect of the window average is the boundary
        # difference over the window size
        scheme = folner_scheme_Z("g")
        X = odo6.dendrite
        x0 = leaf_point(X, 6)
        mu0 = dirac(X, x0)
        fns = five_function_dictionary(odo6, 6)
        sup = max(f.sup_norm() for f in fns)
        gens = odo6.generators
        from dendrodyn.action import word_power
        from dendrodyn.homeo import apply

        defects = []
        for n in [1, 2, 4, 8, 16]:
            nu = folner_average(gens, scheme, mu0, n)
            defect = invariance_defect(gens, nu, fns)
            hi = apply(evaluate_word(word_power("g", n + 1), gens), x0)
            lo = apply(evaluate_word(word_power("g", -n), gens), x0)
            oracle = max(abs(f(hi) - f(lo)) for f in fns) / (2 * n + 1)
            assert defect == oracle
            assert defect <= 2 * sup / (2 * n + 1)
            defects.append(defect)
        assert all(a >= b for a, b in zip(defects, defects[1:]))

    def test_thompson_mass_concentrates_at_fixed_ends(self, thomp):
        # averaging along one-sided powers of f pushes mass toward 0
        X, gens = thomp.dendrite, thomp.generators
        schedule = FolnerScheme("f-powers", ("f",),
                                lambda n: tuple(Word.parse(f"f^{k}") if k else
                                                Word.identity()
                                                for k in range(n + 1)))
        mu0 = canonical_measure(X)
        lo, hi = X.point("e", F(1, 8)), X.point("e", F(7, 8))
        zero, one = X.vertex_point("0"), X.vertex_point("1")

        def near_ends_mass(mu):
            return mu.arc_mass(zero, lo) + mu.arc_mass(hi, one)

        masses = [near_ends_mass(folner_average(gens, schedule, mu0, n))
                  for n in [1, 2, 4, 8]]
        assert all(a < b for a, b in zip(masses, masses[1:]))


class TestTwoSeedAveraging:
    def test_seeds_average_toward_each_other(self):
        # unique-ergodicity diagnostic: window averages from two different
        # seeds drift together as the window grows (never a proof)
        system = odometer_system(5)
        X, gens = system.dendrite, system.generators
        scheme = folner_scheme_Z("g")
        mu1 = dirac(X, leaf_point(X, 5, 0))
        mu2 = dirac(X, leaf_point(X, 5, 11))
        fns = [TestFunction.distance_to(X, p) for p in
               [leaf_point(X, 5, 0), X.vertex_point("r"), X.vertex_point("0")]]
        gaps = []
        for n in (1, 4, 16):
            nu1 = folner_average(gens, scheme, mu1, n)
            nu2 = folner_average(gens, scheme, mu2, n)
            gaps.append(max(abs(integrate(nu1, f) - integrate(nu2, f))
                            for f in fns))
        assert gaps == [F(1, 3), F(7, 36), F(5, 88)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestFolnerRatio:
    def test_identity_word(self):
        scheme = folner_scheme_Z("g")
        assert folner_ratio(scheme, "e", 3) == 0

    @pytest.mark.parametrize("n,expected", [(2, F(2, 5)), (10, F(2, 21)),
                                            (50, F(2, 101))])
    def test_window_shift_count(self, n, expected):
        # direct count oracle: shifting the window changes two endpoints
        scheme = folner_scheme_Z("g")
        assert folner_ratio(scheme, "g", n) == expected
        base = set(range(-n, n + 1))
        shifted = {k + 1 for k in base}
        assert F(len(base ^ shifted), len(base)) == expected

    def test_vanishes(self):
        scheme = folner_scheme_Z("g")
        assert folner_ratio(scheme, "g", 50) < F(1, 50)

    def test_longer_translator(self):
        scheme = folner_scheme_Z("g")
        assert folner_ratio(scheme, "g^3", 10) == F(6, 21)
