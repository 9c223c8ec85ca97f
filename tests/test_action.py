import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dendrodyn
import dendrodyn.action as action
from dendrodyn.action import (
    GeneratorSet,
    Word,
    classify_minimal_set,
    detect_finite_orbit,
    detect_recurrence,
    evaluate_word,
    minimal_set_approx,
    orbit,
    reduce_word,
    word_ball,
    word_images,
    word_power,
)
from dendrodyn.dendrite import FiniteClosedSet, hausdorff_distance, set_distance, subdendrite_gates
from dendrodyn.errors import UnknownSymbol
from dendrodyn.homeo import apply, compose, identity_homeo, interval_homeo, tree_automorphism
from dendrodyn.measure import canonical_measure, dirac, push_forward
from dendrodyn.zoo import (
    corrupted_leaf_collapse,
    gehman_dendrite,
    leaf_point,
    odometer_system,
    thompson_system,
    unit_interval_dendrite,
)

from conftest import pl_maps, tree_points, trees_with_points
from oracles import classify_oracle, metric_distance, orbit_layers_oracle, whole

F = Fraction


def letters(text):
    return Word.parse(text)


def tval(p):
    if hasattr(p, "t"):
        return p.t
    return F(int(p.vertex))


class TestWords:
    def test_cancel_adjacent(self):
        assert reduce_word(letters("s s^-1")) == Word.identity()

    def test_inner_cancellation(self):
        assert reduce_word(Word.parse("s t t^-1 s")) == Word.parse("s s")

    def test_iterated_cancellation(self):
        # cancellation oracle: repeatedly delete one adjacent inverse pair
        w = Word.parse("t^-1 s s^-1 t s")

        def slow_reduce(word):
            ls = list(word.letters)
            changed = True
            while changed:
                changed = False
                for i in range(len(ls) - 1):
                    if ls[i][0] == ls[i + 1][0] and ls[i][1] == -ls[i + 1][1]:
                        del ls[i:i + 2]
                        changed = True
                        break
            return Word(tuple(ls))

        assert reduce_word(w) == slow_reduce(w) == Word.parse("s")

    def test_idempotent(self):
        w = Word.parse("s t t^-1 s s^-1")
        assert reduce_word(reduce_word(w)) == reduce_word(w)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("st"), st.sampled_from([1, -1])),
                    max_size=12))
    def test_reduced_has_no_adjacent_inverses(self, raw):
        w = reduce_word(Word(tuple(raw)))
        assert w.is_reduced()

    def test_str_round_trip(self):
        w = Word.parse("f g^-1 f")
        assert Word.parse(str(w)) == w
        assert str(Word.identity()) == "e"

    def test_power_parse(self):
        assert Word.parse("g^3") == word_power("g", 3)
        assert Word.parse("g^-2") == word_power("g", -2)


@pytest.fixture(scope="module")
def gens():
    return thompson_system().generators


@pytest.fixture(scope="module")
def system():
    return thompson_system()


class TestWordBall:

    def test_radius_zero(self, gens):
        assert word_ball(gens, 0) == [Word.identity()]

    def test_radius_one(self, gens):
        assert len(word_ball(gens, 1)) == 5

    def test_radius_three_count(self, gens):
        # no-backtracking count: 1 + sum of 4 * 3**(k-1)
        assert len(word_ball(gens, 3)) == 1 + 4 + 12 + 36 == 53

    def test_all_reduced_and_unique(self, gens):
        ball = word_ball(gens, 4)
        assert len(set(ball)) == len(ball)
        assert all(w.is_reduced() for w in ball)


class TestEvaluate:
    def test_identity(self, system):
        assert evaluate_word(Word.identity(), system.generators) == \
            identity_homeo(system.dendrite)

    def test_single_letter_boundary_value(self, system):
        X = system.dendrite
        h = evaluate_word(letters("f"), system.generators)
        assert tval(apply(h, X.point("e", F(3, 4)))) == F(1, 2)

    def test_matches_compose_chain(self, system):
        # pointwise comparison oracle on a grid of rationals
        X, gens = system.dendrite, system.generators
        w = letters("g f")
        h = evaluate_word(w, gens)
        chain = compose(gens.homeo("g"), gens.homeo("f"))
        assert h == chain
        rng = random.Random(5)
        for _ in range(50):
            t = F(rng.randrange(0, 257), 256)
            p = X.point("e", t)
            assert apply(h, p) == apply(chain, p)

    def test_homomorphism_on_samples(self, system):
        X, gens = system.dendrite, system.generators
        u, v = letters("f g"), letters("g^-1 f")
        lhs = evaluate_word(u * v, gens)
        rhs = compose(evaluate_word(u, gens), evaluate_word(v, gens))
        for p in X.skeleton_points():
            assert apply(lhs, p) == apply(rhs, p)

    def test_unknown_symbol(self, system):
        with pytest.raises(UnknownSymbol):
            evaluate_word(letters("q"), system.generators)


def word_lists(symbols):
    """Lists of random words, reduced or not, of length 0 to 6."""
    letter = st.tuples(st.sampled_from(symbols), st.sampled_from([1, -1]))
    word = st.lists(letter, max_size=6).map(lambda ls: Word(tuple(ls)))
    return st.lists(word, min_size=1, max_size=6)


class TestWordImages:
    """The letter-at-a-time walk agrees with composing each word outright."""

    @staticmethod
    def check_against_evaluate_word(gens, words, x):
        X = gens.dendrite
        mu = canonical_measure(X).scaled(F(1, 2)).add(dirac(X, x, F(1, 2)))
        pushed = list(word_images(gens, words, mu, push_forward))
        moved = list(word_images(gens, words, x, apply))
        assert [w for w, _ in pushed] == [w for w, _ in moved] == words
        for (w, nu), (_, y) in zip(pushed, moved):
            h = evaluate_word(w, gens)
            assert nu == push_forward(h, mu)
            assert y == apply(h, x)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_odometer(self, odo4, data):
        X = odo4.dendrite
        words = data.draw(word_lists(["g"]))
        x = data.draw(tree_points(X))
        self.check_against_evaluate_word(odo4.generators, words, x)

    @settings(max_examples=30, deadline=None)
    @given(pl_maps(), pl_maps(), word_lists(["a", "b"]), st.integers(0, 16))
    def test_interval_pl_pairs(self, ma, mb, words, k):
        X = unit_interval_dendrite()
        gens = GeneratorSet(X, [("a", interval_homeo(X, ma.xs, ma.ys)),
                                ("b", interval_homeo(X, mb.xs, mb.ys))])
        self.check_against_evaluate_word(gens, words, X.point("e", F(k, 16)))


class TestOrbit:
    def test_fixed_point(self):
        system = thompson_system()
        rep = orbit(system.generators, system.dendrite.vertex_point("0"), 3)
        assert rep.points == FiniteClosedSet(system.dendrite,
                                             [system.dendrite.vertex_point("0")])
        assert rep.closed

    def test_thompson_half_radius_one(self):
        system = thompson_system()
        X = system.dendrite
        rep = orbit(system.generators, X.point("e", F(1, 2)), 1)
        values = sorted(tval(p) for p in rep.points)
        assert values == [F(1, 4), F(1, 2), F(3, 4)]

    def test_monotone_in_radius(self):
        seeds = [(thompson_system(), None), (odometer_system(3), None)]
        for system, _ in seeds:
            X = system.dendrite
            x = (X.point("e", F(1, 2)) if len(X.edges) == 1
                 else leaf_point(X, 3))
            prev = None
            for radius in range(0, 7):
                rep = orbit(system.generators, x, radius)
                if prev is not None:
                    assert prev <= set(rep.points.points)
                prev = set(rep.points.points)

    def test_closed_orbit_is_strongly_invariant(self):
        system = odometer_system(3)
        rep = orbit(system.generators, leaf_point(system.dendrite, 3), 4)
        assert rep.closed
        for sym in system.generators.symbols:
            h = system.generators.homeo(sym)
            assert {apply(h, p) for p in rep.points} == set(rep.points.points)


def orbit_cases(star3):
    """(generators, start point, radius) on odometers D=3..8, Thompson and the 3-star."""
    for depth in range(3, 9):
        system = odometer_system(depth)
        X = system.dendrite
        yield system.generators, leaf_point(X, depth), 2 ** (depth - 1) + 1
        yield system.generators, X.point("e" + "1" * depth, F(1, 3)), 5
    system = thompson_system()
    for t in (F(1, 3), F(1, 2), F(0)):
        yield system.generators, system.dendrite.point("e", t), 5
    turn = tree_automorphism(star3, {"c": "c", "l1": "l2", "l2": "l3", "l3": "l1"})
    gens = GeneratorSet(star3, [("t", turn)], check=False)  # a homeomorphism that moves levels
    yield gens, star3.vertex_point("l1"), 3
    yield gens, star3.point("e2", F(1, 4)), 1


class TestOrbitLayersOracle:
    """One grown dict with sizes against a copy of the orbit per layer."""

    def test_layers_match_copies(self, star3):
        for gens, x, radius in orbit_cases(star3):
            pairs = zip(action._orbit_layers(gens, x, radius),
                        orbit_layers_oracle(gens, x, radius), strict=True)
            for (seen, size), copy in pairs:
                assert size == len(seen) == len(copy)
                assert list(seen) == list(copy)

    def test_reports_match_copying_search(self, star3, monkeypatch):
        cases = list(orbit_cases(star3))

        def reports():
            out = []
            for gens, x, radius in cases:
                out.append((orbit(gens, x, radius),
                            detect_finite_orbit(gens, x, radius),
                            minimal_set_approx(gens, x, max(radius, 2), F(1, 64))))
            return out

        fast = reports()
        monkeypatch.setattr(action, "_orbit_layers", lambda gens, x, radius: (
            (layer, len(layer)) for layer in orbit_layers_oracle(gens, x, radius)))
        assert fast == reports()


class TestDetectFiniteOrbit:
    def test_fixed_point_at_radius_one(self):
        system = thompson_system()
        res = detect_finite_orbit(system.generators,
                                  system.dendrite.vertex_point("0"), 3)
        assert res.found and res.radius == 1
        assert list(res.orbit) == [system.dendrite.vertex_point("0")]

    def test_odometer_leaf_cycle(self):
        # adding-machine cycle of length 8 closes once the window covers it
        system = odometer_system(3)
        res = detect_finite_orbit(system.generators, leaf_point(system.dendrite, 3), 16)
        assert res.found
        assert len(res.orbit) == 8
        assert res.radius == 4

    def test_not_detected_carries_growth(self):
        system = thompson_system()
        res = detect_finite_orbit(system.generators,
                                  system.dendrite.point("e", F(1, 2)), 3)
        assert not res.found
        assert res.orbit is None
        assert len(res.growth) >= 3
        assert all(a <= b for a, b in zip(res.growth, res.growth[1:]))


class TestMinimalSetApprox:
    def test_finite_orbit_increment_zero(self):
        system = odometer_system(3)
        approx = minimal_set_approx(system.generators,
                                    leaf_point(system.dendrite, 3), 6, F(1, 16))
        assert approx.certified_finite
        assert approx.increments[-1] == 0
        assert len(approx.points) == 8

    def test_odometer_stabilizes_at_half_cycle(self):
        # single-cycle oracle: the +-R window covers 2**D leaves at R = 2**(D-1)
        system = odometer_system(3)
        approx = minimal_set_approx(system.generators,
                                    leaf_point(system.dendrite, 3), 5, F(1, 16))
        sizes = [min(2 * r + 1, 8) for r in range(6)]
        nonzero = [i for i, d in enumerate(approx.increments, start=1) if d != 0]
        assert nonzero[-1] == 4  # last growth step
        assert len(approx.points) == sizes[-1] == 8

    def test_thompson_no_convergence_claim(self):
        system = thompson_system()
        approx = minimal_set_approx(system.generators,
                                    system.dendrite.point("e", F(1, 2)), 6, F(1, 64))
        assert not approx.certified_finite
        assert len(approx.increments) == 6
        assert all(tval(p).denominator & (tval(p).denominator - 1) == 0
                   for p in approx.points)  # dyadic orbit

    @pytest.mark.parametrize("start", ["3/13", "2/15", "16/17", "odometer"])
    def test_increments_are_hausdorff_distances_of_consecutive_balls(self, start):
        if start == "odometer":  # the leaf orbit closes at radius 32, so later layers are empty
            system, radius = odometer_system(6), 36
            x = leaf_point(system.dendrite, 6)
        else:
            system, radius = thompson_system(), 13
            x = system.dendrite.point("e", F(start))
        balls = [FiniteClosedSet(system.dendrite, ball)
                 for ball in orbit_layers_oracle(system.generators, x, radius)]
        approx = minimal_set_approx(system.generators, x, radius, F(1, 64))
        assert approx.increments == tuple(hausdorff_distance(a, b)
                                          for a, b in zip(balls, balls[1:]))
        assert approx.points == balls[-1]

    def test_apply_work_independent_of_hash_seed(self):
        # the closure check must not iterate points in hash order
        script = textwrap.dedent("""
            from fractions import Fraction
            import dendrodyn.action as action
            from dendrodyn.zoo import thompson_system
            calls = 0
            real_apply = action.apply
            def counting(h, p):
                global calls
                calls += 1
                return real_apply(h, p)
            action.apply = counting
            system = thompson_system()
            x = system.dendrite.point("e", Fraction(2, 15))
            approx = action.minimal_set_approx(system.generators, x, 8, Fraction(1, 16))
            print(calls, sorted(map(repr, approx.points)), approx.increments)
        """)
        src = str(Path(dendrodyn.__file__).parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestClassify:
    def test_two_point_orbit_finite(self):
        system = odometer_system(1)
        res = detect_finite_orbit(system.generators, leaf_point(system.dendrite, 1), 4)
        verdict = classify_minimal_set(system.dendrite, res.orbit, F(1, 4),
                                       certified_finite=True)
        assert verdict.kind == "finite-orbit"

    @pytest.mark.parametrize("depth", [5, 6])
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 8)])
    def test_odometer_leaves_cantor_like(self, depth, eps):
        system = odometer_system(depth)
        X = system.dendrite
        leaves = FiniteClosedSet(X, [leaf_point(X, depth, k)
                                     for k in range(2 ** depth)])
        verdict = classify_minimal_set(X, leaves, eps)
        assert verdict.kind == "cantor-like"

    def test_eps_net_whole_space(self):
        X = unit_interval_dendrite()
        net = FiniteClosedSet(X, [X.point("e", F(k, 8)) for k in range(9)])
        verdict = classify_minimal_set(X, net, F(1, 4))
        assert verdict.kind == "whole-space"

    def test_inconclusive(self):
        X = unit_interval_dendrite()
        sparse = FiniteClosedSet(X, [X.vertex_point("0"), X.vertex_point("1")])
        verdict = classify_minimal_set(X, sparse, F(1, 8))
        assert verdict.kind == "inconclusive"
        assert verdict.details == {"max_probe_gap": F(1, 2),
                                   "isolated_point": X.vertex_point("0")}

    @settings(max_examples=150, deadline=None)
    @given(trees_with_points(count=6, max_edges=7),
           st.sampled_from([F(1, 8), F(1, 2), F(1), F(3)]))
    def test_perfectness_matches_per_point_loop(self, data, eps):
        X, pts = data
        m = FiniteClosedSet(X, pts)
        # reference: one set_distance sweep per point, first isolated point wins
        witness = None
        for p in m:
            rest = FiniteClosedSet(X, [q for q in m if q != p])
            if len(rest) == 0 or set_distance(X, p, rest) > eps:
                witness = p
                break
        verdict = classify_minimal_set(X, m, eps)
        if verdict.kind == "whole-space":
            return
        assert verdict.kind == ("cantor-like" if witness is None else "inconclusive")
        assert verdict.details.get("isolated_point") == witness

    @settings(max_examples=200, deadline=None)
    @given(trees_with_points(count=5, max_edges=8),
           st.sampled_from([F(1, 16), F(1, 8), F(1, 2), F(1), F(3)]))
    def test_one_sweep_matches_probe_loop(self, data, eps):
        # the verdict and its provenance (worst probe, its gap, the isolated
        # point) against one checked probe per vertex and edge midpoint;
        # weights over 1..8 and points at k/16 make many tied gaps
        X, pts = data
        m = FiniteClosedSet(X, pts)
        verdict = classify_minimal_set(X, m, eps)
        expected = classify_oracle(X, m, eps)
        assert verdict == expected and verdict.details == expected.details

    @pytest.mark.parametrize("eps", [F(1, 64), F(1, 8), F(1), F(4)])
    def test_one_sweep_matches_probe_loop_on_the_zoo(self, eps):
        odometer = odometer_system(6)
        X = odometer.dendrite
        leaves = FiniteClosedSet(X, [leaf_point(X, 6, k) for k in range(64)])
        thompson = thompson_system()
        ball = orbit(thompson.generators, thompson.dendrite.point("e", F(1, 3)), 4).points
        for Y, m in ((X, leaves), (thompson.dendrite, ball)):
            verdict = classify_minimal_set(Y, m, eps)
            expected = classify_oracle(Y, m, eps)
            assert verdict == expected and verdict.details == expected.details


class TestRecurrence:
    def test_fixed_point_has_no_witnesses(self):
        system = thompson_system()
        diag = detect_recurrence(system.generators,
                                 system.dendrite.vertex_point("0"), F(1, 2), 3)
        assert not diag.witnesses

    def test_odometer_leaf_witnesses(self):
        # cycle distances: g**(2**k) returns within 2**(1-k) of the start
        system = odometer_system(5)
        x = leaf_point(system.dendrite, 5)
        diag = detect_recurrence(system.generators, x, F(1, 4), 16)
        assert diag.witnesses
        best = diag.witnesses[0]
        assert best.distance < F(1, 4)
        assert str(best.word) in ("g g g g g g g g g g g g g g g g",
                                  "g^-1 " * 15 + "g^-1")

    def test_thompson_half_witness_list(self):
        # enumeration oracle: the shortest witness has length 3
        system = thompson_system()
        X = system.dendrite
        diag = detect_recurrence(system.generators, X.point("e", F(1, 2)),
                                 F(1, 8), 4)
        assert diag.witnesses
        words = {str(w.word) for w in diag.witnesses}
        assert "g g f^-1" in words
        assert all(0 < w.distance < F(1, 8) for w in diag.witnesses)
        assert min(len(w.word) for w in diag.witnesses) == 3

    @pytest.mark.parametrize("x", ["1/2", "1/3", "3/8", "0"])
    def test_thompson_witnesses_match_per_pair_loop(self, x):
        system = thompson_system()
        gens, X = system.generators, system.dendrite
        base = X.point("e", x)
        diag = detect_recurrence(gens, base, F(1, 4), 4)
        expected = []
        for w, image in word_images(gens, word_ball(gens, 4)[1:], base, apply):
            d = metric_distance(X, image, base)
            if image != base and d < F(1, 4):
                expected.append((w, image, d))
        expected.sort(key=lambda row: (row[2], len(row[0]), str(row[0])))
        assert [(wit.word, wit.image, wit.distance) for wit in diag.witnesses] == expected
        assert len(expected) > 0 or x == "0"


class TestInvariantSubdendrite:
    def test_fixed_point_singleton(self):
        system = thompson_system()
        sub = system.dendrite.hull(
            orbit(system.generators, system.dendrite.vertex_point("0"), 3).points)
        assert sub.contains(system.dendrite.vertex_point("0"))
        assert sub.diameter() == 0

    def test_odometer_hull_is_whole_tree(self):
        system = odometer_system(3)
        sub = system.dendrite.hull(
            orbit(system.generators, leaf_point(system.dendrite, 3), 4).points)
        assert sub == whole(system.dendrite)

    def test_two_point_orbit_arc(self):
        system = odometer_system(1)
        X = system.dendrite
        sub = X.hull(orbit(system.generators, leaf_point(X, 1), 2).points)
        assert sub == X.arc(X.vertex_point("0"), X.vertex_point("1"))

    def test_closed_orbit_hull_invariant(self):
        from dendrodyn.homeo import image_subdendrite
        system = odometer_system(3)
        sub = system.dendrite.hull(
            orbit(system.generators, leaf_point(system.dendrite, 3), 4).points)
        g = system.generators.homeo("g")
        assert image_subdendrite(g, sub) == sub


class TestRetractOfFiniteOrbitPoint:
    def test_gate_of_finite_orbit_point_has_finite_orbit(self):
        # retraction onto the invariant hull sends finite orbits to finite orbits
        system = odometer_system(3)
        X = system.dendrite
        hull = X.hull(orbit(system.generators, leaf_point(X, 3), 4).points)
        for v in ["0", "00", "r"]:
            [gate] = subdendrite_gates(X, hull, [X.vertex_point(v)])
            res = detect_finite_orbit(system.generators, gate, 16)
            assert res.found

    def test_thompson_endpoint_case(self):
        system = thompson_system()
        X = system.dendrite
        hull = X.hull(orbit(system.generators, X.vertex_point("0"), 2).points)
        [gate] = subdendrite_gates(X, hull, [X.point("e", F(1, 3))])
        res = detect_finite_orbit(system.generators, gate, 4)
        assert res.found and len(res.orbit) == 1


class TestGeneratorSet:
    def test_rejects_invalid_generator(self):
        X = gehman_dendrite(3)
        bad = corrupted_leaf_collapse(3, X)
        with pytest.raises(UnknownSymbol):
            GeneratorSet(X, [("c", bad)])

    def test_unchecked_escape_hatch(self):
        X = gehman_dendrite(3)
        bad = corrupted_leaf_collapse(3, X)
        gens = GeneratorSet(X, [("c", bad)], check=False)
        assert gens.symbols == ("c",)

    def test_reserved_symbol(self):
        system = thompson_system()
        with pytest.raises(UnknownSymbol):
            GeneratorSet(system.dendrite, [("e", identity_homeo(system.dendrite))])
