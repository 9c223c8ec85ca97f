import random
from fractions import Fraction

import pytest

from dendrodyn.action import Word, detect_finite_orbit
from dendrodyn.errors import ConfigInvalid, NotReduced
from dendrodyn.homeo import apply, compose, identity_homeo, tree_automorphism, validate
from dendrodyn.zoo import (
    free_group_cylinder,
    folner_scheme_Z,
    gehman_dendrite,
    get_system,
    leaf_point,
    list_systems,
    odometer,
    odometer_system,
    thompson_generators,
    thompson_system,
    unit_interval_dendrite,
    verify_paradox_partition,
)

from oracles import add_one, degree

F = Fraction


def tval(p):
    if hasattr(p, "t"):
        return p.t
    return F(int(p.vertex))


class TestThompsonGenerators:
    def test_breakpoint_tables(self):
        f, g = thompson_generators()
        _, plm_f = f.edge_map["e"]
        assert plm_f.xs == (F(0), F(1, 2), F(3, 4), F(1))
        assert plm_f.ys == (F(0), F(1, 4), F(1, 2), F(1))
        _, plm_g = g.edge_map["e"]
        assert plm_g.xs == (F(0), F(1, 2), F(3, 4), F(7, 8), F(1))
        assert plm_g.ys == (F(0), F(1, 2), F(5, 8), F(3, 4), F(1))

    def test_branch_formula_values(self):
        # branch formulas evaluated on both breakpoints and random dyadics
        X = unit_interval_dendrite()
        f, g = thompson_generators(X)

        def f_formula(x):
            if x <= F(1, 2):
                return x / 2
            if x < F(3, 4):
                return x - F(1, 4)
            return 2 * x - 1

        def g_formula(x):
            if x <= F(1, 2):
                return x
            if x < F(3, 4):
                return x / 2 + F(1, 4)
            if x < F(7, 8):
                return x - F(1, 8)
            return 2 * x - 1

        rng = random.Random(0)
        xs = {F(0), F(1, 2), F(3, 4), F(7, 8), F(1)}
        while len(xs) < 69:
            xs.add(F(rng.randrange(0, 257), 256))
        for x in sorted(xs):
            p = X.point("e", x)
            assert tval(apply(f, p)) == f_formula(x)
            assert tval(apply(g, p)) == g_formula(x)

    def test_both_fix_endpoints_finite_orbit(self):
        system = thompson_system()
        for v in ("0", "1"):
            res = detect_finite_orbit(system.generators,
                                      system.dendrite.vertex_point(v), 3)
            assert res.found and len(res.orbit) == 1

    def test_generators_do_not_commute(self):
        X = unit_interval_dendrite()
        f, g = thompson_generators(X)
        fg, gf = compose(f, g), compose(g, f)
        assert fg != gf
        witness = X.point("e", F(7, 8))
        assert apply(fg, witness) != apply(gf, witness)


class TestGehmanDendrite:
    def test_depth1(self):
        X = gehman_dendrite(1)
        assert len(X.edges) == 2
        assert [degree(X, v) for v in sorted(X.vertices)] == [1, 1, 2]

    def test_depth3_counts(self):
        X = gehman_dendrite(3)
        assert len(X.edges) == 14
        assert len([v for v in X.vertices if len(v) == 3 and v != "r"]) == 8

    def test_total_weight_level_rule(self):
        # level sums: 2**i edges of weight 2**-i per level
        X = gehman_dendrite(3, leaf_weight="level")
        assert X.total_weight() == 3

    def test_total_weight_tail_rule(self):
        X = gehman_dendrite(3, leaf_weight="tail")
        assert X.total_weight() == 2 + 2

    def test_chaining_holds(self):
        assert len(gehman_dendrite(4).edges) == 30

    def test_leaf_distances_depth_free_under_tail_rule(self):
        # the truncation keeps the untruncated end-space distances
        for depth in (3, 5):
            X = gehman_dendrite(depth)
            a = leaf_point(X, depth, 0)
            b = leaf_point(X, depth, 1)
            assert X.distance(a, b) == 2  # branch at the root
            c = leaf_point(X, depth, 2)
            assert X.distance(a, c) == 1  # branch at level one

    @pytest.mark.parametrize("index", [-1, 8, 1000])
    def test_leaf_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="leaf index"):
            leaf_point(gehman_dendrite(3), 3, index)


class TestOdometer:
    def test_depth1_swap(self):
        X = gehman_dendrite(1)
        g = odometer(1, X)
        assert g.vertex_map["0"] == "1" and g.vertex_map["1"] == "0"

    def test_depth3_leaf_cycle(self):
        X = gehman_dendrite(3)
        g = odometer(3, X)
        start = "000"
        seen = [start]
        cur = start
        for _ in range(7):
            cur = g.vertex_map[cur]
            seen.append(cur)
        assert len(set(seen)) == 8
        assert g.vertex_map[cur] == start

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_order_is_two_to_the_depth(self, depth):
        X = gehman_dendrite(depth)
        g = odometer(depth, X)
        power = identity_homeo(X)
        for _ in range(2 ** depth):
            power = compose(g, power)
        assert power == identity_homeo(X)

    def test_every_level_is_single_cycle(self):
        X = gehman_dendrite(4)
        g = odometer(4, X)
        for level in range(1, 5):
            labels = [v for v in X.vertices if v != "r" and len(v) == level]
            cur = labels[0]
            size = 0
            while True:
                cur = g.vertex_map[cur]
                size += 1
                if cur == labels[0]:
                    break
            assert size == 2 ** level

    def test_validates(self):
        assert validate(odometer(5)).valid

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_vertex_map_is_add_one_on_the_trees_own_ids(self, depth):
        X = gehman_dendrite(depth)
        g = odometer(depth, X)
        expected = {v: v if v == "r" else add_one(v) for v in X.vertices}
        assert g.vertex_map == expected
        own = {id(v) for v in X.vertices}
        assert all(id(image) in own for image in g.vertex_map.values())
        assert g == tree_automorphism(X, expected)


class TestFreeGroupCylinder:
    def test_membership(self):
        w = Word.parse("s t")
        assert free_group_cylinder(w, ("s", 1))
        assert not free_group_cylinder(w, ("t", 1))

    def test_empty_word_in_none(self):
        for letter in [("s", 1), ("s", -1), ("t", 1), ("t", -1)]:
            assert not free_group_cylinder(Word.identity(), letter)

    def test_unreduced_rejected(self):
        raw = Word((("s", -1), ("s", 1), ("t", 1)))
        with pytest.raises(NotReduced):
            free_group_cylinder(raw, ("s", 1))


class TestParadoxPartition:
    def test_length_one(self):
        report = verify_paradox_partition(1)
        assert report.total_words == 5
        assert report.partition_ok
        assert set(report.first_letter_counts.values()) == {1}

    def test_length_three_counts(self):
        report = verify_paradox_partition(3)
        assert report.total_words == 53
        assert report.partition_ok
        counts = report.first_letter_counts
        assert counts["e"] == 1
        assert counts["s"] == counts["s^-1"] == counts["t"] == counts["t^-1"] == 13

    def test_two_piece_interior_words(self):
        report = verify_paradox_partition(3)
        assert report.two_piece_ok
        assert report.two_piece_checked == 17  # all words of length <= 2

    def test_literal_form_counterexamples_archived(self):
        report = verify_paradox_partition(3)
        assert "s^-1 t" in report.literal_missing
        assert all(w.startswith("s^-1") for w in report.literal_missing)
        assert report.literal_overlap  # the naive pieces also overlap

    @pytest.mark.parametrize("length,total", [(1, 5), (2, 17), (3, 53), (4, 161),
                                              (5, 485), (6, 1457)])
    def test_cumulative_counts(self, length, total):
        report = verify_paradox_partition(length)
        assert report.total_words == total
        assert report.partition_ok


class TestFolnerSchemeZ:
    def test_window_sizes(self):
        scheme = folner_scheme_Z("g")
        for n in (1, 3, 7):
            assert len(scheme.words(n)) == 2 * n + 1

    def test_words_are_powers(self):
        scheme = folner_scheme_Z("g")
        ws = scheme.words(2)
        assert Word.parse("g^-2") in ws and Word.parse("g^2") in ws
        assert Word.identity() in ws


class TestRegistry:
    def test_list_systems(self):
        names = [row["name"] for row in list_systems()]
        assert "thompson" in names

    def test_get_odometer(self):
        system = get_system("odometer:D=3")
        assert system.properties["depth"] == 3
        assert not system.corrupt_cover

    def test_get_corrupt(self):
        system = get_system("odometer-corrupt:D=3")
        assert system.corrupt_cover

    def test_leaf_weight_parameter(self):
        system = get_system("odometer:D=3,leaf=level")
        assert system.dendrite.total_weight() == 3

    def test_unknown_rejected(self):
        with pytest.raises(ConfigInvalid):
            get_system("mystery")
        with pytest.raises(ConfigInvalid):
            get_system("odometer")

    def test_listed_parameters_are_the_accepted_ones(self):
        values = {"D": "2", "leaf": "level"}
        candidates = {"D", "leaf", "depth", "x"}
        for row in list_systems():
            name = row["name"].partition(":")[0]
            for key in candidates:
                try:
                    get_system(f"{name}:{key}={values.get(key, '1')}")
                    accepted = True
                except ConfigInvalid as exc:  # a missing depth is not a refused key
                    accepted = not str(exc).startswith(f"unknown parameter {key!r}")
                assert accepted == (key in row["parameters"]), (name, key)


class TestOdometerMinimalSetStructure:
    def test_leaves_equal_endpoints_of_hull(self):
        # endpoints of the hull of the leaf orbit recover the orbit exactly
        from dendrodyn.dendrite import FiniteClosedSet
        system = odometer_system(4)
        X = system.dendrite
        leaves = FiniteClosedSet(X, [leaf_point(X, 4, k) for k in range(16)])
        hull = X.hull(leaves)
        assert hull.endpoint_set() == leaves

    def test_certificate_certified(self):
        from dendrodyn.equicontinuity import equicontinuity_certificate
        from dendrodyn.dendrite import FiniteClosedSet
        system = odometer_system(5)
        X = system.dendrite
        leaves = FiniteClosedSet(X, [leaf_point(X, 5, k) for k in range(32)])
        cert = equicontinuity_certificate(system.generators, leaves, 3)
        assert cert.verdict == "Certified"
