from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrodyn import equicontinuity
from dendrodyn.action import (
    classify_minimal_set,
    detect_finite_orbit,
    detect_recurrence,
    evaluate_word,
    minimal_set_approx,
    word_ball,
)
from dendrodyn.dendrite import FiniteClosedSet, hausdorff_distance, mesh
from dendrodyn.equicontinuity import _RootedHull
from dendrodyn.dendrite import Dendrite, VertexPoint, _point
from dendrodyn.equicontinuity import (
    FrontierCover,
    _spread,
    build_tree_tower,
    equicontinuity_certificate,
    frontier_cover,
    strong_proximality_scan,
    tamper_remove_edge,
    verify_cover_equivariance,
)
from dendrodyn.errors import BudgetExceeded, CoverageGap, NoFiniteOrbitFound
from dendrodyn.homeo import Homeo, PLMap, apply, image_subdendrite, tree_automorphism
from dendrodyn.measure import PLMeasure, canonical_measure, dirac
from dendrodyn.util import point_key
from dendrodyn.zoo import (
    corrupted_leaf_collapse,
    leaf_point,
    odometer_system,
    thompson_f_system,
    thompson_system,
)
from dendrodyn.action import GeneratorSet

from conftest import random_measures, random_trees, tree_points
from oracles import (
    _distance_to_set,
    _point_to_set,
    cell_gap_oracle,
    degree,
    frontier_cover_oracle,
    group_modulus_audit,
    intersection,
    metric_distance,
    sample_points,
    tower_levels_oracle,
    union_connected,
)

F = Fraction


def leaf_set(system, depth):
    X = system.dendrite
    return FiniteClosedSet(X, [leaf_point(X, depth, k) for k in range(2 ** depth)])


@pytest.fixture(scope="module")
def odo4_setup():
    system = odometer_system(4)
    return system, leaf_set(system, 4)


class TestTower:
    def test_odometer_levels_are_branch_orbits(self, odo4_setup):
        system, m = odo4_setup
        tower = build_tree_tower(system.generators, m, 3)
        assert len(tower) == 3
        for lvl in tower.levels:
            assert len(lvl.orbit) == 2 ** lvl.index
            assert lvl.strict
            # frontier vertices all sit at the matching tree level
            assert {len(p.vertex) for p in lvl.frontier} == {lvl.index}

    def test_single_finite_orbit_tower(self):
        system = odometer_system(2)
        res = detect_finite_orbit(system.generators, leaf_point(system.dendrite, 2), 8)
        tower = build_tree_tower(system.generators, res.orbit, 3,
                                 minimal_class="finite")
        assert len(tower) == 1
        X = system.dendrite
        assert X.hull(tower.levels[0].frontier) == X.hull(res.orbit)

    def test_two_nested_orbits(self):
        # two branch-point orbits of the depth-3 tree: levels 1 and 2
        system = odometer_system(3)
        X = system.dendrite
        m = leaf_set(system, 3)
        tower = build_tree_tower(system.generators, m, 2)
        assert len(tower) == 2
        t1, t2 = (X.hull(lvl.frontier) for lvl in tower.levels)
        assert union_connected(t1, t2) == t2
        assert t1 != t2

    def test_nesting_exact(self, odo4_setup):
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 3)
        trees = [X.hull(lvl.frontier) for lvl in tower.levels]
        for a, b in zip(trees, trees[1:]):
            assert union_connected(a, b) == b

    def test_frontier_generator_closed(self, odo4_setup):
        system, m = odo4_setup
        tower = build_tree_tower(system.generators, m, 3)
        g = system.generators.homeo("g")
        for lvl in tower.levels:
            assert {apply(g, p) for p in lvl.frontier} == set(lvl.frontier.points)

    def test_corrupt_tower_tampers_every_cover(self, odo4_setup):
        system, m = odo4_setup
        clean = build_tree_tower(system.generators, m, 3)
        corrupt = build_tree_tower(system.generators, m, 3, corrupt_cover=True)
        assert corrupt.levels == clean.levels and corrupt != clean
        for level in clean.levels:
            cover = clean.cover(level.index)
            assert corrupt.cover(level.index) == tamper_remove_edge(cover) != cover

    @pytest.mark.parametrize("minimal_class", ["Finite", "fnite", "whole-space", None])
    def test_unknown_minimal_class_refused(self, odo4_setup, minimal_class):
        system, m = odo4_setup
        message = f"minimal_class must be 'finite' or 'cantor-like', got {minimal_class!r}"
        with pytest.raises(ValueError) as err:
            build_tree_tower(system.generators, m, 3, minimal_class=minimal_class)
        assert str(err.value) == message

    @pytest.mark.parametrize("minimal_class", ["finite", "cantor-like"])
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one_refused(self, odo4_setup, n_max, minimal_class):
        system, m = odo4_setup
        with pytest.raises(ValueError, match="^n_max must be at least 1$"):
            build_tree_tower(system.generators, m, n_max, minimal_class=minimal_class)

    def test_no_finite_orbit_regime(self):
        # a free-style PL pair with no branch points to scan: hull of the
        # thompson orbit of 1/2 has no degree-3 vertices, so nothing certifies
        system = thompson_system()
        X = system.dendrite
        m = FiniteClosedSet(X, [X.point("e", F(1, 4)), X.point("e", F(1, 2)),
                                X.point("e", F(3, 4))])
        with pytest.raises(NoFiniteOrbitFound):
            build_tree_tower(system.generators, m, 2)

    def test_no_orbit_within_budget(self):
        # the hull's one branch point, 000, has an orbit of 8, which one step cannot close
        system = odometer_system(4)
        X = system.dendrite
        m = FiniteClosedSet(X, [X.vertex_point(v) for v in ("0000", "0001", "0010")])
        with pytest.raises(BudgetExceeded) as err:
            build_tree_tower(system.generators, m, 2, orbit_budget=1)
        assert str(err.value) == "no orbit closed within budget 1; growth (1, 3)"

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_branch_order_matches_per_pair_distances(self, monkeypatch, depth):
        # the tower from one sweep equals the tower from per-pair LCA distances
        system = odometer_system(depth)
        m = leaf_set(system, depth)
        swept = build_tree_tower(system.generators, m, depth - 1)

        def per_pair(X, lengths, places):
            ((root, _),) = places
            return {v: metric_distance(X, VertexPoint(root), VertexPoint(v))
                    for v in X.vertices}, {}

        monkeypatch.setattr(equicontinuity, "_sweep_to", per_pair)
        assert build_tree_tower(system.generators, m, depth - 1) == swept
        assert len(swept) == depth - 1

    def test_frontier_not_generator_closed(self):
        # b1 -> b2 -> b3 -> b1 closes the orbit of b1, but the level's frontier
        # is {b1, b3} and b1 is sent to the middle vertex b2
        X = Dendrite(["a", "b1", "b2", "b3", "z", "l1", "l2", "l3"],
                     [("e1", "a", "b1"), ("e2", "b1", "b2"), ("e3", "b2", "b3"),
                      ("e4", "b3", "z"), ("f1", "b1", "l1"), ("f2", "b2", "l2"),
                      ("f3", "b3", "l3")], [1] * 7)
        cycle = {v: v for v in X.vertices} | {"b1": "b2", "b2": "b3", "b3": "b1"}
        h = Homeo(X, cycle, {e.eid: (e.eid, PLMap.identity()) for e in X.edges})
        gens = GeneratorSet(X, [("h", h)], check=False)
        m = FiniteClosedSet(X, [X.vertex_point(v) for v in ("a", "z", "l1", "l2", "l3")])
        with pytest.raises(CoverageGap, match="frontier at level 1 is not generator-closed"):
            build_tree_tower(gens, m, 1)

    def test_hausdorff_convergence_to_leaves(self, odo4_setup):
        system, m = odo4_setup
        tower = build_tree_tower(system.generators, m, 3)
        values = [hausdorff_distance(lvl.frontier, m) for lvl in tower.levels]
        assert values == [F(1, 2), F(1, 4), F(1, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestFrontierCover:
    def test_whole_hull_gives_point_cells(self):
        system = odometer_system(2)
        m = leaf_set(system, 2)
        hull = system.dendrite.hull(m)
        cover = frontier_cover(system.dendrite, m, hull)
        assert cover.mesh() == 0
        for anchor, cell in cover.cells:
            assert cell.contains(anchor)
            assert cell.diameter() == 0

    def test_depth4_level1_subtree_cells(self, odo4_setup):
        # explicit subtree diameter sum with tail weights
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 3)
        cover = frontier_cover(X, m, X.hull(tower.levels[0].frontier), 1)
        assert len(cover.cells) == 2
        assert cover.mesh() == 2 * (F(1, 4) + F(1, 8) + F(1, 8)) == 1

    def test_depth4_level3_single_edge_pairs(self, odo4_setup):
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 3)
        cover = frontier_cover(X, m, X.hull(tower.levels[2].frontier), 3)
        assert len(cover.cells) == 8
        assert cover.mesh() == 2 * F(1, 8)

    def test_plain_weights_match_truncated_sums(self):
        system = odometer_system(4, leaf_weight="level")
        X = system.dendrite
        m = leaf_set(system, 4)
        tower = build_tree_tower(system.generators, m, 3)
        cover1 = frontier_cover(X, m, X.hull(tower.levels[0].frontier), 1)
        assert cover1.mesh() == 2 * (F(1, 4) + F(1, 8) + F(1, 16))
        cover3 = frontier_cover(X, m, X.hull(tower.levels[2].frontier), 3)
        assert cover3.mesh() == 2 * F(1, 16)

    def test_cells_touch_tree_only_at_anchor(self, odo4_setup):
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 2)
        for lvl in tower.levels:
            cover = frontier_cover(X, m, X.hull(lvl.frontier), lvl.index)
            for anchor, cell in cover.cells:
                inter = intersection(cell, X.hull(lvl.frontier))
                single = X.hull([anchor])
                assert inter == single

    def test_anchor_outside_frontier_reported(self, star3):
        from dendrodyn.errors import CoverageGap
        # a point hanging off the interior of the sub-tree has no cell
        tree = star3.arc(star3.vertex_point("l1"), star3.vertex_point("l2"))
        m = FiniteClosedSet(star3, [star3.vertex_point("l3")])
        with pytest.raises(CoverageGap):
            frontier_cover(star3, m, tree)

    def test_cells_cover_minimal_set(self, odo4_setup):
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 2)
        cover = frontier_cover(X, m, X.hull(tower.levels[1].frontier), 2)
        for x in m:
            assert any(cell.contains(x) for _, cell in cover.cells)


class TestEquivariance:
    def test_identity_trivially_equivariant(self, odo4_setup):
        from dendrodyn.homeo import identity_homeo
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 2)
        cover = frontier_cover(X, m, X.hull(tower.levels[0].frontier), 1)
        idgens = GeneratorSet(X, [("i", identity_homeo(X))])
        assert verify_cover_equivariance(idgens, cover).ok

    def test_odometer_equivariant_all_levels(self, odo4_setup):
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 3)
        for lvl in tower.levels:
            cover = frontier_cover(X, m, X.hull(lvl.frontier), lvl.index)
            report = verify_cover_equivariance(system.generators, cover)
            assert report.ok and report.counterexample is None

    def test_corrupted_vertex_map_reported(self, odo4_setup):
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 2)
        cover = frontier_cover(X, m, X.hull(tower.levels[0].frontier), 1)
        bad = GeneratorSet(X, [("c", corrupted_leaf_collapse(4, X))], check=False)
        report = verify_cover_equivariance(bad, cover)
        assert not report.ok
        assert report.counterexample is not None

    def test_word_equivariance_extends(self, odo4_setup):
        # spot check: words up to length 4 still permute the cells
        system, m = odo4_setup
        X = system.dendrite
        tower = build_tree_tower(system.generators, m, 2)
        cover = frontier_cover(X, m, X.hull(tower.levels[1].frontier), 2)
        cell_of = dict(cover.cells)
        for w in word_ball(system.generators, 4):
            h = evaluate_word(w, system.generators)
            for anchor, cell in cover.cells:
                assert image_subdendrite(h, cell) == cell_of[apply(h, anchor)]


class TestCertificate:
    def test_finite_minimal_set_trivially_certified(self):
        system = odometer_system(2)
        res = detect_finite_orbit(system.generators, leaf_point(system.dendrite, 2), 8)
        tower = build_tree_tower(system.generators, res.orbit, 2, minimal_class="finite")
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Certified"
        assert cert.levels[-1].mesh == 0

    def test_odometer_depth8_certified_with_mesh_law(self):
        system = odometer_system(8)
        m = leaf_set(system, 8)
        cert = equicontinuity_certificate(system.generators,
                                          build_tree_tower(system.generators, m, 6),
                                          mesh_target=F(1, 16))
        assert cert.verdict == "Certified"
        assert [lvl.mesh for lvl in cert.levels] == [F(2) ** (1 - n)
                                                     for n in range(1, 7)]
        # delta(2**(1-n)) is achieved at level n
        table = dict(cert.delta_table)
        for n in range(1, 7):
            assert table[F(2) ** (1 - n)] == F(2) ** (1 - n)

    def test_certificate_evaluates_no_pl_map(self, monkeypatch):
        # odometer reparametrizations are all identities and flips, so building
        # the generators, relabelling cell images and measuring cells evaluate
        # no map
        from dendrodyn.homeo import PLMap
        calls = []
        evaluate = PLMap.__call__

        def counting(self, t):
            calls.append(t)
            return evaluate(self, t)

        monkeypatch.setattr(PLMap, "__call__", counting)
        system = odometer_system(6)
        tower = build_tree_tower(system.generators, leaf_set(system, 6), 6)
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Certified"
        assert [lvl.cell_count for lvl in cert.levels] == [2, 4, 8, 16, 32]
        assert calls == []

    def test_corrupted_cover_fails_with_witness(self):
        system = odometer_system(4)
        m = leaf_set(system, 4)
        tower = build_tree_tower(system.generators, m, 2, corrupt_cover=True)
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Failed"
        assert cert.witness is not None

    def test_mesh_target_miss_fails(self):
        system = odometer_system(4)
        m = leaf_set(system, 4)
        cert = equicontinuity_certificate(system.generators,
                                          build_tree_tower(system.generators, m, 2),
                                          mesh_target=F(1, 64))
        assert cert.verdict == "Failed"

    MULTI_LEVEL = ("cells are permuted exactly by every generator and the mesh "
                   "decays strictly; the modulus holds for the whole group")
    ONE_LEVEL = ("cells are permuted exactly by every generator; the modulus "
                 "rests on one level, so no decay is shown")

    @pytest.mark.parametrize("n_max, explanation", [(1, ONE_LEVEL), (4, MULTI_LEVEL)],
                             ids=["one-level", "four-levels"])
    def test_one_level_claims_no_decay(self, n_max, explanation):
        system = odometer_system(5)
        tower = build_tree_tower(system.generators, leaf_set(system, 5), n_max)
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Certified" and len(cert.levels) == n_max
        assert cert.explanation == explanation

    def test_finite_tower_claims_no_decay(self):
        system = thompson_system()
        X = system.dendrite
        m = FiniteClosedSet(X, [X.vertex_point("0")])
        tower = build_tree_tower(system.generators, m, 4, minimal_class="finite")
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Certified" and [lvl.mesh for lvl in cert.levels] == [0]
        assert cert.explanation == self.ONE_LEVEL

    @pytest.mark.parametrize("call", [
        lambda s, x, m: minimal_set_approx(s.generators, x, 2, 0.1),
        lambda s, x, m: classify_minimal_set(s.dendrite, m, 0.1),
        lambda s, x, m: detect_recurrence(s.generators, x, 0.1, 2),
        lambda s, x, m: equicontinuity_certificate(
            s.generators, build_tree_tower(s.generators, m, 4), mesh_target=0.2),
    ], ids=["minimal_set_approx", "classify_minimal_set", "detect_recurrence",
            "equicontinuity_certificate"])
    def test_float_resolution_refused(self, call):
        # a float would be read as its binary expansion, 0.1 as
        # 3602879701896397/36028797018963968, or compared inexactly
        system = odometer_system(5)
        x = leaf_point(system.dendrite, 5, 0)
        with pytest.raises(TypeError, match="cannot interpret 0.[12] as an exact rational"):
            call(system, x, leaf_set(system, 5))

    @pytest.mark.parametrize("eps_grid", [[F(1, 2), F(1, 2), -1], [F(1, 4), F(1, 2)],
                                          [F(1, 2), 0]])
    def test_bad_eps_grid_raises(self, eps_grid):
        system = odometer_system(3)
        with pytest.raises(ValueError, match="epsilon grid"):
            equicontinuity_certificate(
                system.generators, build_tree_tower(system.generators, leaf_set(system, 3), 2),
                eps_grid=eps_grid)


class TestProximalityScan:
    def test_point_mass_spread_zero(self):
        system = thompson_f_system()
        mu = dirac(system.dendrite, system.dendrite.point("e", F(1, 3)))
        trace = strong_proximality_scan(system.generators, mu, 1)
        assert trace.rows[0][1] == 0

    def test_odometer_isometry_keeps_spread(self):
        system = odometer_system(3)
        mu = canonical_measure(system.dendrite)
        trace = strong_proximality_scan(system.generators, mu, 2)
        spreads = [s for _, s, _ in trace.rows]
        assert spreads[0] == spreads[-1]
        assert spreads[0] > 0

    def test_attracting_interval_map_contracts(self):
        system = thompson_f_system()
        mu = canonical_measure(system.dendrite)
        trace = strong_proximality_scan(system.generators, mu, 4)
        spreads = [s for _, s, _ in trace.rows]
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_requires_probability(self):
        from dendrodyn.errors import NotProbability
        system = thompson_f_system()
        mu = dirac(system.dendrite, system.dendrite.point("e", F(1, 3)), F(1, 2))
        with pytest.raises(NotProbability):
            strong_proximality_scan(system.generators, mu, 1)


def spread_by_ball_mass(mu, threshold):
    """Oracle: ``ball_mass`` at every critical radius of every centre.

    Between consecutive critical radii the ball mass is linear up to the left
    limit at the upper radius; an atom at that radius adds a jump on top.
    """
    X = mu.dendrite
    centers = [VertexPoint(v) for v in X.vertices] + [p for p, _ in mu.atoms]
    best = None
    for c in centers:
        radii = {F(0)} | {X.distance(c, p) for p, _ in mu.atoms}
        for eid, pieces in mu.densities.items():
            e = X.edge(eid)
            cuts = {F(0), F(1)} | {x for a, b, _ in pieces for x in (a, b)}
            if getattr(c, "edge", None) == eid:
                radii.update(abs(c.t - t) * e.weight for t in cuts)
                continue
            du = X.distance(c, VertexPoint(e.u))
            dv = X.distance(c, VertexPoint(e.v))
            radii.update(du + t * e.weight for t in cuts)
            radii.update(dv + (1 - t) * e.weight for t in cuts)
        prev_r = lo_mass = None
        for r in sorted(radii):
            mass = mu.ball_mass(c, r)
            if mass >= threshold:
                left = mass - sum(w for p, w in mu.atoms if X.distance(c, p) == r)
                if prev_r is None or left < threshold:
                    found = r
                else:
                    found = prev_r + (threshold - lo_mass) * (r - prev_r) / (left - lo_mass)
                best = found if best is None else min(best, found)
                break
            prev_r, lo_mass = r, mass
    return best


def spread_event_oracle(mu, threshold):
    """Oracle: the event walk of ``_spread`` on exact ``Fraction`` radii and masses.

    The same sweep and walk as the integer kernel, before the scaling to
    common denominators: events are keyed by ``Fraction`` radius.
    """
    X = mu.dendrite
    centers = [VertexPoint(v) for v in sorted(X.vertices, key=lambda v: point_key(VertexPoint(v)))]
    centers.extend(p for p, _ in mu.atoms)
    best = None
    for c in centers:
        dist, on_edge = _distance_to_set(X, [c])
        events = {}  # radius -> [jump, slope change]

        def ramp(lo, hi, r):
            events.setdefault(lo, [F(0), F(0)])[1] += r
            events.setdefault(hi, [F(0), F(0)])[1] -= r

        for p, w in mu.atoms:
            events.setdefault(_point_to_set(X, dist, on_edge, p), [F(0), F(0)])[0] += w
        for eid, pieces in mu.densities.items():
            e = X.edge(eid)
            if getattr(c, "edge", None) == eid:
                for a, b, r in pieces:
                    if b > c.t:
                        ramp((max(a, c.t) - c.t) * e.weight, (b - c.t) * e.weight, r)
                    if a < c.t:
                        ramp((c.t - min(b, c.t)) * e.weight, (c.t - a) * e.weight, r)
                continue
            du, dv = dist[e.u], dist[e.v]
            for a, b, r in pieces:
                if du < dv:
                    ramp(du + a * e.weight, du + b * e.weight, r)
                else:
                    ramp(dv + (1 - b) * e.weight, dv + (1 - a) * e.weight, r)
        mass = slope = prev = F(0)
        for r in sorted(events):
            if best is not None and prev >= best:
                break
            jump, dslope = events[r]
            left = mass + slope * (r - prev)
            if left >= threshold:
                found = prev + (threshold - mass) / slope if slope else prev
            elif left + jump >= threshold:
                found = r
            else:
                mass, slope, prev = left + jump, slope + dslope, r
                continue
            if best is None or found < best:
                best = found
            break
    return best


class TestSpread:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_ball_mass_oracle(self, data):
        # edge atoms are centres inside density-carrying edges, so the
        # own-edge sweep is exercised as well as the nearer-endpoint ramps
        X = data.draw(random_trees(max_edges=6))
        mu = data.draw(random_measures(X))
        threshold = mu.total_mass() * F(data.draw(st.integers(1, 16)), 16)
        assert _spread(mu, threshold) == spread_by_ball_mass(mu, threshold)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_integer_kernel_matches_event_oracle(self, data):
        # denominators that no power of two covers: weights over 3, 5, 7 and
        # 12, cuts and atom parameters over 35, densities over 11, thresholds
        # over 17 and 3, so every part of the common denominators is needed
        X = data.draw(random_trees(max_edges=6, denominators=(3, 5, 7, 12)))
        mu = data.draw(random_measures(X, steps=35, density_denominators=(11, 4)))
        den = data.draw(st.sampled_from((17, 3)))
        threshold = mu.total_mass() * F(data.draw(st.integers(1, den)), den)
        got = _spread(mu, threshold)
        assert type(got) is F
        assert got == spread_event_oracle(mu, threshold)

    def test_atom_at_the_crossing_radius(self):
        # two heavy atoms: the crossing is the jump at the second one, not an
        # interpolation across it (which gave 221/395)
        X = thompson_system().dendrite
        heavy = F(15, 32)
        mu = PLMeasure(X, [(X.point("e", F(1, 5)), heavy), (X.point("e", F(4, 5)), heavy)],
                       {"e": [(F(0), F(1), F(1, 16))]})
        threshold = F(15, 16)
        assert _spread(mu, threshold) == F(3, 5) == spread_by_ball_mass(mu, threshold)
        centers = [X.vertex_point("0"), X.vertex_point("1")] + [p for p, _ in mu.atoms]
        assert any(mu.ball_mass(c, F(3, 5)) >= threshold for c in centers)
        assert all(mu.ball_mass(c, F(221, 395)) < threshold for c in centers)


def outcome(call, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return call(*args)
    except Exception as exc:  # compared as data: the same error type and message
        return type(exc), str(exc)


@st.composite
def trees_with_sets(draw, max_points=6):
    """A random tree and a finite set of vertices and edge points (k/16) on it."""
    X = draw(random_trees(max_edges=8))
    points = [draw(tree_points(X)) for _ in range(draw(st.integers(1, max_points)))]
    return X, FiniteClosedSet(X, points)


def rooted_covers(X, m, hull, levels):
    """The cover of each ``(frontier, index)`` level, from one rooted ``hull``;
    raises the first level's coverage gap, if any."""
    rooted = _RootedHull(X, hull, m, [frontier for frontier, _ in levels])
    return [rooted.cover(n, i) for n, (_, i) in enumerate(levels, start=1)]


class TestOnePassCovers:
    """Covers from one rooted pass against the per-level gate walk, hull and diameter."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_frontier_cover_matches_oracle(self, data):
        # any sub-tree, so anchors can be edge points and the minimal set can
        # meet the tree away from its frontier (a coverage gap)
        X, m = data.draw(trees_with_sets())
        tree = X.hull([data.draw(tree_points(X)) for _ in range(data.draw(st.integers(1, 3)))])
        expected = outcome(frontier_cover_oracle, X, m, tree, 2)
        assert outcome(frontier_cover, X, m, tree, 2) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_nested_levels_match_oracle(self, data):
        # a tower of nested trees inside hull(M), rooted once; the first tree
        # is often a single point, whose cell at a later level is the hull
        # without the branch holding that level's tree
        X, m = data.draw(trees_with_sets())
        hull = X.hull(m)
        points = sample_points(hull)
        chosen = [data.draw(st.sampled_from(points)) for _ in range(data.draw(st.integers(1, 4)))]
        levels = []
        for i in range(1, len(chosen) + 1):
            tree = X.hull(chosen[:i])
            levels.append((tree, i))
        expected = []
        for tree, i in levels:
            cover = outcome(frontier_cover_oracle, X, m, tree, i)
            expected.append(cover)
            if not isinstance(cover, FrontierCover):
                break
        got = outcome(rooted_covers, X, m, hull, [(tree.endpoint_set(), i) for tree, i in levels])
        if isinstance(expected[-1], FrontierCover):
            assert got == expected
        else:
            assert got == expected[-1]

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_odometer_every_level_matches_oracle(self, depth):
        system = odometer_system(depth)
        X, m = system.dendrite, leaf_set(system, depth)
        tower = build_tree_tower(system.generators, m, depth)
        assert len(tower) == depth - 1
        for level in tower.levels:
            cover = tower.cover(level.index)
            assert cover == frontier_cover_oracle(X, m, X.hull(level.frontier), level.index)
            assert cover.mesh() == mesh([c for _, c in cover.cells])

    def test_coverage_gap_names_the_same_gate(self, star3):
        tree = star3.arc(star3.vertex_point("l1"), star3.vertex_point("l2"))
        m = FiniteClosedSet(star3, [star3.vertex_point("l3")])
        message = "minimal-set point V(l3) attaches at V(c), outside the frontier"
        assert outcome(frontier_cover_oracle, star3, m, tree) == (CoverageGap, message)
        assert outcome(frontier_cover, star3, m, tree) == (CoverageGap, message)

    def test_fixed_branch_point_tower(self):
        # a centre fixed by the group: T_1 is that one point, its level-1 cell
        # is the whole hull, and at level 2 it is an interior point of T_2
        arms = ["1", "2", "3"]
        X = Dendrite(["a"] + [f"b{i}" for i in arms] + [f"l{i}{j}" for i in arms for j in "01"],
                     [(f"e{i}", "a", f"b{i}", 1) for i in arms]
                     + [(f"f{i}{j}", f"b{i}", f"l{i}{j}", 2) for i in arms for j in "01"],
                     [1, 1, 1] + [F(1, 2)] * 6)
        turn = {"a": "a"} | {f"b{i}": f"b{k}" for i, k in zip(arms, arms[1:] + arms[:1])}
        turn |= {f"l{i}{j}": f"l{k}{j}" for i, k in zip(arms, arms[1:] + arms[:1]) for j in "01"}
        swap = {v: v for v in X.vertices} | {f"l{i}{j}": f"l{i}{1 - int(j)}"
                                            for i in arms for j in "01"}
        from dendrodyn.homeo import tree_automorphism
        gens = GeneratorSet(X, [("t", tree_automorphism(X, turn)),
                                ("s", tree_automorphism(X, swap))])
        m = FiniteClosedSet(X, [X.vertex_point(f"l{i}{j}") for i in arms for j in "01"])
        tower = build_tree_tower(gens, m, 2)
        cert = equicontinuity_certificate(gens, tower)
        assert [len(lvl.orbit) for lvl in tower.levels] == [1, 3]
        assert_levels_match_oracle(X, tower)
        assert X.hull(tower.levels[0].frontier) == X.hull([X.vertex_point("a")])
        assert tower.cover(1).cells == ((X.vertex_point("a"), X.hull(m)),)
        for level in tower.levels:
            assert tower.cover(level.index) == frontier_cover_oracle(
                X, m, X.hull(level.frontier), level.index)
        assert [lvl.mesh for lvl in cert.levels] == [3, 1]
        assert cert.verdict == "Certified"

    def test_tampered_cover_keeps_the_broken_cells_mesh(self):
        # only the broken cell's diameter is recomputed; the mesh is the one
        # measured on the tampered cells, and equivariance still fails
        system = odometer_system(5)
        m = leaf_set(system, 5)
        tower = build_tree_tower(system.generators, m, 4, corrupt_cover=True)
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Failed" and cert.witness is not None
        for level in cert.levels:
            cover = tower.cover(level.index)
            assert level.mesh == cover.mesh() == mesh([c for _, c in cover.cells])
            assert list(cover.diameters) == [c.diameter() for _, c in cover.cells]
        clean = equicontinuity_certificate(system.generators,
                                           build_tree_tower(system.generators, m, 4))
        assert [lvl.mesh for lvl in cert.levels] == [lvl.mesh for lvl in clean.levels]


class TestRank:
    """A node of the rooted hull lies in level n's tree exactly when its rank is at most n."""

    @staticmethod
    def check(rooted, trees):
        assert _point(rooted.order[0]) == min(trees[0].endpoint_set().points, key=point_key)
        for node, rank in zip(rooted.order, rooted.rank):
            p = _point(node)
            for n, tree in enumerate(trees, start=1):
                assert (rank <= n) == tree.contains(p), (p, n)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_tower_levels(self, data):
        X, m = data.draw(trees_with_sets())
        hull = X.hull(m)
        points = sample_points(hull)
        chosen = [data.draw(st.sampled_from(points)) for _ in range(data.draw(st.integers(1, 4)))]
        trees = [X.hull(chosen[:i]) for i in range(1, len(chosen) + 1)]
        self.check(_RootedHull(X, hull, m, [t.endpoint_set() for t in trees]), trees)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_level(self, data):
        # any sub-tree, as ``frontier_cover`` roots hull(M + frontier)
        X, m = data.draw(trees_with_sets())
        tree = X.hull([data.draw(tree_points(X)) for _ in range(data.draw(st.integers(1, 3)))])
        frontier = tree.endpoint_set()
        hull = X.hull([*m.points, *frontier.points])
        self.check(_RootedHull(X, hull, m, [frontier]), [tree])

    @pytest.mark.parametrize("depth", range(3, 7))
    def test_odometer_tower(self, depth):
        system = odometer_system(depth)
        tower = build_tree_tower(system.generators, leaf_set(system, depth), depth)
        X = system.dendrite
        self.check(tower.rooted, [X.hull(lvl.frontier) for lvl in tower.levels])


def assert_levels_match_oracle(X, tower):
    """The tower's frontiers and strictness against one hull per level."""
    expected = tower_levels_oracle(X, [lvl.orbit for lvl in tower.levels])
    assert [(lvl.frontier, lvl.strict) for lvl in tower.levels] == \
        [(frontier, strict) for _, frontier, strict in expected]


class TestTowerLevels:
    """Every level's frontier and every node's rank from one rooted hull, against
    one hull and one endpoint set per level."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rooted_hull_matches_oracle(self, data):
        # level point sets anywhere on the tree, vertices or edge points, the
        # first often a single point; the hull spans the minimal set and them
        X, m = data.draw(trees_with_sets())
        levels = []
        for n in range(data.draw(st.integers(1, 4))):
            size = 1 if n == 0 and data.draw(st.booleans()) else data.draw(st.integers(1, 3))
            levels.append(FiniteClosedSet(X, [data.draw(tree_points(X)) for _ in range(size)]))
        hull = X.hull([*m.points, *(p for points in levels for p in points.points)])
        rooted = _RootedHull(X, hull, m, levels)
        expected = tower_levels_oracle(X, levels)
        assert rooted.frontiers == [frontier for _, frontier, _ in expected]
        trees = [tree for tree, _, _ in expected]
        for node, rank in zip(rooted.order, rooted.rank):
            p = _point(node)
            assert rank == next((n for n, tree in enumerate(trees, start=1) if tree.contains(p)),
                                len(trees) + 1), (p, rank)

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_odometer(self, depth):
        system = odometer_system(depth)
        tower = build_tree_tower(system.generators, leaf_set(system, depth), depth)
        assert len(tower) == depth - 1
        assert_levels_match_oracle(system.dendrite, tower)

    def test_level_weights(self):
        system = odometer_system(5, leaf_weight="level")
        tower = build_tree_tower(system.generators, leaf_set(system, 5), 4)
        assert len(tower) == 4
        assert_levels_match_oracle(system.dendrite, tower)

    def test_orbit_leaving_the_hull(self):
        # m is not invariant: the orbit of its branch point 00 holds 10 and
        # 11, outside hull(m), so the tower roots the hull of m and the orbit
        system = odometer_system(3)
        X = system.dendrite
        m = FiniteClosedSet(X, [X.vertex_point(v) for v in ("000", "001", "010")])
        tower = build_tree_tower(system.generators, m, 3)
        assert [len(lvl.orbit) for lvl in tower.levels] == [4]
        assert_levels_match_oracle(X, tower)
        assert tower.cover(1) == frontier_cover_oracle(X, m, X.hull(tower.levels[0].frontier), 1)
        cert = equicontinuity_certificate(system.generators, tower)
        assert cert.verdict == "Failed" and cert.witness == ("g", 1, X.vertex_point("00"))


def seven_vertex_example():
    """Two arms at a centre c, each with a long leaf a_i and a short leaf b_i,
    and one generator that swaps the arms and cycles a1 -> a2 -> b1 -> b2 -> a1:
    b1 and b2 are 1/16 apart, their images b2 and a1 are 67/64 apart."""
    X = Dendrite(["c", "p1", "p2", "a1", "a2", "b1", "b2"],
                 [("cp1", "c", "p1", 1), ("cp2", "c", "p2", 1),
                  ("pa1", "p1", "a1", 2), ("pb1", "p1", "b1", 2),
                  ("pa2", "p2", "a2", 2), ("pb2", "p2", "b2", 2)],
                 [F(1, 64), F(1, 64), 1, F(1, 64), 1, F(1, 64)])
    g = tree_automorphism(X, {"c": "c", "p1": "p2", "p2": "p1",
                              "a1": "a2", "a2": "b1", "b1": "b2", "b2": "a1"})
    m = FiniteClosedSet(X, [X.vertex_point(v) for v in ("a1", "a2", "b1", "b2")])
    return GeneratorSet(X, [("g", g)]), m


@st.composite
def rotated_copies(draw):
    """Two or three copies of one random tree hung off a centre by their first
    vertex, each copy with its own weights, the generator that rotates the
    copies, and the leaves as the minimal set."""
    base = draw(random_trees(max_edges=5))
    k = draw(st.integers(2, 3))

    def weight():
        return F(draw(st.integers(1, 8)), draw(st.sampled_from((1, 2, 4, 8))))

    vertices, edges, weights = ["c"], [], []
    for i in range(k):
        vertices += [f"{i}.{v}" for v in base.vertices]
        edges.append((f"c{i}", "c", f"{i}.v0", 1))
        edges += [(f"{i}.{e.eid}", f"{i}.{e.u}", f"{i}.{e.v}", n)
                  for n, e in enumerate(base.edges, start=2)]
        weights += [weight() for _ in range(len(base.edges) + 1)]
    X = Dendrite(vertices, edges, weights)
    turn = {"c": "c"} | {f"{i}.{v}": f"{(i + 1) % k}.{v}" for i in range(k) for v in base.vertices}
    m = FiniteClosedSet(X, [X.vertex_point(v) for v in X.vertices if degree(X, v) == 1])
    return GeneratorSet(X, [("r", tree_automorphism(X, turn))]), m


class TestSoundModulus:
    """delta(eps) is at most each chosen level's gap, the least distance between
    minimal-set points in different cells, so it holds for the whole group."""

    def test_seven_vertex_example(self):
        gens, m = seven_vertex_example()
        cert = equicontinuity_certificate(gens, build_tree_tower(gens, m, 2))
        assert cert.verdict == "Certified"
        assert [lvl.mesh for lvl in cert.levels] == [F(65, 64)]
        assert cert.delta_table == ((F(65, 64), F(1, 16)), (F(1), F(0)))
        assert all(worst <= eps for eps, _, worst in group_modulus_audit(gens, m, cert.delta_table))

    @pytest.mark.parametrize("leaf_weight", ["tail", "level"])
    @pytest.mark.parametrize("depth", range(3, 7))
    def test_odometer_audit(self, depth, leaf_weight):
        # the gap is at least twice the mesh, so delta(eps) is still the
        # largest mesh at most eps
        system = odometer_system(depth, leaf_weight=leaf_weight)
        gens, X, m = system.generators, system.dendrite, leaf_set(system, depth)
        tower = build_tree_tower(gens, m, 6)
        cert = equicontinuity_certificate(gens, tower)
        assert cert.verdict == "Certified"
        meshes = [lvl.mesh for lvl in cert.levels]
        assert cert.delta_table == tuple((eps, max((x for x in meshes if x <= eps), default=0))
                                         for eps, _ in cert.delta_table)
        for eps, delta, worst in group_modulus_audit(gens, m, cert.delta_table):
            assert worst <= eps, (eps, delta, worst)
        for level, mesh_n in zip(tower.levels, meshes):
            gap = tower.rooted.gap(level.index)
            assert gap == cell_gap_oracle(X, m, tower.cover(level.index))
            assert gap >= 2 * mesh_n

    @settings(max_examples=200, deadline=None)
    @given(rotated_copies())
    def test_rotated_copies_audit(self, data):
        gens, m = data
        cert = outcome(lambda: equicontinuity_certificate(gens, build_tree_tower(gens, m, 3)))
        if isinstance(cert, tuple):  # a refused tower claims nothing
            assert issubclass(cert[0], (CoverageGap, NoFiniteOrbitFound)), cert
        elif cert.verdict == "Certified":
            for eps, delta, worst in group_modulus_audit(gens, m, cert.delta_table):
                assert worst <= eps, (eps, delta, worst)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_gap_matches_pair_oracle(self, data):
        # level point sets anywhere on the tree, so a cell may hold no point of
        # the minimal set; levels stop at the first coverage gap
        X, m = data.draw(trees_with_sets())
        levels = [FiniteClosedSet(X, [data.draw(tree_points(X))
                                      for _ in range(data.draw(st.integers(1, 3)))])
                  for _ in range(data.draw(st.integers(1, 3)))]
        hull = X.hull([*m.points, *(p for points in levels for p in points.points)])
        rooted = _RootedHull(X, hull, m, levels)
        for n in range(1, len(levels) + 1):
            cover = outcome(rooted.cover, n, n)
            if not isinstance(cover, FrontierCover):
                break
            assert rooted.gap(n) == cell_gap_oracle(X, m, cover)


class TestDefaultEpsGrid:
    def test_finite_class_grid_has_no_zero(self):
        # a finite minimal set gives one level of mesh 0; the default grid
        # used to hold that 0 as an epsilon
        system = odometer_system(4)
        m = leaf_set(system, 4)
        tower = build_tree_tower(system.generators, m, 3, minimal_class="finite")
        cert = equicontinuity_certificate(system.generators, tower)
        assert [lvl.mesh for lvl in cert.levels] == [0]
        assert cert.delta_table == ((F(1), F(0)),)

    def test_cli_finite_class_table(self, tmp_path):
        import json
        from dendrodyn.cli import main
        config = tmp_path / "finite.json"
        config.write_text(json.dumps({
            "command": "certify", "system": "odometer:D=4",
            "parameters": {"n_max": 3, "minimal_class": "finite"},
            "out": str(tmp_path / "out")}))
        assert main(["run", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "certify.json").read_text())
        assert report["delta_table"] == [["1", "0"]]


class TestSpreadReuse:
    def spy(self, monkeypatch):
        calls = []
        spread = equicontinuity._spread

        def counting(mu, threshold):
            calls.append(mu)
            return spread(mu, threshold)

        monkeypatch.setattr(equicontinuity, "_spread", counting)
        return calls

    def rows_without_reuse(self, gens, mu0, radius):
        """The scan with one spread per pushed measure, as before the reuse."""
        from dendrodyn.action import word_images
        from dendrodyn.measure import push_forward
        best = best_word = None
        rows = {}
        for w, mu in word_images(gens, word_ball(gens, radius), mu0, push_forward):
            s = _spread(mu, equicontinuity.MASS_THRESHOLD)
            if best is None or s < best:
                best, best_word = s, w
            rows[len(w)] = (len(w), best, str(best_word))
        return tuple(rows.values())

    def test_odometer_measures_share_one_spread(self, monkeypatch):
        # the odometer leaves the canonical measure invariant, so every
        # pushed measure equals the first
        system = odometer_system(4)
        mu = canonical_measure(system.dendrite)
        expected = self.rows_without_reuse(system.generators, mu, 3)
        calls = self.spy(monkeypatch)
        trace = strong_proximality_scan(system.generators, mu, 3)
        assert len(calls) == 1
        assert trace.rows == expected

    def test_thompson_spreads_at_most_once_per_measure(self, monkeypatch):
        system = thompson_system()
        mu = canonical_measure(system.dendrite)
        expected = self.rows_without_reuse(system.generators, mu, 4)
        calls = self.spy(monkeypatch)
        trace = strong_proximality_scan(system.generators, mu, 4)
        assert len(calls) <= len(word_ball(system.generators, 4))
        assert all(a != b for a, b in zip(calls, calls[1:]))
        assert trace.rows == expected
