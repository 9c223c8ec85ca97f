"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -v -s or on failure)
and asserts the exact expected values together with its runtime budget.
Criterion 4's expected distances are derived from the tail edge weights of
the binary-tree dendrite: a level-n frontier point sits 2**-n above the
leaves, and each level-n cover cell spans two such tails, so the mesh
2**(1-n) of criterion 3 is twice the frontier-to-set distance.
"""

import random
import time
from fractions import Fraction

from dendrodyn.action import (
    Word,
    classify_minimal_set,
    detect_finite_orbit,
    evaluate_word,
)
from dendrodyn.dendrite import (
    FiniteClosedSet,
    hausdorff_distance,
)
from dendrodyn.equicontinuity import (
    build_tree_tower,
    equicontinuity_certificate,
    frontier_cover,
    tamper_remove_edge,
    verify_cover_equivariance,
)
from dendrodyn.homeo import apply, validate
from dendrodyn.measure import (
    TestFunction,
    canonical_measure,
    dirac,
    folner_average,
    folner_ratio,
    invariance_defect,
    push_forward,
    uniform_orbit_measure,
)
from dendrodyn.zoo import (
    corrupted_leaf_collapse,
    folner_scheme_Z,
    gehman_dendrite,
    leaf_point,
    odometer_system,
    thompson_generators,
    thompson_system,
    unit_interval_dendrite,
    verify_paradox_partition,
)

F = Fraction


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def check(self):
        assert self.elapsed() < self.limit, (
            f"runtime {self.elapsed():.2f}s exceeds the {self.limit}s budget")


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d}: {detail}")
    return ok


def leaf_orbit(system, depth):
    res = detect_finite_orbit(system.generators,
                              leaf_point(system.dendrite, depth),
                              2 ** depth)
    assert res.found
    return res.orbit


def tval(p):
    if hasattr(p, "t"):
        return p.t
    return F(int(p.vertex))


def test_criterion_01_thompson_golden_values():
    budget = Budget(1)
    X = unit_interval_dendrite()
    f, g = thompson_generators(X)

    def val(h, t):
        return tval(apply(h, X.point("e", F(t))))

    checks = {
        "f(1/2)": (val(f, "1/2"), F(1, 4)),
        "f(3/4)": (val(f, "3/4"), F(1, 2)),
        "g(3/4)": (val(g, "3/4"), F(5, 8)),
        "g(7/8)": (val(g, "7/8"), F(3, 4)),
        "f(0)": (val(f, 0), F(0)),
        "g(0)": (val(g, 0), F(0)),
        "f(1)": (val(f, 1), F(1)),
        "g(1)": (val(g, 1), F(1)),
    }
    ok = all(got == want for got, want in checks.values())
    report(1, ok, "Thompson generator golden values, exact rational equality")
    assert ok, checks
    budget.check()


def test_criterion_02_thompson_finite_orbit_at_zero():
    budget = Budget(1)
    system = thompson_system()
    res = detect_finite_orbit(system.generators,
                              system.dendrite.vertex_point("0"), 3)
    ok = (res.found and list(res.orbit) == [system.dendrite.vertex_point("0")])
    report(2, ok, "finite orbit {0} detected with closed flag at budget 3")
    assert ok
    budget.check()


def test_criterion_03_odometer_certificate_depth8():
    budget = Budget(10)
    system = odometer_system(8)
    m = leaf_orbit(system, 8)
    cert = equicontinuity_certificate(system.generators,
                                      build_tree_tower(system.generators, m, 6),
                                      mesh_target=F(1, 16))
    meshes = [lvl.mesh for lvl in cert.levels]
    expected = [F(2) ** (1 - n) for n in range(1, 7)]
    equivariant = all(lvl.equivariant for lvl in cert.levels)
    ok = cert.verdict == "Certified" and meshes == expected and equivariant
    report(3, ok, f"depth-8 certificate {cert.verdict}, mesh table "
                  f"{[str(x) for x in meshes]}")
    assert cert.verdict == "Certified"
    assert meshes == expected
    assert equivariant
    budget.check()


def test_criterion_04_tower_hausdorff_convergence_depth10():
    """D(E(T_n), M) = 2**-n for n = 1..8 at depth 10, half the cover mesh.

    With tail weights a level-i edge weighs 2**-i and a leaf edge 2**(1-D),
    so a frontier vertex at depth n sits
    sum_{i=n+1}^{D-1} 2**-i + 2**(1-D) = 2**-n above every leaf below it.
    No point of M is farther from E(T_n), and no frontier point is farther
    from M.  A level-n cover cell is the sub-tree below one anchor, so its
    diameter spans two such tails: the mesh is 2 * 2**-n = 2**(1-n), the
    value criterion 3 pins.
    """
    budget = Budget(10)
    depth = 10
    system = odometer_system(depth)
    X = system.dendrite
    m = leaf_orbit(system, depth)
    tower = build_tree_tower(system.generators, m, 8, orbit_budget=256)

    def tail(vertex):
        """Summed edge weights from ``vertex`` down to a leaf below it."""
        path = X.vertex_path(vertex, vertex + "0" * (depth - len(vertex)))
        return sum((X.edge_between(a, b).weight for a, b in zip(path, path[1:])),
                   F(0))

    expected, values, meshes = [], [], []
    for lvl in tower.levels:
        tails = {tail(p.vertex) for p in lvl.frontier}
        assert len(tails) == 1, f"level {lvl.index} frontier tails {tails}"
        expected.append(tails.pop())
        values.append(hausdorff_distance(lvl.frontier, m))
        meshes.append(frontier_cover(X, m, X.hull(lvl.frontier), lvl.index).mesh())
    halving = all(b == a / 2 for a, b in zip(values, values[1:]))
    ok = (values == expected and meshes == [2 * v for v in expected]
          and halving)
    report(4, ok, f"frontier-to-set distances {[str(v) for v in values]}, "
                  f"cover meshes {[str(v) for v in meshes]}")
    budget.check()
    assert expected == [F(2) ** -n for n in range(1, 9)]
    assert values == expected
    assert meshes == [2 * v for v in expected]
    assert halving


def test_criterion_05_endpoints_of_hull_equal_minimal_set():
    budget = Budget(5)
    system = odometer_system(8)
    m = leaf_orbit(system, 8)
    hull = system.dendrite.hull(m)
    ok = hull.endpoint_set() == m
    report(5, ok, "endpoints of the hull of the depth-8 leaf orbit equal the orbit")
    assert ok
    budget.check()


def test_criterion_06_measure_metric_identity():
    budget = Budget(5)
    X = gehman_dendrite(4)
    mu = canonical_measure(X)
    rng = random.Random(2024)
    pts = X.skeleton_points()
    pairs = []
    for _ in range(20):
        a, b = rng.choice(pts), rng.choice(pts)
        pairs.append((a, b))
    ok = all(mu.arc_mass(a, b) == X.distance(a, b) / mu.norm
             for a, b in pairs)
    report(6, ok, "arc mass equals normalised arc length on 20 random pairs")
    assert ok
    budget.check()


def test_criterion_07_pushforward_conservation():
    budget = Budget(5)
    thomp = thompson_system()
    odo = odometer_system(4)
    rng = random.Random(7)
    ok = True
    for k in range(50):
        system = thomp if k % 2 == 0 else odo
        X, gens = system.dendrite, system.generators
        word = Word(tuple((rng.choice(gens.symbols), rng.choice((1, -1)))
                          for _ in range(rng.randrange(1, 5))))
        h = evaluate_word(word, gens)
        pick = rng.randrange(3)
        if pick == 0:
            mu = canonical_measure(X)
        elif pick == 1:
            mu = dirac(X, rng.choice(X.skeleton_points()))
        else:
            mu = canonical_measure(X).scaled(F(1, 3)).add(
                dirac(X, rng.choice(X.skeleton_points()), F(2, 3)))
        ok = ok and push_forward(h, mu).total_mass() == mu.total_mass()
    pushed = push_forward(thomp.generators.homeo("f"), canonical_measure(thomp.dendrite))
    density_ok = pushed.densities["e"] == (
        (F(0), F(1, 4), F(2)), (F(1, 4), F(1, 2), F(1)), (F(1, 2), F(1), F(1, 2)))
    report(7, ok and density_ok,
           "mass conserved on 50 random pairs; f pushes the uniform density "
           "to (2, 1, 1/2)")
    assert ok and density_ok
    budget.check()


def test_criterion_08_folner_average_invariance():
    budget = Budget(30)
    system = odometer_system(6)
    X, gens = system.dendrite, system.generators
    scheme = folner_scheme_Z("g")
    x0 = leaf_point(X, 6)
    mu0 = dirac(X, x0)
    probes = [x0, X.vertex_point("r"), X.vertex_point("0"), X.vertex_point("1"),
              leaf_point(X, 6, 2 ** 6 - 1)]
    fns = [TestFunction.distance_to(X, p) for p in probes]
    sup = max(f.sup_norm() for f in fns)
    defects = []
    for n in (1, 2, 4, 8, 16):
        nu = folner_average(gens, scheme, mu0, n)
        defect = invariance_defect(gens, nu, fns)
        assert defect <= 2 * sup / (2 * n + 1)
        defects.append(defect)
    monotone = all(a >= b for a, b in zip(defects, defects[1:]))
    orbit_measure = uniform_orbit_measure(
        detect_finite_orbit(gens, x0, 64))
    zero_defect = invariance_defect(gens, orbit_measure, fns)
    ok = monotone and zero_defect == 0
    report(8, ok, f"window-average defects {[str(d) for d in defects]} "
                  f"within bound and non-increasing; orbit measure defect 0")
    assert monotone
    assert zero_defect == 0
    budget.check()


def test_criterion_09_paradox_enumeration():
    budget = Budget(10)
    cumulative = {0: 1, 1: 5, 2: 17, 3: 53, 4: 161, 5: 485, 6: 1457}
    ok = True
    for L in range(1, 7):
        rep = verify_paradox_partition(L)
        ok = ok and rep.partition_ok and rep.two_piece_ok
        ok = ok and rep.total_words == cumulative[L]
    final = verify_paradox_partition(6)
    archived = (len(final.literal_missing) > 0 and
                all(w.startswith("s^-1") for w in final.literal_missing))
    report(9, ok and archived,
           f"partition by first letter exact through length 6 "
           f"({final.total_words} words); literal two-piece counterexamples "
           f"archived ({len(final.literal_missing)} missing)")
    assert ok and archived
    budget.check()


def test_criterion_10_folner_ratio_exact():
    budget = Budget(1)
    scheme = folner_scheme_Z("g")
    values = {n: folner_ratio(scheme, "g", n) for n in (2, 10, 50)}
    ok = all(values[n] == F(2, 2 * n + 1) for n in (2, 10, 50))
    report(10, ok, f"window ratios {[str(values[n]) for n in (2, 10, 50)]}")
    assert ok, values
    budget.check()


def test_criterion_11_metric_axioms_random_triples():
    budget = Budget(10)
    spaces = [gehman_dendrite(4), gehman_dendrite(3, leaf_weight="level"),
              unit_interval_dendrite()]
    rng = random.Random(11)
    ok = True
    for X in spaces:
        pts = X.skeleton_points()
        for e in X.edges:
            pts.append(X.point(e.eid, F(rng.randrange(1, 16), 16)))
        sets = [FiniteClosedSet(X, rng.sample(pts, rng.randrange(1, 4)))
                for _ in range(12)]
        for _ in range(500 // len(spaces) + 1):
            a, b, c = (rng.choice(pts) for _ in range(3))
            dab, dac, dcb = X.distance(a, b), X.distance(a, c), X.distance(c, b)
            ok = ok and dab >= 0 and dab == X.distance(b, a)
            ok = ok and (dab == 0) == (a == b)
            ok = ok and dab <= dac + dcb
            A, B, C = (rng.choice(sets) for _ in range(3))
            hab = hausdorff_distance(A, B)
            ok = ok and hab == hausdorff_distance(B, A)
            ok = ok and (hab == 0) == (A == B)
            ok = ok and hab <= hausdorff_distance(A, C) + hausdorff_distance(C, B)
    report(11, ok, "metric and Hausdorff axioms on 500+ random triples, exact")
    assert ok
    budget.check()


def test_criterion_12_classification():
    budget = Budget(5)
    ok = True
    for depth in (5, 6):
        system = odometer_system(depth)
        m = leaf_orbit(system, depth)
        for eps in (F(1, 4), F(1, 8)):
            verdict = classify_minimal_set(system.dendrite, m, eps)
            ok = ok and verdict.kind == "cantor-like"
    pair_system = odometer_system(1)
    res = detect_finite_orbit(pair_system.generators,
                              leaf_point(pair_system.dendrite, 1), 4)
    pair_verdict = classify_minimal_set(pair_system.dendrite, res.orbit, F(1, 4),
                                        certified_finite=res.found)
    ok = ok and pair_verdict.kind == "finite-orbit" and len(res.orbit) == 2
    report(12, ok, "leaf sets cantor-like at depths 5 and 6; "
                   "certified 2-point orbit classified finite-orbit")
    assert ok
    budget.check()


def test_criterion_13_negative_controls(tmp_path):
    budget = Budget(5)
    # corrupted vertex map fails validation
    bad = corrupted_leaf_collapse(4)
    val_report = validate(bad)
    vertex_ok = (not val_report.valid and
                 any(v.kind == "not-injective" for v in val_report.violations))

    # corrupted cover fails equivariance with a concrete witness
    system = odometer_system(4)
    m = leaf_orbit(system, 4)
    tower = build_tree_tower(system.generators, m, 2)
    tree = system.dendrite.hull(tower.levels[1].frontier)
    cover = tamper_remove_edge(frontier_cover(system.dendrite, m, tree, 2))
    equi = verify_cover_equivariance(system.generators, cover)
    cover_ok = (not equi.ok) and equi.counterexample is not None

    # CLI exit code 2 on a Failed verdict
    import json
    from dendrodyn.cli import main
    cfg = tmp_path / "corrupt.json"
    cfg.write_text(json.dumps({
        "command": "certify", "system": "odometer-corrupt:D=4",
        "parameters": {"n_max": 2}, "out": str(tmp_path / "out")}))
    exit_code = main(["run", "--config", str(cfg)])
    cli_ok = exit_code == 2

    ok = vertex_ok and cover_ok and cli_ok
    report(13, ok, f"validate rejects corrupt map; tampered cover yields "
                   f"witness {equi.counterexample}; CLI exit code {exit_code}")
    assert vertex_ok
    assert cover_ok
    assert cli_ok
    budget.check()
