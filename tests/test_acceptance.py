"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a single PASS line (run with -s or -v to see them).
Expected values marked as oracle results below are computed by an
independent route inside the test (combinatorial counts, staircase
products, plain-rank homology) before being compared with the engine.
"""

import json
import time

from spencerlab.cli import main as cli_main
from spencerlab.complexes import (
    build_de_rham,
    build_jet_complex,
    build_koszul,
    homology_table,
)
from spencerlab.completion import (
    adic_tower,
    completed_complex,
    completed_koszul_h0,
    derived_completion,
    embedding_independence,
    tower_limit,
)
from spencerlab.diffops import filtered_spencer, kashiwara_quotient
from spencerlab.homotopy import acyclicity_certificate, cartan_check, euler_derivation
from spencerlab.invariants import milnor_tjurina
from spencerlab.modules import free_module, o_piece
from spencerlab.rings import AffineScene, Ideal, parse_polynomial, scene

CUSP = scene(["x", "y"], [2, 3], ["x^3 - y^2"])
E6 = scene(["x", "y"], [4, 3], ["x^3 + y^4"])
NODE = scene(["x", "y"], [1, 1], ["x^2 - y^2"])


def _report(number, label, t0, limit):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_smooth_koszul_exactness():
    t0 = time.time()
    for n in (1, 2, 3):
        s = scene([f"x{i+1}" for i in range(n)], [1] * n)
        kz = build_koszul(s, [s.ring.var(i) for i in range(n)])
        table = homology_table(kz, 8)
        assert table.dim(0, 0) == 1
        for (i, d), v in table.entries.items():
            if (i, d) != (0, 0):
                assert v == 0, f"H_{i} weight {d} nonzero on A^{n}"
    _report(1, "smooth Koszul exactness", t0, 5)


def test_criterion_2_euler_counterexample_class():
    t0 = time.time()
    for s in (CUSP, E6):
        xi = euler_derivation(s)
        for cx in (build_de_rham(s), build_jet_complex(s, 1)):
            cartan = cartan_check(xi, cx, 12)
            assert cartan.passed, f"Cartan fails on {cx.name}"
            cert = acyclicity_certificate(xi, cx, 12)
            assert cert.valid, f"certificate refused on {cx.name}: {cert.refused}"
            positive = [i for i in cx.indices if i >= 1]
            assert set(cert.form_degrees()) == set(positive)
            # independent homology recomputation on every certified piece
            table = homology_table(cx, 12)
            for (i, d) in cert.certified:
                assert table.dim(i, d) == 0
    _report(2, "Euler counterexample class", t0, 60)


def test_criterion_3_filtered_spencer_resolution():
    t0 = time.time()
    from spencerlab.rings import WeightedRing

    for n in (1, 2):
        ring = WeightedRing(tuple(f"x{i+1}" for i in range(n)), (1,) * n)
        for p in (2, 3):
            cx = filtered_spencer(ring, p)
            table = homology_table(cx, 8)
            for (i, d), v in table.entries.items():
                if i in (-1, 0, 1):
                    assert v == 0, f"H at spot {i}, weight {d} nonzero (n={n}, p={p})"
    _report(3, "filtered Spencer resolution", t0, 30)


def _staircase_oracle(pure_powers):
    """Standard-monomial count of a pure-power monomial ideal (x_i^{a_i})."""
    count = 1
    for a in pure_powers:
        count *= a
    return count


def test_criterion_4_invariants():
    t0 = time.time()
    # oracle: the three Jacobian ideals are pure-power monomial ideals
    expected = {
        "cusp": (_staircase_oracle((2, 1)), ("1", "x")),        # (x^2, y)
        "e6": (_staircase_oracle((2, 3)), None),                # (x^2, y^3)
        "node": (_staircase_oracle((1, 1)), ("1",)),            # (x, y)
    }
    assert expected["cusp"][0] == 2
    assert expected["e6"][0] == 6
    assert expected["node"][0] == 1
    for s, key in ((CUSP, "cusp"), (E6, "e6"), (NODE, "node")):
        mt = milnor_tjurina(s.ideal.generators[0])
        want, basis = expected[key]
        assert mt.mu == want and mt.tau == want
        if basis is not None:
            assert tuple(s.ring.mono_str(m) for m in mt.basis) == basis
    _report(4, "Milnor and Tjurina numbers", t0, 5)


def test_criterion_5_kashiwara_quotient():
    t0 = time.time()
    from spencerlab.rings import WeightedRing

    ring = WeightedRing(("x",), (1,))
    ideal = Ideal((parse_polynomial("x", ring),))
    for p in range(0, 5):
        kq = kashiwara_quotient(AffineScene(ring, ideal), p, 4)
        assert kq.total_dimension == p + 1
        assert kq.support_verified  # left multiplication by x is nilpotent
    _report(5, "Kashiwara quotient dimensions", t0, 5)


def test_criterion_6_completed_de_rham_of_cusp():
    t0 = time.time()
    bound, depth = 10, 4
    ambient = AffineScene(CUSP.ring, Ideal(()))
    tower = completed_complex(build_de_rham(ambient), CUSP.ideal, depth)
    report = tower_limit(tower, bound)
    assert report.all_stabilized()
    # entries are constant from the first stage with 6r > d (they may
    # coincide even earlier); the detected onset must not come later
    for (i, d), e in report.entries.items():
        assert e["r0"] is not None
        assert e["r0"] <= d // 6 + 1, (i, d, e)
    # oracle: once 6r > d every stage slice equals the ambient de Rham slice,
    # whose ranks are computed here by the independent direct path
    oracle = homology_table(build_de_rham(ambient), bound)
    for (i, d), e in report.entries.items():
        assert e["lim"] == oracle.dim(i, d)
    assert report.lim_table() == {(0, 0): 1}
    _report(6, "completed de Rham of the cusp", t0, 60)


def test_criterion_7_embedding_independence():
    t0 = time.time()
    big = scene(["x", "y", "z"], [2, 3, 6], ["x^3 - y^2", "z"])
    report = embedding_independence(CUSP, big, 4, 10)
    assert report.equal
    assert not report.derham_mismatches and not report.unstabilized
    _report(7, "embedding independence", t0, 90)


def test_criterion_8_derived_completion():
    t0 = time.time()
    line = scene(["x"], [1])
    Ix = Ideal((parse_polynomial("x", line.ring),))
    # (a) free module: index 0 matches the classical tower and negatives vanish
    _tw, rep = derived_completion(line, Ix, 8, 5)
    Ox = free_module(line, [("1", 0)], name="O")
    classical = tower_limit(adic_tower(Ox, Ix, 8), 5)
    for d in range(0, 6):
        assert rep.entries[(0, d)]["lim"] == classical.entries[(0, d)]["lim"] == 1
        e = rep.entries[(-1, d)]
        assert e["stabilized"] and e["lim"] == 0 and e["lim1"] == 0
    # (b) torsion module Q[x]/(x): concentrated in index 0, isomorphic to it
    point = scene(["x"], [1], ["x"])
    _tw2, rep2 = derived_completion(point, Ix, 7, 4)
    # oracle: graded dimensions of the module itself
    for d in range(0, 5):
        want = o_piece(point, d).dim
        assert rep2.entries[(0, d)]["lim"] == want
        e = rep2.entries[(-1, d)]
        assert e["stabilized"] and e["lim"] == 0 and e["lim1"] == 0
    _report(8, "derived completion", t0, 10)


def test_criterion_9_completed_koszul_h0():
    t0 = time.time()
    f2 = scene(["x", "y"], [1, 1], ["x"])
    J = Ideal((parse_polynomial("y", f2.ring),))
    report = completed_koszul_h0(f2, J, 4, 8)
    assert report.passed
    # oracle: monomial count of F/(x^r, y) at weight d is 1 iff d < r
    for r in range(1, 5):
        for d in range(0, 9):
            assert report.h0[(r, d)] == (1 if d < r else 0)
    _report(9, "completed Koszul H0", t0, 10)


SCENE_FILES = [
    "a1.scene", "a2.scene", "a3.scene", "a2_w23.scene", "cusp.scene",
    "e6.scene", "e8.scene", "node.scene", "xy.scene", "d4.scene",
    "quadric_cone.scene", "hyperplane.scene", "cusp_a3.scene",
    "a1_in_a2.scene", "whitney.scene",
]


def test_criterion_10_structural_suite(capsys):
    t0 = time.time()
    import os

    from spencerlab.scenes import load_scene

    scenes_dir = os.path.join(os.path.dirname(__file__), "..", "scenes")
    assert len(SCENE_FILES) >= 12
    for name in SCENE_FILES:
        s = load_scene(os.path.join(scenes_dir, name))
        # d∘d = 0 and rank-nullity are hard assertions
        # inside these calls; weight bound kept modest for the big scenes
        bound = 6 if s.ring.nvars >= 3 else 8
        homology_table(build_de_rham(s), bound)
        kz = build_koszul(s, [s.ring.var(0)])
        homology_table(kz, bound)
        if not s.ideal.is_trivial:
            tower = completed_complex(build_de_rham(AffineScene(s.ring, Ideal(()))),
                                      s.ideal, 3)
            for r in (1, 2):
                for i in (0, 1):
                    for d in (0, bound // 2, bound):
                        tower.verify_chain_map(r, i, d)
    # JSON determinism across repeated CLI runs
    runs = [
        ["derham", os.path.join(scenes_dir, "cusp.scene"), "--degree-bound", "8"],
        ["derham", os.path.join(scenes_dir, "a2.scene"), "--degree-bound", "8"],
        ["euler-certify", os.path.join(scenes_dir, "e6.scene"),
         "--complex", "jet1", "--degree-bound", "10"],
        ["milnor", os.path.join(scenes_dir, "d4.scene")],
        ["complete", os.path.join(scenes_dir, "node.scene"), "--r-max", "3",
         "--degree-bound", "6"],
    ]
    for argv in runs:
        outs = []
        for _ in range(2):
            assert cli_main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        json.loads(outs[0])
    _report(10, "structural suite across the corpus", t0, 300)
