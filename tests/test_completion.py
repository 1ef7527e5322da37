import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

from spencerlab import linalg
from spencerlab.cli import main
from spencerlab.complexes import GradedComplex, build_de_rham, build_koszul, homology_table
from spencerlab.completion import (
    Tower,
    adic_tower,
    check_extension,
    completed_complex,
    completed_koszul_h0,
    derived_completion,
    embedding_independence,
    ideal_power_generators,
    koszul_power_tower,
    module_as_complex,
    tower_limit,
)
from spencerlab.diffops import filtered_spencer
from spencerlab.errors import InternalInvariantError, SceneError
from spencerlab.modules import PresentedModule, free_module, graded_component_basis
from spencerlab.rings import AffineScene, Ideal, parse_polynomial, scene
from spencerlab.scenes import load_scene


def line_data():
    a1 = scene(["x"], [1])
    Ix = Ideal((parse_polynomial("x", a1.ring),))
    Ox = free_module(a1, [("1", 0)], name="O")
    return a1, Ix, Ox


# -- adic towers -----------------------------------------------------------------


def test_adic_stage_dims_on_the_line():
    _a1, Ix, Ox = line_data()
    t = adic_tower(Ox, Ix, 5, 6)
    for r in range(1, 6):
        for d in range(0, 6):
            assert t.stage(r).piece(0, d).dim == (1 if d < r else 0)


def test_adic_cusp_slice(cusp):
    Ox = free_module(cusp, [("1", 0)], name="O")
    amb = AffineScene(cusp.ring, Ideal(()))
    Oamb = free_module(amb, [("1", 0)], name="O")
    t = adic_tower(Oamb, cusp.ideal, 3, 8)
    # (R/I)_6 has dimension dim R_6 - 1 = 1 (two monomials modulo f)
    assert t.stage(1).piece(0, 6).dim == 1
    # stabilized once 6r > d
    assert t.stage(2).piece(0, 6).dim == 2


def test_adic_unit_ideal_kills_everything(a1):
    Ox = free_module(a1, [("1", 0)], name="O")
    unit = Ideal((a1.ring.one(),))
    t = adic_tower(Ox, unit, 3, 5)
    for r in range(1, 4):
        for d in range(0, 6):
            assert t.stage(r).piece(0, d).dim == 0


def test_adic_limits_weightwise():
    _a1, Ix, Ox = line_data()
    t = adic_tower(Ox, Ix, 8, 5)
    rep = tower_limit(t, 5, weight_lo=0)
    for d in range(0, 6):
        e = rep.entries[(0, d)]
        assert e["stabilized"] and e["lim"] == 1 and e["lim1"] == 0
        assert e["r0"] == d + 1


def test_transitions_are_chain_maps():
    _a1, Ix, Ox = line_data()
    t = adic_tower(Ox, Ix, 4, 5)
    for r in range(1, 4):
        for d in range(0, 6):
            t.verify_chain_map(r, 0, d)


# -- constant and zero towers -------------------------------------------------------


def _constant_tower(stage_complex, depth, identity=True):
    def idt(i, d, label):
        return {label: Fraction(1)}

    def zero(i, d, label):
        return {}

    fn = idt if identity else zero
    return Tower(
        "synthetic",
        [stage_complex] * depth,
        [fn] * (depth - 1),
    )


def test_transition_not_well_defined_raises(a1):
    # stage 2 = O/(x) -> stage 1 = O/(x^2) under the identity sends the
    # relation x to the nonzero class of x
    x = parse_polynomial("x", a1.ring)

    def quotient(p):
        return module_as_complex(PresentedModule(a1, (("1", 0),), ((p,),), name=str(p)))

    def identity(i, d, label):
        return {label: Fraction(1)}

    t = Tower("bad", [quotient(x**2), quotient(x)], [identity])
    with pytest.raises(InternalInvariantError, match="not well defined"):
        t.transition_matrix(1, 0, 1)


def test_constant_tower_limits(a1):
    Ox = free_module(a1, [("1", 0)], name="O")
    cx = module_as_complex(Ox)
    rep = tower_limit(_constant_tower(cx, 4), 3, weight_lo=0)
    for d in range(0, 4):
        e = rep.entries[(0, d)]
        assert e["stabilized"] and e["lim"] == 1 and e["lim1"] == 0


def test_zero_transition_tower_limits(a1):
    Ox = free_module(a1, [("1", 0)], name="O")
    cx = module_as_complex(Ox)
    rep = tower_limit(_constant_tower(cx, 4, identity=False), 3, weight_lo=0)
    for d in range(0, 4):
        e = rep.entries[(0, d)]
        assert e["stabilized"] and e["lim"] == 0 and e["lim1"] == 0


# -- completed complexes -------------------------------------------------------------


def test_completed_de_rham_of_cusp_stabilizes(cusp):
    amb = AffineScene(cusp.ring, Ideal(()))
    tower = completed_complex(build_de_rham(amb), cusp.ideal, 4, 10)
    rep = tower_limit(tower, 10, weight_lo=0)
    assert rep.all_stabilized()
    assert rep.lim_table() == {(0, 0): 1}
    # stabilization onset respects 6r > d
    for (i, d), e in rep.entries.items():
        if e["r0"] is not None:
            assert 6 * e["r0"] > d - 6  # onset no later than the structural bound


def test_completed_koszul_along_x(a2):
    kz = build_koszul(a2, [a2.ring.var(0), a2.ring.var(1)])
    Ix = Ideal((parse_polynomial("x", a2.ring),))
    tower = completed_complex(kz, Ix, 4, 6)
    rep = tower_limit(tower, 6, weight_lo=0)
    # H0 of every stage is Q[x,y]/(x, y): a constant tower
    for r in range(1, 5):
        t = homology_table(tower.stage(r), 4)
        assert {k: v for k, v in t.nonzero().items() if k[0] == 0} == {(0, 0): 1}
    assert rep.entries[(0, 0)]["lim"] == 1


def test_completed_unit_ideal_gives_zero_tower(a2):
    kz = build_koszul(a2, [a2.ring.var(0)])
    unit = Ideal((a2.ring.one(),))
    tower = completed_complex(kz, unit, 3, 4)
    for r in range(1, 4):
        for d in range(0, 5):
            assert tower.stage(r).piece(0, d).dim == 0


def test_completed_tower_transitions_are_chain_maps(cusp):
    amb = AffineScene(cusp.ring, Ideal(()))
    tower = completed_complex(build_de_rham(amb), cusp.ideal, 3, 8)
    for r in (1, 2):
        for i in (0, 1):
            for d in (0, 4, 6, 8):
                tower.verify_chain_map(r, i, d)


# -- derived completion ---------------------------------------------------------------


def test_derived_completion_of_free_module():
    a1, Ix, Ox = line_data()
    _tower, rep = derived_completion(a1, Ix, 8, 5)
    adic = tower_limit(adic_tower(Ox, Ix, 8, 5), 5, weight_lo=0)
    for d in range(0, 6):
        assert rep.entries[(0, d)]["lim"] == adic.entries[(0, d)]["lim"]
        eneg = rep.entries[(-1, d)]
        assert eneg["stabilized"] and eneg["lim"] == 0 and eneg["lim1"] == 0


def test_derived_completion_fixes_torsion():
    a1, Ix, _ = line_data()
    point = scene(["x"], [1], ["x"])
    _tower, rep = derived_completion(point, Ix, 7, 4)
    assert rep.entries[(0, 0)]["lim"] == 1
    for d in range(1, 5):
        assert rep.entries[(0, d)]["lim"] == 0
    for d in range(0, 5):
        e = rep.entries[(-1, d)]
        assert e["stabilized"] and e["lim"] == 0 and e["lim1"] == 0


def test_derived_completion_zero_module():
    unitscene = scene(["x"], [1], ["1"])
    Ix = Ideal((parse_polynomial("x", unitscene.ring),))
    _tower, rep = derived_completion(unitscene, Ix, 4, 3)
    for e in rep.entries.values():
        assert e["stabilized"] and e["lim"] == 0


def test_classical_and_derived_agree_in_index_zero_for_coherent_inputs(cusp):
    amb = AffineScene(cusp.ring, Ideal(()))
    Oamb = free_module(amb, [("1", 0)], name="O")
    _tower, rep = derived_completion(amb, cusp.ideal, 5, 8)
    adic = tower_limit(adic_tower(Oamb, cusp.ideal, 5, 8), 8, weight_lo=0)
    for d in range(0, 9):
        a = adic.entries[(0, d)]
        b = rep.entries[(0, d)]
        if a["stabilized"] and b["stabilized"]:
            assert a["lim"] == b["lim"]


def test_derived_completion_idempotent_on_tables():
    a1, Ix, _ = line_data()
    bound, depth = 4, 7
    _t, rep = derived_completion(a1, Ix, depth, bound)
    # classical completion realized degreewise: O/I^S with S beyond the bound
    big = scene(["x"], [1], ["x^6"])
    _t2, rep2 = derived_completion(big, Ix, depth, bound)
    for d in range(0, bound + 1):
        for i in (0, -1):
            assert rep.entries[(i, d)]["lim"] == rep2.entries[(i, d)]["lim"]


# -- completed Koszul H0 ---------------------------------------------------------------


def test_completed_koszul_h0_staircase():
    f2 = scene(["x", "y"], [1, 1], ["x"])
    J = Ideal((parse_polynomial("y", f2.ring),))
    rep = completed_koszul_h0(f2, J, 4, 8)
    assert rep.passed
    for r in range(1, 5):
        for d in range(0, 9):
            assert rep.h0[(r, d)] == (1 if d < r else 0)


def test_completed_koszul_h0_unit_J():
    f2 = scene(["x", "y"], [1, 1], ["x"])
    unit = Ideal((f2.ring.one(),))
    rep = completed_koszul_h0(f2, unit, 3, 5)
    assert all(v == 0 for v in rep.h0.values())


def test_completed_koszul_regular_disjoint_positive_vanishing():
    f2 = scene(["x", "y"], [1, 1], ["x"])
    J = Ideal((parse_polynomial("y", f2.ring),))
    rep = completed_koszul_h0(f2, J, 4, 8)
    assert all(v == 0 for v in rep.positive_index.values())


# -- embedding independence --------------------------------------------------------------


def test_check_extension_validates(cusp):
    good = scene(["x", "y", "z"], [2, 3, 6], ["x^3 - y^2", "z"])
    assert check_extension(cusp, good) == (2,)
    with pytest.raises(SceneError):
        check_extension(cusp, scene(["x", "y", "z"], [2, 3, 6], ["x^3 - y^2"]))
    with pytest.raises(SceneError):
        check_extension(cusp, scene(["x", "u", "z"], [2, 3, 6], ["x^3 - u^2", "z"]))


def test_independence_cusp(cusp):
    big = scene(["x", "y", "z"], [2, 3, 6], ["x^3 - y^2", "z"])
    rep = embedding_independence(cusp, big, 4, 10)
    assert rep.equal and not rep.derham_mismatches


def test_independence_line_in_plane(a1):
    big = scene(["x", "y"], [1, 1], ["y"])
    rep = embedding_independence(a1, big, 4, 8)
    assert rep.equal


def test_independence_identical_scenes(cusp):
    rep = embedding_independence(cusp, cusp, 3, 8)
    assert rep.equal


def test_independence_with_filtered_spencer(a1):
    big = scene(["x", "y"], [1, 1], ["y"])
    rep = embedding_independence(a1, big, 4, 6, spencer_order=2)
    assert rep.equal and rep.spencer_equal


def test_ideal_power_generators(cusp):
    powers = ideal_power_generators(cusp.ideal, 2)
    assert [str(g) for g in powers] == [str(cusp.ideal.generators[0] ** 2)]


def test_derived_completion_two_generators():
    # regular sequence (x^3 - y^2, z) in three variables: exterior slots of
    # both generators and the mixed wedge get exercised
    amb = scene(["x", "y", "z"], [2, 3, 6])
    gens = (
        parse_polynomial("x^3 - y^2", amb.ring),
        parse_polynomial("z", amb.ring),
    )
    ideal = Ideal(gens)
    tower, rep = derived_completion(amb, ideal, 4, 6)
    # chain maps across both exterior degrees
    for r in (1, 2, 3):
        for i in (0, 1, 2):
            for d in (0, 6):
                tower.verify_chain_map(r, i, d)
    # regular sequence: negative indices carry nothing at any stage
    for (i, d), e in rep.entries.items():
        if i < 0:
            assert all(v == 0 for v in e["stage_dims"])
    # index 0 matches the classical adic completion where both stabilize
    Oamb = free_module(amb, [("1", 0)], name="O")
    classical = tower_limit(adic_tower(Oamb, ideal, 4, 6), 6, weight_lo=0)
    for d in range(0, 7):
        a, b = classical.entries[(0, d)], rep.entries[(0, d)]
        if a["stabilized"] and b["stabilized"]:
            assert a["lim"] == b["lim"]


# -- homology transitions and zero cells ----------------------------------------------


def test_homology_transition_eliminates_once(node, monkeypatch):
    amb = AffineScene(node.ring, Ideal(()))
    tower = koszul_power_tower(amb, node.ideal, 3)
    r, i, d = 2, 0, 4
    # build everything the transition reads, so only its own solve is left
    assert tower.cell_dim(r + 1, i, d) == 5 and tower.cell_dim(r, i, d) == 5
    tower.transition_matrix(r, i, d)
    calls = []
    kernel = linalg._gauss_jordan

    def spy(rows):
        calls.append(1)
        return kernel(rows)

    monkeypatch.setattr(linalg, "_gauss_jordan", spy)
    t = tower.homology_transition(r, i, d)
    assert t.shape == (5, 5)
    assert len(calls) == 1


def _one_cell_complex(name, differential):
    """e2 -> e1 -> e0 in weight 0, each arrow ``differential`` times the unit."""
    return GradedComplex(
        name=name,
        kind="synthetic",
        direction=-1,
        indices=(0, 1, 2),
        ambient_fn=lambda i, d: (("e", i),) if d == 0 else (),
        relations_fn=lambda i, d: [],
        diff_fn=lambda i, d, lbl: {("e", i - 1): Fraction(differential)},
    )


def test_tower_stage_with_nonzero_dd_raises():
    # stage 2's differential squares to the unit; the zero transition is a
    # chain map, so only the d∘d check can catch it
    good, bad = _one_cell_complex("good", 0), _one_cell_complex("bad", 1)
    tower = Tower("dd", [good, bad], [lambda i, d, lbl: {}])
    with pytest.raises(InternalInvariantError, match=r"^bad: d∘d != 0 at \(i=2, d=0\)$"):
        tower_limit(tower, 0, weight_lo=0)


SCENES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes")


def _nonempty_ideal_scenes():
    """(file name, scene) of every corpus scene with a nonempty ideal."""
    for name in sorted(os.listdir(SCENES)):
        if name.endswith(".scene"):
            sc, _ = load_scene(os.path.join(SCENES, name))
            if not sc.ideal.is_trivial:
                yield name, sc


def _corpus_towers(depth, bound):
    """The towers of complete, derived-complete and independence (--p 1) per scene."""
    for name, sc in _nonempty_ideal_scenes():
        amb = AffineScene(sc.ring, Ideal(()))
        yield name, completed_complex(build_de_rham(amb), sc.ideal, depth, bound)
        yield name, koszul_power_tower(amb, sc.ideal, depth)
        yield name, completed_complex(filtered_spencer(sc.ring, 1), sc.ideal, depth, bound)


def test_rank_derived_zero_cells_have_no_homology():
    depth, bound = 3, 6
    zero = nonzero = 0
    for name, tower in _corpus_towers(depth, bound):
        for r in range(1, depth + 1):
            stage = tower.stage(r)
            for i in tower.indices:
                for d in range(min(tower.weight_floor, 0), bound + 1):
                    dim = tower.cell_dim(r, i, d)
                    if stage.homology_dim(i, d):
                        nonzero += 1
                        assert dim == tower.homology_space(r, i, d).dim > 0, (name, r, i, d)
                        continue
                    zero += 1
                    # no homology space was built for the zero cell, and one
                    # built now has no representatives
                    assert dim == 0 and (r, i, d) not in tower._hom_cache, (name, r, i, d)
                    assert tower.homology_space(r, i, d).dim == 0, (name, r, i, d)
    assert zero and nonzero


def _tower_calls():
    """complete and derived-complete on every scene with an ideal, and independence."""
    for name, _ in _nonempty_ideal_scenes():
        for cmd in ("complete", "derived-complete"):
            yield [cmd, name, "--degree-bound", "6", "--r-max", "3"]
    for small, big in (("a1.scene", "a1_in_a2.scene"), ("cusp.scene", "cusp_a3.scene")):
        yield ["independence", small, "--extended-scene", os.path.join(SCENES, big),
               "--degree-bound", "6", "--r-max", "3", "--p", "1"]


def test_each_map_is_ranked_once(monkeypatch):
    seen: dict = {}  # id -> map; holding the maps keeps every id unique
    repeats = []
    rank_kernel_image = linalg.rank_kernel_image

    def spy(m):
        if id(m) in seen:
            repeats.append(m.shape)
        seen[id(m)] = m
        return rank_kernel_image(m)

    # modules import the function by name, so patch every holder
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spencerlab" and \
                getattr(module, "rank_kernel_image", None) is rank_kernel_image:
            monkeypatch.setattr(module, "rank_kernel_image", spy)
    for argv in _tower_calls():
        argv[1] = os.path.join(SCENES, argv[1])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        assert not repeats, (argv, repeats)
    assert len(seen) > 1000


@pytest.mark.parametrize("name", [name for name, _ in _nonempty_ideal_scenes()])
def test_completed_de_rham_of_a_weighted_cone_is_the_point(name):
    # a weighted-homogeneous ideal cuts out a cone, contractible onto the
    # origin by the weight action, so the completion along it has the de Rham
    # cohomology of a point: lim 1 at (0, 0), every other cell stabilized at 0
    argv = ["complete", os.path.join(SCENES, name), "--along", "self",
            "--degree-bound", "6", "--r-max", "8"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    entries = json.loads(out.getvalue())["limits"]["entries"]
    reported = {(i, d): e for i, cells in entries.items() for d, e in cells.items()}
    assert list(reported) == [("0", "0")], reported
    cell = reported["0", "0"]
    assert (cell["lim"], cell["lim1"], cell["stabilized"]) == (1, 0, True), cell
