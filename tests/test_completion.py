import contextlib
import io
import itertools
import json
import os
import sys
from fractions import Fraction

import pytest

from spencerlab import completion, complexes, linalg
from spencerlab.cli import main
from spencerlab.complexes import (
    GradedComplex,
    build_de_rham,
    build_jet_complex,
    build_koszul,
    build_spencer_of_module,
    homology_table,
)
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
from spencerlab.groebner import buchberger
from spencerlab.linalg import LinearMap, rank_kernel_image
from spencerlab.modules import PresentedModule, free_module
from spencerlab.rings import AffineScene, Ideal, mono_mul, parse_polynomial, scene
from spencerlab.scenes import load_scene


def line_data():
    a1 = scene(["x"], [1])
    Ix = Ideal((parse_polynomial("x", a1.ring),))
    Ox = free_module(a1, [("1", 0)], name="O")
    return a1, Ix, Ox


# -- adic towers -----------------------------------------------------------------


def test_adic_stage_dims_on_the_line():
    _a1, Ix, Ox = line_data()
    t = adic_tower(Ox, Ix, 5)
    for r in range(1, 6):
        for d in range(0, 6):
            assert t.stage(r).piece(0, d).dim == (1 if d < r else 0)


def test_adic_cusp_slice(cusp):
    Ox = free_module(cusp, [("1", 0)], name="O")
    amb = AffineScene(cusp.ring, Ideal(()))
    Oamb = free_module(amb, [("1", 0)], name="O")
    t = adic_tower(Oamb, cusp.ideal, 3)
    # (R/I)_6 has dimension dim R_6 - 1 = 1 (two monomials modulo f)
    assert t.stage(1).piece(0, 6).dim == 1
    # stabilized once 6r > d
    assert t.stage(2).piece(0, 6).dim == 2


def test_adic_unit_ideal_kills_everything(a1):
    Ox = free_module(a1, [("1", 0)], name="O")
    unit = Ideal((a1.ring.one(),))
    t = adic_tower(Ox, unit, 3)
    for r in range(1, 4):
        for d in range(0, 6):
            assert t.stage(r).piece(0, d).dim == 0


def test_adic_limits_weightwise():
    _a1, Ix, Ox = line_data()
    t = adic_tower(Ox, Ix, 8)
    rep = tower_limit(t, 5)
    for d in range(0, 6):
        e = rep.entries[(0, d)]
        assert e["stabilized"] and e["lim"] == 1 and e["lim1"] == 0
        assert e["r0"] == d + 1


def test_transitions_are_chain_maps():
    _a1, Ix, Ox = line_data()
    t = adic_tower(Ox, Ix, 4)
    for r in range(1, 4):
        for d in range(0, 6):
            t.verify_chain_map(r, 0, d)


# -- constant and zero towers -------------------------------------------------------


def _constant_tower(stage_complex, depth, identity=True):
    def idt(i, d, label):
        return {label: Fraction(1)}

    def zero(i, d, label):
        return {}

    return Tower("synthetic", [stage_complex] * depth, idt if identity else zero)


def test_transition_not_well_defined_raises(a1):
    # stage 2 = O/(x) -> stage 1 = O/(x^2) under the identity sends the
    # relation x to the nonzero class of x
    x = parse_polynomial("x", a1.ring)

    def quotient(p):
        return module_as_complex(PresentedModule(a1, (("1", 0),), ((p,),), name=str(p)))

    def identity(i, d, label):
        return {label: Fraction(1)}

    t = Tower("bad", [quotient(x**2), quotient(x)], identity)
    with pytest.raises(InternalInvariantError, match="not well defined"):
        t.transition_matrix(1, 0, 1)


def test_constant_tower_limits(a1):
    Ox = free_module(a1, [("1", 0)], name="O")
    cx = module_as_complex(Ox)
    rep = tower_limit(_constant_tower(cx, 4), 3)
    for d in range(0, 4):
        e = rep.entries[(0, d)]
        assert e["stabilized"] and e["lim"] == 1 and e["lim1"] == 0


def test_zero_transition_tower_limits(a1):
    # a finite prefix of zero maps does not determine the limit: a tower
    # that is zero up to stage R and the identity after it has lim = k, so
    # every cell of the constant tower with zero transitions stays open
    Ox = free_module(a1, [("1", 0)], name="O")
    cx = module_as_complex(Ox)
    rep = tower_limit(_constant_tower(cx, 4, identity=False), 3)
    for d in range(0, 4):
        e = rep.entries[(0, d)]
        assert not e["stabilized"], d
        assert e["lim"] is None and e["lim1"] is None and e["r0"] is None, d


# -- completed complexes -------------------------------------------------------------


def test_completed_de_rham_of_cusp_stabilizes(cusp):
    amb = AffineScene(cusp.ring, Ideal(()))
    tower = completed_complex(build_de_rham(amb), cusp.ideal, 4)
    rep = tower_limit(tower, 10)
    assert rep.all_stabilized()
    assert rep.lim_table() == {(0, 0): 1}
    # stabilization onset respects 6r > d
    for (i, d), e in rep.entries.items():
        if e["r0"] is not None:
            assert 6 * e["r0"] > d - 6  # onset no later than the structural bound


def test_completed_koszul_along_x(a2):
    kz = build_koszul(a2, [a2.ring.var(0), a2.ring.var(1)])
    Ix = Ideal((parse_polynomial("x", a2.ring),))
    tower = completed_complex(kz, Ix, 4)
    rep = tower_limit(tower, 6)
    # H0 of every stage is Q[x,y]/(x, y): a constant tower
    for r in range(1, 5):
        t = homology_table(tower.stage(r), 4)
        assert {k: v for k, v in t.nonzero().items() if k[0] == 0} == {(0, 0): 1}
    assert rep.entries[(0, 0)]["lim"] == 1


def test_completed_unit_ideal_gives_zero_tower(a2):
    kz = build_koszul(a2, [a2.ring.var(0)])
    unit = Ideal((a2.ring.one(),))
    tower = completed_complex(kz, unit, 3)
    for r in range(1, 4):
        for d in range(0, 5):
            assert tower.stage(r).piece(0, d).dim == 0


def test_completed_tower_transitions_are_chain_maps(cusp):
    amb = AffineScene(cusp.ring, Ideal(()))
    tower = completed_complex(build_de_rham(amb), cusp.ideal, 3)
    for r in (1, 2):
        for i in (0, 1):
            for d in (0, 4, 6, 8):
                tower.verify_chain_map(r, i, d)


def test_chain_map_checks_build_no_fraction(count_fractions, cusp):
    amb = AffineScene(cusp.ring, Ideal(()))
    tower = completed_complex(build_de_rham(amb), cusp.ideal, 3)
    cells = [(r, i, d) for r in (1, 2) for i in tower.indices for d in range(9)]
    for r, i, d in cells:
        for j in (i, i + 1):
            tower.transition_matrix(r, j, d)
        tower.stage(r).differential(i, d)
        tower.stage(r + 1).differential(i, d)
    built = count_fractions()
    for r, i, d in cells:
        tower.verify_chain_map(r, i, d)
    assert built == [0]


# -- derived completion ---------------------------------------------------------------


def test_derived_completion_of_free_module():
    a1, Ix, Ox = line_data()
    _tower, rep = derived_completion(a1, Ix, 8, 5)
    adic = tower_limit(adic_tower(Ox, Ix, 8), 5)
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
    adic = tower_limit(adic_tower(Oamb, cusp.ideal, 5), 8)
    for d in range(0, 9):
        a = adic.entries[(0, d)]
        b = rep.entries[(0, d)]
        if a["stabilized"] and b["stabilized"]:
            assert a["lim"] == b["lim"]


def test_completion_along_the_zero_ideal_is_refused(a1):
    with pytest.raises(SceneError, match="completion needs a nonzero ideal"):
        derived_completion(a1, Ideal(()), 2, 3)
    with pytest.raises(SceneError, match="completion needs a nonzero ideal"):
        koszul_power_tower(a1, Ideal(()), 2)


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


def test_check_extension_rejects_fewer_variables_and_a_changed_ideal(cusp):
    with pytest.raises(SceneError, match="fewer variables"):
        check_extension(cusp, scene(["x"], [2]))
    with pytest.raises(SceneError, match="original generators plus the fresh variables"):
        check_extension(cusp, scene(["x", "y", "z"], [2, 3, 6], ["x^3 + y^2", "z"]))


@pytest.mark.parametrize("spencer_order", [None, 1])
def test_independence_reports_an_unstabilized_cell(cusp, spencer_order):
    # a one-stage tower confirms no nonzero limit, so H^0 at weight 0 stays open
    big = scene(["x", "y", "z"], [2, 3, 6], ["x^3 - y^2", "z"])
    rep = embedding_independence(cusp, big, 1, 4, spencer_order=spencer_order)
    assert rep.unstabilized == [(0, 0)]
    assert rep.equal is False


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
    classical = tower_limit(adic_tower(Oamb, ideal, 4), 6)
    for d in range(0, 7):
        a, b = classical.entries[(0, d)], rep.entries[(0, d)]
        if a["stabilized"] and b["stabilized"]:
            assert a["lim"] == b["lim"]


# -- homology transitions and zero cells ----------------------------------------------


def test_homology_transition_eliminates_once(node, monkeypatch):
    amb = AffineScene(node.ring, Ideal(()))
    tower = koszul_power_tower(amb, node.ideal, 3)
    r, i, d = 2, 0, 4
    # build everything the transition reads, so only its own elimination is left
    assert tower.cell_dim(r + 1, i, d) == 5 and tower.cell_dim(r, i, d) == 5
    tower.transition_matrix(r, i, d)
    calls = []
    kernel = linalg._gauss_jordan

    def spy(rows):
        calls.append(1)
        return kernel(rows)

    monkeypatch.setattr(linalg, "_gauss_jordan", spy)
    t = tower.homology_transition(r, i, d)
    assert t == 4
    assert len(calls) == 1


def _one_cell_complex(name, differential):
    """e2 -> e1 -> e0 in weight 0, each arrow ``differential`` times the unit."""
    return GradedComplex(
        name=name,
        kind="synthetic",
        direction=-1,
        indices=(0, 1, 2),
        ambient_fn=lambda i, d: (("e", i),) if d == 0 else (),
        relations_fn=lambda ideal, i, d: [],
        diff_fn=lambda i, lbl: {("e", i - 1): Fraction(differential)},
    )


def test_tower_stage_with_nonzero_dd_raises():
    # stage 2's differential squares to the unit; the zero transition is a
    # chain map, so only the d∘d check can catch it
    good, bad = _one_cell_complex("good", 0), _one_cell_complex("bad", 1)
    tower = Tower("dd", [good, bad], lambda i, d, lbl: {})
    with pytest.raises(InternalInvariantError, match=r"^bad: d∘d != 0 at \(i=2, d=0\)$"):
        tower_limit(tower, 0)


def test_homology_dim_checks_dd_zero_into_the_cell():
    bad = _one_cell_complex("bad", 1)
    with pytest.raises(InternalInvariantError, match=r"^bad: d∘d != 0 at \(i=2, d=0\)$"):
        bad.homology_dim(1, 0)


SCENES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes")


def _nonempty_ideal_scenes():
    """(file name, scene) of every corpus scene with a nonempty ideal."""
    for name in sorted(os.listdir(SCENES)):
        if name.endswith(".scene"):
            sc = load_scene(os.path.join(SCENES, name))
            if not sc.ideal.is_trivial:
                yield name, sc


def _corpus_towers(depth, bound):
    """The towers of complete, derived-complete and independence (--p 1) per scene."""
    for name, sc in _nonempty_ideal_scenes():
        amb = AffineScene(sc.ring, Ideal(()))
        yield name, completed_complex(build_de_rham(amb), sc.ideal, depth)
        yield name, koszul_power_tower(amb, sc.ideal, depth)
        yield name, completed_complex(filtered_spencer(sc.ring, 1), sc.ideal, depth)


def test_rank_derived_zero_cells_have_no_homology():
    depth, bound = 3, 6
    zero = nonzero = 0
    for name, tower in _corpus_towers(depth, bound):
        lo = min(0, *(s.weight_floor for s in tower.stages))
        for r in range(1, depth + 1):
            stage = tower.stage(r)
            for i in tower.indices:
                for d in range(lo, bound + 1):
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


def test_homology_transition_is_the_rank_of_images_modulo_boundaries():
    # oracle: the rank of H(r+1) -> H(r) is rank([T·Z_upper | B_lower]) - rank(B_lower),
    # with T the transition, Z_upper the upper cycles and B_lower the lower
    # boundaries, all read off the tower's maps; no homology space is used
    depth, bound = 3, 5
    ranked = 0
    for name, sc in _nonempty_ideal_scenes():
        amb = AffineScene(sc.ring, Ideal(()))
        for tower in (
            completed_complex(build_de_rham(amb), sc.ideal, depth),
            koszul_power_tower(amb, sc.ideal, depth),
        ):
            for r in range(1, depth):
                upper, lower = tower.stage(r + 1), tower.stage(r)
                for i in tower.indices:
                    for d in range(lower.weight_floor, bound + 1):
                        t = tower.transition_matrix(r, i, d)
                        cycles = upper.homology_cycles(i, d)
                        images = t.compose(LinearMap(range(len(cycles)), t.source_basis, cycles))
                        b = lower.differential(i - lower.direction, d)
                        # a column's positive scale leaves the rank as it is
                        cols = [*images.int_columns, *b.int_columns]
                        both = LinearMap(range(len(cols)), t.target_basis, cols)
                        want = rank_kernel_image(both)[0] - rank_kernel_image(b)[0]
                        got = tower.homology_transition(r, i, d)
                        assert got == want, (name, tower.name, r, i, d)
                        ranked += want > 0
    assert ranked


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


# -- towers against directly presented quotients ----------------------------------

ORACLE_SCENES = ("cusp.scene", "node.scene", "quadric_cone.scene")


def _power_generators(gens, r):
    """Products of r of the generators, with repetition; written out here."""
    out = []
    for combo in itertools.combinations_with_replacement(gens, r):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        out.append(p)
    return tuple(out)


def _presented_quotient(module, gens, r):
    """M/I^r M as a presented module: M's relations plus h·e_k for h in I^r."""
    k = len(module.generators)
    zero = module.scene.ring.zero()
    extra = tuple(
        tuple(h if j == idx else zero for j in range(k))
        for h in _power_generators(gens, r)
        for idx in range(k)
    )
    return PresentedModule(
        module.scene, module.generators, module.relations + extra, name="oracle"
    )


def _oracle_scene(name, base):
    sc = load_scene(os.path.join(SCENES, name))
    return sc, (sc if base == "Y" else AffineScene(sc.ring, Ideal(())))


@pytest.mark.parametrize("base", ("Y", "ambient"))
@pytest.mark.parametrize("which", ("O", "omega1"))
@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_adic_stages_match_presented_quotients(name, which, base, omega1_module):
    sc, over = _oracle_scene(name, base)
    module = free_module(over, (("1", 0),)) if which == "O" else omega1_module(over)
    tower = adic_tower(module, sc.ideal, 3)
    for r in range(1, 4):
        oracle = _presented_quotient(module, sc.ideal.generators, r)
        for d in range(0, 7):
            got, want = tower.stage(r).piece(0, d), oracle.piece(d)
            assert got.basis == want.basis, (r, d)
            assert list(got.relation_rows()) == list(want.relation_rows()), (r, d)


@pytest.mark.parametrize("base", ("Y", "ambient"))
@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_completed_koszul_stages_match_thickened_koszul(name, base):
    sc, over = _oracle_scene(name, base)
    x = over.ring.var(0)
    tower = completed_complex(build_koszul(over, [x]), sc.ideal, 3)
    for r in range(1, 4):
        gens = over.ideal.generators + _power_generators(sc.ideal.generators, r)
        oracle = build_koszul(AffineScene(over.ring, Ideal(gens)), [x])
        for i in oracle.indices:
            for d in range(0, 7):
                got, want = tower.stage(r).piece(i, d), oracle.piece(i, d)
                assert got.basis == want.basis, (r, i, d)
                assert list(got.relation_rows()) == list(want.relation_rows()), (r, i, d)


@pytest.mark.parametrize("base", ("Y", "ambient"))
@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_completed_de_rham_stages_match_thickened_de_rham(name, base):
    # stage r of a completed de Rham complex is the de Rham complex of the
    # thickening V(J + I^r), built here directly from that scene
    sc, over = _oracle_scene(name, base)
    tower = completed_complex(build_de_rham(over), sc.ideal, 3)
    for r in range(1, 4):
        gens = over.ideal.generators + _power_generators(sc.ideal.generators, r)
        oracle = build_de_rham(AffineScene(over.ring, Ideal(gens)))
        for i in oracle.indices:
            for d in range(0, 7):
                got, want = tower.stage(r).piece(i, d), oracle.piece(i, d)
                assert got.basis == want.basis, (r, i, d)
                assert list(got.relation_rows()) == list(want.relation_rows()), (r, i, d)


@pytest.mark.parametrize("base", ("Y", "ambient"))
@pytest.mark.parametrize("r", (1, 2))
@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_completed_jet_stages_match_thickened_jets(name, r, base):
    # stage r' of a completed jet complex reads its Taylor and dg-wedge
    # relations off J + I^r', so it is the jet complex of that thickening
    sc, over = _oracle_scene(name, base)
    tower = completed_complex(build_jet_complex(over, r), sc.ideal, 3)
    for k in range(1, 4):
        gens = over.ideal.generators + _power_generators(sc.ideal.generators, k)
        oracle = build_jet_complex(AffineScene(over.ring, Ideal(gens)), r)
        for i in oracle.indices:
            for d in range(0, 6):
                got, want = tower.stage(k).piece(i, d), oracle.piece(i, d)
                assert got.basis == want.basis, (k, i, d)
                assert list(got.relation_rows()) == list(want.relation_rows()), (k, i, d)


def _standard_monomial_dims(sc, bound):
    """dim (O_Y)_d for d = 0..bound: weight-d monomials outside the leading ideal."""
    lms = () if sc.ideal.is_trivial else buchberger(sc.ideal).leading_monomials()
    return [
        sum(
            1 for m in sc.ring.monomials_of_weight(d)
            if not any(all(a >= b for a, b in zip(m, lm)) for lm in lms)
        )
        for d in range(bound + 1)
    ]


@pytest.mark.parametrize("base", ("Y", "ambient"))
@pytest.mark.parametrize("r", (1, 2))
@pytest.mark.parametrize("name", ("cusp.scene", "node.scene", "whitney.scene"))
def test_completed_jet_complex_resolves_the_completed_structure_sheaf(name, r, base):
    # the jet complex resolves O; completed along I its H^0 is the
    # completion of O, which in each weight is O_X (ambient) or O_Y (Y
    # along its own ideal), counted here by Groebner standard monomials;
    # depth 6 keeps the weight-6 slice of I^r constant over the last stages
    sc, over = _oracle_scene(name, base)
    bound = 6
    tower = completed_complex(build_jet_complex(over, r), sc.ideal, 6)
    report = tower_limit(tower, bound)
    want = _standard_monomial_dims(over, bound)
    assert set(report.entries) == {(i, d) for i in range(r + 1) for d in range(bound + 1)}
    for (i, d), e in report.entries.items():
        assert e["stabilized"], (i, d)
        assert (e["lim"], e["lim1"]) == ((want[d] if i == 0 else 0), 0), (i, d)


def _rank(rows, cols) -> int:
    """Rank of the sparse rows restricted to the given columns, by Gaussian elimination."""
    pivots: dict = {}  # pivot column -> row with a unit there
    rank = 0
    for row in rows:
        vec = {c: Fraction(row[c]) for c in cols if row.get(c)}
        for c in sorted(pivots):
            f = vec.get(c)
            if f:
                for k, v in pivots[c].items():
                    vec[k] = vec.get(k, 0) - f * v
                vec = {k: v for k, v in vec.items() if v}
        if vec:
            c = min(vec)
            pivots[c] = {k: v / vec[c] for k, v in vec.items()}
            rank += 1
    return rank


@pytest.mark.parametrize("k", (0, 1, 2))
def test_completed_spencer_stages_are_quotients_by_the_closure_of_the_ideal(k):
    # stage r along (x) is C / (x^r·C + d(x^r·C)), the smallest quotient
    # complex that kills x^r·C; a label is a basis label when its column
    # lies in the span of the earlier columns of those relations
    a2 = scene(["x", "y"], [1, 1])
    cx = build_spencer_of_module(a2, k)
    tower = completed_complex(cx, Ideal((parse_polynomial("x", a2.ring),)), 3)
    for r in range(1, 4):
        stage = tower.stage(r)
        homology_table(stage, 5)

        def x_r_times(i, d):
            # x^r times every label of index i and weight d - r (x has weight 1)
            return [(mono_mul(lbl[0], (r, 0)),) + lbl[1:] for lbl in cx.ambient_fn(i, d - r)]

        for i in cx.indices:
            for d in range(cx.weight_floor, 6):
                ambient = cx.ambient_fn(i, d)
                rows = [{lbl: 1} for lbl in x_r_times(i, d)]
                if i + 1 in cx.indices:
                    rows += [cx.diff_fn(i + 1, lbl) for lbl in x_r_times(i + 1, d)]
                want = tuple(
                    lbl for j, lbl in enumerate(ambient)
                    if _rank(rows, ambient[:j + 1]) == _rank(rows, ambient[:j])
                )
                assert stage.piece(i, d).basis == want, (r, i, d)


COMPLETIONS = {
    "derham": lambda over, ideal: completed_complex(build_de_rham(over), ideal, 2),
    "koszul": lambda over, ideal: completed_complex(
        build_koszul(over, [over.ring.var(0)]), ideal, 2
    ),
    "filtered-spencer": lambda over, ideal: completed_complex(
        filtered_spencer(over.ring, 1), ideal, 2
    ),
    "module": lambda over, ideal: adic_tower(free_module(over, (("1", 0),)), ideal, 2),
    "jet1": lambda over, ideal: completed_complex(build_jet_complex(over, 1), ideal, 2),
    "jet2": lambda over, ideal: completed_complex(build_jet_complex(over, 2), ideal, 2),
}


@pytest.mark.parametrize("kind", sorted(COMPLETIONS))
def test_completion_along_inhomogeneous_ideal_is_an_input_error(kind):
    over = scene(["x", "y"], [1, 1])
    ideal = Ideal((parse_polynomial("x + y^2", over.ring),))
    with pytest.raises(SceneError, match="is not weighted-homogeneous for weights"):
        tower = COMPLETIONS[kind](over, ideal)
        for i in tower.indices:
            tower.stage(1).piece(i, 2)


_STAGE_BUILDERS = {  # base complex over the ambient scene, given the scene's equations
    "de-rham": lambda amb, gens: build_de_rham(amb),
    "jets-r1": lambda amb, gens: build_jet_complex(amb, 1),
    "jets-r2": lambda amb, gens: build_jet_complex(amb, 2),
    "koszul": build_koszul,
    "filtered-spencer": lambda amb, gens: filtered_spencer(amb.ring, 1),
}


@pytest.mark.parametrize("kind", sorted(_STAGE_BUILDERS))
def test_shared_stages_match_separately_built_stages(kind):
    # completed_complex builds its stages with with_ideal, and they share
    # pieces and cells; the reference stages come from fresh base complexes,
    # so nothing is shared and every cell is computed on its own
    depth, bound = 3, 5
    build = _STAGE_BUILDERS[kind]
    for name, sc in _nonempty_ideal_scenes():
        amb = AffineScene(sc.ring, Ideal(()))
        shared = completed_complex(build(amb, sc.ideal.generators), sc.ideal, depth)
        separate = []
        for r in range(1, depth + 1):
            base = build(amb, sc.ideal.generators)
            ideal = base.ideal + ideal_power_generators(sc.ideal, r)
            separate.append(base.with_ideal(ideal, shared.stage(r).name))
        reference = Tower(shared.name, separate, shared.transition)
        assert tower_limit(shared, bound).to_json() == \
            tower_limit(reference, bound).to_json(), name


def _content(piece):
    """A piece by value: its ambient labels and primitive RREF relation rows."""
    rows = piece._sparse_rows
    return piece.ambient, tuple((p, tuple(sorted(rows[p].items()))) for p in sorted(rows))


def test_each_distinct_cell_is_induced_and_ranked_once(monkeypatch):
    # the complete-quadric_cone bench job: stages with equal pieces at (i, d)
    # induce, rank and eliminate their differential there once between them
    sc = load_scene(os.path.join(SCENES, "quadric_cone.scene"))
    depth, bound = 6, 8
    tower = completed_complex(build_de_rham(AffineScene(sc.ring, Ideal(()))), sc.ideal, depth)
    calls = {"ranked": 0, "induced": 0}
    rank_kernel_image, induced_map = complexes.rank_kernel_image, complexes.induced_map

    def rank_spy(m):
        calls["ranked"] += 1
        return rank_kernel_image(m)

    def induced_spy(*args):
        calls["induced"] += 1
        return induced_map(*args)

    monkeypatch.setattr(complexes, "rank_kernel_image", rank_spy)
    monkeypatch.setattr(complexes, "induced_map", induced_spy)
    tower_limit(tower, bound)
    monkeypatch.undo()
    ranked, induced_cells = set(), set()
    indices = tower.indices
    e = tower.stage(1).direction
    for r in range(1, depth + 1):
        stage = tower.stage(r)
        for d in range(stage.weight_floor, bound + 1):
            for i in set(indices) | {i - e for i in indices}:
                cell = (i, d, _content(stage.piece(i, d)), _content(stage.piece(i + e, d)))
                ranked.add(cell)
                if i in indices and i + e in indices:
                    induced_cells.add(cell)
    assert len(ranked) < depth * len(indices) * (bound + 1)  # stages do share cells
    assert calls == {"ranked": len(ranked), "induced": len(induced_cells)}


def test_each_distinct_piece_pair_is_induced_once(monkeypatch):
    # the complete-quadric_cone bench job: a transition between the same two
    # pieces is the same map, whichever stages hold them
    sc = load_scene(os.path.join(SCENES, "quadric_cone.scene"))
    tower = completed_complex(build_de_rham(AffineScene(sc.ring, Ideal(()))), sc.ideal, 6)
    asked, induced = set(), []
    transition_matrix, induced_map = Tower.transition_matrix, completion.induced_map

    def asked_spy(self, r, i, d):
        asked.add((r, i, d))
        return transition_matrix(self, r, i, d)

    def induced_spy(*args):
        induced.append(args)
        return induced_map(*args)

    monkeypatch.setattr(Tower, "transition_matrix", asked_spy)
    monkeypatch.setattr(completion, "induced_map", induced_spy)
    tower_limit(tower, 8)
    monkeypatch.undo()
    pairs = {(tower.stage(r + 1).piece(i, d), tower.stage(r).piece(i, d)) for r, i, d in asked}
    assert len(induced) == len(pairs) < len(asked)
