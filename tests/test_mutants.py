"""Mutants: each row breaks the mathematics one way and names the check that must catch it.

A row is (mutant, small computation, expected message).  The mutant is a
``monkeypatch`` of a builder, operator, transition or of a number a check
compares (a rank, a quotient dimension); nothing under ``src/`` is edited.
The computation passes without the mutant and raises the expected
``InternalInvariantError`` with it.
"""

import re

import pytest

from spencerlab import complexes, invariants
from spencerlab.completion import Tower, completed_complex, derived_completion, tower_limit
from spencerlab.complexes import GradedComplex, build_de_rham, homology_table
from spencerlab.errors import InternalInvariantError
from spencerlab.homotopy import Derivation, acyclicity_certificate, euler_derivation
from spencerlab.invariants import milnor_tjurina
from spencerlab.rings import AffineScene, Ideal, WeightedRing, parse_polynomial, scene


def _cusp():
    return scene(["x", "y"], [2, 3], ["x^3 - y^2"])


def _drop_commutator_rows(monkeypatch):
    # without [d, g] rows the relations no longer span a subcomplex
    monkeypatch.setattr(GradedComplex, "_commutator_rows", lambda self, i, d: [])


def _cusp_de_rham_tower(bound):
    # completion stages share their cells; a defect confined to one stage must
    # still be caught, and named, on that stage
    cusp = _cusp()
    cx = build_de_rham(AffineScene(cusp.ring, Ideal(())))
    return tower_limit(completed_complex(cx, cusp.ideal, 4), bound)


def _drop_stage_2_commutator_rows(monkeypatch):
    rows = GradedComplex._commutator_rows
    monkeypatch.setattr(
        GradedComplex,
        "_commutator_rows",
        lambda self, i, d: [] if "I^2" in self.name else rows(self, i, d),
    )


def _flip_dx0_sign(monkeypatch):
    # the two paths from x^m to dx_0 ∧ dx_1 no longer cancel, so d∘d != 0
    d = complexes.exterior_derivative
    monkeypatch.setattr(
        complexes,
        "exterior_derivative",
        lambda label: {k: -v for k, v in d(label).items()} if 0 in label[1] else d(label),
    )


def _double_derivations(monkeypatch):
    apply = Derivation.apply
    monkeypatch.setattr(Derivation, "apply", lambda self, p: apply(self, p).scale(2))


def _node_derived_completion():
    node = scene(["x", "y"], [1, 1], ["x^2 - y^2"])
    return derived_completion(AffineScene(node.ring, Ideal(())), node.ideal, 3, 4)


def _double_transition_at_index_1(monkeypatch):
    # H_1 of the Koszul stages is zero, so no cell at index 1 is ranked: only
    # the square entering index 0 sees the doubled transition
    init = Tower.__init__

    def doubled(self, name, stages, transition):
        def twice(i, d, label):
            out = transition(i, d, label)
            return {lbl: 2 * c for lbl, c in out.items()} if i == 1 else out

        init(self, name, stages, twice)

    monkeypatch.setattr(Tower, "__init__", doubled)


def _shift_ranks(shift):
    # a rank one too high drives a homology dimension negative; one too low
    # leaves homology on a piece the Euler homotopy certifies acyclic
    def mutate(monkeypatch):
        rank_kernel_image = complexes.rank_kernel_image

        def shifted(m):
            rank, kernel = rank_kernel_image(m)
            return max(rank + shift, 0), kernel

        monkeypatch.setattr(complexes, "rank_kernel_image", shifted)

    return mutate


def _drop_first_tjurina_generator(monkeypatch):
    # the Tjurina ideal (f_x, f_y, f) loses f_x, so tau no longer equals mu
    quotient_dimension = invariants.quotient_dimension

    def dropped(ideal, **kwargs):
        gens = ideal.generators
        return quotient_dimension(Ideal(gens[1:]) if len(gens) == 3 else ideal, **kwargs)

    monkeypatch.setattr(invariants, "quotient_dimension", dropped)


def _e8_germ():
    return milnor_tjurina(parse_polynomial("x^3 + y^5", WeightedRing(("x", "y"), (5, 3))))


MUTANTS = [
    pytest.param(
        _drop_commutator_rows,
        lambda: homology_table(build_de_rham(_cusp()), 6),
        "de-rham: differential not well defined on the quotient at (i=0, d=6)",
        id="commutator-rows-dropped",
    ),
    pytest.param(
        _drop_commutator_rows,
        lambda: acyclicity_certificate(euler_derivation(_cusp()), build_de_rham(_cusp()), 8),
        "de-rham: differential not well defined on the quotient at (i=0, d=6)",
        id="commutator-rows-dropped-certificate",
    ),
    pytest.param(
        _drop_stage_2_commutator_rows,
        lambda: _cusp_de_rham_tower(12),
        "de-rham over V(J + I^2): differential not well defined on the quotient "
        "at (i=0, d=12)",
        id="stage-2-well-definedness",
    ),
    pytest.param(
        _flip_dx0_sign,
        lambda: _cusp_de_rham_tower(8),
        "de-rham over V(J + I^1): d∘d != 0 at (i=0, d=5)",
        id="dx-sign-flipped",
    ),
    pytest.param(
        _double_transition_at_index_1,
        _node_derived_completion,
        "koszul-tower(('x', 'y')): transition 2->1 is not a chain map at (i=1, d=4)",
        id="koszul-transition-doubled",
    ),
    pytest.param(
        _double_derivations,
        lambda: euler_derivation(_cusp()),
        "Euler identity failed on x^3 - y^2",
        id="derivation-doubled",
    ),
    pytest.param(
        _shift_ranks(1),
        lambda: homology_table(build_de_rham(scene(["x"], [1])), 2),
        "de-rham: negative homology dimension at (i=0, d=0)",
        id="rank-plus-one",
    ),
    pytest.param(
        _shift_ranks(-1),
        lambda: acyclicity_certificate(euler_derivation(_cusp()), build_de_rham(_cusp()), 8),
        "certified piece (i=1, d=2) has homology 1",
        id="rank-minus-one",
    ),
    pytest.param(
        _drop_first_tjurina_generator,
        _e8_germ,
        "mu = 8 != tau = 12 for weighted-homogeneous x^3 + y^5",
        id="tjurina-generator-dropped",
    ),
]


@pytest.mark.parametrize("mutate, compute, message", MUTANTS)
def test_mutant_is_caught(monkeypatch, mutate, compute, message):
    compute()
    mutate(monkeypatch)
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        compute()
