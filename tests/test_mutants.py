"""Mutants: each row breaks the mathematics one way and names the check that must catch it.

A row is (mutant, small computation, expected message).  The mutant is a
``monkeypatch`` of a builder, operator or transition; nothing under
``src/`` is edited.  The computation passes without the mutant and raises
the expected ``InternalInvariantError`` with it.
"""

import re

import pytest

from spencerlab.complexes import GradedComplex, build_de_rham, homology_table
from spencerlab.errors import InternalInvariantError
from spencerlab.homotopy import Derivation, euler_derivation
from spencerlab.rings import scene


def _cusp():
    return scene(["x", "y"], [2, 3], ["x^3 - y^2"])


def _drop_commutator_rows(monkeypatch):
    # without [d, g] rows the relations no longer span a subcomplex
    monkeypatch.setattr(GradedComplex, "_commutator_rows", lambda self, i, d: [])


def _double_derivations(monkeypatch):
    apply = Derivation.apply
    monkeypatch.setattr(Derivation, "apply", lambda self, p: apply(self, p).scale(2))


MUTANTS = [
    pytest.param(
        _drop_commutator_rows,
        lambda: homology_table(build_de_rham(_cusp()), 6),
        "de-rham: differential not well defined on the quotient at (i=0, d=6)",
        id="commutator-rows-dropped",
    ),
    pytest.param(
        _double_derivations,
        lambda: euler_derivation(_cusp()),
        "Euler identity failed on x^3 - y^2",
        id="derivation-doubled",
    ),
]


@pytest.mark.parametrize("mutate, compute, message", MUTANTS)
def test_mutant_is_caught(monkeypatch, mutate, compute, message):
    compute()
    mutate(monkeypatch)
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        compute()
