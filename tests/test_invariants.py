import os
from collections import Counter
from itertools import product
from math import lcm, prod

import pytest

from spencerlab.errors import SceneError
from spencerlab.invariants import jacobian_smoothness, milnor_tjurina, spencer_h0
from spencerlab.rings import parse_polynomial, scene


def test_hyperplane_is_smooth():
    s = scene(["x", "y"], [1, 1], ["x"])
    assert jacobian_smoothness(s).smooth


def test_affine_spaces_are_smooth():
    for n in range(1, 5):
        s = scene([f"x{i}" for i in range(n)], [1] * n)
        assert jacobian_smoothness(s).smooth


def test_cusp_is_singular_with_witness(cusp):
    report = jacobian_smoothness(cusp)
    assert not report.smooth
    assert sorted(str(g) for g in report.witness) == ["x^2", "y"]


def test_quadric_cone_is_singular():
    s = scene(["x", "y", "z"], [1, 1, 1], ["x^2 + y^2 - z^2"])
    assert not jacobian_smoothness(s).smooth


def test_milnor_tjurina_values(cusp, e6, node):
    mt = milnor_tjurina(cusp.ideal.generators[0])
    assert (mt.mu, mt.tau) == (2, 2)
    assert [cusp.ring.mono_str(m) for m in mt.basis] == ["1", "x"]
    assert milnor_tjurina(e6.ideal.generators[0]).mu == 6
    assert milnor_tjurina(node.ideal.generators[0]).mu == 1


def test_classical_singularity_values():
    # frozen textbook values for the corpus singularities
    cases = [
        (["x", "y"], [5, 3], "x^3 + y^5", 8),        # E8
        (["x", "y"], [1, 1], "x^3 - x*y^2", 4),      # D4
        (["x", "y"], [1, 1], "x*y", 1),              # A1 cross
        (["x", "y", "z"], [1, 1, 1], "x^2 + y^2 - z^2", 1),  # quadric cone
    ]
    for variables, weights, text, mu in cases:
        s = scene(variables, weights, [text])
        mt = milnor_tjurina(s.ideal.generators[0])
        assert mt.mu == mu and mt.tau == mu


def test_milnor_non_isolated_is_infinite():
    s = scene(["x", "y"], [1, 1], ["x^2"])
    mt = milnor_tjurina(s.ideal.generators[0])
    assert mt.mu is None and mt.tau is None


def test_milnor_equals_tjurina_on_corpus():
    corpus = [
        (["x", "y"], [2, 3], "x^3 - y^2"),
        (["x", "y"], [4, 3], "x^3 + y^4"),
        (["x", "y"], [5, 3], "x^3 + y^5"),
        (["x", "y"], [1, 1], "x^2 - y^2"),
        (["x", "y"], [1, 1], "x*y"),
        (["x", "y"], [1, 1], "x^3 - x*y^2"),
        (["x", "y", "z"], [1, 1, 1], "x^2 + y^2 - z^2"),
    ]
    for variables, weights, text in corpus:
        s = scene(variables, weights, [text])
        mt = milnor_tjurina(s.ideal.generators[0])
        assert mt.mu == mt.tau and mt.mu is not None


def test_milnor_rejects_inhomogeneous():
    s = scene(["x", "y"], [1, 1])
    with pytest.raises(SceneError):
        milnor_tjurina(parse_polynomial("x^2 + y", s.ring))


def test_milnor_algebra_graded_dimensions_sum_to_mu():
    # ties the Groebner staircase count to the degreewise elimination path
    from spencerlab.modules import o_piece
    from spencerlab.rings import AffineScene, Ideal

    corpus = [
        (["x", "y"], [2, 3], "x^3 - y^2", 12),
        (["x", "y"], [4, 3], "x^3 + y^4", 20),
        (["x", "y"], [1, 1], "x^2 - y^2", 6),
        (["x", "y"], [1, 1], "x^3 - x*y^2", 8),
    ]
    for variables, weights, text, top in corpus:
        s = scene(variables, weights, [text])
        f = s.ideal.generators[0]
        partials = tuple(
            p for p in (f.partial_derivative(i) for i in range(s.ring.nvars))
            if not p.is_zero()
        )
        mt = milnor_tjurina(f)
        jac_scene = AffineScene(s.ring, Ideal(partials))
        graded_total = sum(
            o_piece(jac_scene, d).dim for d in range(0, top + 1)
        )
        assert graded_total == mt.mu
        # the standard monomial basis is itself weight-compatible
        for d in range(0, top + 1):
            from_staircase = sum(
                1 for m in mt.basis if s.ring.mono_weight(m) == d
            )
            assert from_staircase == o_piece(jac_scene, d).dim


def test_spencer_h0_smooth_scenes_are_zero(a1, a2):
    assert spencer_h0(a1, 8).is_zero()
    assert spencer_h0(a2, 8).is_zero()


def test_spencer_h0_cusp_reports_comparison(cusp):
    report = spencer_h0(cusp, 8)
    assert report.table[0] == 1  # constants survive: alpha(T) = (x, y)
    assert all(report.table[d] == 0 for d in range(1, 9))
    # the Jacobian-image quotient (Tjurina algebra) genuinely differs
    assert report.jacobian_table is not None
    assert report.matches_jacobian is False
    assert sum(report.jacobian_table.values()) == 2


def test_spencer_h0_hyperplane_zero():
    s = scene(["x", "y"], [1, 1], ["x"])
    assert spencer_h0(s, 6).is_zero()


def _brieskorn_pham():
    """x^a + y^b for a, b in 2..6 and x^a + y^b + z^c for a, b, c in 2..4."""
    yield from product(range(2, 7), repeat=2)
    yield from product(range(2, 5), repeat=3)


@pytest.mark.parametrize("exps", list(_brieskorn_pham()))
def test_brieskorn_pham_milnor_orlik_and_saito(exps):
    names = ["x", "y", "z"][: len(exps)]
    d = lcm(*exps)
    weights = [d // a for a in exps]
    f = " + ".join(f"{v}^{a}" for v, a in zip(names, exps))
    sc = scene(names, weights, [f])
    mt = milnor_tjurina(sc.ideal.generators[0])
    # Milnor–Orlik: mu = prod(d / w_i - 1); tau = mu for a weighted-homogeneous f
    mu = prod(d // w - 1 for w in weights)
    assert (mt.mu, mt.tau) == (mu, mu)
    # Saito: the basis weights have generating function
    # prod (1 - t^(d - w_i)) / (1 - t^w_i), expanded here as a power series
    top = sum(d - 2 * w for w in weights) + max(weights)
    series = [1] + [0] * top
    for w in weights:
        for n in range(top, d - w - 1, -1):  # times 1 - t^(d - w)
            series[n] -= series[n - (d - w)]
        for n in range(w, top + 1):  # divided by 1 - t^w
            series[n] += series[n - w]
    counts = Counter(sum(e * w for e, w in zip(m, weights)) for m in mt.basis)
    assert [counts[n] for n in range(top + 1)] == series
    assert len(mt.basis) == mu


def _proportional(p, q) -> bool:
    if p.terms.keys() != q.terms.keys():
        return False
    m0 = next(iter(p.terms))
    return all(p.terms[m] * q.terms[m0] == q.terms[m] * p.terms[m0] for m in p.terms)


@pytest.mark.parametrize("name", ["quadric_cone", "whitney"])
def test_spencer_h0_generators_are_not_proportional(monkeypatch, name):
    from spencerlab import invariants
    from spencerlab.scenes import load_scene

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes", f"{name}.scene")
    ideals = []
    ideal = invariants.Ideal

    def capture(generators):
        ideals.append(generators)
        return ideal(generators)

    monkeypatch.setattr(invariants, "Ideal", capture)
    invariants.spencer_h0(load_scene(path), 6)
    generators = ideals[0]
    assert len(generators) > 10
    for k, p in enumerate(generators):
        for q in generators[k + 1:]:
            assert not _proportional(p, q), (p, q)
