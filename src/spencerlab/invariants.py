"""Singularity invariants: Jacobian criterion, Milnor/Tjurina, Spencer H0.

The Milnor and Tjurina numbers are standard-monomial counts of the
Jacobian ideal without and with the defining equation; for a
weighted-homogeneous isolated singularity they coincide (Euler relation),
and milnor_tjurina asserts that instead of assuming it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import InternalInvariantError, SceneError
from .groebner import DEFAULT_PIECE_BUDGET, buchberger, quotient_dimension
from .modules import derivation_space, o_piece
from .rings import AffineScene, Ideal, Polynomial


class SmoothnessReport:
    def __init__(self, smooth: bool, witness: tuple = ()):
        self.smooth = smooth
        self.witness = witness  # Groebner basis of the singular-locus ideal

    def to_json(self) -> dict:
        out = {"smooth": self.smooth}
        if not self.smooth:
            out["singular_locus"] = [str(g) for g in self.witness]
        return out


def _jacobian_minors(scene: AffineScene) -> list:
    gens = scene.ideal.generators
    n = scene.ring.nvars
    c = len(gens)
    k = min(c, n)
    rows = [[g.partial_derivative(j) for j in range(n)] for g in gens]
    minors = []
    for rsel in combinations(range(c), k):
        for csel in combinations(range(n), k):
            minors.append(_det([[rows[i][j] for j in csel] for i in rsel]))
    return minors


def _det(mat) -> Polynomial:
    if len(mat) == 1:
        return mat[0][0]
    ring = mat[0][0].ring
    out = ring.zero()
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def jacobian_smoothness(
    scene: AffineScene, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> SmoothnessReport:
    """Smooth iff (generators, maximal Jacobian minors) is the unit ideal."""
    if scene.ideal.is_trivial:
        return SmoothnessReport(True)
    sing = Ideal(tuple(scene.ideal.generators) + tuple(_jacobian_minors(scene)))
    gb = buchberger(sing, piece_budget=piece_budget)
    if gb.is_unit_ideal():
        return SmoothnessReport(True)
    return SmoothnessReport(False, gb.generators)


class MilnorTjurina:
    def __init__(self, mu: int | None, tau: int | None, basis: tuple = ()):
        self.mu = mu            # None encodes the infinite marker
        self.tau = tau
        self.basis = basis      # standard monomials of the Jacobian ideal

    def to_json(self, ring) -> dict:
        return {
            "mu": self.mu if self.mu is not None else "infinite",
            "tau": self.tau if self.tau is not None else "infinite",
            "basis": [ring.mono_str(m) for m in self.basis],
        }


def milnor_tjurina(
    f: Polynomial, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> MilnorTjurina:
    """mu and tau of a weighted-homogeneous hypersurface germ at the origin.

    Non-isolated singularities come back with the infinite marker rather
    than an error.  For homogeneous f with both numbers finite the Euler
    relation forces mu = tau; that equality is asserted.
    """
    ring = f.ring
    if f.is_zero():
        raise SceneError("milnor_tjurina of the zero polynomial")
    if not f.is_homogeneous():
        raise SceneError("milnor_tjurina needs a weighted-homogeneous polynomial")
    partials = tuple(
        p for p in (f.partial_derivative(i) for i in range(ring.nvars))
        if not p.is_zero()
    )
    if not partials:
        return MilnorTjurina(None, None)
    jac = quotient_dimension(Ideal(partials), piece_budget=piece_budget)
    tjur = quotient_dimension(Ideal(partials + (f,)), piece_budget=piece_budget)
    mu, mu_basis = jac if jac is not None else (None, ())
    tau, _ = tjur if tjur is not None else (None, ())
    if mu is not None and tau is not None and mu != tau:
        raise InternalInvariantError(
            f"mu = {mu} != tau = {tau} for weighted-homogeneous {f}"
        )
    return MilnorTjurina(mu, tau, mu_basis)


class SpencerH0Report:
    """Degreewise dims of O_Y / alpha(T_Y), plus the Jacobian comparison.

    alpha(T_Y) is realized as the ideal generated by the values of the
    derivation-space basis elements on the coordinates; for hypersurfaces
    the table of O_Y modulo the Jacobian-ideal image is reported next to
    it (the two genuinely differ on cones, where the Euler field already
    lies in T_Y).
    """

    def __init__(self, weight_hi: int):
        self.weight_hi = weight_hi
        self.table: dict = {}  # weight -> dim
        self.jacobian_table: dict | None = None  # weight -> dim

    @property
    def matches_jacobian(self) -> bool | None:
        if self.jacobian_table is None:
            return None
        return self.table == self.jacobian_table

    def is_zero(self) -> bool:
        return not any(self.table.values())

    def to_json(self) -> dict:
        out = {
            "construction": "derivation-values",
            "weight_hi": self.weight_hi,
            "table": {str(d): v for d, v in sorted(self.table.items()) if v},
        }
        if self.jacobian_table is not None:
            out["jacobian_table"] = {
                str(d): v for d, v in sorted(self.jacobian_table.items()) if v
            }
            out["matches_jacobian"] = self.matches_jacobian
        return out


def _up_to_scalar(c: Polynomial) -> Polynomial:
    """A nonzero c scaled to coefficient 1 at its lexicographically largest exponent."""
    return c.scale(Fraction(1, c.terms[max(c.terms)]))


def spencer_h0(scene: AffineScene, bound: int) -> SpencerH0Report:
    """Degree-zero Koszul/Spencer homology O_Y / alpha(T_Y), degreewise."""
    ring = scene.ring
    # one generator per coefficient up to a nonzero scalar
    alpha_gens: list = []
    seen = set()
    for t in range(-max(ring.weights), bound + 1):
        for coeffs in derivation_space(scene, t):
            for c in coeffs:
                if c.is_zero():
                    continue
                key = _up_to_scalar(c)
                if key not in seen:
                    seen.add(key)
                    alpha_gens.append(c)
    report = SpencerH0Report(weight_hi=bound)
    quotient = AffineScene(
        ring, Ideal(tuple(scene.ideal.generators) + tuple(alpha_gens))
    )
    for d in range(0, bound + 1):
        report.table[d] = o_piece(quotient, d).dim
    if len(scene.ideal.generators) == 1:
        f = scene.ideal.generators[0]
        jac = AffineScene(
            ring,
            Ideal(
                (f,)
                + tuple(
                    p for p in (f.partial_derivative(i) for i in range(ring.nvars))
                    if not p.is_zero()
                )
            ),
        )
        report.jacobian_table = {
            d: o_piece(jac, d).dim for d in range(0, bound + 1)
        }
    return report
