"""Adic towers, completed complexes, and derived completion.

Completion along a weighted-homogeneous ideal I is formal completion:
stage r of a completed complex is the same complex carrying the ideal
J + I^r in place of its own ideal J, for every kind of complex.  Its
relations are read off the ideal it carries, as ideal multiples and the
commutator rows that close them under the differential, so for a complex
with an O-linear differential (Koszul, filtered Spencer, a module) the
stage is the complex tensored with O/I^r, for de Rham it is the de Rham
complex of the thickening V(J + I^r), and for jets it is the jet complex
of that thickening.  The adic tower M/I^r M of a module is the completed
complex of M in index 0.
With positive generator weights it is computed degreewise: the weight-d
slice of I^r is empty once r times the minimal generator weight exceeds
d, so every graded piece of an adic tower is literally constant from a
finite stage on.  Towers keep exact transition chain maps; limits are
read off the induced maps on homology: a cell is stabilized when those
maps are isomorphisms from some stage on, confirmed by at least two of
them, and a cell that has not stabilized by the last stage is reported as
such instead of being guessed.

Derived completion follows the Koszul-tower model: stage r is the Koszul
complex on the r-th powers of the ideal generators, with the standard
transition multiplying each exterior slot by its generator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .complexes import (
    GradedComplex,
    build_de_rham,
    build_koszul,
    homology_table,
    induced_map,
)
from .diffops import filtered_spencer
from .errors import InternalInvariantError, SceneError
from .linalg import GradedPiece, LinearMap, rank_kernel_image, solve_columns
from .modules import PresentedModule, graded_component_basis, module_as_complex
from .rings import AffineScene, Ideal, Polynomial, mono_mul


def ideal_power_generators(ideal: Ideal, r: int) -> tuple:
    """Products of r generators (with repetition); generates I^r."""
    if r == 0:
        ring = ideal.generators[0].ring
        return (ring.one(),)
    out = []
    for combo in combinations_with_replacement(ideal.generators, r):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        out.append(p)
    return tuple(out)


# -- towers --------------------------------------------------------------------

class Tower:
    """Inverse system of graded complexes with exact transition chain maps.

    ``stages[k]`` is stage r = k+1; ``transition(i, d, label)`` is the
    ambient map of every chain map stage r+1 -> stage r.
    """

    def __init__(self, name: str, stages: list, transition):
        self.name = name
        self.stages = stages
        self.transition = transition
        self._trans_cache: dict = {}
        self._hom_cache: dict = {}

    @property
    def depth(self) -> int:
        return len(self.stages)

    def stage(self, r: int) -> GradedComplex:
        return self.stages[r - 1]

    @property
    def indices(self) -> tuple:
        return self.stages[0].indices

    def transition_matrix(self, r: int, i: int, d: int) -> LinearMap:
        """Induced map stage(r+1).piece(i,d) -> stage(r).piece(i,d)."""
        key = (r, i, d)
        if key not in self._trans_cache:
            self._trans_cache[key] = induced_map(
                self.stage(r + 1).piece(i, d),
                self.stage(r).piece(i, d),
                lambda lbl: self.transition(i, d, lbl),
                f"{self.name}: transition {r+1}->{r} not well defined "
                f"at (i={i}, d={d})",
            )
        return self._trans_cache[key]

    def verify_chain_map(self, r: int, i: int, d: int):
        """Exact commutation of the transition with the differentials."""
        upper, lower = self.stage(r + 1), self.stage(r)
        j = i + upper.direction
        left = self.transition_matrix(r, j, d).compose(upper.differential(i, d))
        right = lower.differential(i, d).compose(self.transition_matrix(r, i, d))
        if left != right:
            raise InternalInvariantError(
                f"{self.name}: transition {r+1}->{r} is not a chain map at "
                f"(i={i}, d={d})"
            )

    def homology_space(self, r: int, i: int, d: int) -> "_HomologySpace":
        key = (r, i, d)
        if key not in self._hom_cache:
            self._hom_cache[key] = _HomologySpace(self.stage(r), i, d)
        return self._hom_cache[key]

    def cell_dim(self, r: int, i: int, d: int) -> int:
        """Number of chosen homology representatives of stage r at (i, d).

        A zero ``homology_dim`` (which checks d∘d = 0 into the cell), read
        off the stage's cached ranks, means every cycle is a boundary, and
        no homology space is built.
        """
        if self.stage(r).homology_dim(i, d) == 0:
            return 0
        return self.homology_space(r, i, d).dim

    def homology_transition(self, r: int, i: int, d: int) -> LinearMap:
        """Induced map on homology H(stage r+1) -> H(stage r) at (i, d).

        The chain-map property is re-verified here; without it the
        induced map would be meaningless.  The images of all upper
        representatives are expressed in one elimination.
        """
        self.verify_chain_map(r, i, d)
        n_upper, n_lower = self.cell_dim(r + 1, i, d), self.cell_dim(r, i, d)
        if not (n_upper and n_lower):
            return LinearMap.zero(range(n_upper), range(n_lower))
        upper = self.homology_space(r + 1, i, d)
        tmat = self.transition_matrix(r, i, d)
        cols = self.homology_space(r, i, d).express(
            [tmat.apply(rep) for rep in upper.reps]
        )
        return LinearMap(range(n_upper), range(n_lower), cols)


class _HomologySpace:
    """ker/im at one piece, with chosen cycle representatives.

    The cycles come from the stage's cached sparse kernel of the outgoing
    differential, so that differential is eliminated once for its rank
    and its kernel.  They are reduced modulo the boundary span, the column
    span of the incoming differential, as a quotient piece over the column
    indices whose relations are that differential's sparse columns.
    """

    def __init__(self, cx: GradedComplex, i: int, d: int):
        in_map = cx.differential(i - cx.direction, d)
        self._cycles_mod_b = GradedPiece(range(cx.piece(i, d).dim), in_map.columns)
        self.reps = []
        self._solve_cols = []
        for v in cx.homology_cycles(i, d):
            w = self._cycles_mod_b.sparse_coords(v)
            if w:
                self.reps.append(v)
                self._solve_cols.append(w)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def express(self, vecs) -> list:
        """Sparse coordinates of cycles' classes in the chosen representatives.

        All cycles are expressed in one elimination.
        """
        mod_b = self._cycles_mod_b.sparse_coords
        sols = solve_columns(self._solve_cols, [mod_b(v) for v in vecs])
        if None in sols:
            raise InternalInvariantError("class outside the homology space")
        return sols


# -- limits ---------------------------------------------------------------------

class LimitReport:
    """Per-(index, weight) lim / lim^1 with explicit stabilization flags."""

    def __init__(self, name: str, depth: int, weight_lo: int, weight_hi: int, indices: tuple):
        self.name = name
        self.depth = depth
        self.weight_lo = weight_lo
        self.weight_hi = weight_hi
        self.indices = indices
        self.entries: dict = {}  # (index, weight) -> entry

    def all_stabilized(self) -> bool:
        return all(e["stabilized"] for e in self.entries.values())

    def lim_table(self) -> dict:
        return {
            k: e["lim"] for k, e in sorted(self.entries.items())
            if e["stabilized"] and e["lim"]
        }

    def to_json(self) -> dict:
        out: dict = {str(i): {} for i in self.indices}
        for (i, d), e in sorted(self.entries.items()):
            if e["stabilized"] and not e["lim"] and not e["lim1"]:
                continue
            out[str(i)][str(d)] = {
                "lim": e["lim"],
                "lim1": e["lim1"],
                "stabilized": e["stabilized"],
                "r0": e["r0"],
                "stage_dims": e["stage_dims"],
            }
        return {
            "tower": self.name,
            "depth": self.depth,
            "weight_lo": self.weight_lo,
            "weight_hi": self.weight_hi,
            "entries": out,
        }


def tower_limit(tower: Tower, bound: int) -> LimitReport:
    """lim and lim^1 of the homology towers, cellwise and exact, from the
    towers' weight floor up to ``bound``.

    A cell is stabilized when the transitions H(r+1) -> H(r) are
    isomorphisms from some onset r0 on, confirmed by at least two of them;
    then lim is the dimension of the last stage and lim^1 = 0.  Any other
    cell reports not stabilized, with lim, lim^1 and r0 unset: stages whose
    transitions are not yet isomorphisms do not determine the limit.

    Each stage's cell dimension comes from :meth:`Tower.cell_dim`, and
    every transition is checked to be a chain map before it is ranked.
    """
    R = tower.depth
    lo = tower.stage(1).weight_floor
    report = LimitReport(tower.name, R, lo, bound, tower.indices)
    for d in range(lo, bound + 1):
        for i in tower.indices:
            dims = [tower.cell_dim(r, i, d) for r in range(1, R + 1)]
            stabilized = False
            lim = lim1 = r0 = None
            if not any(dims):
                stabilized, lim, lim1, r0 = True, 0, 0, 1
            else:
                trans = [tower.homology_transition(r, i, d) for r in range(1, R)]
                iso = [
                    dims[r - 1] == dims[r] == rank_kernel_image(trans[r - 1])[0]
                    for r in range(1, R)
                ]
                # the first stage from which every transition is an isomorphism
                onset = R
                while onset > 1 and iso[onset - 2]:
                    onset -= 1
                if R - onset >= 2:
                    stabilized, lim, lim1, r0 = True, dims[R - 1], 0, onset
            report.entries[(i, d)] = {
                "lim": lim,
                "lim1": lim1,
                "stabilized": stabilized,
                "r0": r0,
                "stage_dims": dims,
            }
    return report


# -- tower builders ---------------------------------------------------------------

def _identity_transition(i, d, label):
    return {label: Fraction(1)}


def _surjection_tower(name: str, stages: list) -> Tower:
    """Tower whose transitions are the natural surjections, identity on labels."""
    return Tower(name, stages, _identity_transition)


def _require_completable(ideal: Ideal):
    if ideal.is_trivial:
        raise SceneError("completion needs a nonzero ideal")


def adic_tower(module: PresentedModule, ideal: Ideal, depth: int) -> Tower:
    """Stages M/I^r M with the natural surjections as transitions.

    This is the completed complex of M in index 0; along the zero ideal the
    tower is constant (M itself at every stage).
    """
    return completed_complex(module_as_complex(module), ideal, depth)


def completed_complex(cx: GradedComplex, ideal: Ideal, depth: int) -> Tower:
    """Tower of stages computing cx completed along the ideal, degreewise.

    Stage r is cx carrying the ideal J' = ``cx.ideal + I^r``, that is cx
    modulo the smallest subcomplex containing J'·cx: each piece relates the
    multiples of J' and the commutator rows [d, g] of its generators, so
    every stage is an honest complex.  With an O-linear differential
    (Koszul, filtered Spencer, modules) the commutators vanish and the
    stage is cx ⊗ O/I^r with differential d ⊗ id.  For de Rham and jets
    they are the dg-wedges, so the stages are the de Rham and jet
    complexes of the infinitesimal thickenings V(J'); the two inverse
    systems are interleaved, hence have the same limit.  For the Spencer
    complex of a module the stage is C / (J'·C + d(J'·C)).  Transitions
    are the natural surjections.  Along the zero ideal the tower is
    constant.
    """
    name = f"completed({cx.name})"
    if ideal.is_trivial:
        return _surjection_tower(name, [cx] * depth)
    # raises SceneError on an inhomogeneous generator
    AffineScene(ideal.generators[0].ring, ideal)
    stages = [
        cx.with_ideal(
            cx.ideal + ideal_power_generators(ideal, r), f"{cx.name} over V(J + I^{r})"
        )
        for r in range(1, depth + 1)
    ]
    return _surjection_tower(name, stages)


def koszul_power_tower(scene: AffineScene, ideal: Ideal, depth: int) -> Tower:
    """Stages Kos(O_Y; f_1^r, ..., f_t^r) with slotwise transitions.

    The transition stage r+1 -> r multiplies the exterior slot of f_j^r by
    f_j, the standard Koszul comparison map.
    """
    _require_completable(ideal)
    gens = ideal.generators
    stages = []
    for r in range(1, depth + 1):
        stages.append(build_koszul(scene, tuple(g ** r for g in gens)))
        stages[-1].name = f"kos-stage-{r}"

    def transition(i, d, label):
        m, S = label
        mult = scene.ring.one()
        for s in S:
            mult = mult * gens[s]
        return {(mono_mul(m, mm), S): c for mm, c in mult.terms.items()}

    return Tower(
        name=f"koszul-tower({scene.ring.variables})",
        stages=stages,
        transition=transition,
    )


def derived_completion(
    module_scene: AffineScene, ideal: Ideal, depth: int, bound: int
) -> tuple[Tower, LimitReport]:
    """Derived completion of O_Y along the ideal, via the Koszul tower.

    The report uses the cochain convention: the exterior slots sit in
    negative indices, so index 0 carries the classical completion for free
    modules and ideal-torsion phenomena live in the negative range (where
    the limit must vanish exactly when torsion is absent).
    """
    _require_completable(ideal)
    tower = koszul_power_tower(module_scene, ideal, depth)
    report = tower_limit(tower, bound)
    report.indices = tuple(sorted(-i for i in report.indices))
    report.entries = {(-i, d): e for (i, d), e in report.entries.items()}
    return tower, report


class CompletedKoszulReport:
    """Stagewise H^0 of a completed Koszul tower against the quotient oracle."""

    def __init__(self):
        self.h0: dict = {}  # (r, d) -> dim
        self.oracle: dict = {}  # (r, d) -> dim
        self.positive_index: dict = {}  # (r, i, d) -> dim

    @property
    def passed(self) -> bool:
        return all(
            self.h0[key] == self.oracle[key] for key in self.h0
        )


def completed_koszul_h0(
    scene: AffineScene, other: Ideal, depth: int, bound: int
) -> CompletedKoszulReport:
    """H^0 of Kos(O_Y; J, I^r) versus the module quotient O_Y/(J + I^r).

    I is the scene ideal (the completion direction), J = ``other``.  The
    lemma being exercised says the stabilized H^0 is the completed module
    modulo J; degreewise both sides are computed independently.
    """
    _require_completable(scene.ideal)
    ring = scene.ring
    ambient = AffineScene(ring, Ideal(()))
    report = CompletedKoszulReport()
    for r in range(1, depth + 1):
        powers = tuple(g ** r for g in scene.ideal.generators)
        elements = other.generators + powers
        kz = build_koszul(ambient, elements)
        table = homology_table(kz, bound)
        quotient = AffineScene(ring, Ideal(elements))
        for d in range(0, bound + 1):
            report.h0[(r, d)] = table.dim(0, d)
            report.oracle[(r, d)] = len(graded_component_basis(quotient, d))
            for i in kz.indices:
                if i >= 1:
                    report.positive_index[(r, i, d)] = table.dim(i, d)
    return report


# -- embedding independence -------------------------------------------------------

class IndependenceReport:
    def __init__(self, scene_small: str, scene_big: str, weight_hi: int):
        self.scene_small = scene_small
        self.scene_big = scene_big
        self.weight_hi = weight_hi
        self.derham_equal = True
        self.derham_mismatches: list = []
        self.spencer_equal: bool | None = None
        self.spencer_mismatches: list = []
        self.unstabilized: list = []

    @property
    def equal(self) -> bool:
        ok = self.derham_equal and not self.unstabilized
        if self.spencer_equal is not None:
            ok = ok and self.spencer_equal
        return ok

    def to_json(self) -> dict:
        return {
            "scene_small": self.scene_small,
            "scene_big": self.scene_big,
            "weight_hi": self.weight_hi,
            "equal": self.equal,
            "derham_mismatches": [list(x) for x in self.derham_mismatches],
            "spencer_mismatches": [list(x) for x in self.spencer_mismatches],
            "unstabilized": [list(x) for x in self.unstabilized],
        }


def check_extension(small: AffineScene, big: AffineScene) -> tuple:
    """Verify big = small extended by fresh variables that generate the ideal.

    Returns the indices of the fresh variables in the big ring.
    """
    ns, nb = small.ring.nvars, big.ring.nvars
    if nb < ns:
        raise SceneError("extended scene has fewer variables")
    if big.ring.variables[:ns] != small.ring.variables or (
        big.ring.weights[:ns] != small.ring.weights
    ):
        raise SceneError("extended scene must begin with the original variables")
    fresh = tuple(range(ns, nb))
    gens_big = list(big.ideal.generators)
    for k in fresh:
        var = big.ring.var(k)
        if var not in gens_big:
            raise SceneError(
                f"fresh variable {big.ring.variables[k]} must itself be an "
                "ideal generator"
            )
        gens_big.remove(var)
    lifted = []
    for g in small.ideal.generators:
        terms = {}
        for m, c in g.terms.items():
            terms[m + (0,) * (nb - ns)] = c
        lifted.append(Polynomial(big.ring, terms))
    if sorted(map(str, gens_big)) != sorted(map(str, lifted)):
        raise SceneError(
            "extended ideal must be the original generators plus the fresh "
            "variables"
        )
    return fresh


def embedding_independence(
    small: AffineScene,
    big: AffineScene,
    depth: int,
    bound: int,
    spencer_order: int | None = None,
) -> IndependenceReport:
    """Compare completed de Rham tables of Y in two ambient spaces.

    Both completed towers are computed independently and their stabilized
    homology tables compared entry for entry (missing indices count as
    zero).  With ``spencer_order`` the completed filtered Spencer tables
    are compared as well.
    """
    check_extension(small, big)
    report = IndependenceReport(
        scene_small=str(small.ring.variables),
        scene_big=str(big.ring.variables),
        weight_hi=bound,
    )

    def ambient_scene(s):
        return AffineScene(s.ring, Ideal(()))

    def compare(cx_small, cx_big, mismatches):
        lim_s = tower_limit(completed_complex(cx_small, small.ideal, depth), bound)
        lim_b = tower_limit(completed_complex(cx_big, big.ideal, depth), bound)
        for cell in sorted(set(lim_s.entries) | set(lim_b.entries)):
            a = lim_s.entries.get(cell)
            b = lim_b.entries.get(cell)
            da = a["lim"] if a and a["stabilized"] else (0 if a is None else None)
            db = b["lim"] if b and b["stabilized"] else (0 if b is None else None)
            if da is None or db is None:
                report.unstabilized.append(cell)
            elif da != db:
                mismatches.append(cell)
        return not mismatches

    report.derham_equal = compare(
        build_de_rham(ambient_scene(small)),
        build_de_rham(ambient_scene(big)),
        report.derham_mismatches,
    )
    if spencer_order is not None:
        report.spencer_equal = compare(
            filtered_spencer(small.ring, spencer_order),
            filtered_spencer(big.ring, spencer_order),
            report.spencer_mismatches,
        )
    return report
