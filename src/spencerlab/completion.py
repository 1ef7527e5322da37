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
read off the ranks of the induced maps on homology: a cell is stabilized
when those maps are isomorphisms (the rank equals the dimension at both
ends) from some stage on, confirmed by at least two of them, and a cell
that has not stabilized by the last stage is reported as such instead of
being guessed.

Derived completion follows the Koszul-tower model: stage r is the Koszul
complex on the r-th powers of the ideal generators, with the standard
transition multiplying each exterior slot by its generator.
"""

from __future__ import annotations

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
from .linalg import GradedPiece, LinearMap
from .modules import PresentedModule, module_as_complex, o_piece
from .rings import AffineScene, Ideal, Polynomial, mono_mul


def ideal_power_generators(ideal: Ideal, r: int) -> tuple:
    """Products of r >= 1 generators (with repetition); generates I^r."""
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

    ``stages[k]`` is stage r = k+1; ``transition(i, d, label)``, the ambient
    map of each chain map r+1 -> r, is induced once per distinct piece pair.
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
        key = (self.stage(r + 1).piece(i, d), self.stage(r).piece(i, d))
        if key not in self._trans_cache:
            self._trans_cache[key] = induced_map(
                *key,
                lambda lbl: self.transition(i, d, lbl),
                f"{self.name}: transition {r+1}->{r} not well defined "
                f"at (i={i}, d={d})",
            )
        return self._trans_cache[key]

    def verify_chain_map(self, r: int, i: int, d: int):
        """Exact commutation of the transition with the differentials at (i, d).

        Both squares at the cell are checked: the one entering it, which
        sends boundaries to boundaries, and the one leaving it, which sends
        cycles to cycles.  A square whose far end is not an index is skipped.
        """
        upper, lower = self.stage(r + 1), self.stage(r)
        e = upper.direction
        for j in (i - e, i):
            if j not in self.indices or j + e not in self.indices:
                continue
            left = self.transition_matrix(r, j + e, d).compose(upper.differential(j, d))
            right = lower.differential(j, d).compose(self.transition_matrix(r, j, d))
            if left != right:
                raise InternalInvariantError(
                    f"{self.name}: transition {r+1}->{r} is not a chain map at "
                    f"(i={j}, d={d})"
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

    def homology_transition(self, r: int, i: int, d: int) -> int:
        """Rank of the induced map on homology H(stage r+1) -> H(stage r) at (i, d).

        The chain-map property is re-verified here; without it the induced
        map would be meaningless.  The rank is the number of independent
        classes among the images of the upper representatives.  Each image
        is reduced modulo the lower boundaries; a piece over the lower
        quotient's basis, related by the reduced images, eliminates them
        once, and its ``dim`` falls short of the quotient's by that rank.
        """
        self.verify_chain_map(r, i, d)
        if not (self.cell_dim(r + 1, i, d) and self.cell_dim(r, i, d)):
            return 0
        reps = self.homology_space(r + 1, i, d).reps
        mod_b = self.homology_space(r, i, d)._cycles_mod_b
        tmat = self.transition_matrix(r, i, d)
        images = tmat.compose(LinearMap(range(len(reps)), tmat.source_basis, reps))
        reduced = [mod_b.coords(col)[0] for col in images.int_columns]
        return mod_b.dim - GradedPiece(range(mod_b.dim), reduced).dim


class _HomologySpace:
    """ker/im at one piece, with chosen cycle representatives.

    The cycles come from the stage's cached sparse kernel of the outgoing
    differential, so that differential is eliminated once for its rank
    and its kernel.  ``_cycles_mod_b`` is the piece modulo the boundary
    span, the column span of the incoming differential: a quotient piece
    over the column indices whose relations are that differential's
    integer columns.  The representatives are the cycles that are not
    boundaries, and induced maps on homology are ranked modulo that piece.
    """

    def __init__(self, cx: GradedComplex, i: int, d: int):
        in_map = cx.differential(i - cx.direction, d)
        self._cycles_mod_b = GradedPiece(range(cx.piece(i, d).dim), in_map.int_columns)
        self.reps = [
            v for v in cx.homology_cycles(i, d) if not self._cycles_mod_b.is_relation(v)
        ]

    @property
    def dim(self) -> int:
        return len(self.reps)


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

    Each stage's cell dimension comes from :meth:`Tower.cell_dim`, and a
    transition is an isomorphism when both cell dimensions equal its rank,
    :meth:`Tower.homology_transition`, which checks the transition to be a
    chain map first.
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
                # every transition is ranked, and so checked, before any is compared
                ranks = [tower.homology_transition(r, i, d) for r in range(1, R)]
                iso = [dims[r - 1] == dims[r] == ranks[r - 1] for r in range(1, R)]
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
    return {label: 1}


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
        return Tower(name, [cx] * depth, _identity_transition)
    # raises SceneError on an inhomogeneous generator
    AffineScene(ideal.generators[0].ring, ideal)
    stages = [
        cx.with_ideal(
            cx.ideal + ideal_power_generators(ideal, r), f"{cx.name} over V(J + I^{r})"
        )
        for r in range(1, depth + 1)
    ]
    return Tower(name, stages, _identity_transition)


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

    products: dict = {}  # slot set S -> terms of the product of gens[s], s in S

    def transition(i, d, label):
        m, S = label
        if S not in products:
            mult = scene.ring.one()
            for s in S:
                mult = mult * gens[s]
            products[S] = mult.terms
        return {(mono_mul(m, mm), S): c for mm, c in products[S].items()}

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
    ambient = scene.ambient()
    report = CompletedKoszulReport()
    for r in range(1, depth + 1):
        powers = tuple(g ** r for g in scene.ideal.generators)
        elements = other.generators + powers
        kz = build_koszul(ambient, elements)
        table = homology_table(kz, bound)
        quotient = AffineScene(ring, Ideal(elements))
        for d in range(0, bound + 1):
            report.h0[(r, d)] = table.dim(0, d)
            report.oracle[(r, d)] = o_piece(quotient, d).dim
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
        build_de_rham(small.ambient()),
        build_de_rham(big.ambient()),
        report.derham_mismatches,
    )
    if spencer_order is not None:
        report.spencer_equal = compare(
            filtered_spencer(small.ring, spencer_order),
            filtered_spencer(big.ring, spencer_order),
            report.spencer_mismatches,
        )
    return report
