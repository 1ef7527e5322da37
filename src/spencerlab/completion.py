"""Adic towers, completed complexes, and derived completion.

Completion along a weighted-homogeneous ideal with positive generator
weights is computed degreewise: the weight-d slice of I^r is empty once
r times the minimal generator weight exceeds d, so every graded piece of
an adic tower is literally constant from a finite stage on.  Towers keep
exact transition chain maps; limits are read off the induced maps on
homology with an explicit Mittag-Leffler stabilization test, and a cell
that has not stabilized by the last stage is reported as such instead of
being guessed.

Derived completion follows the Koszul-tower model: stage r is the Koszul
complex on the r-th powers of the ideal generators, with the standard
transition multiplying each exterior slot by its generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .complexes import (
    GradedComplex,
    build_de_rham,
    build_koszul,
    homology_table,
    induced_map,
)
from .errors import InternalInvariantError, SceneError
from .linalg import GradedPiece, LinearMap, rank_kernel_image, solve_columns
from .modules import PresentedModule
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


def module_as_complex(module: PresentedModule) -> GradedComplex:
    """A presented module viewed as a complex concentrated in index 0."""

    def ambient(i, d):
        return tuple(module.piece(d).ambient)

    def relations(i, d):
        return list(module.piece(d).relation_rows())

    def diff(i, d, label):
        return {}

    floor = min((w for _lbl, w in module.generators), default=0)
    return GradedComplex(
        name=f"module({module.name})",
        kind="module",
        direction=-1,
        indices=(0,),
        ambient_fn=ambient,
        relations_fn=relations,
        diff_fn=diff,
        weight_floor=min(floor, 0),
        scene=module.scene,
        meta={},
    )


# -- towers --------------------------------------------------------------------

class Tower:
    """Inverse system of graded complexes with exact transition chain maps.

    ``stages[k]`` is stage r = k+1; ``transition_fn(r)`` gives the ambient
    map of the chain map stage r+1 -> stage r.
    """

    def __init__(self, name: str, stages: list, transition_fns: list, meta=None):
        if len(transition_fns) != len(stages) - 1:
            raise InternalInvariantError("need one transition per adjacent pair")
        self.name = name
        self.stages = stages
        self.transition_fns = transition_fns
        self.meta = dict(meta or {})
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

    @property
    def weight_floor(self) -> int:
        return min(s.weight_floor for s in self.stages)

    def transition_matrix(self, r: int, i: int, d: int) -> LinearMap:
        """Induced map stage(r+1).piece(i,d) -> stage(r).piece(i,d)."""
        key = (r, i, d)
        if key not in self._trans_cache:
            fn = self.transition_fns[r - 1]
            self._trans_cache[key] = induced_map(
                self.stage(r + 1).piece(i, d),
                self.stage(r).piece(i, d),
                lambda lbl: fn(i, d, lbl),
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

        d∘d = 0 through (i, d) is checked first; then a zero
        ``homology_dim``, read off the stage's cached ranks, means every
        cycle is a boundary, and no homology space is built.
        """
        stage = self.stage(r)
        stage.check_dd_zero(i - stage.direction, d)
        if stage.homology_dim(i, d) == 0:
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
        return LinearMap.from_sparse_columns(range(n_upper), range(n_lower), cols)


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

@dataclass
class LimitReport:
    """Per-(index, weight) lim / lim^1 with explicit stabilization flags."""

    name: str
    depth: int
    weight_lo: int
    weight_hi: int
    indices: tuple
    entries: dict = field(default_factory=dict)

    def entry(self, i: int, d: int) -> dict:
        return self.entries[(i, d)]

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


def tower_limit(tower: Tower, bound: int, weight_lo: int | None = None) -> LimitReport:
    """lim and lim^1 of the homology towers, cellwise and exact.

    A cell is stabilized when the dimensions of the images of the deep
    composites H(r+k) -> H(r) repeat at their final value (Mittag-Leffler
    on finite-dimensional pieces) and that stable value is confirmed on at
    least the last two stages.  Then lim is the stable image dimension and
    lim^1 = 0; otherwise the cell reports not stabilized.

    Each stage's cell dimension comes from :meth:`Tower.cell_dim`: after
    d∘d = 0 is checked through the cell, a zero ``homology_dim`` read off
    the stage's cached ranks is the cell's dimension, and a homology space
    with representatives is built only for the other cells.
    """
    lo = tower.weight_floor if weight_lo is None else weight_lo
    report = LimitReport(
        tower.name, tower.depth, lo, bound, tower.indices
    )
    R = tower.depth
    for d in range(lo, bound + 1):
        for i in tower.indices:
            dims = [tower.cell_dim(r, i, d) for r in range(1, R + 1)]
            stabilized = False
            lim = lim1 = r0 = None
            if not any(dims):
                stabilized, lim, lim1, r0 = True, 0, 0, 1
            else:
                trans = [tower.homology_transition(r, i, d) for r in range(1, R)]
                ranks = [rank_kernel_image(t)[0] for t in trans]
                iso = [
                    dims[r - 1] == dims[r] and ranks[r - 1] == dims[r]
                    for r in range(1, R)
                ]
                # Case A: the transitions are isomorphisms from some stage on,
                # confirmed by at least two of them.
                onset = None
                for r in range(1, R):
                    if all(iso[s - 1] for s in range(r, R)):
                        onset = r
                        break
                if onset is not None and R - onset >= 2:
                    stabilized, lim, lim1, r0 = True, dims[R - 1], 0, onset
                elif R >= 3 and dims[-1] == dims[-2] == dims[-3]:
                    # Case B: Mittag-Leffler image stabilization, only
                    # meaningful once the stage dimensions themselves have
                    # settled (images into a still-growing tail say nothing).
                    stable_val: dict = {}
                    for r in range(1, R - 1):
                        comp = trans[r - 1]
                        img = [ranks[r - 1]]
                        for k in range(r + 1, R):
                            comp = comp.compose(trans[k - 1])
                            img.append(rank_kernel_image(comp)[0])
                        if len(img) >= 2 and img[-1] == img[-2]:
                            stable_val[r] = img[-1]
                    good = sorted(stable_val)
                    if len(good) >= 2 and stable_val[good[-1]] == stable_val[good[-2]]:
                        stabilized = True
                        lim = stable_val[good[-1]]
                        lim1 = 0
                        r0 = next(
                            (r for r in good
                             if all(stable_val[s] == lim for s in good if s >= r)),
                            good[0],
                        )
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


def _surjection_tower(name: str, stages: list, ideal: Ideal, kind: str) -> Tower:
    """Tower whose transitions are the natural surjections, identity on labels."""
    return Tower(
        name=name,
        stages=stages,
        transition_fns=[_identity_transition] * (len(stages) - 1),
        meta={"ideal": ideal, "kind": kind},
    )


def _require_completable(ideal: Ideal):
    if ideal.is_trivial:
        raise SceneError("completion needs a nonzero ideal")


def adic_tower(module: PresentedModule, ideal: Ideal, depth: int, bound: int) -> Tower:
    """Stages M/I^r M with the natural surjections as transitions.

    Along the zero ideal the tower is constant (M itself at every stage).
    """
    name = f"adic({module.name})"
    if ideal.is_trivial:
        stages = [module_as_complex(module)] * depth
        return _surjection_tower(name, stages, ideal, "adic")
    ring = module.scene.ring
    stages = []
    for r in range(1, depth + 1):
        extra = []
        for h in ideal_power_generators(ideal, r):
            for idx in range(len(module.generators)):
                rel = [ring.zero()] * len(module.generators)
                rel[idx] = h
                extra.append(tuple(rel))
        staged = PresentedModule(
            module.scene,
            module.generators,
            module.relations + tuple(extra),
            name=f"{module.name}/I^{r}",
        )
        stages.append(module_as_complex(staged))
    return _surjection_tower(name, stages, ideal, "adic")


def completed_complex(cx: GradedComplex, ideal: Ideal, depth: int, bound: int) -> Tower:
    """Tower of stages computing cx completed along the ideal, degreewise.

    For complexes with O-linear differentials (Koszul, filtered Spencer,
    modules) stage r is literally cx ⊗ O/I^r with differential d ⊗ id.
    The exterior derivative is not O-linear, so de Rham stages are instead
    the de Rham complexes of the infinitesimal thickenings V(I^r); the two
    inverse systems are interleaved, hence have the same limit, and every
    stage here is an honest complex.  Transitions are the natural
    surjections in both cases.  Along the zero ideal the tower is constant.
    """
    name = f"completed({cx.name})"
    if ideal.is_trivial:
        return _surjection_tower(name, [cx] * depth, ideal, "completed")
    ring = ideal.generators[0].ring

    if cx.kind == "derham":
        base = cx.scene.ideal.generators if cx.scene is not None else ()
        stages = []
        for r in range(1, depth + 1):
            thickened = AffineScene(
                ring, Ideal(tuple(base) + ideal_power_generators(ideal, r))
            )
            stage = build_de_rham(thickened)
            stage.name = f"{cx.name} on V(I^{r})"
            stage.meta["stage"] = r
            stages.append(stage)
        return _surjection_tower(name, stages, ideal, "completed-derham")

    if cx.kind == "jet" and cx.meta.get("r", 0) >= 1:
        raise SceneError(
            "completion of jet complexes of positive order is not supported "
            "(their differential is not O-linear)"
        )

    stages = []
    for r in range(1, depth + 1):
        powers = ideal_power_generators(ideal, r)

        def relations(i, d, _powers=powers):
            rels = list(cx.relations_fn(i, d)) if i in cx.indices else []
            for h in _powers:
                e = h.weighted_degree()
                for label in cx.ambient_fn(i, d - e):
                    vec: dict = {}
                    for mh, c in h.terms.items():
                        key = cx.mul_fn(i, label, mh)
                        vec[key] = vec.get(key, Fraction(0)) + c
                    rels.append(vec)
            return rels

        stages.append(
            GradedComplex(
                name=f"{cx.name} ⊗ O/I^{r}",
                kind=cx.kind,
                direction=cx.direction,
                indices=cx.indices,
                ambient_fn=cx.ambient_fn,
                relations_fn=relations,
                diff_fn=cx.diff_fn,
                weight_floor=cx.weight_floor,
                scene=cx.scene,
                meta=dict(cx.meta, stage=r),
                mul_fn=cx.mul_fn,
            )
        )
    return _surjection_tower(name, stages, ideal, "completed")


def koszul_power_tower(
    scene: AffineScene, ideal: Ideal, depth: int, fixed_elements=()
) -> Tower:
    """Stages Kos(O_Y; fixed, f_1^r, ..., f_t^r) with slotwise transitions.

    The transition stage r+1 -> r multiplies the exterior slot of f_j^r by
    f_j (and fixed slots by 1), the standard Koszul comparison map.
    """
    _require_completable(ideal)
    fixed = tuple(fixed_elements)
    nfixed = len(fixed)
    gens = ideal.generators
    stages = []
    for r in range(1, depth + 1):
        elements = fixed + tuple(g ** r for g in gens)
        stages.append(build_koszul(scene, elements))
        stages[-1].name = f"kos-stage-{r}"

    def make_transition(r):
        def transition(i, d, label):
            m, S = label
            mult = scene.ring.one()
            for s in S:
                if s >= nfixed:
                    mult = mult * gens[s - nfixed]
            return {(mono_mul(m, mm), S): c for mm, c in mult.terms.items()}

        return transition

    return Tower(
        name=f"koszul-tower({scene.ring.variables})",
        stages=stages,
        transition_fns=[make_transition(r) for r in range(1, depth)],
        meta={"ideal": ideal, "kind": "koszul-power", "fixed": fixed},
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
    raw = tower_limit(tower, bound, weight_lo=0)
    report = LimitReport(
        name=raw.name,
        depth=raw.depth,
        weight_lo=raw.weight_lo,
        weight_hi=raw.weight_hi,
        indices=tuple(sorted(-i for i in raw.indices)),
        entries={(-i, d): e for (i, d), e in raw.entries.items()},
    )
    return tower, report


@dataclass
class CompletedKoszulReport:
    """Stagewise H^0 of a completed Koszul tower against the quotient oracle."""

    name: str
    depth: int
    weight_hi: int
    h0: dict = field(default_factory=dict)        # (r, d) -> dim
    oracle: dict = field(default_factory=dict)    # (r, d) -> dim
    positive_index: dict = field(default_factory=dict)  # (r, i, d) -> dim

    @property
    def passed(self) -> bool:
        return all(
            self.h0[key] == self.oracle[key] for key in self.h0
        )

    def to_json(self) -> dict:
        return {
            "tower": self.name,
            "depth": self.depth,
            "weight_hi": self.weight_hi,
            "passed": self.passed,
            "h0_stages": {
                f"{r},{d}": v for (r, d), v in sorted(self.h0.items())
            },
            "oracle": {
                f"{r},{d}": v for (r, d), v in sorted(self.oracle.items())
            },
        }


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
    report = CompletedKoszulReport(
        name="completed-koszul-h0", depth=depth, weight_hi=bound
    )
    for r in range(1, depth + 1):
        powers = tuple(g ** r for g in scene.ideal.generators)
        elements = other.generators + powers
        kz = build_koszul(ambient, elements)
        table = homology_table(kz, bound)
        quotient = AffineScene(ring, Ideal(elements))
        from .modules import graded_component_basis

        for d in range(0, bound + 1):
            report.h0[(r, d)] = table.dim(0, d)
            report.oracle[(r, d)] = len(graded_component_basis(quotient, d))
            for i in kz.indices:
                if i >= 1:
                    report.positive_index[(r, i, d)] = table.dim(i, d)
    return report


# -- embedding independence -------------------------------------------------------

@dataclass
class IndependenceReport:
    scene_small: str
    scene_big: str
    weight_hi: int
    derham_equal: bool = True
    derham_mismatches: list = field(default_factory=list)
    spencer_equal: bool | None = None
    spencer_mismatches: list = field(default_factory=list)
    unstabilized: list = field(default_factory=list)

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


def _stabilized_limits(cx: GradedComplex, ideal: Ideal, depth: int, bound: int):
    tower = completed_complex(cx, ideal, depth, bound)
    return tower_limit(tower, bound, weight_lo=min(cx.weight_floor, 0))


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
    from .diffops import filtered_spencer

    check_extension(small, big)
    report = IndependenceReport(
        scene_small=str(small.ring.variables),
        scene_big=str(big.ring.variables),
        weight_hi=bound,
    )

    def ambient_scene(s):
        return AffineScene(s.ring, Ideal(()))

    def compare(cx_small, cx_big, mismatches):
        lim_s = _stabilized_limits(cx_small, small.ideal, depth, bound)
        lim_b = _stabilized_limits(cx_big, big.ideal, depth, bound)
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
