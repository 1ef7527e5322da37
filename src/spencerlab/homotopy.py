"""Euler vector fields, Cartan calculus, and acyclicity certificates.

On a weighted cone the Euler field Xi = sum w_i x_i d_i is tangent to the
cone and its Lie derivative acts on every weight-d homogeneous element as
multiplication by d.  Every certificate here takes the Cartan operator
L = d∘iota + iota∘d of a contraction iota; where L is bijective,
h = iota ∘ L^{-1} is an explicit contracting homotopy, and a per-piece
certificate records that homology vanishes there.  The certificate never
builds a Lie derivative: :func:`cartan_check` is what ties L to it.

On form complexes iota is the contraction with the derivation, and the
Cartan identity L = L_xi is checked piece by piece; for the Euler field
the certificate also checks L = d·id.  For jet complexes the form-slot
contraction does not change the jet order, so the homotopy is driven
instead by the delta-slot contraction (raise the delta exponent while
contracting the form slot).  Its Cartan operator is upper triangular in
the delta filtration with diagonal entries (form degree + delta degree),
hence invertible in positive form degrees; :func:`cartan_check` checks
that shape on ambient labels and that the Euler Lie action is weight·id.
Which flavor certified each piece is recorded in the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .complexes import (
    GradedComplex,
    _multi_indices,
    divided_derivative,
    insert_sign,
    remove_sign,
    subset_weight,
)
from .errors import InternalInvariantError, SceneError
from .linalg import LinearMap, rank_kernel_image
from .modules import in_ideal_degreewise
from .rings import INHOMOGENEOUS, AffineScene, Polynomial, mono_mul


@dataclass(frozen=True)
class Derivation:
    """A weight-homogeneous derivation of O_Y, given by its coefficients."""

    scene: AffineScene
    coefficients: tuple  # one Polynomial per ambient variable

    def __post_init__(self):
        ring = self.scene.ring
        if len(self.coefficients) != ring.nvars:
            raise SceneError("one coefficient per variable required")
        weights = set()
        for i, c in enumerate(self.coefficients):
            if c.is_zero():
                continue
            e = c.weighted_degree()
            if e == INHOMOGENEOUS:
                raise SceneError(f"coefficient of d_{ring.variables[i]} inhomogeneous")
            weights.add(e - ring.weights[i])
        if len(weights) > 1:
            raise SceneError("derivation is not weight-homogeneous")
        object.__setattr__(self, "_weight", weights.pop() if weights else 0)
        # Jacobian d(xi_s)/dx_k, read by every Lie derivative of a form label
        object.__setattr__(self, "_jacobian", tuple(
            tuple(c.partial_derivative(k) for k in range(ring.nvars))
            for c in self.coefficients
        ))
        for g in self.scene.ideal.generators:
            if not in_ideal_degreewise(self.scene, self.apply(g)):
                raise SceneError(
                    f"derivation is not tangent to the ideal: fails on {g}"
                )

    @property
    def weight(self) -> int:
        return self._weight

    def apply(self, p: Polynomial) -> Polynomial:
        out = p.ring.zero()
        for i, c in enumerate(self.coefficients):
            if not c.is_zero():
                out = out + c * p.partial_derivative(i)
        return out

    def bracket(self, other: Derivation) -> Derivation:
        """Commutator [self, other], again a derivation of O_Y."""
        coeffs = tuple(
            self.apply(other.coefficients[i]) - other.apply(self.coefficients[i])
            for i in range(self.scene.ring.nvars)
        )
        return Derivation(self.scene, coeffs)

    def is_euler(self) -> bool:
        ring = self.scene.ring
        return all(
            self.coefficients[i] == ring.var(i).scale(ring.weights[i])
            for i in range(ring.nvars)
        )

    def __str__(self):
        ring = self.scene.ring
        parts = [
            f"({c})*d_{ring.variables[i]}"
            for i, c in enumerate(self.coefficients)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def euler_derivation(scene: AffineScene) -> Derivation:
    """Xi = sum w_i x_i d_i; tangency Xi(g) = deg(g)·g is verified exactly."""
    ring = scene.ring
    xi = Derivation(
        scene,
        tuple(ring.var(i).scale(ring.weights[i]) for i in range(ring.nvars)),
    )
    for g in scene.ideal.generators:
        if xi.apply(g) != g.scale(g.weighted_degree()):
            raise InternalInvariantError(f"Euler identity failed on {g}")
    return xi


# -- ambient-level operator formulas ------------------------------------------

def _form_lie(xi: Derivation, label) -> dict:
    """Lie derivative on a form label (monomial, S), as an ambient vector."""
    m, S = label
    out: dict = {}
    # xi(x^m) = sum_i m_i xi_i x^(m - e_i): one exponent shift per variable
    for i, e in enumerate(m):
        if not e:
            continue
        shifted = m[:i] + (e - 1,) + m[i + 1:]
        for mm, c in xi.coefficients[i].terms.items():
            key = (mono_mul(shifted, mm), S)
            out[key] = out.get(key, Fraction(0)) + e * c
    for t, s in enumerate(S):
        # dx_s at slot t becomes d(xi_s) = sum_k (d xi_s / dx_k) dx_k
        outer, rest = remove_sign(t, S)
        for k, coeff in enumerate(xi._jacobian[s]):
            if coeff.is_zero():
                continue
            inner, Snew = insert_sign(k, rest)
            if inner is None:
                continue
            sign = outer * inner
            for mm, c in coeff.terms.items():
                key = (mono_mul(m, mm), Snew)
                out[key] = out.get(key, Fraction(0)) + sign * c
    return out


def _form_contraction(xi: Derivation, label) -> dict:
    m, S = label
    out: dict = {}
    for t, s in enumerate(S):
        sign, rest = remove_sign(t, S)
        for mm, c in xi.coefficients[s].terms.items():
            key = (mono_mul(m, mm), rest)
            out[key] = out.get(key, Fraction(0)) + sign * c
    return out


def _jet_lie_diag(xi: Derivation, label, jet_order: int) -> dict:
    """Diagonal Lie action on a jet label (S, c, beta).

    Acts by the form Lie derivative on dx_S, by xi on the coefficient
    factor, and on each delta slot through the Taylor expansion
    delta(h) = sum_{|a|>=1} (-1)^{|a|+1} (d^a h / a!) delta^a.
    """
    S, c, beta = label
    ring = xi.scene.ring
    n = ring.nvars
    out: dict = {}

    def add(S2, cpoly, beta2, scalar=1):
        for mm, cc in cpoly.terms.items():
            key = (S2, mm, beta2)
            out[key] = out.get(key, Fraction(0)) + scalar * cc

    # form slot and coefficient slot together (xi(c) plus d(xi) insertions)
    for lbl, cc in _form_lie(xi, (c, S)).items():
        mm, S2 = lbl
        key = (S2, mm, beta)
        out[key] = out.get(key, Fraction(0)) + cc
    # delta slots: diag(delta^beta) via delta(h) = sum (-1)^(|a|+1) (d^a h/a!) delta^a
    for j in range(n):
        if beta[j] == 0:
            continue
        base = list(beta)
        base[j] -= 1
        h = xi.coefficients[j]
        for alpha in _multi_indices(n, jet_order - sum(base)):
            if sum(alpha) < 1:
                continue
            part = divided_derivative(h, alpha)
            if part.is_zero():
                continue
            sign = (-1) ** (sum(alpha) + 1)
            beta2 = mono_mul(tuple(base), alpha)
            if sum(beta2) > jet_order:
                continue
            add(S, xi.scene.ring.monomial(c) * part.scale(sign * beta[j]), beta2)
    return out


def _jet_contraction(label) -> dict:
    """Delta-slot contraction: contract the form slot, raise delta there."""
    S, c, beta = label
    out: dict = {}
    for t, s in enumerate(S):
        sign, rest = remove_sign(t, S)
        b2 = list(beta)
        b2[s] += 1
        key = (rest, c, tuple(b2))
        out[key] = out.get(key, Fraction(0)) + Fraction(sign)
    return out


# -- induced matrices ----------------------------------------------------------

def _is_form_complex(cx: GradedComplex) -> bool:
    return cx.kind == "derham" or (cx.kind == "jet" and cx.meta.get("r") == 0)


def lie_derivative_matrix(xi: Derivation, cx: GradedComplex, i: int, d: int) -> LinearMap:
    """L_xi from the (i, d) piece to the (i, d + weight(xi)) piece.

    For the Euler field this is multiplication by d on every piece.
    """
    if _is_form_complex(cx):
        return cx.induced((i, d), (i, d + xi.weight),
                          lambda lbl: _form_lie(xi, lbl), what="Lie derivative")
    if cx.kind == "jet":
        r = cx.meta["r"]
        return cx.induced(
            (i, d), (i, d + xi.weight),
            lambda lbl: _jet_lie_diag(xi, lbl, r - i),
            what="Lie derivative",
        )
    raise SceneError(f"Lie derivative unsupported on kind {cx.kind!r}")


def interior_product_matrix(
    xi: Derivation, cx: GradedComplex, i: int, d: int
) -> LinearMap:
    """iota_xi: piece (i, d) -> piece (i-1, d + weight(xi)), first slot."""
    if i < 1:
        raise SceneError("interior product needs form degree >= 1")
    if _is_form_complex(cx):
        return cx.induced(
            (i, d), (i - 1, d + xi.weight),
            lambda lbl: _form_contraction(xi, lbl),
            what="interior product",
        )
    if cx.kind == "jet":
        def fn(lbl):
            S, c, beta = lbl
            return {(rest, mm, beta): cc
                    for (mm, rest), cc in _form_contraction(xi, (c, S)).items()}

        return cx.induced((i, d), (i - 1, d + xi.weight), fn,
                          what="interior product")
    raise SceneError(f"interior product unsupported on kind {cx.kind!r}")


def jet_contraction_matrix(cx: GradedComplex, i: int, d: int) -> LinearMap:
    if cx.kind != "jet" or cx.meta.get("r", 0) < 1:
        raise SceneError("jet contraction only applies to jet complexes of order >= 1")
    if i < 1:
        raise SceneError("jet contraction needs form degree >= 1")
    return cx.induced((i, d), (i - 1, d), _jet_contraction, what="jet contraction")


def _cartan_operator(cx: GradedComplex, op, i: int, d: int, shift: int = 0) -> LinearMap:
    """d∘op + op∘d from the piece (i, d) to the piece (i, d + shift).

    ``op(j, e)`` maps the piece (j, e) to the piece (j - 1, e + shift).
    The op∘d term is left out where the piece (i + 1, d) is zero, so
    ``op`` is never asked to descend from a zero piece.
    """
    total = LinearMap.zero(cx.piece(i, d).basis, cx.piece(i, d + shift).basis)
    if i - 1 in cx.indices:
        total = total.add(cx.differential(i - 1, d + shift).compose(op(i, d)))
    if cx.piece(i + 1, d).dim:
        total = total.add(op(i + 1, d).compose(cx.differential(i, d)))
    return total


# -- reports -------------------------------------------------------------------

@dataclass
class CartanReport:
    complex_name: str
    derivation: str
    weight_bound: int
    identity: str
    checked: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "complex": self.complex_name,
            "derivation": self.derivation,
            "weight_bound": self.weight_bound,
            "identity": self.identity,
            "pieces_checked": len(self.checked),
            "passed": self.passed,
            "violations": [list(v) for v in self.violations],
        }


def cartan_check(xi: Derivation, cx: GradedComplex, bound: int) -> CartanReport:
    """Exact verification of the Cartan identity on every graded piece.

    Form complexes: d∘iota_xi + iota_xi∘d = L_xi on all (i, d), i >= 0,
    weights up to the bound (at i = 0 the identity reads iota∘d = L).
    Jet complexes (r >= 1): the delta-slot contraction satisfies
    d∘iota + iota∘d = (form degree + delta degree) + strictly
    delta-raising terms; the triangular shape is checked on ambient
    labels and the Euler Lie action is checked to be weight·id.
    """
    if _is_form_complex(cx):
        report = CartanReport(cx.name, str(xi), bound, "L = d∘iota + iota∘d")
        iota = cache(lambda i, d: interior_product_matrix(xi, cx, i, d))
        for d in range(cx.weight_floor, bound + 1):
            for i in cx.indices:
                if cx.piece(i, d).dim == 0:
                    continue
                lie = lie_derivative_matrix(xi, cx, i, d)
                report.checked.append((i, d))
                if _cartan_operator(cx, iota, i, d, xi.weight) != lie:
                    report.violations.append((i, d))
        return report

    if cx.kind == "jet":
        report = CartanReport(
            cx.name, str(xi), bound,
            "d∘iota_J + iota_J∘d = (i + |beta|)·id + delta-raising; "
            "Euler Lie action = weight·id",
        )
        r = cx.meta["r"]
        # ambient-level triangularity of the delta-contraction Cartan operator
        for i in cx.indices:
            if i < 1:
                continue
            for d in range(cx.weight_floor, bound + 1):
                for label in cx.ambient_fn(i, d):
                    S, c, beta = label
                    acc: dict = {}
                    for lbl, cc in _jet_contraction(label).items():
                        for lbl2, cc2 in cx.diff_fn(i - 1, d, lbl).items():
                            acc[lbl2] = acc.get(lbl2, Fraction(0)) + cc * cc2
                    if i + 1 in cx.indices:
                        for lbl, cc in cx.diff_fn(i, d, label).items():
                            for lbl2, cc2 in _jet_contraction(lbl).items():
                                acc[lbl2] = acc.get(lbl2, Fraction(0)) + cc * cc2
                    acc = {k: v for k, v in acc.items() if v}
                    diag = acc.pop(label, Fraction(0))
                    ok = diag == len(S) + sum(beta)
                    ok = ok and all(sum(b2) > sum(beta) for (_s2, _c2, b2) in acc)
                    report.checked.append((i, d, label))
                    if not ok:
                        report.violations.append((i, d))
        # Euler Lie action is multiplication by the weight, piece by piece
        for d in range(cx.weight_floor, bound + 1):
            for i in cx.indices:
                if cx.piece(i, d).dim == 0:
                    continue
                lie = lie_derivative_matrix(xi, cx, i, d)
                expected = LinearMap.identity(cx.piece(i, d).basis).scale(d)
                if xi.is_euler() and lie != expected:
                    report.violations.append((i, d))
        return report

    raise SceneError(f"cartan_check unsupported on kind {cx.kind!r}")


@dataclass
class AcyclicityCertificate:
    complex_name: str
    derivation: str
    weight_bound: int
    flavor: str
    certified: dict = field(default_factory=dict)  # (i, d) -> homology dim (0)
    refused: list = field(default_factory=list)    # ((i, d), reason)

    @property
    def valid(self) -> bool:
        return not self.refused

    def form_degrees(self) -> tuple:
        return tuple(sorted({i for (i, _d) in self.certified}))

    def to_json(self) -> dict:
        return {
            "complex": self.complex_name,
            "derivation": self.derivation,
            "weight_bound": self.weight_bound,
            "flavor": self.flavor,
            "valid": self.valid,
            "pieces_certified": len(self.certified),
            "form_degrees": list(self.form_degrees()),
            "refused": [[list(pos), reason] for pos, reason in self.refused],
        }


def acyclicity_certificate(
    xi: Derivation, cx: GradedComplex, bound: int
) -> AcyclicityCertificate:
    """Certify H^i_d = 0 for i >= 1, d <= bound via h = iota∘L^{-1}.

    L = d∘iota + iota∘d is the Cartan operator of the flavor's
    contraction; no Lie derivative is built here (:func:`cartan_check`
    ties L to it).  Every certified piece records three exact matrix
    facts: L is bijective there, d∘h + h∘d is the identity, and the
    independently computed homology dimension is zero.
    """
    if _is_form_complex(cx):
        if xi.weight != 0:
            raise SceneError("acyclicity certificates need a weight-zero derivation")
        flavor = "euler-contraction"
        iota = cache(lambda i, d: interior_product_matrix(xi, cx, i, d))
    elif cx.kind == "jet":
        flavor = "jet-contraction"
        iota = cache(lambda i, d: jet_contraction_matrix(cx, i, d))
    else:
        raise SceneError(f"certificates unsupported on kind {cx.kind!r}")

    euler = flavor == "euler-contraction" and xi.is_euler()
    cert = AcyclicityCertificate(cx.name, str(xi), bound, flavor)
    positive = [i for i in cx.indices if i >= 1]
    for d in range(cx.weight_floor, bound + 1):
        # L must be invertible on every nonzero piece entering the identity.
        L_inv: dict = {}
        for i in positive:
            piece = cx.piece(i, d)
            if piece.dim == 0:
                continue
            try:
                L = _cartan_operator(cx, iota, i, d)
            except InternalInvariantError:
                # The contraction does not descend to this quotient piece
                # (jets of order >= 2 on singular scenes); refuse honestly.
                cert.refused.append(
                    ((i, d), "contraction not well defined on the quotient")
                )
                continue
            if euler and L != LinearMap.identity(piece.basis).scale(d):
                cert.refused.append(((i, d), "Euler Lie action is not weight·id"))
                continue
            if rank_kernel_image(L)[0] != piece.dim:
                cert.refused.append(((i, d), "L singular"))
                continue
            L_inv[i] = L.inverse()
        h = {i: iota(i, d).compose(inv) for i, inv in L_inv.items()}
        for i in positive:
            if cx.piece(i, d).dim == 0:
                cert.certified[(i, d)] = 0
                continue
            if i not in L_inv:
                continue  # already refused above
            if cx.piece(i + 1, d).dim and i + 1 not in L_inv:
                cert.refused.append(((i, d), f"L singular at form degree {i + 1}"))
                continue
            if not _cartan_operator(cx, lambda j, _e: h[j], i, d).is_identity():
                cert.refused.append(((i, d), "d∘h + h∘d != id"))
                continue
            hdim = cx.homology_dim(i, d)
            if hdim != 0:
                raise InternalInvariantError(
                    f"certified piece (i={i}, d={d}) has homology {hdim}"
                )
            cert.certified[(i, d)] = 0
    return cert


# -- contraction pairing -------------------------------------------------------

@dataclass
class PairingReport:
    nvars: int
    polyvector_degree: int
    weight_bound: int
    checked: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def bijective(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "n": self.nvars,
            "i": self.polyvector_degree,
            "weight_bound": self.weight_bound,
            "bijective": self.bijective,
            "weights_checked": self.checked,
            "failures": self.failures,
        }


def contraction_pairing(
    n: int, i: int, bound: int, weights: tuple | None = None
) -> PairingReport:
    """Verify vol ⊗ ∧^i T -> Omega^(n-i) is bijective on each weight piece.

    The contraction inserts the polyvector slots into the volume form one
    at a time (last slot first); on the free module this sends the basis
    polyvector d_T to ± dx_(complement of T).
    """
    from itertools import combinations

    from .rings import WeightedRing

    if not 0 <= i <= n:
        raise SceneError(f"polyvector degree {i} out of range 0..{n}")
    ring = WeightedRing(
        tuple(f"x{k+1}" for k in range(n)),
        tuple(weights) if weights is not None else (1,) * n,
    )
    wtot = sum(ring.weights)
    report = PairingReport(n, i, bound)
    full = tuple(range(n))
    for d in range(0, bound + 1):
        source = []
        columns = []
        for T in combinations(range(n), i):
            comp = tuple(k for k in full if k not in T)
            sign = 1
            remaining = list(full)
            for t in reversed(T):  # contract the first slot with d_{t_1} last
                pos = remaining.index(t)
                sign *= (-1) ** pos
                remaining.remove(t)
            # source weight d: w(m) + w(vol) - w(T) = d
            for m in ring.monomials_of_weight(d - wtot + subset_weight(ring, T)):
                source.append((m, T))
                columns.append(((m, comp), sign))
        target = []
        for S in combinations(range(n), n - i):
            for m in ring.monomials_of_weight(d - subset_weight(ring, S)):
                target.append((m, S))
        target.sort(key=lambda t: (t[1], t[0]))
        report.checked.append(d)
        if len(source) != len(target):
            report.failures.append(d)
            continue
        if not source:
            continue
        index = {lbl: k for k, lbl in enumerate(target)}
        cols = [{index[lbl]: Fraction(sign)} for lbl, sign in columns]
        themap = LinearMap.from_sparse_columns(source, target, cols)
        if rank_kernel_image(themap)[0] != len(source):
            report.failures.append(d)
    return report
