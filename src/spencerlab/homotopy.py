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

from functools import partial

from .complexes import (
    GradedComplex,
    _multi_indices,
    contraction,
    divided_derivative,
    insert_sign,
    remove_sign,
)
from .errors import InternalInvariantError, NotWellDefinedError, SceneError, SingularMapError
from .linalg import LinearMap
from .modules import o_piece
from .rings import INHOMOGENEOUS, AffineScene, Polynomial, _Value, mono_mul


class Derivation(_Value):
    """A weight-homogeneous derivation of O_Y, given by its coefficients."""

    _fields = ("scene", "coefficients")  # coefficients: one Polynomial per ambient variable

    def __init__(self, scene: AffineScene, coefficients: tuple):
        ring = scene.ring
        if len(coefficients) != ring.nvars:
            raise SceneError("one coefficient per variable required")
        weights = set()
        for i, c in enumerate(coefficients):
            if c.is_zero():
                continue
            e = c.weighted_degree()
            if e == INHOMOGENEOUS:
                raise SceneError(f"coefficient of d_{ring.variables[i]} inhomogeneous")
            weights.add(e - ring.weights[i])
        if len(weights) > 1:
            raise SceneError("derivation is not weight-homogeneous")
        (weight,) = weights or {0}
        jacobian = tuple(  # d(xi_s)/dx_k, read by every Lie derivative of a form label
            tuple(c.partial_derivative(k) for k in range(ring.nvars)) for c in coefficients
        )
        super().__init__(scene, coefficients, _weight=weight, _jacobian=jacobian)
        for g in scene.ideal.generators:
            image = self.apply(g)  # zero or homogeneous
            if image.terms and not o_piece(scene, image.weighted_degree()).is_relation(image.terms):
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
    """Lie derivative on a form label (monomial, S, ...), as an ambient vector.

    Trailing label parts (the delta exponent of a jet) pass through.
    """
    m, S = label[:2]
    tail = label[2:]
    out: dict = {}
    # xi(x^m) = sum_i m_i xi_i x^(m - e_i): one exponent shift per variable
    for i, e in enumerate(m):
        if not e:
            continue
        shifted = m[:i] + (e - 1,) + m[i + 1:]
        for mm, c in xi.coefficients[i].terms.items():
            key = (mono_mul(shifted, mm), S) + tail
            out[key] = out.get(key, 0) + e * c
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
                key = (mono_mul(m, mm), Snew) + tail
                out[key] = out.get(key, 0) + sign * c
    return out


def _jet_lie_diag(xi: Derivation, label, jet_order: int) -> dict:
    """Diagonal Lie action on a jet label (c, S, beta).

    Acts by the form Lie derivative on dx_S, by xi on the coefficient
    factor, and on each delta slot through the Taylor expansion
    delta(h) = sum_{|a|>=1} (-1)^{|a|+1} (d^a h / a!) delta^a.
    """
    c, S, beta = label
    n = xi.scene.ring.nvars
    # form slot and coefficient slot together (xi(c) plus d(xi) insertions)
    out = _form_lie(xi, label)

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
            for mm, cc in part.mul_mono(c, sign * beta[j]).terms.items():
                key = (mm, S, beta2)
                out[key] = out.get(key, 0) + cc
    return out


def _jet_contraction(label) -> dict:
    """Delta-slot contraction: contract the form slot, raise delta there."""
    c, S, beta = label
    out: dict = {}
    for t, s in enumerate(S):
        sign, rest = remove_sign(t, S)
        b2 = list(beta)
        b2[s] += 1
        key = (c, rest, tuple(b2))
        out[key] = out.get(key, 0) + sign
    return out


# -- induced matrices ----------------------------------------------------------

def lie_derivative_matrix(xi: Derivation, cx: GradedComplex, i: int, d: int) -> LinearMap:
    """L_xi from the (i, d) piece to the (i, d + weight(xi)) piece.

    For the Euler field this is multiplication by d on every piece.
    """
    if cx.kind == "derham":
        fn = partial(_form_lie, xi)
    elif cx.kind == "jet":
        fn = partial(_jet_lie_diag, xi, jet_order=cx.meta["r"] - i)
    else:
        raise SceneError(f"Lie derivative unsupported on kind {cx.kind!r}")
    return cx.induced(("lie", xi), (i, d), (i, d + xi.weight), fn, what="Lie derivative")


def interior_product_matrix(
    xi: Derivation, cx: GradedComplex, i: int, d: int
) -> LinearMap:
    """iota_xi: piece (i, d) -> piece (i-1, d + weight(xi)), first slot."""
    if i < 1:
        raise SceneError("interior product needs form degree >= 1")
    if cx.kind not in ("derham", "jet"):
        raise SceneError(f"interior product unsupported on kind {cx.kind!r}")
    return cx.induced(
        ("iota", xi), (i, d), (i - 1, d + xi.weight),
        lambda lbl: contraction(xi.coefficients, lbl),
        what="interior product",
    )


def jet_contraction_matrix(cx: GradedComplex, i: int, d: int) -> LinearMap:
    if cx.kind != "jet":
        raise SceneError("jet contraction only applies to jet complexes of order >= 1")
    if i < 1:
        raise SceneError("jet contraction needs form degree >= 1")
    return cx.induced(
        "jet contraction", (i, d), (i - 1, d), _jet_contraction, what="jet contraction"
    )


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

class CartanReport:
    def __init__(
        self, complex_name: str, derivation: str, weight_bound: int, identity: str
    ):
        self.complex_name = complex_name
        self.derivation = derivation
        self.weight_bound = weight_bound
        self.identity = identity
        self.checked: list = []
        self.violations: list = []

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
    if cx.kind == "derham":
        report = CartanReport(cx.name, str(xi), bound, "L = d∘iota + iota∘d")
        iota = partial(interior_product_matrix, xi, cx)
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
        # ambient-level triangularity of the delta-contraction Cartan operator
        for i in cx.indices:
            if i < 1:
                continue
            for d in range(cx.weight_floor, bound + 1):
                for label in cx.ambient(i, d):
                    _c, S, beta = label
                    acc: dict = {}
                    for lbl, cc in _jet_contraction(label).items():
                        for lbl2, cc2 in cx.diff_fn(i - 1, lbl).items():
                            acc[lbl2] = acc.get(lbl2, 0) + cc * cc2
                    if i + 1 in cx.indices:
                        for lbl, cc in cx.diff_fn(i, label).items():
                            for lbl2, cc2 in _jet_contraction(lbl).items():
                                acc[lbl2] = acc.get(lbl2, 0) + cc * cc2
                    acc = {k: v for k, v in acc.items() if v}
                    diag = acc.pop(label, 0)
                    ok = diag == len(S) + sum(beta)
                    ok = ok and all(sum(b2) > sum(beta) for (_c2, _s2, b2) in acc)
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


class AcyclicityCertificate:
    def __init__(self, complex_name: str, derivation: str, weight_bound: int, flavor: str):
        self.complex_name = complex_name
        self.derivation = derivation
        self.weight_bound = weight_bound
        self.flavor = flavor
        self.certified: dict = {}  # (i, d) -> homology dim (0)
        self.refused: list = []  # ((i, d), reason)

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
    independently computed homology dimension is zero.  A piece is refused
    only by a named test: the contraction does not descend to it, L is not
    weight·id (Euler), L is singular, or d∘h + h∘d is not the identity.  The
    complex's own differentials and d∘d = 0 are checked outside every
    refusal, so a broken complex raises.
    """
    if cx.kind == "derham":
        if xi.weight != 0:
            raise SceneError("acyclicity certificates need a weight-zero derivation")
        flavor = "euler-contraction"
        iota = partial(interior_product_matrix, xi, cx)
    elif cx.kind == "jet":
        flavor = "jet-contraction"
        iota = partial(jet_contraction_matrix, cx)
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
            # the differentials L reads, checked outside the try: a complex
            # that is not one raises, it is never refused
            cx.check_dd_zero(i - 1, d)
            try:
                L = _cartan_operator(cx, iota, i, d)
            except NotWellDefinedError:
                # The contraction does not descend to this quotient piece
                # (jets of order >= 2 on singular scenes); refuse honestly.
                cert.refused.append(
                    ((i, d), "contraction not well defined on the quotient")
                )
                continue
            if euler and L != LinearMap.identity(piece.basis).scale(d):
                cert.refused.append(((i, d), "Euler Lie action is not weight·id"))
                continue
            try:
                L_inv[i] = L.inverse()
            except SingularMapError:
                cert.refused.append(((i, d), "L singular"))
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
