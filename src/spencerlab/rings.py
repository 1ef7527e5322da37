"""Weighted polynomial rings over the rationals.

Monomials are bare exponent tuples; a polynomial is a mapping from
exponent tuples to exact coefficients, attached to a :class:`WeightedRing`
that fixes variable names and positive integer weights.  A coefficient is
an ``int`` when it is integral and a ``fractions.Fraction`` otherwise, so
integer arithmetic builds no Fraction; a ``float`` is refused.  Everything
is exact and immutable after construction.

The weighted degree of ``x^a`` is ``sum(a[i] * weight[i])``.  All graded
bookkeeping in the package (component bases, chain complexes, towers)
runs degreewise on these weights.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInvariantError, ParseError, SceneError

INHOMOGENEOUS = "inhomogeneous"

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class _Value:
    """Immutable value: equality, hash and repr over the fields in ``_fields``.

    A subclass's ``__init__`` checks its arguments, then passes the field values
    in ``_fields`` order, and by keyword any cached attributes equality ignores.
    """

    def __init__(self, *values, **cached):
        vars(self).update(zip(self._fields, values), _values=values, **cached)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


class WeightedRing(_Value):
    """A polynomial ring QQ[x_1..x_n] with positive integer weights."""

    _fields = ("variables", "weights")

    def __init__(self, variables: tuple[str, ...], weights: tuple[int, ...]):
        if not variables:
            raise SceneError("a ring needs at least one variable")
        if len(variables) != len(weights):
            raise SceneError("variables and weights must have equal length")
        if len(set(variables)) != len(variables):
            raise SceneError("variable names must be distinct")
        for name in variables:
            if not _NAME_RE.fullmatch(name):
                raise SceneError(f"bad variable name {name!r}")
        for w in weights:
            if not isinstance(w, int) or w <= 0:
                raise SceneError(f"weights must be positive integers, got {w!r}")
        super().__init__(variables, weights)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def mono_weight(self, exps: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c) -> Polynomial:
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> Polynomial:
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps: tuple[int, ...], coeff=1) -> Polynomial:
        return Polynomial(self, {tuple(exps): coeff})

    def monomials_of_weight(self, d: int) -> tuple[tuple[int, ...], ...]:
        """All exponent tuples of weighted degree exactly d, sorted."""
        return _monomials_of_weight(self.weights, d)

    def mono_str(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def _monomials_of_weight(weights: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    if d < 0:
        return ()
    if not weights:
        return ((),) if d == 0 else ()
    out = []
    w0 = weights[0]
    for e0 in range(d // w0 + 1):
        for rest in _monomials_of_weight(weights[1:], d - e0 * w0):
            out.append((e0,) + rest)
    return tuple(sorted(out))


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coefficient(c):
    """An exact coefficient in normal form: an int when integral, else a Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise InternalInvariantError(f"polynomial coefficient {c!r} is not exact")
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Exact multivariate polynomial; term map from exponent tuple to int or Fraction."""

    __slots__ = ("ring", "terms", "_hash", "_degree")

    def __init__(self, ring: WeightedRing, terms: dict):
        self.ring = ring
        self.terms = {m: c if type(c) is int else _coefficient(c) for m, c in terms.items() if c}
        self._hash = None
        self._degree = None

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def _require_same_ring(self, other: Polynomial):
        if self.ring != other.ring:
            raise SceneError("polynomials from different rings")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        self._require_same_ring(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            res[m] = res.get(m, 0) + c
        return Polynomial(self.ring, res)

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._require_same_ring(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            res[m] = res.get(m, 0) - c
        return Polynomial(self.ring, res)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_ring(other)
        res: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                res[m] = res.get(m, 0) + c1 * c2
        return Polynomial(self.ring, res)

    __rmul__ = __mul__

    def scale(self, c) -> Polynomial:
        c = _coefficient(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def mul_mono(self, exps: tuple[int, ...], coeff=1) -> Polynomial:
        coeff = _coefficient(coeff)
        if not coeff:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mono_mul(m, exps): c * coeff for m, c in self.terms.items()}
        )

    # -- grading and calculus ---------------------------------------------

    def weighted_degree(self):
        """Common weighted degree of all terms, or the inhomogeneous marker.

        Raises on the zero polynomial, whose degree is undefined.
        """
        if self._degree is None:
            if not self.terms:
                raise SceneError("degree of the zero polynomial is undefined")
            degs = {self.ring.mono_weight(m) for m in self.terms}
            self._degree = degs.pop() if len(degs) == 1 else INHOMOGENEOUS
        return self._degree

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.weighted_degree() != INHOMOGENEOUS

    def partial_derivative(self, var_index: int) -> Polynomial:
        if not 0 <= var_index < self.ring.nvars:
            raise SceneError(f"variable index {var_index} out of range")
        res: dict = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            dm = list(m)
            dm[var_index] = e - 1
            dm = tuple(dm)
            res[dm] = res.get(dm, 0) + c * e
        return Polynomial(self.ring, res)

    # -- printing ---------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: weighted degree descending, lex ties."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-self.ring.mono_weight(item[0]), tuple(-e for e in item[0])),
        )

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            mono = self.ring.mono_str(m)
            if mono == "1":
                body = _coeff_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{_coeff_str(abs(c))}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Polynomial({self})"


def _coeff_str(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent for:  expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := ('-'|'+')* atom ('^' int)?,
    atom := int | name | '(' expr ')'.

    '/' (by a nonzero constant) extends the published grammar so that every
    polynomial the engine produces can be printed and re-read exactly.
    """

    def __init__(self, text: str, ring: WeightedRing):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            elif kind == "op" and val == "/":
                self.next()
                q = self.factor()
                if q.terms and set(q.terms) == {(0,) * self.ring.nvars}:
                    p = p.scale(Fraction(1) / next(iter(q.terms.values())))
                elif q.is_zero():
                    raise ParseError("division by zero", pos)
                else:
                    raise ParseError("division only by nonzero constants", pos)
            else:
                return p

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, e, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            p = p ** e
        return p if sign > 0 else -p

    def atom(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "int":
            return self.ring.constant(val)
        if kind == "name":
            try:
                idx = self.ring.variables.index(val)
            except ValueError:
                raise ParseError(f"unknown variable {val!r}", pos) from None
            return self.ring.var(idx)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError("expected a number, variable, or '('", pos)


def parse_polynomial(text: str, ring: WeightedRing) -> Polynomial:
    return _Parser(text, ring).parse()


# -- ideals and scenes -------------------------------------------------------

class Ideal(_Value):
    """Ideal given by a generator list; zero generators are dropped."""

    _fields = ("generators",)

    def __init__(self, generators: tuple[Polynomial, ...]):
        gens = tuple(g for g in generators if not g.is_zero())
        rings = {g.ring for g in gens}
        if len(rings) > 1:
            raise SceneError("ideal generators live in different rings")
        super().__init__(gens)

    @property
    def is_trivial(self) -> bool:
        return not self.generators


class AffineScene(_Value):
    """A weighted ambient ring plus a weighted-homogeneous ideal for Y."""

    _fields = ("ring", "ideal")

    def __init__(self, ring: WeightedRing, ideal: Ideal):
        for g in ideal.generators:
            if g.ring != ring:
                raise SceneError("ideal generator not in the scene ring")
            if g.weighted_degree() == INHOMOGENEOUS:
                raise SceneError(
                    f"generator {g} is not weighted-homogeneous for weights "
                    f"{ring.weights}"
                )
        super().__init__(ring, ideal)


def scene(variables, weights, generators=()) -> AffineScene:
    """Convenience constructor used all over the tests."""
    ring = WeightedRing(tuple(variables), tuple(weights))
    gens = tuple(
        parse_polynomial(g, ring) if isinstance(g, str) else g for g in generators
    )
    return AffineScene(ring, Ideal(gens))
