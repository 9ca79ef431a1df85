"""Exact arithmetic in the coefficient ring Z[s^±1, c^±1, d^±1].

Every coefficient appearing in this package lives in the commutative ring of
integer Laurent polynomials in three variables:

* ``s`` -- the crossing-resolution parameter; the skein parameter is
  ``hbar = s - s^-1`` and is always kept expanded in ``s``,
* ``c`` -- the marked-point (puncture) winding parameter,
* ``d`` -- the end-slide parameter of the braid-skein module.

A :class:`ScalarPoly` is a sparse map from exponent triples ``(e_s, e_c,
e_d)`` to nonzero integer coefficients.  Python integers are arbitrary
precision, so no overflow handling is needed.  Values are immutable after
construction and all operations are pure; the canonical form (no zero terms,
unique keys) is maintained by every constructor and operation, so ``==`` is
exact ring equality.

A product with a one-term factor, an integer among them, is a shift of the
exponent triples and a scaling of the coefficients: no two terms can merge
and, Z being an integral domain, none can vanish, so it is built in one pass
without the accumulate-and-prune loop that general products need.

Each result is built once: an operation fills one new dict (a sum copies the
larger operand's dict and walks the smaller one; a difference copies the
minuend's dict and subtracts the subtrahend's terms from it, with no negated
copy) and stores it in a new instance, with no pass through the validating
constructor.  Sums and differences, like products, take an ``int`` operand
as :meth:`ScalarPoly.integer` of it, on either side; any other operand is
refused.
"""

from __future__ import annotations

from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping

from ._tokens import TokenStream, parse_signed_int, parse_signed_sum

ExponentTriple = tuple[int, int, int]

_VAR_NAMES = ("s", "c", "d")


class ScalarPoly:
    """An element of Z[s^±1, c^±1, d^±1] in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[ExponentTriple, int] | Iterable[tuple[ExponentTriple, int]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[ExponentTriple, int] = {}
        for exps, coeff in items:
            if len(exps) != 3:
                raise ValueError(f"exponent triple expected, got {exps!r}")
            key = (index(exps[0]), index(exps[1]), index(exps[2]))
            total = data.get(key, 0) + index(coeff)
            if total:
                data[key] = total
            else:
                data.pop(key, None)
        self._terms = data

    def __reduce__(self):
        # Unpickle through the validating constructor, under every protocol.
        return ScalarPoly, (self._terms,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "ScalarPoly":
        return _ONE

    @classmethod
    def integer(cls, n: int) -> "ScalarPoly":
        n = index(n)
        if not n:
            return _ZERO
        return _ONE if n == 1 else _wrap({(0, 0, 0): n})

    @classmethod
    def monomial(cls, e_s: int = 0, e_c: int = 0, e_d: int = 0, coeff: int = 1) -> "ScalarPoly":
        coeff = index(coeff)
        return _wrap({(index(e_s), index(e_c), index(e_d)): coeff}) if coeff else _ZERO

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[ExponentTriple, int]:
        return MappingProxyType(self._terms)

    def is_one(self) -> bool:
        return self._terms == _ONE._terms

    def has_d(self) -> bool:
        """Whether any term carries a nonzero d-exponent."""
        for key in self._terms:
            if key[2]:
                return True
        return False

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ScalarPoly | int") -> "ScalarPoly":
        if not isinstance(other, ScalarPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = ScalarPoly.integer(other)
        # Copy the larger operand's dict and walk only the smaller one.
        if len(self._terms) < len(other._terms):
            self, other = other, self
        data = self._terms.copy()
        for key, coeff in other._terms.items():
            total = data.get(key, 0) + coeff
            if total:
                data[key] = total
            else:
                del data[key]
        poly = _new(ScalarPoly)
        poly._terms = data
        return poly

    def __neg__(self) -> "ScalarPoly":
        poly = _new(ScalarPoly)
        poly._terms = {key: -coeff for key, coeff in self._terms.items()}
        return poly

    __radd__ = __add__

    def __sub__(self, other: "ScalarPoly | int") -> "ScalarPoly":
        if not isinstance(other, ScalarPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = ScalarPoly.integer(other)
        data = self._terms.copy()
        for key, coeff in other._terms.items():
            total = data.get(key, 0) - coeff
            if total:
                data[key] = total
            else:
                del data[key]
        poly = _new(ScalarPoly)
        poly._terms = data
        return poly

    def __rsub__(self, other: int) -> "ScalarPoly":
        if not isinstance(other, int):
            return NotImplemented
        return ScalarPoly.integer(other) - self

    def __mul__(self, other: "ScalarPoly | int") -> "ScalarPoly":
        if isinstance(other, int):
            other = ScalarPoly.integer(other)
        elif not isinstance(other, ScalarPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        if len(other._terms) == 1:
            poly, unit = self, other
        elif len(self._terms) == 1:
            poly, unit = other, self
        else:
            data: dict[ExponentTriple, int] = {}
            for (a_s, a_c, a_d), a_coeff in self._terms.items():
                for (b_s, b_c, b_d), b_coeff in other._terms.items():
                    key = (a_s + b_s, a_c + b_c, a_d + b_d)
                    total = data.get(key, 0) + a_coeff * b_coeff
                    if total:
                        data[key] = total
                    else:
                        del data[key]
            return _wrap(data)
        # A one-term factor shifts the exponents injectively and Z has no zero
        # divisors, so no two terms merge and none vanishes: the product is
        # canonical as built.  The factor 1 returns the other operand, which
        # is safe because values are immutable.
        ((e_s, e_c, e_d), n), = unit._terms.items()
        if n == 1 and not (e_s or e_c or e_d):
            return poly
        product = _new(ScalarPoly)
        product._terms = {
            (a_s + e_s, a_c + e_c, a_d + e_d): a_coeff * n
            for (a_s, a_c, a_d), a_coeff in poly._terms.items()
        }
        return product

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- substitution -------------------------------------------------------

    def substitute_d_eq_s(self) -> "ScalarPoly":
        """Set d = s: fold every d-exponent into the s-exponent.

        This is a ring homomorphism; colliding terms are merged and zero
        results pruned, e.g. d - s maps to 0.
        """
        if not self.has_d():
            return self
        data: dict[ExponentTriple, int] = {}
        for (e_s, e_c, e_d), coeff in self._terms.items():
            key = (e_s + e_d, e_c, 0)
            total = data.get(key, 0) + coeff
            if total:
                data[key] = total
            else:
                del data[key]
        return _wrap(data)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return join_signed(
            _format_scalar_term(self._terms[key], key) for key in sorted(self._terms, reverse=True)
        )

    def __repr__(self) -> str:
        return f"<ScalarPoly {self}>"


_new = object.__new__


def _wrap(data: dict[ExponentTriple, int]) -> ScalarPoly:
    """Wrap a dict already known to be canonical (internal fast path)."""
    poly = _new(ScalarPoly)
    poly._terms = data
    return poly


_ZERO = _wrap({})
_ONE = _wrap({(0, 0, 0): 1})
_HBAR = _wrap({(1, 0, 0): 1, (-1, 0, 0): -1})


def s_power(n: int) -> ScalarPoly:
    return ScalarPoly.monomial(e_s=n)


def c_power(n: int) -> ScalarPoly:
    return ScalarPoly.monomial(e_c=n)


def d_power(n: int) -> ScalarPoly:
    return ScalarPoly.monomial(e_d=n)


def hbar() -> ScalarPoly:
    """The skein parameter s - s^-1."""
    return _HBAR


def _format_scalar_term(coeff: int, exps: ExponentTriple) -> tuple[int, str]:
    """Return (sign, unsigned rendering) of one term, e.g. (-1, "2*s^2*c")."""
    return (1 if coeff > 0 else -1, _times(str(abs(coeff)), format_powers(_VAR_NAMES, exps)))


def _times(factor: str, body: str) -> str:
    """Print the product ``factor*body``, dropping a factor ``1``; an empty
    body (the unit monomial) prints the factor alone."""
    if not body:
        return factor
    return body if factor == "1" else f"{factor}*{body}"


def format_powers(names: Iterable[str], exps: Iterable[int]) -> str:
    """Join ``name^e`` for each name and nonzero exponent with ``*``, writing
    exponent 1 as the bare name; no nonzero exponent gives ``""``.

    The one printer of powers in the package: scalar terms, the X_i and a_i
    monomials, generator letters and runs of a letter in a word.
    """
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)


def join_signed(terms: Iterable[tuple[int, str]]) -> str:
    """Join (sign, unsigned rendering) pairs as ``a - b + c``; no terms give ``0``.

    The one printer of sums in the package: scalars, Laurent polynomials and
    skein elements all print their terms through it.
    """
    pieces: list[str] = []
    for sign, body in terms:
        if pieces:
            pieces.append(f"{'-' if sign < 0 else '+'} {body}")
        else:
            pieces.append(f"-{body}" if sign < 0 else body)
    return " ".join(pieces) if pieces else "0"


def parse_scalar(text: str) -> ScalarPoly:
    """Parse the textual form, e.g. ``s^2 - 2 + s^-2`` or ``-3*c^2*d``.

    The printer and this parser round-trip exactly.
    """
    ts = TokenStream(text)
    poly = parse_scalar_sum(ts)
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} after scalar")
    return poly


def parse_scalar_sum(ts: TokenStream) -> ScalarPoly:
    """Parse a sum of scalar terms from the stream (used standalone and as a
    sub-parser inside parenthesized coefficients)."""
    terms = parse_signed_sum(ts, _parse_term)
    return ScalarPoly(item for term in terms for item in term._terms.items())


def _parse_term(ts: TokenStream, sign: int) -> ScalarPoly:
    poly = _parse_factor(ts) * sign
    while ts.accept("*"):
        poly = poly * _parse_factor(ts)
    return poly


def parse_scalar_factor(ts: TokenStream) -> ScalarPoly | None:
    """Parse one scalar factor, an integer or ``s``, ``c``, ``d`` with an
    optional ``^exponent``; return None, consuming nothing, when the next
    token starts neither.  The Laurent and skein term parsers share it."""
    tok = ts.peek()
    if tok.kind == "int":
        ts.advance()
        return ScalarPoly.integer(int(tok.text))
    if tok.kind == "name" and tok.letter in _VAR_NAMES and tok.index is None:
        ts.advance()
        exp = parse_signed_int(ts) if ts.accept("^") else 1
        triple = [0, 0, 0]
        triple[_VAR_NAMES.index(tok.letter)] = exp
        return ScalarPoly.monomial(*triple)
    return None


def _parse_factor(ts: TokenStream) -> ScalarPoly:
    factor = parse_scalar_factor(ts)
    if factor is not None:
        return factor
    tok = ts.peek()
    if tok.kind == "name":
        ts.fail(f"expected one of s, c, d, found {tok.text!r}")
    ts.fail(f"expected a scalar factor, found {tok.text or 'end of input'!r}")
