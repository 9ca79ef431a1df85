"""Sparse multivariate Laurent polynomials in X_1, ..., X_kappa.

These are the carriers of the standard polynomial representation: elements of
``Z[s^±1, c^±1, d^±1][X_1^±1, ..., X_kappa^±1]`` stored as maps from integer
exponent vectors to nonzero :class:`~daha.scalars.ScalarPoly` coefficients.

Besides ring arithmetic the module provides the three operators that the
representation is built from:

* :func:`swap_variables` -- exchange X_i and X_{i+1},
* :func:`rotate_variables` -- the substitution
  ``f(X_1, ..., X_k) -> f(c^2 X_k, X_1, ..., X_{k-1})``, which on a monomial
  cyclically shifts the exponent vector and scales by ``c^(2 n_1)``,
* :func:`exact_divide` -- exact division by ``X_i * X_{i+1}^-1 - 1``, the
  denominator of the divided-difference part of the braid action,

and :func:`braid_kernel`, the divided difference built from
:func:`swap_variables` and :func:`exact_divide` that both module actions of
the braid letter s_i share.

The number of variables (the rank) travels with every value and binary
operations refuse to mix ranks; there is no broadcasting.

A product with a one-term factor (as in ``x_i`` and the certification of
:func:`exact_divide`) shifts the exponent vectors injectively and multiplies
coefficients in an integral domain, so it is built in one pass with no term
merging or cancelling.
"""

from __future__ import annotations

from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping

from ._tokens import TokenStream, parse_signed_int
from .errors import NonDivisibleError, ParseError, RankMismatchError
from .scalars import ScalarPoly, _format_term, hbar, parse_scalar_sum

ExponentVector = tuple[int, ...]


def _check_rank(a: "LaurentPoly", b: "LaurentPoly") -> None:
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")


class LaurentPoly:
    """An element of the Laurent ring in ``rank`` variables, canonical form."""

    __slots__ = ("_rank", "_terms")

    def __init__(
        self,
        rank: int,
        terms: Mapping[ExponentVector, ScalarPoly] | Iterable[tuple[ExponentVector, ScalarPoly]] = (),
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self._rank = rank
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[ExponentVector, ScalarPoly] = {}
        for exps, coeff in items:
            key = tuple(int(e) for e in exps)
            if len(key) != rank:
                raise ValueError(f"exponent vector {key} has length {len(key)}, expected {rank}")
            if isinstance(coeff, int):
                coeff = ScalarPoly.integer(coeff)
            total = data.get(key)
            total = coeff if total is None else total + coeff
            if total.is_zero():
                data.pop(key, None)
            else:
                data[key] = total
        self._terms = data

    @classmethod
    def _raw(cls, rank: int, data: dict[ExponentVector, ScalarPoly]) -> "LaurentPoly":
        obj = object.__new__(cls)
        obj._rank = rank
        obj._terms = data
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls.monomial(rank, (0,) * rank)

    @classmethod
    def monomial(cls, rank: int, exps: Iterable[int], coeff: ScalarPoly | int = 1) -> "LaurentPoly":
        if isinstance(coeff, int):
            coeff = ScalarPoly.integer(coeff)
        key = tuple(int(e) for e in exps)
        if len(key) != rank:
            raise ValueError(f"exponent vector {key} has length {len(key)}, expected {rank}")
        if coeff.is_zero():
            return cls._raw(rank, {})
        return cls._raw(rank, {key: coeff})

    @classmethod
    def variable(cls, rank: int, i: int, exp: int = 1) -> "LaurentPoly":
        """The monomial X_i^exp."""
        if not 1 <= i <= rank:
            raise IndexError(f"variable index {i} out of range for rank {rank}")
        exps = [0] * rank
        exps[i - 1] = exp
        return cls.monomial(rank, exps)

    # -- inspection ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def terms(self) -> Mapping[ExponentVector, ScalarPoly]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficients_have_d(self) -> bool:
        return any(coeff.has_d() for coeff in self._terms.values())

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_rank(self, other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            total = data.get(key)
            total = coeff if total is None else total + coeff
            if total.is_zero():
                del data[key]
            else:
                data[key] = total
        return LaurentPoly._raw(self._rank, data)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._rank, {key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | ScalarPoly | int") -> "LaurentPoly":
        if isinstance(other, (ScalarPoly, int)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_rank(self, other)
        if len(other._terms) == 1:
            poly, unit = self, other
        elif len(self._terms) == 1:
            poly, unit = other, self
        else:
            data: dict[ExponentVector, ScalarPoly] = {}
            for a_key, a_coeff in self._terms.items():
                for b_key, b_coeff in other._terms.items():
                    key = tuple(a + b for a, b in zip(a_key, b_key))
                    prod = a_coeff * b_coeff
                    total = data.get(key)
                    total = prod if total is None else total + prod
                    if total.is_zero():
                        data.pop(key, None)
                    else:
                        data[key] = total
            return LaurentPoly._raw(self._rank, data)
        # One-term factor: an injective key shift, and coefficient products
        # that cannot vanish over an integral domain, so nothing merges or
        # cancels.
        ((shift, factor),) = unit._terms.items()
        if factor.is_one():
            return LaurentPoly._raw(self._rank, {
                tuple(map(add, key, shift)): coeff for key, coeff in poly._terms.items()
            })
        return LaurentPoly._raw(self._rank, {
            tuple(map(add, key, shift)): coeff * factor for key, coeff in poly._terms.items()
        })

    __rmul__ = __mul__

    def scale(self, coeff: ScalarPoly | int) -> "LaurentPoly":
        if isinstance(coeff, int):
            coeff = ScalarPoly.integer(coeff)
        if coeff.is_zero():
            return LaurentPoly._raw(self._rank, {})
        if coeff.is_one():
            return self
        # Nonzero times nonzero is nonzero in the integral domain of scalars.
        # Runs of one coefficient object (as in exact_divide's quotients) are
        # multiplied once.
        data: dict[ExponentVector, ScalarPoly] = {}
        last = new = None
        for key, old in self._terms.items():
            if old is not last:
                last, new = old, old * coeff
            data[key] = new
        return LaurentPoly._raw(self._rank, data)

    def substitute_d_eq_s(self) -> "LaurentPoly":
        """Set d = s in every coefficient (cancellations are pruned)."""
        data: dict[ExponentVector, ScalarPoly] = {}
        for key, coeff in self._terms.items():
            new = coeff.substitute_d_eq_s()
            if not new.is_zero():
                data[key] = new
        return LaurentPoly._raw(self._rank, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._rank, frozenset(self._terms.items())))

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps in sorted(self._terms, reverse=True):
            sign, body = _format_laurent_term(self._terms[exps], exps, len(self._terms) == 1)
            if not pieces:
                pieces.append(f"-{body}" if sign < 0 else body)
            else:
                pieces.append(f"{'-' if sign < 0 else '+'} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"<LaurentPoly rank={self._rank} {self}>"


def _monomial_string(exps: ExponentVector, letter: str) -> str:
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"{letter}{i}")
        elif e != 0:
            parts.append(f"{letter}{i}^{e}")
    return "*".join(parts)


def _format_laurent_term(
    coeff: ScalarPoly, exps: ExponentVector, sole_term: bool, letter: str = "X"
) -> tuple[int, str]:
    """Return (sign, unsigned rendering) of one Laurent term."""
    mono = _monomial_string(exps, letter)
    if len(coeff.terms) == 1:
        ((triple, n),) = coeff.terms.items()
        sign, scalar_body = _format_term(n, triple)
        if not mono:
            return sign, scalar_body
        if scalar_body == "1":
            return sign, mono
        return sign, f"{scalar_body}*{mono}"
    # Multi-term coefficient: parenthesize, except for a lone constant term
    # where the bare scalar form round-trips unambiguously.
    if not mono:
        return 1, str(coeff) if sole_term else f"({coeff})"
    return 1, f"({coeff})*{mono}"


# -- variable operators --------------------------------------------------------


def _check_adjacent_index(i: int, rank: int) -> None:
    if not 1 <= i <= rank - 1:
        raise IndexError(f"adjacent-pair index {i} out of range for rank {rank}")


def swap_variables(f: LaurentPoly, i: int) -> LaurentPoly:
    """Exchange X_i and X_{i+1} in every term (an involution, 1 <= i < rank)."""
    _check_adjacent_index(i, f.rank)
    data: dict[ExponentVector, ScalarPoly] = {}
    for key, coeff in f.terms.items():
        swapped = list(key)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        data[tuple(swapped)] = coeff
    return LaurentPoly._raw(f.rank, data)


def rotate_variables(f: LaurentPoly) -> LaurentPoly:
    """Apply the twisted cyclic substitution f(X_1, ..., X_k) ->
    f(c^2 X_k, X_1, ..., X_{k-1}).

    On a monomial with exponent vector (n_1, ..., n_k) this produces
    c^(2 n_1) X_k^(n_1) X_1^(n_2) ... X_{k-1}^(n_k).
    """
    from .scalars import c_power

    data: dict[ExponentVector, ScalarPoly] = {}
    for key, coeff in f.terms.items():
        new_key = key[1:] + key[:1]
        new_coeff = coeff * c_power(2 * key[0])
        prev = data.get(new_key)
        new_coeff = new_coeff if prev is None else prev + new_coeff
        if new_coeff.is_zero():
            data.pop(new_key, None)
        else:
            data[new_key] = new_coeff
    return LaurentPoly._raw(f.rank, data)


def rotate_variables_inverse(f: LaurentPoly) -> LaurentPoly:
    """Inverse of :func:`rotate_variables`; validated by the round trip
    rotate_variables_inverse(rotate_variables(f)) == f."""
    from .scalars import c_power

    data: dict[ExponentVector, ScalarPoly] = {}
    for key, coeff in f.terms.items():
        new_key = key[-1:] + key[:-1]
        new_coeff = coeff * c_power(-2 * key[-1])
        prev = data.get(new_key)
        new_coeff = new_coeff if prev is None else prev + new_coeff
        if new_coeff.is_zero():
            data.pop(new_key, None)
        else:
            data[new_key] = new_coeff
    return LaurentPoly._raw(f.rank, data)


def exact_divide(f: LaurentPoly, i: int) -> LaurentPoly:
    """Divide f exactly by X_i * X_{i+1}^-1 - 1.

    Substituting Y = X_i * X_{i+1}^-1 groups the terms of f into classes that
    differ only by powers of Y (same exponents away from positions i, i+1 and
    same exponent sum at those positions); within each class the division is
    univariate Laurent division by Y - 1.  A class is divisible exactly when
    its coefficients sum to zero; otherwise :class:`NonDivisibleError` is
    raised.  Differences (swap - 1)f are always divisible, so this error on
    such input signals an arithmetic bug upstream.

    The quotient q is certified before it is returned: ``q * Y == f + q``
    must hold, which is ``q * (Y - 1) == f`` rearranged so that the product
    is a one-term shift.  A failed certification also raises
    :class:`NonDivisibleError`.
    """
    _check_adjacent_index(i, f.rank)
    idx = i - 1
    if f.is_zero():
        return f

    groups: dict[tuple, dict[int, ScalarPoly]] = {}
    for key, coeff in f.terms.items():
        cls = key[:idx] + (key[idx] + key[idx + 1],) + key[idx + 2 :]
        groups.setdefault(cls, {})[key[idx]] = coeff

    data: dict[ExponentVector, ScalarPoly] = {}
    for cls, alphas in groups.items():
        pair_sum = cls[idx]
        degrees = sorted(alphas)
        low, high = degrees[0], degrees[-1]
        beta = ScalarPoly.zero()
        for j in range(high, low, -1):
            alpha = alphas.get(j)
            if alpha is not None:
                beta = beta + alpha
            if not beta.is_zero():
                key = cls[:idx] + (j - 1, pair_sum - (j - 1)) + cls[idx + 1 :]
                data[key] = beta
        remainder = beta + alphas[low]
        if not remainder.is_zero():
            raise NonDivisibleError(
                f"polynomial is not divisible by X{i}*X{i + 1}^-1 - 1 "
                f"(class {cls} leaves remainder {remainder})"
            )
    quotient = LaurentPoly._raw(f.rank, data)

    # Multiply-back certification of quotient * (Y - 1) == f, checked as
    # quotient * Y == f + quotient (the same identity by distributivity) so
    # that the only product is by the one-term Y = X_i X_{i+1}^-1: a key
    # shift.  It runs under every interpreter flag, so a wrong quotient is a
    # failed check even under ``python -O``.
    shift = [0] * f.rank
    shift[idx], shift[idx + 1] = 1, -1
    y = LaurentPoly._raw(f.rank, {tuple(shift): ScalarPoly.one()})
    if quotient * y != f + quotient:
        raise NonDivisibleError(
            f"exact_divide multiply-back certification failed for X{i}*X{i + 1}^-1 - 1"
        )
    return quotient


def braid_kernel(f: LaurentPoly, i: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The divided difference shared by both actions of the braid letter s_i.

    Returns ``(swap_i f, hbar * (swap_i f - f) / (X_i X_{i+1}^-1 - 1))`` with
    the division exact (:func:`exact_divide`).  The polynomial representation
    sends f to ``s * swap_i f + g``; the skein module rewrites ``s_i a^n`` as
    ``swap_i a^n * s_i + g`` for the monomial ``f = a^n``.
    """
    swapped = swap_variables(f, i)
    return swapped, exact_divide(swapped - f, i).scale(hbar())


# -- parsing ---------------------------------------------------------------------


def parse_laurent(text: str, rank: int) -> LaurentPoly:
    """Parse e.g. ``s*X1^2*X2^-1 + c^2*X2`` or ``(s + s^-1)*X1`` or ``0``."""
    ts = TokenStream(text)
    poly = LaurentPoly.zero(rank)
    sign = -1 if ts.accept("-") else 1
    poly = poly + _parse_laurent_term(ts, rank, sign)
    while True:
        if ts.accept("+"):
            poly = poly + _parse_laurent_term(ts, rank, 1)
        elif ts.accept("-"):
            poly = poly + _parse_laurent_term(ts, rank, -1)
        elif ts.at_end():
            return poly
        else:
            ts.fail(f"unexpected {ts.peek().text!r} in polynomial")


def _parse_laurent_term(ts: TokenStream, rank: int, sign: int) -> LaurentPoly:
    coeff = ScalarPoly.integer(sign)
    exps = [0] * rank
    while True:
        tok = ts.peek()
        if tok.kind == "int":
            ts.advance()
            coeff = coeff * ScalarPoly.integer(int(tok.text))
        elif tok.kind == "name" and tok.letter in ("s", "c", "d") and tok.index is None:
            ts.advance()
            exp = parse_signed_int(ts, "exponent") if ts.accept("^") else 1
            triple = [0, 0, 0]
            triple[("s", "c", "d").index(tok.letter)] = exp
            coeff = coeff * ScalarPoly.monomial(*triple)
        elif tok.kind == "name" and tok.letter == "X":
            if tok.index is None:
                ts.fail("variable X requires an index, e.g. X1")
            if not 1 <= tok.index <= rank:
                ts.fail(f"variable index {tok.index} out of range for rank {rank}")
            ts.advance()
            exp = parse_signed_int(ts, "exponent") if ts.accept("^") else 1
            exps[tok.index - 1] += exp
        elif tok.kind == "(":
            ts.advance()
            coeff = coeff * parse_scalar_sum(ts)
            ts.expect(")", "')'")
        else:
            raise ParseError(
                f"expected a polynomial factor, found {tok.text or 'end of input'!r}", tok.pos
            )
        if not ts.accept("*"):
            return LaurentPoly.monomial(rank, exps, coeff)
