"""Sparse multivariate Laurent polynomials in X_1, ..., X_kappa.

These are the carriers of the standard polynomial representation: elements of
``Z[s^±1, c^±1, d^±1][X_1^±1, ..., X_kappa^±1]`` stored as maps from integer
exponent vectors to nonzero :class:`~daha.scalars.ScalarPoly` coefficients.

:class:`LaurentPoly` and the skein module's
:class:`~daha.skein.SkeinElement` both subclass :class:`SparseCombination`:
the storage, validating constructor, module operations, equality and printer
live once, in that base class, and :func:`accumulate` is the one
accumulate-and-prune loop of both.  Work is shared over runs of equal
coefficients: a coefficient map runs once per run of equal values, and
:func:`accumulate` makes one sum per run of adds that meet the same two
coefficient objects.  Both are exact, since scalars are immutable and their
arithmetic is pure.

Besides ring arithmetic the module provides the three operators that the
representation is built from:

* :func:`swap_variables` -- exchange X_i and X_{i+1},
* :func:`rotate_variables` -- the substitution
  ``f(X_1, ..., X_k) -> f(c^2 X_k, X_1, ..., X_{k-1})``, which on a monomial
  cyclically shifts the exponent vector and scales by ``c^(2 n_1)``,
* :func:`exact_divide` -- exact division by ``X_i * X_{i+1}^-1 - 1``, the
  denominator of the divided-difference part of the braid action,

and :func:`braid_kernel`, the divided difference ``(swap_i f - f) / (X_i
X_{i+1}^-1 - 1)`` times ``hbar`` that both module actions of the braid
letter s_i share.  Both of its divisions walk the classes of
:func:`_classes`: an input of two or more terms that :func:`swap_variables`
does not fix by a half sweep over f's own terms (:func:`_half_sweep`), and
a one-term input by the composition of :func:`swap_variables`, subtraction
and :func:`exact_divide`.  The three operators refuse anything but a
:class:`LaurentPoly` with ``TypeError`` naming its class.
:func:`adjacent_ratio` builds the one-term divisor part ``X_i * X_{i+1}^-1``.

The number of variables (the rank) travels with every value and binary
operations refuse to mix ranks; there is no broadcasting.

A product is built row by row: each term ``(shift, factor)`` of the right
factor contributes a copy of the left factor scaled by ``factor`` with every
exponent vector moved by ``shift``.  The shift is injective, so a row is
canonical as built: the first row becomes the result's dict, and later rows
merge into it through :func:`accumulate`.  A right factor of one term with
coefficient 1 (as in ``x_i``, the s_i^-1 of the polynomial representation and
the certification of :func:`exact_divide`) is that one row, with no scaling.
"""

from __future__ import annotations

from operator import add, index
from types import MappingProxyType
from typing import Iterable, Mapping

from ._tokens import TokenStream, check_exponents, parse_signed_int, parse_signed_sum
from .errors import NonDivisibleError, RankMismatchError, check_at_least, check_index
from .scalars import (
    _ZERO, ScalarPoly, _format_scalar_term, _times, c_power, format_powers, hbar, join_signed,
    parse_scalar_factor, parse_scalar_sum,
)

ExponentVector = tuple[int, ...]


_new = object.__new__


def _wrap(cls: type, rank: int, data: dict):
    """Wrap a dict already known to be canonical as a ``cls`` of the given
    rank (internal fast path)."""
    obj = _new(cls)
    obj._rank = rank
    obj._terms = data
    return obj


def accumulate(data: dict, items: Iterable[tuple]) -> None:
    """Add the (key, value) pairs of items into data in place, dropping every
    key whose total is zero.

    An add whose (total, value) are the same two objects as the previous
    add's reuses that sum, so a run of keys that share both coefficient
    objects (as the braided half of :func:`~daha.skein.act_sigma` makes on a
    symmetrized element) costs one ``ScalarPoly`` sum.  Only identity is
    compared: a value test costs more than the sums it saves."""
    get = data.get
    last_total = last_value = last_sum = None
    for key, value in items:
        total = get(key)
        if total is None:
            total = value
        elif total is last_total and value is last_value:
            total = last_sum
        else:
            last_total, last_value = total, value
            total = last_sum = total + value
        if total._terms:
            data[key] = total
        else:
            data.pop(key, None)


class SparseCombination:
    """A finite combination of keys with nonzero :class:`ScalarPoly`
    coefficients, in canonical form, with a rank fixed at construction.

    The shared storage, arithmetic, equality and printing of
    :class:`LaurentPoly` and :class:`~daha.skein.SkeinElement`.  A subclass
    names its rank (``_RANK``) and supplies ``_check_key(rank, key)``
    (validate and normalise a key) and ``_format_key`` (the text of a key,
    empty for the unit).  Keys print in their natural order, largest first.
    Binary operations refuse operands of another class or rank; there is no
    broadcasting.
    """

    __slots__ = ("_rank", "_terms")
    _RANK = "rank"

    def __init__(self, rank: int, terms: Mapping | Iterable[tuple] = ()):
        self._rank = rank = check_at_least(self._RANK, rank, 1)
        self._terms = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        accumulate(self._terms, (
            (self._check_key(rank, key), c if isinstance(c, ScalarPoly) else ScalarPoly.integer(c))
            for key, c in items
        ))

    def __reduce__(self):
        # Unpickle through the validating constructor, under every protocol.
        return type(self), (self._rank, self._terms)

    @classmethod
    def zero(cls, rank: int):
        return cls(rank)

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- module operations ---------------------------------------------------
    #
    # Subclasses bind their operators to these bodies with one-line methods
    # of their own, so that each class keeps its own operator functions.

    def _check_rank(self, other: "SparseCombination") -> None:
        if self._rank != other._rank:
            raise RankMismatchError(f"{self._RANK} mismatch: {self._rank} vs {other._rank}")

    def _add(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_rank(other)
        # Copy the larger operand's dict and merge only the smaller one in.
        large, small = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        if not small._terms:
            return large
        data = large._terms.copy()
        accumulate(data, small._terms.items())
        return _wrap(type(self), self._rank, data)

    def _neg(self):
        return self._map_coefficients(ScalarPoly.__neg__)

    def _sub(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def _scale(self, coeff: ScalarPoly | int):
        if not isinstance(coeff, ScalarPoly):
            coeff = ScalarPoly.integer(coeff)
        if coeff.is_one():
            return self
        return self._map_coefficients(ScalarPoly.__mul__, coeff)

    def _map_coefficients(self, apply, *args):
        """Return ``apply(coeff, *args)`` for each coefficient, dropping zero
        results.  ``apply`` is a pure :class:`ScalarPoly` method, run once per
        run of equal coefficients (the same object, as in exact_divide's
        quotients, or an equal value right after it, as accumulate's sums),
        and the run shares one result.  Callers read ``apply`` off
        :class:`ScalarPoly` at each call, so a replaced method sees every use."""
        data = {}
        last = new = None
        for key, coeff in self._terms.items():
            if coeff is not last:
                if last is None or coeff._terms != last._terms:
                    new = apply(coeff, *args)
                last = coeff
            if new._terms:
                data[key] = new
        return _wrap(type(self), self._rank, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._rank, frozenset(self._terms.items())))

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        sole_term = len(self._terms) == 1
        return join_signed(
            self._format_term(self._terms[key], self._format_key(key), sole_term)
            for key in sorted(self._terms, reverse=True)
        )

    @staticmethod
    def _format_term(coeff: ScalarPoly, body: str, sole_term: bool) -> tuple[int, str]:
        """Return (sign, unsigned rendering) of the term coeff * body."""
        if len(coeff._terms) == 1:
            ((triple, n),) = coeff._terms.items()
            sign, scalar_body = _format_scalar_term(n, triple)
            return sign, _times(scalar_body, body)
        # Multi-term coefficient: parenthesize, except for a lone constant term
        # where the bare scalar form round-trips unambiguously.
        if not body:
            return 1, str(coeff) if sole_term else f"({coeff})"
        return 1, f"({coeff})*{body}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._RANK}={self._rank} {self}>"


class LaurentPoly(SparseCombination):
    """An element of the Laurent ring in ``rank`` variables, canonical form."""

    __slots__ = ()

    @staticmethod
    def _check_key(rank: int, exps: Iterable[int]) -> ExponentVector:
        key = tuple(map(index, exps))
        if len(key) != rank:
            raise ValueError(f"exponent vector {key} has length {len(key)}, expected {rank}")
        return key

    @staticmethod
    def _format_key(exps: ExponentVector) -> str:
        return _monomial_string(exps, "X")

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls.monomial(rank, (0,) * rank)

    @classmethod
    def monomial(cls, rank: int, exps: Iterable[int], coeff: ScalarPoly | int = 1) -> "LaurentPoly":
        rank = check_at_least(cls._RANK, rank, 1)
        key = cls._check_key(rank, exps)
        if not isinstance(coeff, ScalarPoly):
            coeff = ScalarPoly.integer(coeff)
        return _wrap(cls, rank, {key: coeff} if coeff._terms else {})

    @classmethod
    def variable(cls, rank: int, i: int, exp: int = 1) -> "LaurentPoly":
        """The monomial X_i^exp."""
        rank = check_at_least(cls._RANK, rank, 1)
        exps = [0] * rank
        exps[check_index("variable index", i, rank) - 1] = exp
        return cls.monomial(rank, exps)

    # -- inspection ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._add(other)

    def __neg__(self) -> "LaurentPoly":
        return self._neg()

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._sub(other)

    def __mul__(self, other: "LaurentPoly | ScalarPoly | int") -> "LaurentPoly":
        if isinstance(other, (ScalarPoly, int)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_rank(other)
        data: dict[ExponentVector, ScalarPoly] = {}
        for shift, factor in other._terms.items():
            scaled = self if factor.is_one() else self._scale(factor)
            row = {tuple(map(add, key, shift)): coeff for key, coeff in scaled._terms.items()}
            if data:
                accumulate(data, row.items())
            else:
                data = row
        return _wrap(LaurentPoly, self._rank, data)

    __rmul__ = __mul__

    def scale(self, coeff: ScalarPoly | int) -> "LaurentPoly":
        return self._scale(coeff)

    def substitute_d_eq_s(self) -> "LaurentPoly":
        """Set d = s in every coefficient (cancellations are pruned)."""
        return self._map_coefficients(ScalarPoly.substitute_d_eq_s)


def _monomial_string(exps: ExponentVector, letter: str) -> str:
    return format_powers([f"{letter}{i}" for i in range(1, len(exps) + 1)], exps)


# -- variable operators --------------------------------------------------------


def _refuse(name: str, f: object, expected: type = LaurentPoly) -> None:
    raise TypeError(f"{name} expects a {expected.__name__}, got {type(f).__name__}")


def swap_variables(f: LaurentPoly, i: int) -> LaurentPoly:
    """Exchange X_i and X_{i+1} in every term (an involution, 1 <= i < rank)."""
    if not isinstance(f, LaurentPoly):
        _refuse("swap_variables", f)
    i = check_index("adjacent-pair index", i, f._rank - 1)
    return _wrap(LaurentPoly, f._rank, {
        key[: i - 1] + (key[i], key[i - 1]) + key[i + 1 :]: coeff
        for key, coeff in f._terms.items()
    })


# A cyclic shift of the exponent vectors is a bijection and c-powers are
# units, so the two rotations below can neither merge nor cancel terms.


def rotate_variables(f: LaurentPoly) -> LaurentPoly:
    """Apply the twisted cyclic substitution f(X_1, ..., X_k) ->
    f(c^2 X_k, X_1, ..., X_{k-1}).

    On a monomial with exponent vector (n_1, ..., n_k) this produces
    c^(2 n_1) X_k^(n_1) X_1^(n_2) ... X_{k-1}^(n_k).
    """
    if not isinstance(f, LaurentPoly):
        _refuse("rotate_variables", f)
    return _wrap(LaurentPoly, f._rank, {
        key[1:] + key[:1]: coeff * c_power(2 * key[0]) for key, coeff in f._terms.items()
    })


def rotate_variables_inverse(f: LaurentPoly) -> LaurentPoly:
    """Inverse of :func:`rotate_variables`; validated by the round trip
    rotate_variables_inverse(rotate_variables(f)) == f."""
    if not isinstance(f, LaurentPoly):
        _refuse("rotate_variables_inverse", f)
    return _wrap(LaurentPoly, f._rank, {
        key[-1:] + key[:-1]: coeff * c_power(-2 * key[-1]) for key, coeff in f._terms.items()
    })


def adjacent_ratio(rank: int, i: int) -> LaurentPoly:
    """The monomial Y = X_i * X_{i+1}^-1; a product by it is a key shift."""
    i = check_index("adjacent-pair index", i, rank - 1)
    shift = [0] * rank
    shift[i - 1], shift[i] = 1, -1
    return _wrap(LaurentPoly, rank, {tuple(shift): ScalarPoly.one()})


def _classes(f: LaurentPoly, i: int) -> dict[tuple, dict[int, ScalarPoly]]:
    """The division classes of f's terms at the pair i, i+1.

    Substituting Y = X_i * X_{i+1}^-1 groups the terms into classes that
    differ only by powers of Y: the same exponents ``head`` before position
    i and ``tail`` after position i+1, and the same exponent sum
    ``pair_sum`` at the two positions.  Within a class, division by Y - 1 is
    univariate Laurent division.  Returns ``{(head, pair_sum, tail): {j:
    coefficient}}``, with j the degree at position i, in the order of f's
    terms; ``i`` goes through ``operator.index``.
    """
    idx = index(i) - 1
    groups: dict[tuple, dict[int, ScalarPoly]] = {}
    for key, coeff in f._terms.items():
        groups.setdefault((key[:idx], key[idx] + key[idx + 1], key[idx + 2 :]), {})[key[idx]] = coeff
    return groups


def _certify(holds: bool, name: str, i: int) -> None:
    """Raise :class:`NonDivisibleError`, named for ``name``, unless the
    multiply-back check of a quotient by Y - 1 holds.  Each check's only
    product is by the one-term Y = X_i X_{i+1}^-1, a key shift, and it runs
    under every interpreter flag, so a wrong quotient fails even under -O."""
    if not holds:
        i = index(i)
        raise NonDivisibleError(f"{name} multiply-back certification failed for X{i}*X{i + 1}^-1 - 1")


def exact_divide(f: LaurentPoly, i: int) -> LaurentPoly:
    """Divide f exactly by X_i * X_{i+1}^-1 - 1, class by class
    (:func:`_classes`).

    A class is divisible exactly when its coefficients sum to zero;
    otherwise :class:`NonDivisibleError`, naming the class and its
    remainder, is raised.  Differences (swap - 1)f are always divisible, so
    this error on such input signals an arithmetic bug upstream.

    Each class is one sweep from its top degree down.  The running sum beta
    starts at the top coefficient; at each lower degree j the sweep stores
    beta as the quotient coefficient at j and then adds the class's
    coefficient at j, so the last add gives the remainder.  A beta that has
    cancelled to zero is replaced by the next coefficient, not added to it,
    so no sum involves the zero polynomial.

    The quotient q is certified (:func:`_certify`) as ``q * Y == f + q``,
    which is ``q * (Y - 1) == f`` rearranged.
    """
    if not isinstance(f, LaurentPoly):
        _refuse("exact_divide", f)
    rank = f._rank
    i = check_index("adjacent-pair index", i, rank - 1)
    data: dict[ExponentVector, ScalarPoly] = {}
    for (head, pair_sum, tail), alphas in _classes(f, i).items():
        low, high = min(alphas), max(alphas)
        beta = alphas[high]
        for j in range(high - 1, low - 1, -1):
            if beta._terms:
                data[head + (j, pair_sum - j) + tail] = beta
            alpha = alphas.get(j)
            if alpha is not None:
                beta = beta + alpha if beta._terms else alpha
        if beta._terms:
            raise NonDivisibleError(
                f"polynomial is not divisible by X{i}*X{i + 1}^-1 - 1 "
                f"(class {head + (pair_sum,) + tail} leaves remainder {beta})"
            )
    quotient = _wrap(LaurentPoly, rank, data)
    _certify(quotient * adjacent_ratio(rank, i) == f + quotient, "exact_divide", i)
    return quotient


def _half_sweep(f: LaurentPoly, swapped: LaurentPoly, i: int) -> LaurentPoly:
    """The exact quotient ``(swapped - f) / (X_i X_{i+1}^-1 - 1)``, built from
    f's own terms, class by class (:func:`_classes`), where ``swapped`` is
    ``swap_i f``.

    In a class of pair sum p, with f's coefficient a_j at degree j, the
    difference has coefficient ``b_k = a_(p-k) - a_k`` at degree k.  It is
    antisymmetric, so the quotient, whose coefficient at k - 1 is the sum of
    the b_m with m >= k, is a palindrome: its coefficients at k - 1 and
    p - k are equal.  So one running sum, walked from the top degree
    ``max(j, p - j)`` of the class down to ``p // 2 + 1``, gives all of it:
    at each k it adds a_(p-k), subtracts a_k and stores the sum at degree
    k - 1 and, right after it, at p - k.  A sum that has cancelled to zero
    is stored nowhere and replaced by the next term, not added to.  The two
    places of a sum are adjacent in the quotient's dict, so a coefficient
    map over it (such as ``.scale(hbar())``) makes one product per sum.

    The quotient q is certified (:func:`_certify`) as ``q * Y + f ==
    swapped + q``, which is ``q * (Y - 1) == swapped - f`` rearranged so
    that no difference is built.
    """
    rank = f._rank
    data: dict[ExponentVector, ScalarPoly] = {}
    for (head, pair_sum, tail), alphas in _classes(f, i).items():
        beta = _ZERO
        for k in range(max(max(alphas), pair_sum - min(alphas)), pair_sum // 2, -1):
            alpha = alphas.get(pair_sum - k)
            if alpha is not None:
                beta = beta + alpha if beta._terms else alpha
            alpha = alphas.get(k)
            if alpha is not None:
                beta = beta - alpha if beta._terms else -alpha
            if beta._terms:
                data[head + (k - 1, pair_sum - k + 1) + tail] = beta
                data[head + (pair_sum - k, k) + tail] = beta
    quotient = _wrap(LaurentPoly, rank, data)
    _certify(quotient * adjacent_ratio(rank, i) + f == swapped + quotient, "braid_kernel", i)
    return quotient


def braid_kernel(f: LaurentPoly, i: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The divided difference shared by both actions of the braid letter s_i.

    Returns ``(swap_i f, hbar * (swap_i f - f) / (X_i X_{i+1}^-1 - 1))`` with
    the division exact.  The polynomial representation sends f to
    ``s * swap_i f + g``; the skein module rewrites ``s_i a^n`` as
    ``swap_i a^n * s_i + g`` for the monomial ``f = a^n``.

    Which input takes which path:

    * a symmetric f (``swap_i f == f``), the zero polynomial among them, has
      ``g = 0``, returned without a division;
    * any other f of two or more terms is divided by :func:`_half_sweep`,
      which walks half of each class of f's own terms and builds neither a
      negated copy of f nor the difference ``swap_i f - f``;
    * a one-term f, which is every skein push and every polyrep grid input
      at its first letter, is divided as the composition ``swap_i f - f``,
      :func:`exact_divide`, scale.  It stays so until the closed form for
      one-term inputs (ROADMAP item 14) replaces it, because until then it
      is the path by which the benchmark's traced workloads reach
      :func:`exact_divide` and Laurent subtraction and negation, and the
      tracer requires every wrapped function to be called.
    """
    swapped = swap_variables(f, i)
    if swapped == f:
        return f, _wrap(LaurentPoly, f._rank, {})
    quotient = _half_sweep(f, swapped, i) if len(f._terms) > 1 else exact_divide(swapped - f, i)
    return swapped, quotient.scale(hbar())


# -- parsing ---------------------------------------------------------------------


def parse_laurent(text: str, rank: int) -> LaurentPoly:
    """Parse e.g. ``s*X1^2*X2^-1 + c^2*X2`` or ``(s + s^-1)*X1`` or ``0``."""
    ts = TokenStream(text)
    terms = parse_signed_sum(ts, lambda ts, sign: _parse_laurent_term(ts, rank, sign))
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} in polynomial")
    return LaurentPoly(rank, terms)


def _parse_laurent_term(ts: TokenStream, rank: int, sign: int) -> tuple[ExponentVector, ScalarPoly]:
    coeff = ScalarPoly.integer(sign)
    exps = [0] * rank
    start = ts.peek().pos
    while True:
        tok = ts.peek()
        factor = parse_scalar_factor(ts)
        if factor is not None:
            coeff = coeff * factor
        elif tok.kind == "name" and tok.letter == "X":
            if tok.index is None:
                ts.fail("variable X requires an index, e.g. X1")
            if not 1 <= tok.index <= rank:
                ts.fail(f"variable index {tok.index} out of range for rank {rank}")
            ts.advance()
            exp = parse_signed_int(ts) if ts.accept("^") else 1
            exps[tok.index - 1] += exp
        elif tok.kind == "(":
            ts.advance()
            coeff = coeff * parse_scalar_sum(ts)
            ts.expect(")", "')'")
        else:
            ts.fail(f"expected a polynomial factor, found {tok.text or 'end of input'!r}")
        if not ts.accept("*"):
            check_exponents(exps, "X", start)
            return tuple(exps), coeff
