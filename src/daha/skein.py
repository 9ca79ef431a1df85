"""The braid-skein module and the enhanced polynomial representation.

Elements here model braids in the punctured torus whose strands start at the
marked points and end on a fixed family of parallel curves.  After resolving
all crossings, such a braid is a combination of basis pairs

    (a_1^{n_1} ... a_kappa^{n_kappa}, sigma)

where the exponent n_i counts how often strand i winds around the torus and
the permutation sigma in S_kappa records which curve each strand ends on.
A :class:`Permutation` is the tuple of its images and compares equal to that
plain tuple, so a basis pair hashes, compares and sorts with no Python-level
code; a basis pair must still hold a Permutation, not a bare tuple.
Coefficients live in Z[s^±1, c^±1, d^±1]: ``s`` from crossing resolutions
(hbar = s - s^-1), ``c`` from sliding across the puncture, and ``d`` from
ends sliding past each other on the target curves.

Generator actions (all pure functions; inputs never mutated; anything but a
:class:`SkeinElement` is refused with ``TypeError`` naming its class):

* ``x_i`` multiplies by a_i, i.e. increments the i-th exponent.

* ``s_i`` on a bare permutation pair (1, sigma) is the two-case rule of
  :func:`act_sigma_base`:

      d^-1 (1, t_i sigma)                       if sigma(i) < sigma(i+1)
      d (1, t_i sigma) + hbar (1, sigma)        if sigma(i) > sigma(i+1)

  where t_i sigma is sigma precomposed with the position swap (i, i+1).  On
  a general pair the braid letter is first pushed through the monomial with
  :func:`push_sigma_past_monomial`, which rewrites s_i a^n as f s_i + g in
  closed form:

      f = swap_i a^n,    g = hbar (swap_i a^n - a^n) / (a_i a_{i+1}^-1 - 1).

  This is the divided difference of the polynomial representation,
  :func:`~daha.laurent.braid_kernel`, applied to the monomial a^n; the
  division is exact and the cost grows linearly in |n_i - n_{i+1}|.  It
  agrees with pushing s_i through the letters of a^n one at a time by

      s_i x_i     = x_{i+1} s_i - hbar x_{i+1}
      s_i x_{i+1} = x_i s_i     + hbar x_{i+1}
      s_i x_j     = x_j s_i                       (j != i, i+1)

  and their inverse-letter consequences, which the tests keep as the slow
  oracle.

* ``y_1`` is :func:`~daha.words.apply_y1` over the rotation that sends
  (a^n, sigma) to c^(2 n_1) times the basis pair with cyclically shifted
  exponents (a_kappa picks up n_1) and permutation t_1, ..., t_{kappa-1}
  applied in that order, which moves the first image to the end.

* ``s_i^-1 = s_i - hbar`` and ``y_1^-1`` are exact operator inverses,
  validated by round-trip tests rather than separate closed forms.

:class:`SkeinElement` is a :class:`~daha.laurent.SparseCombination` keyed by
basis pairs, sharing storage, arithmetic and printing with the Laurent
polynomials, and :func:`act_word` runs the shared word dispatcher
:func:`~daha.words.apply_word` over this module's generator actions.

With ``d_eq_s=True`` every action runs at d = s, where the paper's torus
statement lives, by setting d = s in the two-case rule alone.  That is exact:
setting d = s is a ring homomorphism phi, every generator acts linearly over
the coefficients, and d enters only through the rule's d^±1 (hbar and the
rotations' c-powers carry none).  So phi(act(v)) is the d = s action on
phi(v), and phi(v) is v for a d-free v, such as symmetrize(f).

:func:`symmetrize` is the averaging map from Laurent polynomials to the
skein module,

    X_1^{n_1} ... X_k^{n_k}  |->  sum over all sigma in S_k of
                                  (a_1^{n_1} ... a_k^{n_k}, sigma),

extended linearly.  Its domain has no d, so inputs whose coefficients carry
d-exponents are rejected.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import factorial
from operator import add, index
from typing import Iterable, Iterator, Sequence

from ._tokens import TokenStream, check_exponents, parse_signed_int, parse_signed_sum
from .errors import check_at_least, check_index
from .laurent import (
    LaurentPoly, SparseCombination, _monomial_string, _refuse, _wrap, accumulate, braid_kernel,
)
from .scalars import ScalarPoly, c_power, d_power, hbar, parse_scalar_factor, parse_scalar_sum
from .words import GeneratorWord, apply_word, apply_y1, apply_y1_inv

ExponentVector = tuple[int, ...]


class Permutation(tuple):
    """An element of S_kappa in one-line image notation, 1-based.

    A permutation is the tuple of its images, so it hashes, compares and
    sorts as that tuple does, and equals the plain tuple of the same images.
    Only a :class:`Permutation` is a valid basis-pair permutation, though:
    :meth:`SkeinElement._check_key` rejects a bare tuple.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        checked = tuple(map(index, images))
        kappa = len(checked)
        if kappa < 1 or sorted(checked) != list(range(1, kappa + 1)):
            raise ValueError(f"{checked} is not a permutation of 1..{kappa}")
        return tuple.__new__(cls, checked)

    def __reduce__(self):
        # Unpickle through the validating constructor, under every protocol.
        return Permutation, (tuple(self),)

    # Wrap images already known to form a permutation (internal fast path):
    # ``Permutation._raw(Permutation, images)``.
    _raw = tuple.__new__

    @classmethod
    def identity(cls, kappa: int) -> "Permutation":
        return cls(tuple(range(1, kappa + 1)))

    def __call__(self, j: int) -> int:
        """The image of position j, for 1 <= j <= len(self)."""
        return self[check_index("position", j, len(self)) - 1]

    def precompose_swap(self, i: int) -> "Permutation":
        """Compose with the transposition of positions i, i+1 acting first.

        The result pi satisfies pi(i) = self(i+1), pi(i+1) = self(i) and
        agrees with self elsewhere; in particular the comparison of values
        at positions i, i+1 flips, which is what the two-case braid rule
        needs.  Applying it twice returns the original permutation.
        """
        i = check_index("swap index", i, len(self) - 1)
        return self._raw(Permutation, self[: i - 1] + (self[i], self[i - 1]) + self[i + 1 :])

    def __repr__(self) -> str:
        return f"Permutation(images={tuple(self)!r})"

    def __str__(self) -> str:
        return "[" + " ".join(map(str, self)) + "]"


def all_permutations(kappa: int) -> Iterator[Permutation]:
    """The kappa! permutations of 1..kappa, in lexicographic order."""
    kappa = check_at_least("kappa", kappa, 1)
    # itertools yields exactly the permutations, so none is validated again.
    return map(partial(Permutation._raw, Permutation), itertools.permutations(range(1, kappa + 1)))


BasisKey = tuple[ExponentVector, Permutation]


class SkeinElement(SparseCombination):
    """A finite combination of basis pairs (a-monomial, permutation)."""

    __slots__ = ()
    _RANK = "kappa"

    @staticmethod
    def _check_key(kappa: int, key: BasisKey) -> BasisKey:
        try:
            exps, perm = key
        except (TypeError, ValueError):
            perm = None
        if not isinstance(perm, Permutation):
            raise TypeError(f"basis pair {key!r} is not an (exponents, Permutation) pair")
        key = (tuple(map(index, exps)), perm)
        if len(key[0]) != kappa or len(perm) != kappa:
            raise ValueError(f"basis pair {key} does not match kappa={kappa}")
        return key

    @staticmethod
    def _format_key(key: BasisKey) -> str:
        return f"({_monomial_string(key[0], 'a') or '1'},{key[1]})"

    @classmethod
    def basis(
        cls,
        kappa: int,
        exps: Iterable[int],
        perm: Permutation | None = None,
        coeff: ScalarPoly | int = 1,
    ) -> "SkeinElement":
        if perm is None:
            perm = Permutation.identity(kappa)
        return cls(kappa, [((exps, perm), coeff)])

    @property
    def kappa(self) -> int:
        return self._rank

    def __add__(self, other: "SkeinElement") -> "SkeinElement":
        return self._add(other)

    def __neg__(self) -> "SkeinElement":
        return self._neg()

    def __sub__(self, other: "SkeinElement") -> "SkeinElement":
        return self._sub(other)

    def scale(self, coeff: ScalarPoly | int) -> "SkeinElement":
        return self._scale(coeff)

    def shift_exponents(self, offset: Sequence[int]) -> "SkeinElement":
        """Multiply by the a-monomial with the given exponent offset and
        coefficient 1.  A translation of the exponent vectors is injective,
        so no terms merge or cancel.  Each distinct exponent vector is
        shifted once: in a symmetrized element kappa! terms share one."""
        offset = LaurentPoly._check_key(self._rank, offset)
        shifted: dict[ExponentVector, ExponentVector] = {}
        data: dict[BasisKey, ScalarPoly] = {}
        for (exps, perm), coeff in self._terms.items():
            new = shifted.get(exps)
            if new is None:
                new = shifted[exps] = tuple(map(add, exps, offset))
            data[new, perm] = coeff
        return _wrap(SkeinElement, self._rank, data)

    def multiply_by_a_poly(self, poly: LaurentPoly) -> "SkeinElement":
        """Multiply by a Laurent polynomial in the a-variables.

        ``self`` is scaled once per run of one coefficient object in ``poly``
        (as in the quotients of :func:`~daha.laurent.exact_divide`), and each
        term of ``poly`` then only shifts the exponents.

        Where terms can merge: when ``self`` has one exponent vector (a
        symmetrized monomial, or the unbraided part of :func:`act_sigma`),
        distinct terms of ``poly`` shift it to distinct vectors, so the
        shifted copies have pairwise disjoint keys and are placed with
        ``dict.update``.  Only with several exponent vectors can two copies
        share a key, and then they are merged with
        :func:`~daha.laurent.accumulate`, which drops cancelled keys.

        A ``poly`` that is not a :class:`~daha.laurent.LaurentPoly` raises
        ``TypeError``, and one of another rank ``RankMismatchError``.
        """
        if not isinstance(poly, LaurentPoly):
            _refuse("multiply_by_a_poly", poly)
        self._check_rank(poly)
        data: dict[BasisKey, ScalarPoly] = {}
        disjoint = len({exps for exps, _ in self._terms}) <= 1
        last = scaled = None
        for exps, coeff in poly._terms.items():
            if coeff is not last:
                last, scaled = coeff, self.scale(coeff)
            shifted = scaled.shift_exponents(exps)._terms
            if disjoint:
                data.update(shifted)
            else:
                accumulate(data, shifted.items())
        return _wrap(SkeinElement, self._rank, data)

    def substitute_d_eq_s(self) -> "SkeinElement":
        """Set d = s in every coefficient (cancellations are pruned)."""
        return self._map_coefficients(ScalarPoly.substitute_d_eq_s)


# -- generator actions ---------------------------------------------------------


def act_x(i: int, v: SkeinElement, exp: int = 1) -> SkeinElement:
    """Multiply by a_i^exp: shift the i-th exponent of every basis term."""
    if not isinstance(v, SkeinElement):
        _refuse("act_x", v, SkeinElement)
    offset = [0] * v._rank
    offset[check_index("variable index", i, v._rank) - 1] = exp
    return v.shift_exponents(offset)


_D = d_power(1)
_D_INV = d_power(-1)


def act_sigma_base(i: int, perm: Permutation) -> SkeinElement:
    """The braid letter s_i on the exponent-free pair (1, perm)."""
    kappa = len(perm)
    i = check_index("braid index", i, kappa - 1)
    zero_exps = (0,) * kappa
    swapped = perm.precompose_swap(i)
    if perm[i - 1] < perm[i]:
        return _wrap(SkeinElement, kappa, {(zero_exps, swapped): _D_INV})
    # swapped differs from perm, so the two basis pairs are distinct.
    return _wrap(SkeinElement, kappa, {(zero_exps, swapped): _D, (zero_exps, perm): hbar()})


def push_sigma_past_monomial(i: int, exps: Sequence[int]) -> tuple[LaurentPoly, LaurentPoly]:
    """Rewrite s_i * a^exps as f * s_i + g with f, g polynomials in the a's.

    Closed form (see the module docstring): ``f = swap_i a^exps`` and
    ``g = hbar (f - a^exps) / (a_i a_{i+1}^-1 - 1)``; coefficients involve
    only powers of s.
    """
    return braid_kernel(LaurentPoly.monomial(len(exps), exps), i)


def act_sigma(i: int, v: SkeinElement, d_eq_s: bool = False) -> SkeinElement:
    """Apply the braid letter s_i to a general element (at d = s if ``d_eq_s``).

    Terms are grouped by exponent vector, so each distinct monomial is pushed
    once: the terms c_sigma (a^n, sigma) map to
    f * sum c_sigma s_i(1, sigma) + g * sum c_sigma (1, sigma).

    Each group's divided-difference half ``g * sum c_sigma (1, sigma)`` is
    placed first.  It has |n_i - n_{i+1}| times as many terms as the group,
    and no two of them share a key (see :meth:`SkeinElement.multiply_by_a_poly`),
    so the first such half placed becomes the result's dict as it is.  The
    pushed f is the single monomial swap_i a^n with coefficient 1, so the
    braided half, at most two terms per input term, lands at the keys
    (swap_i n, sigma') of the terms of s_i(1, sigma), with coefficient
    c_sigma times the two-case rule's.  Terms merge, and may cancel, only
    where the braided half meets keys already placed and where the halves
    of different exponent groups meet.  Each permutation's rule is built once
    per call, and at d = s it is substituted there, before any product.

    A group's braided half is one :func:`~daha.laurent.accumulate` call over
    :func:`_braided_half`, which walks the group in runs of equal c_sigma and
    makes each distinct product of a rule coefficient and the run's value
    once.  A symmetrized group is one run of kappa! terms, so it costs three
    products (d^-1, d and hbar, or s^-1, s and hbar at d = s).  Its items
    then share those objects, so where they merge, accumulate makes one sum
    per run of adds of the same two objects.  This is exact: scalars are
    immutable and their arithmetic is pure.
    """
    if not isinstance(v, SkeinElement):
        _refuse("act_sigma", v, SkeinElement)
    kappa = v._rank
    i = check_index("braid index", i, kappa - 1)
    by_exps: dict[ExponentVector, list[tuple[Permutation, ScalarPoly]]] = {}
    for (exps, perm), coeff in v._terms.items():
        by_exps.setdefault(exps, []).append((perm, coeff))
    zero_exps = (0,) * kappa
    data: dict[BasisKey, ScalarPoly] = {}
    rules: dict[Permutation, dict[BasisKey, ScalarPoly]] = {}
    for exps, pairs in by_exps.items():
        f, g = push_sigma_past_monomial(i, exps)
        (swapped_exps,) = f._terms
        if g._terms:
            unbraided = _wrap(
                SkeinElement, kappa, {(zero_exps, perm): coeff for perm, coeff in pairs}
            )
            # The product is freshly built, so an empty result takes it over.
            product = unbraided.multiply_by_a_poly(g)._terms
            if data:
                accumulate(data, product.items())
            else:
                data = product
        accumulate(data, _braided_half(i, swapped_exps, pairs, rules, d_eq_s))
    return _wrap(SkeinElement, kappa, data)


def _braided_half(i, swapped_exps, pairs, rules, d_eq_s):
    """The items ((swap_i n, sigma'), rule coefficient * c_sigma) of one
    exponent group's braided half, in input order.

    The pairs are walked in runs of equal c_sigma (the same object, or an
    equal value right after it), and within a run each distinct rule
    coefficient's product is made once and shared.  Rule coefficients are
    compared by identity, then by value: at d = s each permutation's rule
    is substituted on its own, so equal coefficients are distinct objects."""
    last = None
    products: list[tuple[ScalarPoly, ScalarPoly]] = []
    for perm, coeff in pairs:
        if coeff is not last:
            if last is None or coeff._terms != last._terms:
                products = []
            last = coeff
        rule = rules.get(perm)
        if rule is None:
            rule = act_sigma_base(i, perm)
            rule = rules[perm] = (rule.substitute_d_eq_s() if d_eq_s else rule)._terms
        for (_, base_perm), base_coeff in rule.items():
            for known, product in products:
                if known is base_coeff or known._terms == base_coeff._terms:
                    break
            else:
                product = base_coeff * coeff
                products.append((base_coeff, product))
            yield (swapped_exps, base_perm), product


def act_sigma_inv(i: int, v: SkeinElement, d_eq_s: bool = False) -> SkeinElement:
    """Apply s_i^-1 = s_i - hbar."""
    if not isinstance(v, SkeinElement):
        _refuse("act_sigma_inv", v, SkeinElement)
    return act_sigma(i, v, d_eq_s) - v.scale(hbar())


def _rotate(v: SkeinElement) -> SkeinElement:
    """The rotation of y_1 (see the module docstring).  It and its inverse
    are bijections on basis pairs times unit c-powers: no term merges or cancels."""
    return _wrap(SkeinElement, v._rank, {
        (exps[1:] + exps[:1], Permutation._raw(Permutation, perm[1:] + perm[:1])):
            coeff * c_power(2 * exps[0])
        for (exps, perm), coeff in v._terms.items()
    })


def _rotate_inverse(v: SkeinElement) -> SkeinElement:
    return _wrap(SkeinElement, v._rank, {
        (exps[-1:] + exps[:-1], Permutation._raw(Permutation, perm[-1:] + perm[:-1])):
            coeff * c_power(-2 * exps[-1])
        for (exps, perm), coeff in v._terms.items()
    })


def act_y1(v: SkeinElement, d_eq_s: bool = False) -> SkeinElement:
    """Apply y_1 (:func:`~daha.words.apply_y1`)."""
    if not isinstance(v, SkeinElement):
        _refuse("act_y1", v, SkeinElement)
    return apply_y1(v, _rotate, partial(act_sigma_inv, d_eq_s=d_eq_s))


def act_y1_inv(v: SkeinElement, d_eq_s: bool = False) -> SkeinElement:
    """Apply y_1^-1 (:func:`~daha.words.apply_y1_inv`)."""
    if not isinstance(v, SkeinElement):
        _refuse("act_y1_inv", v, SkeinElement)
    return apply_y1_inv(v, _rotate_inverse, partial(act_sigma, d_eq_s=d_eq_s))


def act_word(word: GeneratorWord, v: SkeinElement, d_eq_s: bool = False) -> SkeinElement:
    """Act by a generator word, rightmost letter first (:func:`~daha.words.apply_word`),
    at d = s if ``d_eq_s``."""
    actions = (act_sigma, act_sigma_inv, act_y1, act_y1_inv)
    if d_eq_s:
        actions = tuple(partial(act, d_eq_s=True) for act in actions)
    return apply_word(word, v, (act_x, *actions))


# -- the averaging map -----------------------------------------------------------


def symmetrize(f: LaurentPoly) -> SkeinElement:
    """Send each monomial to the sum of basis pairs over all permutations.

    f must be a :class:`~daha.laurent.LaurentPoly` (anything else raises
    ``TypeError``) whose coefficients do not involve d (``ValueError``).  The
    result is canonical as built: the basis pairs are distinct and every
    coefficient is a nonzero coefficient of f.
    """
    if not isinstance(f, LaurentPoly):
        _refuse("symmetrize", f)
    if any(coeff.has_d() for coeff in f._terms.values()):
        raise ValueError("the averaging map is not defined for coefficients involving d")
    kappa = f._rank
    perms = list(all_permutations(kappa))
    data = {(exps, perm): coeff for exps, coeff in f._terms.items() for perm in perms}
    return _wrap(SkeinElement, kappa, data)


def is_symmetrization(v: SkeinElement, f: LaurentPoly) -> bool:
    """Whether ``v == symmetrize(f)``, decided without building the right side.

    That holds exactly when the ranks match, v has ``kappa!`` terms for each
    term of f, and every coefficient of v equals the coefficient of f at its
    exponent vector: v's basis pairs are distinct, so together they are then
    every (exponent vector of f, permutation) pair.  A coefficient object
    already found equal at an exponent vector is not compared again.  Unlike
    :func:`symmetrize` it accepts a d in f's coefficients, which makes a
    mismatch against any v at d = s.
    """
    if v._rank != f._rank or len(v._terms) != len(f._terms) * factorial(f._rank):
        return False
    expected = f._terms
    confirmed: dict = {}
    for (exps, _), coeff in v._terms.items():
        if confirmed.get(exps) is not coeff:
            want = expected.get(exps)
            if want is None or coeff._terms != want._terms:
                return False
            confirmed[exps] = coeff
    return True


# -- parsing -----------------------------------------------------------------


def parse_skein(text: str, kappa: int) -> SkeinElement:
    """Parse e.g. ``c^4*(a1^-1*a2^2,[1 2])`` or ``(a1, [2 1]) - d*(1,[1 2])``.

    Each term is a product of scalar factors and exactly one basis pair; the
    permutation is given in one-line image notation.  ``0`` is the zero
    element.
    """
    ts = TokenStream(text)
    terms = parse_signed_sum(ts, lambda ts, sign: _parse_skein_term(ts, kappa, sign))
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} in skein element")
    return SkeinElement(kappa, [term for term in terms if term is not None])


def _parse_skein_term(ts: TokenStream, kappa: int, sign: int) -> tuple[BasisKey, ScalarPoly] | None:
    """One term as (basis pair, coefficient), or None for a bare zero such as ``0``."""
    coeff = ScalarPoly.integer(sign)
    basis: BasisKey | None = None
    explicit_zero = False
    while True:
        tok = ts.peek()
        factor = parse_scalar_factor(ts)
        if factor is not None:
            explicit_zero = explicit_zero or not factor
            coeff = coeff * factor
        elif tok.kind == "(" and _starts_basis_pair(ts):
            pair = _parse_basis_pair(ts, kappa)
            if basis is not None:
                ts.fail("a term may contain only one basis pair")
            basis = pair
        elif tok.kind == "(":
            ts.advance()
            coeff = coeff * parse_scalar_sum(ts)
            ts.expect(")", "')'")
        else:
            ts.fail(f"expected a term factor, found {tok.text or 'end of input'!r}")
        if not ts.accept("*"):
            break
    if basis is None:
        if not coeff and explicit_zero:
            return None
        ts.fail("term is missing its (monomial, permutation) basis pair")
    return basis, coeff


def _starts_basis_pair(ts: TokenStream) -> bool:
    """Whether the ``(`` at the cursor opens a basis pair rather than a scalar
    sum: its monomial starts with an a-variable, or is the ``1`` before ``,``.
    Only name tokens have a letter and only an integer token reads ``1``."""
    return ts.peek(1).letter == "a" or (ts.peek(1).text == "1" and ts.peek(2).kind == ",")


def _parse_basis_pair(ts: TokenStream, kappa: int) -> tuple[ExponentVector, Permutation]:
    start = ts.expect("(", "'('").pos
    exps = [0] * kappa
    tok = ts.peek()
    if tok.kind == "int" and tok.text == "1":
        ts.advance()
    else:
        while True:
            tok = ts.peek()
            if tok.kind != "name" or tok.letter != "a" or tok.index is None:
                ts.fail(f"expected an a-variable, found {tok.text or 'end of input'!r}")
            if not 1 <= tok.index <= kappa:
                ts.fail(f"variable index {tok.index} out of range for kappa {kappa}")
            ts.advance()
            exp = parse_signed_int(ts) if ts.accept("^") else 1
            exps[tok.index - 1] += exp
            if not ts.accept("*"):
                break
        check_exponents(exps, "a", start)
    ts.expect(",", "','")
    ts.expect("[", "'['")
    images = []
    while not ts.accept("]"):
        images.append(int(ts.expect("int", "permutation image").text))
        ts.accept(",")
    if len(images) != kappa or sorted(images) != list(range(1, kappa + 1)):
        ts.fail(f"{images} is not a permutation of 1..{kappa}")
    ts.expect(")", "')'")
    return tuple(exps), Permutation._raw(Permutation, images)
