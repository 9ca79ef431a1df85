"""Slow oracles for ring sums, products, scaling, negation and d = s.

``ScalarPoly`` and ``LaurentPoly`` multiply by a one-term factor as a key
shift, without merging or pruning.  The product references always take every
pair of terms and leave merging and pruning to the validating constructors,
so they share no code with either product.

Sums copy the larger operand and merge only the smaller one in.  The sum
references concatenate both term lists instead; a scalar sum is merged by
the ``ScalarPoly`` constructor, and a Laurent or skein sum merges the
coefficients of each key with that constructor before building the result,
so they share no code with ``ScalarPoly.__add__`` or
:func:`~daha.laurent.accumulate`.

Scaling, negation and the d = s substitution map each coefficient once per
run of equal coefficients: the same object, or an equal value right after
it.  Their references rebuild every coefficient, term by term, through the
``ScalarPoly`` constructor, and a difference is the sum reference with the
negated right operand.
"""

from __future__ import annotations

from daha import LaurentPoly, ScalarPoly


def scalar_sum(a: ScalarPoly, b: ScalarPoly) -> ScalarPoly:
    return ScalarPoly([*a.terms.items(), *b.terms.items()])


def combination_sum(f, g, rank: int):
    """f + g for two LaurentPoly or two SkeinElement values of this rank.

    Keys reach the validating constructor once each and with a nonzero
    coefficient, so it has nothing left to merge or prune.
    """
    if type(f) is not type(g):
        raise TypeError(f"cannot add {type(f).__name__} and {type(g).__name__}")
    merged: dict = {}
    for key, coeff in [*f.terms.items(), *g.terms.items()]:
        merged.setdefault(key, []).extend(coeff.terms.items())
    sums = [(key, ScalarPoly(items)) for key, items in merged.items()]
    return type(f)(rank, [(key, coeff) for key, coeff in sums if coeff])


def scalar_product(a: ScalarPoly, b: ScalarPoly) -> ScalarPoly:
    return ScalarPoly([
        (tuple(x + y for x, y in zip(a_key, b_key)), a_coeff * b_coeff)
        for a_key, a_coeff in a.terms.items()
        for b_key, b_coeff in b.terms.items()
    ])


def laurent_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    if f.rank != g.rank:
        raise ValueError(f"ranks {f.rank} and {g.rank} differ")
    return LaurentPoly(f.rank, [
        (tuple(x + y for x, y in zip(f_key, g_key)), scalar_product(f_coeff, g_coeff))
        for f_key, f_coeff in f.terms.items()
        for g_key, g_coeff in g.terms.items()
    ])


def _rebuilt(value, terms):
    """A value of value's class and rank with the given (key, coefficient)
    terms, through the validating constructor, which drops the coefficients
    that vanish."""
    rank = value.rank if isinstance(value, LaurentPoly) else value.kappa
    return type(value)(rank, terms)


def d_eq_s(value):
    """A LaurentPoly or SkeinElement at d = s."""
    return _rebuilt(value, [
        (key, ScalarPoly([((e_s + e_d, e_c, 0), n) for (e_s, e_c, e_d), n in coeff.terms.items()]))
        for key, coeff in value.terms.items()
    ])


def negated(value):
    """-value for a LaurentPoly or SkeinElement."""
    return _rebuilt(value, [
        (key, ScalarPoly([(exps, -n) for exps, n in coeff.terms.items()]))
        for key, coeff in value.terms.items()
    ])


def scaled(value, factor: ScalarPoly):
    """factor * value for a LaurentPoly or SkeinElement."""
    return _rebuilt(value, [(key, scalar_product(coeff, factor)) for key, coeff in value.terms.items()])
