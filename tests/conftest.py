"""Shared hypothesis strategies for the exact-arithmetic test suite."""

from __future__ import annotations

from hypothesis import settings, strategies as st

from daha import GeneratorLetter, GeneratorWord, LaurentPoly, Permutation, ScalarPoly, SkeinElement

settings.register_profile("daha", deadline=None, max_examples=60)
settings.load_profile("daha")

small_exponents = st.integers(min_value=-2, max_value=2)
small_coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def scalar_polys(draw, max_terms: int = 4, min_terms: int = 0):
    n = draw(st.integers(min_value=min_terms, max_value=max_terms))
    terms = [
        ((draw(small_exponents), draw(small_exponents), draw(small_exponents)), draw(small_coeffs))
        for _ in range(n)
    ]
    return ScalarPoly(terms)


@st.composite
def laurent_polys(
    draw, rank: int | None = None, max_terms: int = 4, max_exp: int = 3, min_terms: int = 0
):
    if rank is None:
        rank = draw(st.integers(min_value=1, max_value=4))
    exps = st.integers(min_value=-max_exp, max_value=max_exp)
    n = draw(st.integers(min_value=min_terms, max_value=max_terms))
    terms = []
    for _ in range(n):
        key = tuple(draw(exps) for _ in range(rank))
        coeff = draw(scalar_polys(max_terms=2))
        terms.append((key, coeff))
    return LaurentPoly(rank, terms)


@st.composite
def permutations(draw, kappa: int | None = None):
    if kappa is None:
        kappa = draw(st.integers(min_value=1, max_value=4))
    images = draw(st.permutations(tuple(range(1, kappa + 1))))
    return Permutation(tuple(images))


@st.composite
def skein_elements(
    draw, kappa: int | None = None, max_terms: int = 3, max_exp: int = 2, min_terms: int = 0
):
    if kappa is None:
        kappa = draw(st.integers(min_value=1, max_value=3))
    exps = st.integers(min_value=-max_exp, max_value=max_exp)
    n = draw(st.integers(min_value=min_terms, max_value=max_terms))
    terms = []
    for _ in range(n):
        key = (tuple(draw(exps) for _ in range(kappa)), draw(permutations(kappa=kappa)))
        coeff = draw(scalar_polys(max_terms=2))
        terms.append((key, coeff))
    return SkeinElement(kappa, terms)


@st.composite
def shared_coefficient_runs(draw, keys, max_runs: int = 5):
    """Terms on distinct keys from ``keys``, in runs that share one
    coefficient value.

    The values come from a small pool: a few drawn scalars, ``d - s``
    (which vanishes at d = s) and ``s + c^-2`` (which has no d).  A pool
    value may head several runs, so it recurs both within a run and across
    runs.  Each term of a run holds either the pool object itself or its
    own equal copy, ``ScalarPoly(coeff.terms)``, so a run may share one
    object, hold distinct equal objects, or mix the two.
    """
    pool = draw(st.lists(scalar_polys(max_terms=3, min_terms=1), min_size=1, max_size=3))
    pool += [ScalarPoly({(0, 0, 1): 1, (1, 0, 0): -1}), ScalarPoly({(1, 0, 0): 1, (0, -2, 0): 1})]
    runs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.lists(st.booleans(), min_size=1, max_size=4)),
        max_size=max_runs,
    ))
    coeffs = [ScalarPoly(coeff.terms) if copy else coeff for coeff, copies in runs for copy in copies]
    distinct = draw(st.lists(keys, min_size=len(coeffs), max_size=len(coeffs), unique=True))
    return list(zip(distinct, coeffs))


def _same_kind(element, terms):
    """A value of element's class and rank with the given terms."""
    if isinstance(element, ScalarPoly):
        return ScalarPoly(terms)
    rank = element.rank if isinstance(element, LaurentPoly) else element.kappa
    return type(element)(rank, terms)


def _cancelling_part(draw, coeff):
    """A coefficient that cancels part of coeff, or all of it, when added."""
    if isinstance(coeff, int):
        return -coeff + draw(small_coeffs)
    negated = [(key, -n) for key, n in coeff.terms.items()]
    kept = draw(st.lists(st.sampled_from(negated), min_size=1, unique=True))
    return ScalarPoly(kept + list(draw(scalar_polys(max_terms=1)).terms.items()))


@st.composite
def lopsided_pairs(draw, large, small):
    """(big, little) with big drawn from ``large`` and little much smaller.

    On up to three of big's keys little's coefficient cancels big's exactly
    or in part; its other terms come from ``small`` and may be new keys.  So
    a sum reaches both sides of a walk over the smaller operand: keys that
    merge, keys that vanish, and keys that are only copied.
    """
    big = draw(large)
    terms = list(draw(small).terms.items())
    if big:
        for key in draw(st.lists(st.sampled_from(sorted(big.terms)), max_size=3, unique=True)):
            coeff = big.terms[key]
            terms.append((key, -coeff if draw(st.booleans()) else _cancelling_part(draw, coeff)))
    return big, _same_kind(big, terms)


@st.composite
def generator_letters(draw, kappa: int):
    kinds = ["x", "y"] if kappa == 1 else ["s", "x", "y"]
    kind = draw(st.sampled_from(kinds))
    index = draw(st.integers(min_value=1, max_value=kappa - 1 if kind == "s" else kappa))
    sign = draw(st.sampled_from([1, -1]))
    return GeneratorLetter(kind, index, sign)


@st.composite
def generator_words(draw, kappa: int | None = None, max_len: int = 6):
    if kappa is None:
        kappa = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=max_len))
    return GeneratorWord(kappa, [draw(generator_letters(kappa)) for _ in range(n)])
