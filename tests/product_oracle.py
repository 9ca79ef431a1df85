"""Slow oracle for ring products: the plain double loop.

``ScalarPoly`` and ``LaurentPoly`` multiply by a one-term factor as a key
shift, without merging or pruning.  These references always take every pair
of terms and leave merging and pruning to the validating constructors, so
they share no code with either product.
"""

from __future__ import annotations

from daha import LaurentPoly, ScalarPoly


def scalar_product(a: ScalarPoly, b: ScalarPoly) -> ScalarPoly:
    return ScalarPoly([
        (tuple(x + y for x, y in zip(a_key, b_key)), a_coeff * b_coeff)
        for a_key, a_coeff in a.terms.items()
        for b_key, b_coeff in b.terms.items()
    ])


def laurent_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    assert f.rank == g.rank
    return LaurentPoly(f.rank, [
        (tuple(x + y for x, y in zip(f_key, g_key)), scalar_product(f_coeff, g_coeff))
        for f_key, f_coeff in f.terms.items()
        for g_key, g_coeff in g.terms.items()
    ])
