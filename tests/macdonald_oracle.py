"""Macdonald's operator D_kappa^1, written from its formula.

On symmetric Laurent polynomials ``s^(kappa-1) (Y_1 + ... + Y_kappa)`` is
Macdonald's first operator (Macdonald, *Symmetric Functions and Hall
Polynomials*, 2nd ed., ch. VI §3; Cherednik, Ann. of Math. 141, 1995)::

    D^1 = sum_i prod_{j != i} (t X_i - X_j) / (X_i - X_j) T_i

with t = s^2 and T_i the q-shift X_i -> q X_i at q = c^2, which multiplies
X^n by c^(2 n_i).  The Vandermonde product V = prod_{a<b} (X_a - X_b) clears
the denominators, since V / prod_{j != i} (X_i - X_j) = (-1)^(i-1) V_i with
V_i the same product over the pairs that do not contain i::

    V * D^1 f = sum_i (-1)^(i-1) V_i prod_{j != i} (t X_i - X_j) T_i f

:func:`macdonald_side` builds the right side from ``LaurentPoly`` sums,
products and scaling alone; nothing here calls the library's actions, so it
is an oracle for them that does not share how the Y operators are built.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

from daha import LaurentPoly, c_power, s_power


def symmetric_monomials(kappa: int, bound: int) -> list[LaurentPoly]:
    """Every monomial symmetric function m_lam with parts in [-bound, bound]:
    the sum of X^n over the distinct rearrangements n of lam."""
    return [LaurentPoly(kappa, {n: 1 for n in set(permutations(lam))})
            for lam in combinations_with_replacement(range(bound, -bound - 1, -1), kappa)]


def vandermonde(kappa: int, skip: int | None = None) -> LaurentPoly:
    """prod_{a<b} (X_a - X_b) over the pairs that do not contain ``skip``."""
    x = [None] + [LaurentPoly.variable(kappa, i) for i in range(1, kappa + 1)]
    product = LaurentPoly.one(kappa)
    for a in range(1, kappa + 1):
        for b in range(a + 1, kappa + 1):
            if skip not in (a, b):
                product = product * (x[a] - x[b])
    return product


def q_shift(f: LaurentPoly, i: int) -> LaurentPoly:
    """T_i f: each X^n times c^(2 n_i)."""
    return LaurentPoly(f.rank, {n: coeff * c_power(2 * n[i - 1]) for n, coeff in f.terms.items()})


def macdonald_side(f: LaurentPoly) -> LaurentPoly:
    """sum_i (-1)^(i-1) V_i prod_{j != i} (t X_i - X_j) T_i f, which is V * D^1 f."""
    kappa = f.rank
    x = [None] + [LaurentPoly.variable(kappa, i) for i in range(1, kappa + 1)]
    total = LaurentPoly.zero(kappa)
    for i in range(1, kappa + 1):
        term = vandermonde(kappa, skip=i).scale((-1) ** (i - 1)) * q_shift(f, i)
        for j in range(1, kappa + 1):
            if j != i:
                term = term * (x[i].scale(s_power(2)) - x[j])
        total = total + term
    return total
