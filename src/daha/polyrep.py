"""The standard polynomial representation on Laurent polynomials.

The generators act on ``Z[s^±1, c^±1][X_1^±1, ..., X_k^±1]`` by

* ``x_i``: multiplication by X_i,
* ``s_i``: the divided-difference (Demazure-Lusztig type) operator

      f  |->  s * swap_i(f) + (s - s^-1) * (swap_i(f) - f) / (X_i X_{i+1}^-1 - 1),

  where the division is exact; the pair (swap_i(f), the quotient term) is
  :func:`~daha.laurent.braid_kernel`, which the skein push-through shares,
* ``y_1``: :func:`~daha.words.apply_y1` over the twisted rotation
  :func:`~daha.laurent.rotate_variables`,
* ``s_i^-1 = s_i - (s - s^-1)`` from the quadratic relation, computed in the
  closed form

      f  |->  s^-1 * swap_i(f) + X_i X_{i+1}^-1 * g,

  with (swap_i(f), g) the same kernel pair: since
  ``(s - s^-1) * (swap_i(f) - f) = (X_i X_{i+1}^-1 - 1) * g``, the sum
  ``s * swap_i(f) + g - (s - s^-1) * f`` equals it.

Words act letter by letter, rightmost letter first, so that word
concatenation matches operator composition for a left action; the dispatcher
is :func:`~daha.words.apply_word`, shared with the skein module.  ``x_i``
multiplies by X_i directly, and ``y_i`` with i > 1 acts through its expansion
into the generating set.  All operations are pure and inputs are never
mutated.
"""

from __future__ import annotations

from .laurent import (
    LaurentPoly, _refuse, adjacent_ratio, braid_kernel, rotate_variables, rotate_variables_inverse,
)
from .scalars import s_power
from .words import GeneratorWord, apply_word, apply_y1, apply_y1_inv

_S = s_power(1)
_S_INV = s_power(-1)


def act_x(i: int, f: LaurentPoly, exp: int = 1) -> LaurentPoly:
    """Multiply by X_i^exp (exp = -1 gives the inverse letter)."""
    if not isinstance(f, LaurentPoly):
        _refuse("act_x", f)
    return f * LaurentPoly.variable(f._rank, i, exp)


def act_sigma(i: int, f: LaurentPoly) -> LaurentPoly:
    """Apply the braid letter s_i."""
    swapped, g = braid_kernel(f, i)
    return swapped.scale(_S) + g


def act_sigma_inv(i: int, f: LaurentPoly) -> LaurentPoly:
    """Apply s_i^-1 = s_i - (s - s^-1) as ``s^-1 * swap_i f + Y * g``.

    Here ``(swap_i f, g)`` is :func:`~daha.laurent.braid_kernel` and
    ``Y = X_i X_{i+1}^-1``: from ``(s - s^-1) * (swap_i f - f) = (Y - 1) * g``,
    ``s * swap_i f + g - (s - s^-1) * f = s^-1 * swap_i f + Y * g``.  The
    product by the one-term Y is a key shift.
    """
    swapped, g = braid_kernel(f, i)
    return swapped.scale(_S_INV) + g * adjacent_ratio(f._rank, i)


def act_y1(f: LaurentPoly) -> LaurentPoly:
    """Apply y_1 (:func:`~daha.words.apply_y1`)."""
    return apply_y1(f, rotate_variables, act_sigma_inv)


def act_y1_inv(f: LaurentPoly) -> LaurentPoly:
    """Apply y_1^-1 (:func:`~daha.words.apply_y1_inv`)."""
    return apply_y1_inv(f, rotate_variables_inverse, act_sigma)


def act_word(word: GeneratorWord, f: LaurentPoly) -> LaurentPoly:
    """Act by a generator word, rightmost letter first (:func:`~daha.words.apply_word`)."""
    if not isinstance(f, LaurentPoly):
        _refuse("act_word", f)
    return apply_word(word, f, (act_x, act_sigma, act_sigma_inv, act_y1, act_y1_inv))
