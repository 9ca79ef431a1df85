"""Independent modular oracle for both module actions.

Evaluating s, c and d at units of F_p, p = 2^61 - 1, is a ring homomorphism
``ev`` from Z[s^±1, c^±1, d^±1] to F_p, and every operation of the two
actions commutes with it: variable swaps, rotations and products, exact
division by ``Y - 1`` with ``Y = X_i X_{i+1}^-1``, and the two-case rule.
So ``ev`` of a library result must equal the same computation done here
over F_p.  A wrong result differs from the right one by a nonzero Laurent
polynomial, which a random point misses with probability about
degree / p (Schwartz-Zippel).

Everything here is written from the formulas in the ``polyrep`` and
``skein`` module docstrings, on plain dicts with ``int`` values mod p:

* a polynomial is ``{exponent vector: value}``, a skein element is
  ``{(exponent vector, permutation images): value}``, zero values dropped;
* polyrep ``s_i`` is the Demazure-Lusztig formula
  ``s * swap_i f + hbar * (swap_i f - f) / (Y - 1)`` with the division done
  as long division, ``s_i^-1 = s_i - hbar`` and ``y_1`` is the twisted
  rotation followed by ``s_{k-1}^-1, ..., s_1^-1``;
* skein ``s_i`` pushes the braid letter through the monomial one letter at
  a time by the single-letter commutation rules, then applies the two-case
  rule; ``y_1`` is the basis-pair rotation followed by the same chain;
* ``y_i`` acts through ``s_{i-1} ... s_1 y_1 s_1 ... s_{i-1}``.

No ring, polynomial or action code of the library is used: values of the
library reach this module only through :func:`evaluate`, which reads the
``terms`` mappings of a result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from daha import GeneratorWord

P = 2**61 - 1


@dataclass(frozen=True)
class Point:
    """Values of s, c and d in F_p, all units."""

    s: int
    c: int
    d: int

    @property
    def hbar(self) -> int:
        return (self.s - pow(self.s, -1, P)) % P


def random_point(seed: int) -> Point:
    rng = random.Random(seed)
    return Point(*(rng.randrange(2, P - 1) for _ in range(3)))


def evaluate(value, point: Point) -> dict:
    """ev of a library polynomial or skein element: each coefficient's
    ``terms`` ``{(e_s, e_c, e_d): n}`` summed at the point."""
    out = {}
    for key, coeff in value.terms.items():
        total = sum(
            n * pow(point.s, e_s, P) * pow(point.c, e_c, P) * pow(point.d, e_d, P)
            for (e_s, e_c, e_d), n in coeff.terms.items()
        ) % P
        if total:
            out[key] = total
    return out


def _add(acc: dict, key, value: int) -> None:
    total = (acc.get(key, 0) + value) % P
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def combine(*pairs: tuple[int, dict]) -> dict:
    """The combination sum of scalar * element over the pairs."""
    acc: dict = {}
    for scalar, element in pairs:
        for key, value in element.items():
            _add(acc, key, scalar * value)
    return acc


def _shift(exps: tuple, j: int, by: int) -> tuple:
    """exps with the exponent of variable j (1-based) raised by ``by``."""
    return exps[: j - 1] + (exps[j - 1] + by,) + exps[j:]


def _swap(seq: tuple, i: int) -> tuple:
    """seq with its entries at positions i and i+1 (1-based) exchanged."""
    return seq[: i - 1] + (seq[i], seq[i - 1]) + seq[i + 1 :]


# -- the polynomial representation -------------------------------------------------


def divide_by_y_minus_one(h: dict, i: int) -> dict:
    """The quotient of h by Y - 1, Y = X_i X_{i+1}^-1, by long division.

    Y keeps X_i X_{i+1}'s total degree and the other exponents, so h splits
    into classes that are polynomials in Y.  Each class is divided from its
    top degree down: the leading coefficient is the next quotient
    coefficient, one degree lower, and is carried into the next dividend
    coefficient.  Raises ``ArithmeticError`` on a nonzero remainder.
    """
    classes: dict = {}
    for exps, value in h.items():
        base = _shift(_shift(exps, i, -exps[i - 1]), i + 1, exps[i - 1])
        classes.setdefault(base, {})[exps[i - 1]] = value
    quotient: dict = {}
    for base, by_degree in classes.items():
        lowest = min(by_degree)
        carry = 0
        for degree in range(max(by_degree), lowest, -1):
            carry = (carry + by_degree.get(degree, 0)) % P
            if carry:
                quotient[_shift(_shift(base, i, degree - 1), i + 1, 1 - degree)] = carry
        if (carry + by_degree[lowest]) % P:
            raise ArithmeticError(f"not divisible by X{i}*X{i + 1}^-1 - 1")
    return quotient


def poly_sigma(i: int, f: dict, point: Point) -> dict:
    swapped = {_swap(exps, i): value for exps, value in f.items()}
    quotient = divide_by_y_minus_one(combine((1, swapped), (-1, f)), i)
    return combine((point.s, swapped), (point.hbar, quotient))


def poly_sigma_inv(i: int, f: dict, point: Point) -> dict:
    return combine((1, poly_sigma(i, f, point)), (-point.hbar, f))


def poly_rotate(f: dict, point: Point) -> dict:
    """f(X_1, ..., X_k) -> f(c^2 X_k, X_1, ..., X_{k-1})."""
    return {
        exps[1:] + exps[:1]: value * pow(point.c, 2 * exps[0], P) % P
        for exps, value in f.items()
    }


def poly_rotate_inverse(f: dict, point: Point) -> dict:
    """f(X_1, ..., X_k) -> f(X_2, ..., X_k, c^-2 X_1)."""
    return {
        exps[-1:] + exps[:-1]: value * pow(point.c, -2 * exps[-1], P) % P
        for exps, value in f.items()
    }


def poly_act(word: GeneratorWord, f: dict, point: Point) -> dict:
    kappa = word.kappa

    def x(j, sign, f):
        return {_shift(exps, j, sign): value for exps, value in f.items()}

    def y1(sign, f):
        if sign > 0:
            f = poly_rotate(f, point)
            for i in range(kappa - 1, 0, -1):
                f = poly_sigma_inv(i, f, point)
            return f
        for i in range(1, kappa):
            f = poly_sigma(i, f, point)
        return poly_rotate_inverse(f, point)

    return _act(word, f, x, lambda i, f: poly_sigma(i, f, point),
                lambda i, f: poly_sigma_inv(i, f, point), y1)


# -- the skein module --------------------------------------------------------------


def _letter_rule(i: int, j: int, sign: int, kappa: int, point: Point) -> tuple[tuple, dict]:
    """(A, B) with s_i a_j^sign = A s_i + B: A a monomial with coefficient
    1, given by its exponents, and B a polynomial."""
    zero = (0,) * kappa
    h = point.hbar
    if j == i and sign > 0:       # s_i a_i = a_{i+1} s_i - hbar a_{i+1}
        return _shift(zero, i + 1, 1), {_shift(zero, i + 1, 1): -h % P}
    if j == i + 1 and sign > 0:   # s_i a_{i+1} = a_i s_i + hbar a_{i+1}
        return _shift(zero, i, 1), {_shift(zero, i + 1, 1): h}
    if j == i and sign < 0:       # s_i a_i^-1 = a_{i+1}^-1 s_i + hbar a_i^-1
        return _shift(zero, i + 1, -1), {_shift(zero, i, -1): h}
    if j == i + 1 and sign < 0:   # s_i a_{i+1}^-1 = a_i^-1 s_i - hbar a_i^-1
        return _shift(zero, i, -1), {_shift(zero, i, -1): -h % P}
    return _shift(zero, j, sign), {}


def push(i: int, exps: tuple, point: Point) -> tuple[tuple, dict]:
    """s_i a^exps = a^f s_i + g, found by moving s_i right through the
    letters a_j^±1 of a^exps one at a time; returns (f, g)."""
    kappa = len(exps)
    f, g = (0,) * kappa, {}
    for j in range(1, kappa + 1):
        sign = 1 if exps[j - 1] > 0 else -1
        for _ in range(abs(exps[j - 1])):
            # s_i M a = (F s_i + G) a = F (A s_i + B) + G a
            a_exps, b = _letter_rule(i, j, sign, kappa, point)
            moved = {tuple(x + y for x, y in zip(f, key)): value for key, value in b.items()}
            g = combine((1, moved), (1, {_shift(key, j, sign): value for key, value in g.items()}))
            f = tuple(x + y for x, y in zip(f, a_exps))
    return f, g


def two_case_rule(i: int, perm: tuple, point: Point) -> dict:
    """s_i on (1, perm), as {permutation: value}."""
    swapped = _swap(perm, i)
    if perm[i - 1] < perm[i]:
        return {swapped: pow(point.d, -1, P)}
    return {swapped: point.d, perm: point.hbar}


def skein_sigma(i: int, v: dict, point: Point) -> dict:
    """s_i (a^n, sigma) = a^f s_i (1, sigma) + g (1, sigma), term by term."""
    acc: dict = {}
    for (exps, perm), value in v.items():
        f, g = push(i, exps, point)
        for image, base in two_case_rule(i, perm, point).items():
            _add(acc, (f, image), value * base)
        for g_exps, g_value in g.items():
            _add(acc, (g_exps, perm), value * g_value)
    return acc


def skein_sigma_inv(i: int, v: dict, point: Point) -> dict:
    return combine((1, skein_sigma(i, v, point)), (-point.hbar, v))


def skein_rotate(v: dict, point: Point) -> dict:
    """(a^n, sigma) -> c^(2 n_1) (a_1^n_2 ... a_k^n_1, sigma t_1 ... t_{k-1})."""
    out = {}
    for (exps, perm), value in v.items():
        for i in range(1, len(perm)):
            perm = _swap(perm, i)
        out[exps[1:] + exps[:1], perm] = value * pow(point.c, 2 * exps[0], P) % P
    return out


def skein_rotate_inverse(v: dict, point: Point) -> dict:
    out = {}
    for (exps, perm), value in v.items():
        for i in range(len(perm) - 1, 0, -1):
            perm = _swap(perm, i)
        out[exps[-1:] + exps[:-1], perm] = value * pow(point.c, -2 * exps[-1], P) % P
    return out


def skein_act(word: GeneratorWord, v: dict, point: Point) -> dict:
    kappa = word.kappa

    def x(j, sign, v):
        return {(_shift(exps, j, sign), perm): value for (exps, perm), value in v.items()}

    def y1(sign, v):
        if sign > 0:
            v = skein_rotate(v, point)
            for i in range(kappa - 1, 0, -1):
                v = skein_sigma_inv(i, v, point)
            return v
        for i in range(1, kappa):
            v = skein_sigma(i, v, point)
        return skein_rotate_inverse(v, point)

    return _act(word, v, x, lambda i, v: skein_sigma(i, v, point),
                lambda i, v: skein_sigma_inv(i, v, point), y1)


# -- words -----------------------------------------------------------------------


def _act(word: GeneratorWord, v: dict, x, sigma, sigma_inv, y1) -> dict:
    """Act rightmost letter first; y_i is s_{i-1} ... s_1 y_1 s_1 ... s_{i-1}."""
    for letter in reversed(word.letters):
        kind, j, sign = letter.kind, letter.index, letter.sign
        if kind == "x":
            v = x(j, sign, v)
        elif kind == "s":
            v = sigma(j, v) if sign > 0 else sigma_inv(j, v)
        else:
            braid = sigma if sign > 0 else sigma_inv
            for i in range(j - 1, 0, -1):
                v = braid(i, v)
            v = y1(sign, v)
            for i in range(1, j):
                v = braid(i, v)
    return v
