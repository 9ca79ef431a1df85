"""Words in the algebra generators, and the defining relation table.

The algebra on kappa strands is generated by the braid letters ``s1, ...,
s{kappa-1}`` (written sigma_i in the literature) together with the torus
loops ``x1`` and ``y1``; the remaining loops expand as

    x_i = s_{i-1} ... s_1 x_1 s_1 ... s_{i-1}     (same for y_i)

Words here are opaque letter sequences: no normal form is computed, because
equality of algebra elements is only ever tested through the two module
actions.  Each letter carries a kind ('s', 'x' or 'y'), a 1-based index, and
a sign (+1 or -1 for the inverse letter).

:func:`apply_word` is the one word dispatcher, and :func:`apply_y1` the one
y_1: a twisted rotation, then s_{kappa-1}^-1, ..., s_1^-1 (the rotation acts
first; :func:`apply_y1_inv` inverts it).  Both module actions run them with
their own rotation and generator actions.

:func:`relation_table` returns the nine defining relations.  Most are plain
word equalities; the quadratic relation (number 8) and the torus relation
(number 9) need scalar multipliers, so each relation side is a formal linear
combination: a tuple of (ScalarPoly coefficient, word) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import index
from typing import Callable

from ._tokens import TokenStream, parse_signed_int
from .errors import ParseError, RankMismatchError, check_at_least, check_index, reduce_through_constructor
from .scalars import ScalarPoly, c_power, format_powers, hbar

_KINDS = ("s", "x", "y")

# Most letters a parsed word may expand to.  An exponent ``^n`` becomes |n|
# letter objects, so the cap is checked before a run is expanded.
MAX_WORD_LETTERS = 10_000


@dataclass(frozen=True)
class GeneratorLetter:
    kind: str   # 's' (braid swap), 'x' or 'y' (torus loops)
    index: int  # 1-based
    sign: int   # +1 or -1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "index", index(self.index))
        object.__setattr__(self, "sign", index(self.sign))
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign}")
        check_at_least("letter index", self.index, 1)

    __reduce__ = reduce_through_constructor

    def inverse(self) -> "GeneratorLetter":
        return GeneratorLetter(self.kind, self.index, -self.sign)

    def __str__(self) -> str:
        return format_powers((f"{self.kind}{self.index}",), (self.sign,))


def _max_index(kind: str, kappa: int) -> int:
    return kappa - 1 if kind == "s" else kappa


@dataclass(frozen=True, slots=True)
class GeneratorWord:
    """A finite sequence of letters; the empty sequence is the identity."""

    kappa: int
    letters: tuple[GeneratorLetter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kappa", check_at_least("kappa", self.kappa, 1))
        letters = tuple(self.letters)
        for letter in letters:
            if not isinstance(letter, GeneratorLetter):
                raise TypeError(f"word item {letter!r} is not a GeneratorLetter")
            if letter.index > _max_index(letter.kind, self.kappa):
                raise ValueError(
                    f"letter {letter} index out of range for kappa={self.kappa}"
                )
        object.__setattr__(self, "letters", letters)

    __reduce__ = reduce_through_constructor

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        if not isinstance(other, GeneratorWord):
            return NotImplemented
        if self.kappa != other.kappa:
            raise RankMismatchError(
                f"cannot concatenate words with kappa {self.kappa} and {other.kappa}")
        return GeneratorWord(self.kappa, self.letters + other.letters)

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(self.kappa, tuple(l.inverse() for l in reversed(self.letters)))

    def __str__(self) -> str:
        # Compress runs of an identical letter into ^n; parsing re-expands.
        names, exps = [], []
        for letter, run in groupby(self.letters):
            names.append(f"{letter.kind}{letter.index}")
            exps.append(letter.sign * len(list(run)))
        return format_powers(names, exps)

    def __repr__(self) -> str:
        return f"<GeneratorWord kappa={self.kappa} {str(self) or '(identity)'}>"


def parse_word(text: str, kappa: int) -> GeneratorWord:
    """Parse e.g. ``x1^-1 * y1 * x1 * y1^-1``; the empty string is identity.

    An exponent ``^n`` expands to |n| copies of the letter with the sign of
    n, so printing and parsing round-trip on the letter sequence.  A word
    that would expand to more than :data:`MAX_WORD_LETTERS` letters raises
    :class:`~daha.errors.ParseError` before the offending run is expanded.
    """
    ts = TokenStream(text)
    if ts.at_end():
        return GeneratorWord(kappa)
    letters: list[GeneratorLetter] = []
    while True:
        tok = ts.peek()
        if tok.kind != "name" or tok.letter not in _KINDS:
            ts.fail(f"expected a generator letter (s/x/y with index), found {tok.text or 'end of input'!r}")
        if tok.index is None:
            ts.fail(f"generator {tok.letter!r} requires an index, e.g. {tok.letter}1")
        if not 1 <= tok.index <= _max_index(tok.letter, kappa):
            ts.fail(f"index out of range: {tok.text!r} is not valid for kappa={kappa}")
        ts.advance()
        exp = parse_signed_int(ts) if ts.accept("^") else 1
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise ParseError(f"word expands to more than {MAX_WORD_LETTERS} letters", tok.pos)
        sign = 1 if exp >= 0 else -1
        letters.extend(GeneratorLetter(tok.letter, tok.index, sign) for _ in range(abs(exp)))
        if ts.at_end():
            return GeneratorWord(kappa, letters)
        ts.expect("*", "'*' between letters")


def expand_x(i: int, kappa: int) -> GeneratorWord:
    """The word s_{i-1} ... s_1 x_1 s_1 ... s_{i-1} representing x_i."""
    return _expand_loop("x", i, kappa)


def expand_y(i: int, kappa: int) -> GeneratorWord:
    """The word s_{i-1} ... s_1 y_1 s_1 ... s_{i-1} representing y_i."""
    return _expand_loop("y", i, kappa)


def _expand_loop(kind: str, i: int, kappa: int) -> GeneratorWord:
    descending = [f"s{j}" for j in range(check_index("loop index", i, kappa) - 1, 0, -1)]
    return parse_word("*".join([*descending, f"{kind}1", *reversed(descending)]), kappa)


def apply_word(word: GeneratorWord, v, actions: tuple[Callable, ...]):
    """Act by a generator word on v, rightmost letter first.

    The one word dispatcher of both module actions.  ``actions`` is
    ``(act_x, act_sigma, act_sigma_inv, act_y1, act_y1_inv)`` of one module,
    with ``act_x(i, v, sign)``; a letter y_i with i > 1 acts through its
    expansion :func:`expand_y`.  The word's kappa must be v's rank.
    """
    if word.kappa != v._rank:
        raise RankMismatchError(f"word kappa {word.kappa} does not match {v._RANK} {v._rank}")
    act_x, act_sigma, act_sigma_inv, act_y1, act_y1_inv = actions
    for letter in reversed(word.letters):
        kind, i, sign = letter.kind, letter.index, letter.sign
        if kind == "x":
            v = act_x(i, v, sign)
        elif kind == "s":
            v = act_sigma(i, v) if sign > 0 else act_sigma_inv(i, v)
        elif i == 1:
            v = act_y1(v) if sign > 0 else act_y1_inv(v)
        else:
            expansion = expand_y(i, word.kappa)
            v = apply_word(expansion if sign > 0 else expansion.inverse(), v, actions)
    return v


def apply_y1(v, rotate: Callable, act_sigma_inv: Callable):
    """Act by y_1 on v: ``rotate`` first, then s_{kappa-1}^-1 down to s_1^-1.
    The order is forced: the rotation last breaks the torus relation
    x1^-1 y1 x1 y1^-1 = c^2 s1...s1 (the test suite checks both facts)."""
    v = rotate(v)
    for i in range(v._rank - 1, 0, -1):
        v = act_sigma_inv(i, v)
    return v


def apply_y1_inv(v, rotate_inverse: Callable, act_sigma: Callable):
    """Act by y_1^-1 on v: s_1 up to s_{kappa-1}, then ``rotate_inverse``."""
    for i in range(1, v._rank):
        v = act_sigma(i, v)
    return rotate_inverse(v)


Side = tuple[tuple[ScalarPoly, GeneratorWord], ...]


@dataclass(frozen=True)
class RelationPair:
    """One defining relation, as two formal linear combinations of words."""

    number: int  # 1..9
    label: str
    lhs: Side
    rhs: Side


def relation_table(kappa: int) -> list[RelationPair]:
    """All instances of the nine defining relations valid for this kappa.

    Each side is written in the word language and built with
    :func:`parse_word`: a plain word stands for itself with coefficient 1,
    a tuple lists (coefficient, word) terms.  Relation 8 is quadratic: it is
    stored as s_i s_i on the left against ``hbar * s_i + 1`` on the right.
    Relation 9 carries the scalar c^2 and for kappa = 1 degenerates to
    ``x1^-1 y1 x1 y1^-1 = c^2``.  Its right side has 2(kappa - 1) letters,
    so a kappa past the word cap :data:`MAX_WORD_LETTERS` raises
    :class:`ParseError` before any row is built.
    """
    kappa = check_at_least("kappa", kappa, 1)
    if 2 * (kappa - 1) > MAX_WORD_LETTERS:
        raise ParseError(f"relation 9 at kappa {kappa} expands to more than {MAX_WORD_LETTERS} letters")
    one = ScalarPoly.one()
    rows: list[tuple] = []
    for i in range(1, kappa - 1):
        for j in range(i + 2, kappa):
            rows.append((1, f"R1(s{i},s{j})", f"s{i}*s{j}", f"s{j}*s{i}"))
    for i in range(1, kappa - 1):
        rows.append((2, f"R2(s{i})", f"s{i}*s{i+1}*s{i}", f"s{i+1}*s{i}*s{i+1}"))
    for i in range(2, kappa):
        rows.append((3, f"R3(s{i})", f"s{i}*x1", f"x1*s{i}"))
    for i in range(2, kappa):
        rows.append((4, f"R4(s{i})", f"s{i}*y1", f"y1*s{i}"))
    if kappa >= 2:
        rows.append((5, "R5", "x1*s1*x1*s1", "s1*x1*s1*x1"))
        rows.append((6, "R6", "y1*s1*y1*s1", "s1*y1*s1*y1"))
        rows.append((7, "R7", "x1*s1*y1*s1^-1", "s1*y1*s1*x1"))
        for i in range(1, kappa):
            rows.append((8, f"R8(s{i})", f"s{i}*s{i}", ((hbar(), f"s{i}"), (one, ""))))
    sigma_out_and_back = [*range(1, kappa), *range(kappa - 1, 0, -1)]
    rows.append((9, "R9", "x1^-1*y1*x1*y1^-1",
                 ((c_power(2), "*".join(f"s{i}" for i in sigma_out_and_back)),)))

    def side(spec) -> Side:
        terms = ((one, spec),) if isinstance(spec, str) else spec
        return tuple((coeff, parse_word(text, kappa)) for coeff, text in terms)

    return [RelationPair(number, label, side(lhs), side(rhs)) for number, label, lhs, rhs in rows]
