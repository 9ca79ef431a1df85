"""Tokenizer shared by the text-format parsers.

All the grammars in this package (coefficient scalars, Laurent polynomials,
skein elements, generator words) draw from the same token alphabet: unsigned
integers, single-letter names with an optional numeric index (``s``, ``c``,
``d``, ``X1``, ``a2``, ``y1``), and the punctuation ``^ * + - ( ) [ ] ,``.
Whitespace separates tokens and is otherwise ignored.  :data:`_TOKEN` is
the token grammar: :func:`tokenize` reads the text with its ``finditer``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NoReturn

from .errors import ParseError

# An integer, a name and its index, a punctuation character, or any other
# non-space character, which is refused.  No alternative matches whitespace,
# so ``finditer`` skips it one position at a time, in linear time.  ``\S`` and
# ``\d`` are ``not str.isspace`` and ``str.isdecimal``; ``[^\W\d_]`` also
# matches numerals such as ``½``, so a name's letter must pass ``str.isalpha``.
_TOKEN = re.compile(r"(\d+)|([^\W\d_])(\d*)|[-^*+()\[\],]|(\S)")

# Most decimal digits in an integer token or a name index, checked before
# ``int()`` runs.  640 is the smallest nonzero ``python -X int_max_str_digits``,
# so no interpreter flag changes which tokens are accepted.
MAX_INT_DIGITS = 640

# Largest |exponent| of a variable X_i or a_i in a parsed term, once the
# term's factors are combined (``X1^10000*X1`` has exponent 10001).  Braid
# letters sweep every degree between a term's exponents, so the cap keeps
# that work in proportion to what the text can reasonably mean.
MAX_EXPONENT = 10_000

# Most characters in one text, checked before any token is built.  The token
# list costs over a hundred times the text: the 666,668 tokens of a
# 1,000,000-character ``X1+X1+...`` hold 119 MB.
MAX_TEXT_CHARS = 100_000


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "name", one of the punctuation characters, or "end"
    text: str
    pos: int
    letter: str | None = None  # name tokens only
    index: int | None = None   # name tokens only: trailing digits, if any


def tokenize(text: str) -> list[Token]:
    if len(text) > MAX_TEXT_CHARS:
        raise ParseError(f"text longer than {MAX_TEXT_CHARS} characters", MAX_TEXT_CHARS)
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        integer, letter, index, other = match.groups()
        tok, pos = match.group(), match.start()
        if other or (letter and not letter.isalpha()):
            raise ParseError(f"unexpected character {tok[0]!r}", pos)
        digits = integer or index or ""
        if len(digits) > MAX_INT_DIGITS:
            raise ParseError(f"integer longer than {MAX_INT_DIGITS} digits", match.end() - len(digits))
        kind = "int" if integer else "name" if letter else tok
        tokens.append(Token(kind, tok, pos, letter, int(index) if index else None))
    tokens.append(Token("end", "", len(text)))
    return tokens


class TokenStream:
    """A token list with a cursor and lookahead (:meth:`peek`)."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def fail(self, message: str) -> NoReturn:
        raise ParseError(message, self.peek().pos)


def parse_signed_int(ts: TokenStream) -> int:
    """Parse the optionally signed integer exponent after ``^``."""
    sign = 1
    if ts.accept("-"):
        sign = -1
    elif ts.accept("+"):
        pass
    tok = ts.expect("int", "exponent")
    return sign * int(tok.text)


def check_exponents(exps: list[int], letter: str, pos: int) -> None:
    """Reject a term whose combined exponent of some variable passes
    :data:`MAX_EXPONENT`, at the position ``pos`` where the term starts."""
    for i, exp in enumerate(exps, 1):
        if abs(exp) > MAX_EXPONENT:
            raise ParseError(
                f"exponent of {letter}{i} exceeds {MAX_EXPONENT} in absolute value", pos
            )


def parse_signed_sum(ts: TokenStream, parse_term: Callable[[TokenStream, int], object]) -> list:
    """Parse ``[-] term (+|- term)*`` and return the terms in order.

    ``parse_term(ts, sign)`` reads one term and receives its sign, +1 or -1.
    Parsing stops before the first token that is neither ``+`` nor ``-``;
    the caller decides whether that token may follow the sum.
    """
    terms = [parse_term(ts, -1 if ts.accept("-") else 1)]
    while True:
        if ts.accept("+"):
            terms.append(parse_term(ts, 1))
        elif ts.accept("-"):
            terms.append(parse_term(ts, -1))
        else:
            return terms
