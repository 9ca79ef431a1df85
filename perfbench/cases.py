"""The benchmark's four workloads, as seeded streams of single check cases.

A case is one call into :mod:`daha.verify` that checks exactly one
(relation, input) pair or one (word, monomial) pair.  It is stored as
``(check, args, labels)``: the name of the public check function, its
arguments, and the report labels the call must return, one report with
``cases == 1`` per label.  The function is looked up on :mod:`daha.verify`
when the case runs, so the traced run sees the wrapped version.

Every stream is infinite and depends only on the seed.  Set-up is building
the stream and drawing its first case, which builds whatever the stream
builds lazily (the words, the relation table) and draws the first sample.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from daha.laurent import LaurentPoly
from daha.verify import basis_grid, default_alphabet, monomial_grid, single_generator_words
from daha.words import GeneratorWord, parse_word, relation_table

Case = tuple[str, tuple, tuple[str, ...]]

# Random words per length 1..4 in intertwiner_k3: a run of 25 s checks
# each about two or three times, against different monomials.
WORDS_PER_LENGTH = 512
# Seed of the draw of those words, the same for every run.
WORDS_SEED = 0
# Exponent range of the push_deep_k3 monomials.
DEEP_EXP = 32
# Seed of the fixed permutation pairing their x1 and x2 exponents.
DEEP_PAIRING_SEED = 0


def _shuffled_forever(items: list, rng: random.Random) -> Iterator:
    """Yield the items in a fresh seeded order, pass after pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _relation_cases(kappa: int, rep: str, grid: list, rng: random.Random) -> Iterator[Case]:
    # Input-major order: every input is checked against every relation, so a
    # run that stops at any point has an even mix of relations.
    relations = relation_table(kappa)
    for value in _shuffled_forever(grid, rng):
        for relation in relations:
            yield "check_relations", (kappa, rep, [value], [relation]), (f"{rep}:{relation.label}",)


def poly_relations_k4(seed: int) -> Iterator[Case]:
    return _relation_cases(4, "poly", monomial_grid(4, 2), random.Random(seed))


def skein_relations_k3(seed: int) -> Iterator[Case]:
    return _relation_cases(3, "skein", basis_grid(3, 2), random.Random(seed))


def intertwiner_k3(seed: int) -> Iterator[Case]:
    rng = random.Random(seed)
    # The random words are drawn once, from a fixed seed; the run's seed
    # orders them and pairs them with monomials.  The slowest percent of
    # cases, which sets case_p99_ms, comes from the few words with several
    # y1 letters, and a pool drawn from the run's seed varied their number
    # enough to spread case_p99_ms by a tenth of its median from seed to seed.
    pool_rng = random.Random(WORDS_SEED)
    alphabet = default_alphabet(3)
    generators = single_generator_words(3)
    random_words = [
        GeneratorWord(3, [pool_rng.choice(alphabet) for _ in range(length)])
        for length in range(1, 5)
        for _ in range(WORDS_PER_LENGTH)
    ]
    monomials = _shuffled_forever(monomial_grid(3, 2), rng)
    # Word-major order: each pass pairs every word with the next monomial,
    # so each run sees the word mix evenly.  A pass starts with the
    # generators, the only words with y2 and y3, so that any run reaches them.
    while True:
        for group in (generators, random_words):
            order = list(group)
            rng.shuffle(order)
            for word in order:
                yield "check_intertwiner", (3, [word], [next(monomials)]), ("intertwiner",)


def push_deep_k3(seed: int) -> Iterator[Case]:
    rng = random.Random(seed)
    words = [parse_word(text, 3) for text in ("s1", "s2", "s1^-1", "s2^-1")]
    # Every exponent is uniform in [-DEEP_EXP, DEEP_EXP].  The cost of s1
    # and s1^-1 grows with |n1 - n2|, and the slowest percent of cases, which
    # sets case_p99_ms, is where that difference is largest.  So n1 and n2
    # are paired by one fixed permutation, the same for every seed, and each
    # pass takes all the pairs in a seeded order; n3 walks its own seeded
    # deck.  Independent draws of n1 and n2 made case_p99_ms spread by up to
    # a sixth of its median from seed to seed.
    values = list(range(-DEEP_EXP, DEEP_EXP + 1))
    pairs = list(zip(values, random.Random(DEEP_PAIRING_SEED).sample(values, len(values))))
    third = _shuffled_forever(values, rng)
    for n1, n2 in _shuffled_forever(pairs, rng):
        monomial = LaurentPoly.monomial(3, [n1, n2, next(third)])
        for word in words:
            yield "check_intertwiner", (3, [word], [monomial]), ("intertwiner",)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Iterator[Case]]
    # Cases in a traced run: a fixed count, so call counts repeat exactly.
    trace_cases: int
    # Wrapped functions (fnmatch patterns over span names) this workload
    # never reaches; every other wrapped function must record a call.
    unreached: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "poly_relations_k4",
            poly_relations_k4,
            trace_cases=1400,
            unreached=("scalars.substitute_d_eq_s", "skein.*", "verify.check_intertwiner",
                       "verify.symmetrize", "words.*"),
        ),
        Workload(
            "skein_relations_k3",
            skein_relations_k3,
            trace_cases=450,
            unreached=("laurent.exact_divide", "laurent.neg", "laurent.sub",
                       "laurent.rotate_variables*", "laurent.swap_variables", "polyrep.*",
                       "*.substitute_d_eq_s", "verify.check_intertwiner", "verify.symmetrize",
                       "words.*"),
        ),
        Workload(
            "intertwiner_k3",
            intertwiner_k3,
            trace_cases=600,
            unreached=("verify.check_relations",),
        ),
        Workload(
            "push_deep_k3",
            push_deep_k3,
            trace_cases=120,
            unreached=("laurent.rotate_variables*", "polyrep.act_x", "polyrep.act_y1*",
                       "skein.act_x", "skein.act_y1*", "verify.check_relations",
                       "words.expand_y", "words.inverse"),
        ),
    )
}


def take(stream: Iterator[Case], count: int) -> list[Case]:
    return list(itertools.islice(stream, count))
