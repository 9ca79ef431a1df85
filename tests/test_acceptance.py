"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured wall times.  Every comparison is exact (integer Laurent
arithmetic); there are no tolerances anywhere.  Random cases are generated
from fixed seeds, printed with each line, so failures are reproducible.
"""

from __future__ import annotations

import random
import time


from daha import (
    GeneratorLetter,
    GeneratorWord,
    LaurentPoly,
    Permutation,
    ScalarPoly,
    SkeinElement,
    c_power,
    exact_divide,
    parse_laurent,
    parse_scalar,
    parse_skein,
    parse_word,
    swap_variables,
)
from daha import polyrep
from daha import skein as skein_mod
from daha.skein import push_sigma_past_monomial
from daha.verify import (
    basis_grid,
    check_averaging_eigenvalue,
    check_intertwiner,
    check_relations,
    check_subrep_closure,
    monomial_grid,
    random_words,
    single_generator_words,
)

from push_oracle import monomial_letters, sigma_letter_by_letter

SEED = 74031


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {number} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_worked_example():
    v = parse_skein("(a1^2*a2^-1,[2 1])", 2)
    expected = parse_skein("c^4*(a1^-1*a2^2,[1 2])", 2)
    word = parse_word("s1*y1", 2)

    intermediate = skein_mod.act_y1(v)
    applied_out = skein_mod.act_sigma_inv(1, SkeinElement.basis(2, (-1, 2))).scale(c_power(4))
    full = skein_mod.act_word(word, v)

    skein_mod.act_word(word, v)  # warm-up
    best = min(
        _timed(lambda: skein_mod.act_word(word, v))[1] for _ in range(3)
    )
    ok = full == expected and intermediate == applied_out and best < 1e-3
    report(1, "worked example", ok,
           f"result={full}, intermediate matches={intermediate == applied_out}, "
           f"best time={best * 1e6:.0f}us < 1ms")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_2_poly_relation_suite():
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for kappa, bound in ((2, 3), (3, 3), (4, 2)):
        reports = check_relations(kappa, "poly", monomial_grid(kappa, bound))
        cases += sum(r.cases for r in reports)
        failures += [r for r in reports if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    report(2, "poly relations k=2,3,4", ok,
           f"{cases} cases, {len(failures)} failing relations, {elapsed:.1f}s < 60s")


def test_criterion_3_skein_relation_suite():
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for kappa in (2, 3):
        reports = check_relations(
            kappa, "skein", basis_grid(kappa, 2))
        cases += sum(r.cases for r in reports)
        failures += [r for r in reports if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    report(3, "skein relations k=2,3", ok,
           f"{cases} cases, {len(failures)} failing relations, {elapsed:.1f}s < 60s")


def test_criterion_4_averaging_identity():
    results = [check_averaging_eigenvalue(kappa) for kappa in (2, 3, 4)]
    failures = sum(r.failures for r in results)
    cases = sum(r.cases for r in results)
    report(4, "braid eigenvalue on averaged pairs", failures == 0,
           f"{cases} (permutation, index) cases at d=s, {failures} failures")


def test_criterion_5_intertwining():
    t0 = time.perf_counter()
    parts = []
    for kappa in (1, 2, 3):
        parts.append(check_intertwiner(
            kappa, single_generator_words(kappa), monomial_grid(kappa, 2)))
    parts.append(check_intertwiner(
        2, random_words(2, 200, 6, SEED), monomial_grid(2, 2), seed=SEED))
    parts.append(check_intertwiner(
        3, random_words(3, 50, 4, SEED + 1), monomial_grid(3, 2), seed=SEED + 1))
    elapsed = time.perf_counter() - t0
    failures = sum(r.failures for r in parts)
    cases = sum(r.cases for r in parts)
    ok = failures == 0 and elapsed < 120
    report(5, "averaging intertwines the two actions", ok,
           f"{cases} cases, {failures} failures, seeds {SEED}/{SEED + 1}, {elapsed:.1f}s < 120s")


def test_criterion_6_exact_division_totality():
    rng = random.Random(SEED + 2)
    failures = 0
    for _ in range(1000):
        rank = rng.randint(2, 4)
        n_terms = rng.randint(1, 8)
        terms = []
        for _ in range(n_terms):
            exps = tuple(rng.randint(-4, 4) for _ in range(rank))
            coeff = ScalarPoly.monomial(
                rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2),
                rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]),
            )
            terms.append((exps, coeff))
        f = LaurentPoly(rank, terms)
        i = rng.randint(1, rank - 1)
        difference = swap_variables(f, i) - f
        try:
            quotient = exact_divide(difference, i)
        except ArithmeticError:
            failures += 1
            continue
        divisor = (
            LaurentPoly.variable(rank, i) * LaurentPoly.variable(rank, i + 1, -1)
            - LaurentPoly.one(rank)
        )
        if quotient * divisor != difference:
            failures += 1
    report(6, "exact division totality on swap differences", failures == 0,
           f"1000 random polynomials (seed {SEED + 2}), {failures} failures")


def test_criterion_7_push_oracle():
    rng = random.Random(SEED + 3)
    failures = 0
    for _ in range(500):
        kappa = rng.randint(2, 3)
        i = rng.randint(1, kappa - 1)
        exps = tuple(rng.randint(-3, 3) for _ in range(kappa))
        perm = Permutation(tuple(rng.sample(range(1, kappa + 1), kappa)))

        f, g = push_sigma_past_monomial(i, exps)
        base = skein_mod.act_sigma_base(i, perm)
        via_push = base.multiply_by_a_poly(f) + SkeinElement.basis(kappa, (0,) * kappa, perm).multiply_by_a_poly(g)

        forward = sigma_letter_by_letter(i, monomial_letters(exps), perm)
        backward = sigma_letter_by_letter(
            i, monomial_letters(exps, variable_order=range(kappa, 0, -1)), perm
        )
        if not (via_push == forward == backward):
            failures += 1
    report(7, "push-through equals letter-by-letter action", failures == 0,
           f"500 random (index, monomial, permutation) cases, two factorization orders "
           f"(seed {SEED + 3}), {failures} failures")


def test_criterion_8_subrep_closure():
    failures = 0
    cases = 0
    for kappa in (2, 3):
        seed = SEED + 4 + kappa
        words = random_words(kappa, 100, 5, seed)
        rng = random.Random(seed)
        monomials = [
            LaurentPoly.monomial(kappa, [rng.randint(-2, 2) for _ in range(kappa)])
            for _ in words
        ]
        result = check_subrep_closure(kappa, words, monomials, seed=seed)
        failures += result.failures
        cases += result.cases
    report(8, "symmetrized subspace is closed under the action", failures == 0,
           f"{cases} random (word, monomial) cases at d=s, {failures} failures")


def _random_scalar(rng) -> ScalarPoly:
    return ScalarPoly(
        [
            ((rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-5, 5))
            for _ in range(rng.randint(0, 4))
        ]
    )


def _random_laurent(rng) -> LaurentPoly:
    rank = rng.randint(1, 4)
    return LaurentPoly(
        rank,
        [
            (tuple(rng.randint(-3, 3) for _ in range(rank)), _random_scalar(rng))
            for _ in range(rng.randint(0, 4))
        ],
    )


def _random_skein(rng) -> SkeinElement:
    kappa = rng.randint(1, 3)
    return SkeinElement(
        kappa,
        [
            (
                (
                    tuple(rng.randint(-2, 2) for _ in range(kappa)),
                    Permutation(tuple(rng.sample(range(1, kappa + 1), kappa))),
                ),
                _random_scalar(rng),
            )
            for _ in range(rng.randint(0, 3))
        ],
    )


def _random_word(rng) -> GeneratorWord:
    kappa = rng.randint(1, 4)
    letters = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["x", "y"] if kappa == 1 else ["s", "x", "y"])
        index = rng.randint(1, kappa - 1 if kind == "s" else kappa)
        letters.append(GeneratorLetter(kind, index, rng.choice([1, -1])))
    return GeneratorWord(kappa, letters)


def test_criterion_9_round_trips():
    rng = random.Random(SEED + 9)
    failures = 0
    for _ in range(1000):
        a = _random_scalar(rng)
        failures += parse_scalar(str(a)) != a
        f = _random_laurent(rng)
        failures += parse_laurent(str(f), f.rank) != f
        v = _random_skein(rng)
        failures += parse_skein(str(v), v.kappa) != v
        w = _random_word(rng)
        failures += parse_word(str(w), w.kappa) != w

    for _ in range(50):
        f = _random_laurent(rng)
        if f.rank >= 2:
            i = rng.randint(1, f.rank - 1)
            failures += polyrep.act_sigma_inv(i, polyrep.act_sigma(i, f)) != f
        failures += polyrep.act_y1_inv(polyrep.act_y1(f)) != f
        v = _random_skein(rng)
        if v.kappa >= 2:
            i = rng.randint(1, v.kappa - 1)
            failures += skein_mod.act_sigma_inv(i, skein_mod.act_sigma(i, v)) != v
        failures += skein_mod.act_y1_inv(skein_mod.act_y1(v)) != v

    report(9, "parser/printer and operator round trips", failures == 0,
           f"4000 parse round trips + 200 operator round trips (seed {SEED + 9}), "
           f"{failures} failures")
