"""Coefficient maps over runs of equal coefficients.

``scale``, unary and binary minus and the rows of ``LaurentPoly *
LaurentPoly`` map each coefficient once per run of equal coefficients,
whether the run shares one object or holds equal copies.  They are checked
on both ``LaurentPoly`` and ``SkeinElement`` against the termwise references
of ``product_oracle``, which map every coefficient; ``substitute_d_eq_s``
is checked the same way, on the same runs, in ``test_laurent`` and
``test_skein``.

Two merge loops share work over such runs too.  The braided half of
``skein.act_sigma`` makes each distinct product of a rule coefficient and a
run's value once, and ``laurent.accumulate`` reuses a sum when an add meets
the same two objects as the previous add.  They are checked against
``push_oracle.sigma_termwise``, which pushes and multiplies term by term,
and by counting ``ScalarPoly`` operations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from daha import (
    GeneratorLetter, GeneratorWord, LaurentPoly, Permutation, ScalarPoly, SkeinElement, c_power,
    d_power, hbar, s_power, skein, symmetrize,
)
from daha.laurent import accumulate

from conftest import permutations, scalar_polys, shared_coefficient_runs
from product_oracle import combination_sum, d_eq_s, laurent_product, negated, scalar_sum, scaled
from push_oracle import sigma_termwise


def _keys(cls, rank):
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * rank)
    return exps if cls is LaurentPoly else st.tuples(exps, permutations(kappa=rank))


@st.composite
def run_values(draw, cls, rank):
    """A value of cls whose terms come in runs of equal coefficients."""
    return cls(rank, draw(shared_coefficient_runs(_keys(cls, rank))))


@pytest.mark.parametrize("cls", [LaurentPoly, SkeinElement])
@given(data=st.data())
def test_maps_match_the_termwise_oracles(cls, data):
    rank = data.draw(st.integers(min_value=1, max_value=3))
    f, g = data.draw(run_values(cls, rank)), data.draw(run_values(cls, rank))
    factor = data.draw(scalar_polys(max_terms=3))
    for got, expected in [
        (f.scale(factor), scaled(f, factor)),
        (-f, negated(f)),
        (f - g, combination_sum(f, negated(g), rank)),
    ]:
        assert got == expected
        assert str(got) == str(expected)


@given(data=st.data())
def test_laurent_products_match_the_termwise_oracle(data):
    # Each term of the right factor scales the whole left factor.
    rank = data.draw(st.integers(min_value=1, max_value=3))
    f, g = data.draw(run_values(LaurentPoly, rank)), data.draw(run_values(LaurentPoly, rank))
    got, expected = f * g, laurent_product(f, g)
    assert got == expected
    assert str(got) == str(expected)


@pytest.mark.parametrize("cls", [LaurentPoly, SkeinElement])
def test_scale_multiplies_once_per_run_of_equal_values(cls, monkeypatch):
    # a and b have two terms each, so equal lengths do not make equal values.
    a, b = s_power(1) + c_power(-1), s_power(1) - d_power(1)
    coeffs = [a, ScalarPoly(a.terms), b, ScalarPoly(b.terms), ScalarPoly(b.terms), a]
    keys = [(k, 0) for k in range(len(coeffs))]
    if cls is SkeinElement:
        keys = [(key, Permutation(images)) for key, images in zip(keys, [(1, 2), (2, 1)] * 3)]
    v = cls(2, list(zip(keys, coeffs)))
    calls = []
    multiply = ScalarPoly.__mul__
    monkeypatch.setattr(ScalarPoly, "__mul__",
                        lambda self, other: calls.append(self) or multiply(self, other))
    got = v.scale(hbar())
    monkeypatch.undo()
    assert calls == [a, b, a]
    assert got == scaled(v, hbar())
    results = [got.terms[key] for key in v.terms]
    assert results[0] is results[1]
    assert results[2] is results[3] is results[4]
    assert len({id(result) for result in results}) == 3


# -- the braid letter and accumulate over runs ----------------------------------


def _at_d_eq_s(v: SkeinElement) -> SkeinElement:
    """v at d = s with its object sharing kept: terms that shared one
    coefficient object share its image, and equal copies stay distinct."""
    images: dict[int, ScalarPoly] = {}
    for coeff in v.terms.values():
        if id(coeff) not in images:
            images[id(coeff)] = coeff.substitute_d_eq_s()
    return SkeinElement(v.kappa, [(key, images[id(coeff)]) for key, coeff in v.terms.items()])


@st.composite
def braid_inputs(draw, kappa, max_runs=5):
    """A skein element in runs of equal coefficients (one object or equal
    copies), or a symmetrized polynomial, whose kappa! terms per exponent
    vector share one object."""
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * kappa)
    if draw(st.booleans()):
        f = LaurentPoly(kappa, draw(shared_coefficient_runs(exps, max_runs)))
        return symmetrize(f.substitute_d_eq_s())
    keys = st.tuples(exps, permutations(kappa=kappa))
    return SkeinElement(kappa, draw(shared_coefficient_runs(keys, max_runs)))


def _sigma_oracle(i, sign, v, at_d_eq_s):
    """s_i^sign . v from ``sigma_termwise``, with s_i^-1 = s_i - hbar; at
    d = s (v free of d) the generic result with d set to s."""
    image = sigma_termwise(i, v)
    if sign < 0:
        image = combination_sum(image, negated(scaled(v, hbar())), v.kappa)
    return d_eq_s(image) if at_d_eq_s else image


@pytest.mark.parametrize("at_d_eq_s", [False, True], ids=["generic-d", "d-eq-s"])
@given(data=st.data())
def test_braid_letters_on_runs_match_the_termwise_oracle(at_d_eq_s, data):
    kappa = data.draw(st.integers(min_value=2, max_value=3))
    v = data.draw(braid_inputs(kappa))
    if at_d_eq_s:
        v = _at_d_eq_s(v)
    i = data.draw(st.integers(min_value=1, max_value=kappa - 1))
    for sign, act in ((1, skein.act_sigma), (-1, skein.act_sigma_inv)):
        got, expected = act(i, v, d_eq_s=at_d_eq_s), _sigma_oracle(i, sign, v, at_d_eq_s)
        assert got == expected
        assert str(got) == str(expected)


@pytest.mark.parametrize("at_d_eq_s", [False, True], ids=["generic-d", "d-eq-s"])
@given(data=st.data())
def test_braid_words_on_runs_match_the_termwise_oracle(at_d_eq_s, data):
    # Each letter's image is the next letter's input, so later letters act
    # on the runs and shared objects that the earlier ones made.
    kappa = data.draw(st.integers(min_value=2, max_value=3))
    v = data.draw(braid_inputs(kappa, max_runs=2))
    if at_d_eq_s:
        v = _at_d_eq_s(v)
    letters = data.draw(st.lists(st.tuples(st.integers(min_value=1, max_value=kappa - 1),
                                           st.sampled_from([1, -1])), max_size=3))
    expected = v
    for i, sign in reversed(letters):
        expected = _sigma_oracle(i, sign, expected, at_d_eq_s)
    word = GeneratorWord(kappa, [GeneratorLetter("s", i, sign) for i, sign in letters])
    got = skein.act_word(word, v, d_eq_s=at_d_eq_s)
    assert got == expected
    assert str(got) == str(expected)


def test_accumulate_adds_once_per_run_of_identical_pairs(monkeypatch):
    a, b, h = s_power(1) + c_power(-1), s_power(1) - d_power(1), hbar()
    minus_b = -b
    data = {0: a, 1: a, 2: a, 3: b, 4: b, 5: b, 7: a, 8: a}
    # A new key (6) adds nothing and keeps the run; equal copies of h on
    # keys 7 and 8 are other objects, so each makes its own sum.  The run
    # over keys 3 to 5 sums to zero, so all three keys are dropped.
    items = [(0, h), (1, h), (2, h), (3, minus_b), (4, minus_b), (6, h), (5, minus_b),
             (7, ScalarPoly(h.terms)), (8, ScalarPoly(h.terms))]
    expected = dict(data)
    for key, value in items:
        total = scalar_sum(expected.get(key, ScalarPoly.zero()), value)
        if total:
            expected[key] = total
        else:
            del expected[key]
    calls = []
    add = ScalarPoly.__add__
    monkeypatch.setattr(ScalarPoly, "__add__",
                        lambda self, other: calls.append((self, other)) or add(self, other))
    accumulate(data, items)
    monkeypatch.undo()
    assert [(total is a, total is b) for total, _ in calls] == [
        (True, False), (False, True), (True, False), (True, False)]
    assert data == expected and list(data) == list(expected)
    assert data[0] is data[1] is data[2]
    assert data[6] is h and data[7] is not data[8]
    assert not {3, 4, 5} & data.keys()


@pytest.mark.parametrize("at_d_eq_s", [False, True], ids=["generic-d", "d-eq-s"])
@pytest.mark.parametrize("exps", [(1, 1, 0), (2, -1, 0), (0, 3, 1)])
@pytest.mark.parametrize("i", [1, 2])
def test_braided_half_multiplies_once_per_rule_value(i, exps, at_d_eq_s, monkeypatch):
    # symmetrize(X^n) is one run: its six terms share one coefficient.  The
    # braided half multiplies it by the rule's d^-1 or s^-1 (ascents), and
    # by d or s and hbar (descents): three values, so three products, where
    # a product per rule term would make nine.
    coeff = s_power(1) + c_power(-2)
    v = symmetrize(LaurentPoly.monomial(3, exps, coeff))
    calls = []
    multiply = ScalarPoly.__mul__
    monkeypatch.setattr(ScalarPoly, "__mul__",
                        lambda self, other: calls.append((self, other)) or multiply(self, other))
    got = skein.act_sigma(i, v, d_eq_s=at_d_eq_s)
    monkeypatch.undo()
    braided = [factor for factor, other in calls if other is coeff]
    assert len(braided) == len({tuple(sorted(factor.terms.items())) for factor in braided}) == 3
    assert got == _sigma_oracle(i, 1, v, at_d_eq_s)
