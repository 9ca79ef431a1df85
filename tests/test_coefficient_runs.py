"""Coefficient maps over runs of equal coefficients.

``scale``, unary and binary minus and the rows of ``LaurentPoly *
LaurentPoly`` map each coefficient once per run of equal coefficients,
whether the run shares one object or holds equal copies.  They are checked
on both ``LaurentPoly`` and ``SkeinElement`` against the termwise references
of ``product_oracle``, which map every coefficient; ``substitute_d_eq_s``
is checked the same way, on the same runs, in ``test_laurent`` and
``test_skein``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from daha import LaurentPoly, Permutation, ScalarPoly, SkeinElement, c_power, d_power, hbar, s_power

from conftest import permutations, scalar_polys, shared_coefficient_runs
from product_oracle import combination_sum, laurent_product, negated, scaled


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
