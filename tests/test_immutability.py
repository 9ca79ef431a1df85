"""Operations leave their operands as they were.

Scalar and Laurent results are built by copying an operand's dict and
merging into the copy, or by returning an operand itself when nothing
changes; values share coefficient objects freely.  So every operation below
must leave each operand's terms, and each coefficient's own terms, equal to
a snapshot taken before it ran.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from daha import LaurentPoly, ScalarPoly, exact_divide, swap_variables
from daha.laurent import braid_kernel

from conftest import laurent_polys, lopsided_pairs, scalar_polys

one_term_scalars = st.builds(
    ScalarPoly.monomial,
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([1, -1, 2, -3]),
)


def snapshot(value):
    """The terms of value, with each Laurent coefficient's terms, as plain dicts."""
    if isinstance(value, ScalarPoly):
        return dict(value.terms)
    return {key: dict(coeff.terms) for key, coeff in value.terms.items()}


def scalar_operands(draw):
    """Two scalars: lopsided, or with a one-term or zero operand, in either order."""
    a, b = draw(st.one_of(
        lopsided_pairs(scalar_polys(max_terms=6), scalar_polys(max_terms=2)),
        st.tuples(scalar_polys(), one_term_scalars),
        st.tuples(scalar_polys(), st.just(ScalarPoly.zero())),
    ))
    return (b, a) if draw(st.booleans()) else (a, b)


class TestScalarOperands:
    @given(st.data())
    def test_ring_operations_leave_operands_unchanged(self, data):
        a, b = scalar_operands(data.draw)
        before = (snapshot(a), snapshot(b))
        results = [a + b, b + a, a - b, b - a, a - a, a * b, b * a, a * 3, -a, -b,
                   a + 2, 2 + a, a - 2, 2 - a, a.substitute_d_eq_s(), b.substitute_d_eq_s()]
        # Results may be operands themselves (a sum with zero, a product by
        # one), so combine them with the operands once more.
        for r in results:
            r + a, b + r, r - a, b - r, r * a, -r
        assert (snapshot(a), snapshot(b)) == before


class TestLaurentOperands:
    @given(st.data())
    def test_module_operations_leave_operands_unchanged(self, data):
        rank = data.draw(st.integers(1, 3))
        f, g = data.draw(lopsided_pairs(
            laurent_polys(rank=rank, max_terms=6), laurent_polys(rank=rank, max_terms=2)
        ))
        if data.draw(st.booleans()):
            f, g = g, f
        c = data.draw(scalar_polys(max_terms=3))
        operands = [f, g, c]
        before = [snapshot(v) for v in operands]
        results = [f + g, g + f, f - g, g - f, f * g, g * f, f.scale(c), f.scale(3), -f]
        if rank > 1:
            i = data.draw(st.integers(1, rank - 1))
            difference = swap_variables(f, i) - f
            operands.append(difference)
            before.append(snapshot(difference))
            results += [swap_variables(g, i), *braid_kernel(f, i), exact_divide(difference, i)]
        for r in results:
            r + f, g + r, r.scale(c)
        assert [snapshot(v) for v in operands] == before

    def test_exact_divide_with_a_shared_coefficient_object(self):
        coeff = ScalarPoly({(1, 0, 0): 1, (0, 1, 0): -2})
        f = LaurentPoly(2, [((3, 0), coeff), ((1, -1), coeff), ((0, 2), coeff)])
        difference = swap_variables(f, 1) - f
        assert any(c is coeff for c in difference.terms.values())
        before = (snapshot(difference), dict(coeff.terms))
        exact_divide(difference, 1)
        braid_kernel(f, 1)
        assert (snapshot(difference), dict(coeff.terms)) == before

    def test_half_sweep_with_a_shared_coefficient_object(self):
        # The half sweep starts a running sum at f's own coefficient object
        # and stores each sum at two degrees; neither f nor the object changes.
        coeff = ScalarPoly({(1, 0, 0): 1, (0, 1, 0): -2})
        f = LaurentPoly(2, [((4, -1), coeff), ((-1, 4), coeff), ((2, 1), coeff), ((0, -3), coeff)])
        before = (snapshot(f), dict(coeff.terms))
        swapped, g = braid_kernel(f, 1)
        g + f, swapped - g, g.scale(coeff)
        assert (snapshot(f), dict(coeff.terms)) == before
