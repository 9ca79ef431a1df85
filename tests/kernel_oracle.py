"""The braid kernel's divided difference as the composition of its parts.

:func:`daha.laurent.braid_kernel` returns ``(swap_i f, g)`` with
``g = hbar * (swap_i f - f) / (X_i X_{i+1}^-1 - 1)``.  An input of two or
more terms that the swap does not fix is divided by a half sweep over its
own terms, which builds neither ``swap_i f - f`` nor a negated copy of f.
:func:`composed_kernel` builds g the long way: it swaps, subtracts, divides
with :func:`~daha.laurent.exact_divide` and scales, exactly as the kernel
does for a one-term input, so the tests compare the two paths with each
other.  It has no checks of its own and raises whatever its parts raise.
"""

from __future__ import annotations

from daha import LaurentPoly, exact_divide, hbar, swap_variables


def composed_kernel(f: LaurentPoly, i: int) -> LaurentPoly:
    """``hbar * (swap_i f - f) / (X_i X_{i+1}^-1 - 1)`` by swap, subtraction,
    exact division and scaling."""
    return exact_divide(swap_variables(f, i) - f, i).scale(hbar())
