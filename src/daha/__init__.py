"""Exact symbolic computation for the type-A double affine Hecke algebra.

The package implements, over the integer Laurent ring Z[s^±1, c^±1, d^±1]:

* the standard polynomial representation on Laurent polynomials in
  X_1, ..., X_kappa (:mod:`daha.polyrep`),
* the braid-skein module of pairs (a-monomial, permutation) together with
  the enhanced polynomial representation (:mod:`daha.skein`),
* machine verification that the two module structures satisfy the defining
  relations and agree under permutation averaging at d = s
  (:mod:`daha.verify`),
* a command-line front end (``daha eval`` / ``daha check``).

All values are immutable after construction and every operation is a pure
function, so values can be shared freely between threads or processes.
Values pickle under every protocol; scalars, polynomials, skein elements,
permutations, words, letters and check reports unpickle through validating
constructors.
"""

from .errors import NonDivisibleError, ParseError, RankMismatchError
from .laurent import (
    LaurentPoly,
    exact_divide,
    parse_laurent,
    rotate_variables,
    rotate_variables_inverse,
    swap_variables,
)
from .scalars import ScalarPoly, c_power, d_power, hbar, parse_scalar, s_power
from .skein import (
    Permutation,
    SkeinElement,
    all_permutations,
    parse_skein,
    push_sigma_past_monomial,
    symmetrize,
)
from .verify import CheckReport, Counterexample
from .words import (
    GeneratorLetter,
    GeneratorWord,
    RelationPair,
    expand_x,
    expand_y,
    parse_word,
    relation_table,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Counterexample",
    "GeneratorLetter",
    "GeneratorWord",
    "LaurentPoly",
    "NonDivisibleError",
    "ParseError",
    "Permutation",
    "RankMismatchError",
    "RelationPair",
    "ScalarPoly",
    "SkeinElement",
    "all_permutations",
    "c_power",
    "d_power",
    "exact_divide",
    "expand_x",
    "expand_y",
    "hbar",
    "parse_laurent",
    "parse_scalar",
    "parse_skein",
    "parse_word",
    "push_sigma_past_monomial",
    "relation_table",
    "rotate_variables",
    "rotate_variables_inverse",
    "s_power",
    "swap_variables",
    "symmetrize",
    "__version__",
]
