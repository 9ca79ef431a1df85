"""Golden-output gate: fixed ``daha`` commands must print byte for byte what
is stored under ``tests/golden``.

Each case stores three files: ``<name>.stdout``, ``<name>.stderr`` and
``<name>.exit`` (the exit code).  A change to canonical printed forms, to
the order of checks, to parse-error messages or to exit codes shows up here
as a diff.

This module is the one list of golden commands, in two dicts:

* ``CASES`` run in milliseconds; the tier-1 suite runs each in process.
* ``FULL_CASES`` holds the README's full kappa=3 check, which takes seconds,
  so no tier-1 test runs it.

CI runs every entry of both dicts through the installed ``daha`` console
script with :func:`check_console_script`, which compares stdout, stderr
and exit code.  After a deliberate output change, regenerate the files of
both dicts with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from daha.cli import main

GOLDEN = Path(__file__).parent / "golden"

SKEIN_K3 = "2*(a1*a2^-1,[2 1 3]) - d*(a3^2,[1 3 2]) + (s + c^-1)*(1,[3 2 1])"
# One coefficient value on all six permutations of one exponent vector, as
# the averaging map builds it; each term parses to its own coefficient object.
SKEIN_K3_SYM = " + ".join(
    f"(s + c^-1)*(a1^2*a3^-1,[{' '.join(map(str, perm))}])" for perm in permutations((1, 2, 3))
)

CASES = {
    "check_all_k2_seed7_json": [
        "check", "--suite", "all", "--kappa", "2", "--seed", "7", "--format", "json-lines",
    ],
    "check_all_k3_seed42": [
        "check", "--suite", "all", "--kappa", "3", "--seed", "42", "--num-words", "10",
        "--max-word-len", "3", "--max-inputs", "40",
    ],
    "check_relations_k4_seed3": [
        "check", "--suite", "relations", "--kappa", "4", "--max-exp", "1", "--max-inputs", "20",
        "--seed", "3",
    ],
    "eval_skein_k3": [
        "eval", "--rep", "skein", "--kappa", "3", "--word", "s1*y1*s2^-1*x3", "--elem", SKEIN_K3,
    ],
    "eval_skein_k3_d_eq_s": [
        "eval", "--rep", "skein", "--kappa", "3", "--word", "s1*y1*s2^-1*x3", "--elem", SKEIN_K3,
        "--d-eq-s",
    ],
    "eval_skein_k3_sym_d_eq_s": [
        "eval", "--rep", "skein", "--kappa", "3", "--d-eq-s", "--word", "y2*s1^-1*y1*x3^-1*y3^-1",
        "--elem", SKEIN_K3_SYM,
    ],
    "eval_poly_k3": [
        "eval", "--rep", "poly", "--kappa", "3", "--word", "y2*s1^-1*x1^-1*y1^-1",
        "--elem", "s*X1^2*X2^-1 - (c + s^-1)*X3 + 3",
    ],
    "eval_poly_k3_d_eq_s": [
        "eval", "--rep", "poly", "--kappa", "3", "--word", "y2*s1^-1*x1^-1*y1^-1",
        "--elem", "d*X1^2*X2^-1 - (c + d^-1)*X3 + 3*s*d^2", "--d-eq-s",
    ],
    "eval_poly_k4_wide": [
        "eval", "--rep", "poly", "--kappa", "4", "--word", "s3*y1^-1*s1^-1*s2",
        "--elem", "(s + c^-1)*X1^3*X2^-2 - 2*X1^-2*X2^3 + X2*X3^6 - s^2*X1*X2 + X1^-1*X2^-1",
    ],
    "eval_poly_k2_parenthesized": [
        "eval", "--rep", "poly", "--kappa", "2", "--word", "x2^-1*s1^2",
        "--elem", "-(s - s^-1)*X1^-1*X2 + c^2",
    ],
    "eval_skein_k3_y3": [
        "eval", "--rep", "skein", "--kappa", "3", "--word", "y3^-1*x2", "--elem", "(a2,[3 1 2])",
    ],
    "eval_skein_k2_zero_term": [
        "eval", "--rep", "skein", "--kappa", "2", "--word", "",
        "--elem", "0*(a1,[1 2]) + 3*s^-2*(1,[2 1]) - (a1*a2, [1, 2])",
    ],
    "error_skein_bad_permutation": [
        "eval", "--rep", "skein", "--kappa", "2", "--word", "", "--elem", "(a1,[1 1])",
    ],
    "error_poly_bad_factor": [
        "eval", "--rep", "poly", "--kappa", "3", "--word", "s1", "--elem", "X1 + * X2",
    ],
    "error_eval_kappa_zero": [
        "eval", "--rep", "poly", "--kappa", "0", "--word", "", "--elem", "1",
    ],
    "error_word_index": [
        "eval", "--rep", "poly", "--kappa", "3", "--word", "x4", "--elem", "1",
    ],
}

FULL_CASES = {
    "check_all_k3_seed42_full": [
        "check", "--suite", "all", "--kappa", "3", "--seed", "42", "--num-words", "10",
        "--max-word-len", "3",
    ],
}


def _expected(name: str) -> tuple[str, str, int]:
    return (
        (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8"),
        (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8"),
        int((GOLDEN / f"{name}.exit").read_text(encoding="utf-8")),
    )


def _run(argv: list[str]) -> tuple[str, str, int]:
    """Run ``daha`` in process and return its (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert _run(CASES[name]) == _expected(name)


def check_console_script() -> None:
    """Run every case of both dicts through the installed ``daha`` console
    script, and exit naming the cases whose stdout, stderr or exit code
    differs from their golden files."""
    mismatches = []
    for name, argv in {**CASES, **FULL_CASES}.items():
        run = subprocess.run(["daha", *argv], capture_output=True)
        if (run.stdout.decode(), run.stderr.decode(), run.returncode) != _expected(name):
            mismatches.append(name)
    if mismatches:
        sys.exit(f"differ from tests/golden: {', '.join(mismatches)}")


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in {**CASES, **FULL_CASES}.items():
        out, err, code = _run(argv)
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(err, encoding="utf-8")
        (GOLDEN / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
