"""Command-line front end.

Two subcommands:

* ``daha eval`` -- act by a generator word on an element of either module
  and print the canonical form of the result;
* ``daha check`` -- run the verification suites (defining relations in both
  representations, the averaging intertwiner, the symmetrized-subspace
  closure) and exit 0 exactly when every case passes.

Every numeric flag has a range, stated once per command as ``(flag, least,
most)`` rows for :func:`_check_ranges`; a value outside it is a usage error,
``<flag> must be >= <least>, got <value>`` (or ``<= <most>``).  Exit codes
are a stable contract: 0 success, 1 at least one check failed, 2 usage or
parse error.  Every check header echoes kappa, the seed and the suite sizes
so runs are reproducible; with ``--format json-lines`` the same information
is emitted as one JSON record per line (a ``header`` record followed by
``check`` records; see the README for the schema).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict
from math import factorial

from . import __version__, polyrep, verify
from . import skein as skein_mod
from ._tokens import MAX_TEXT_CHARS
from .errors import check_at_least
from .laurent import LaurentPoly, parse_laurent
from .skein import parse_skein
from .verify import CheckReport
from .words import MAX_WORD_LETTERS, parse_word

# Most strands ``daha eval`` accepts (``--kappa``); the grid cap bounds
# ``daha check``'s.  A 100,000-character ``--elem`` parses in ~40 MB.
MAX_KAPPA = 100

# Most random words ``daha check`` draws per suite (``--num-words``).
MAX_NUM_WORDS = 1_000

# Most terms in one input grid of ``daha check``: (2b+1)^kappa monomials for
# exponent bound b, times kappa! where each grid point becomes a sum over the
# permutations (the skein relation grid and the symmetrized intertwiner
# inputs).  A subrep input counts as the symmetrized grid of bound 0.
MAX_GRID_TERMS = 200_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daha",
        description="Exact computations in the double affine Hecke algebra and its two module structures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="act by a word on an element and print the result")
    p_eval.add_argument("--rep", choices=("poly", "skein"), required=True,
                        help="which module: Laurent polynomials or skein basis pairs")
    p_eval.add_argument("--kappa", type=int, required=True, help="number of strands (>= 1)")
    group_w = p_eval.add_mutually_exclusive_group(required=True)
    group_w.add_argument("--word", help="generator word, e.g. 's1*y1' (empty string = identity)")
    group_w.add_argument("--word-file", help="file containing the generator word")
    group_e = p_eval.add_mutually_exclusive_group(required=True)
    group_e.add_argument("--elem", help="element text, e.g. 'X1' or '(a1^2*a2^-1,[2 1])'")
    group_e.add_argument("--elem-file", help="file containing the element")
    p_eval.add_argument("--d-eq-s", action="store_true", help="set d = s in the element and act at d = s")

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument("--suite", choices=("relations", "intertwiner", "subrep", "all"),
                         required=True)
    p_check.add_argument("--kappa", type=int, required=True)
    p_check.add_argument("--seed", type=int, default=0, help="seed for random words (default 0)")
    p_check.add_argument("--max-exp", type=int, default=None,
                         help="exponent bound for input grids (defaults: poly relations 3, "
                              "or 2 for kappa >= 4; everything else 2)")
    p_check.add_argument("--num-words", type=int, default=50,
                         help="random words per random suite (default 50)")
    p_check.add_argument("--max-word-len", type=int, default=4,
                         help="maximum random word length (default 4)")
    p_check.add_argument("--max-inputs", type=int, default=None,
                         help="cap the number of grid inputs (seeded sample when exceeded)")
    p_check.add_argument("--format", choices=("text", "json-lines"), default="text")
    return parser


def _read_arg(inline: str | None, path: str | None) -> str:
    if inline is not None:
        return inline
    with open(path, encoding="utf-8") as handle:
        text = handle.read(MAX_TEXT_CHARS + 1)
    # A file past the text cap goes to the parser whole, which rejects it.
    return text if len(text) > MAX_TEXT_CHARS else text.strip()


def _check_ranges(args: argparse.Namespace, *ranges: tuple[str, int, int | None]) -> None:
    """Reject the first flag outside its ``(flag, least, most)`` range.  An
    unset flag passes, and ``most`` None is no upper bound."""
    for flag, least, most in ranges:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            check_at_least(flag, value, least)
            if most is not None and value > most:
                raise ValueError(f"{flag} must be <= {most}, got {value}")


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_ranges(args, ("--kappa", 1, MAX_KAPPA))
    word_text = _read_arg(args.word, args.word_file)
    elem_text = _read_arg(args.elem, args.elem_file)
    word = parse_word(word_text, args.kappa)
    poly = args.rep == "poly"
    element = (parse_laurent if poly else parse_skein)(elem_text, args.kappa)
    if args.d_eq_s:
        element = element.substitute_d_eq_s()
    print(polyrep.act_word(word, element) if poly
          else skein_mod.act_word(word, element, d_eq_s=args.d_eq_s))
    return 0


def _cap_inputs(inputs: list, cap: int | None, seed: int) -> list:
    if cap is None or len(inputs) <= cap:
        return inputs
    return random.Random(seed).sample(inputs, cap)


def _suite_plan(args: argparse.Namespace) -> list[tuple[str, int]]:
    """The checks ``--suite`` selects, in run order, each with its exponent
    bound: 3 for the ``poly`` relation suite at kappa <= 3 and 2 for every
    other check (the ``skein`` relation suite, ``intertwiner`` and
    ``subrep``).  ``--max-exp`` overrides every default."""
    plan = []
    for suite, name in (("relations", "poly"), ("relations", "skein"),
                        ("intertwiner", "intertwiner"), ("subrep", "subrep")):
        if args.suite in (suite, "all"):
            default = 3 if name == "poly" and args.kappa <= 3 else 2
            plan.append((name, default if args.max_exp is None else args.max_exp))
    return plan


def _check_grid_sizes(kappa: int, plan: list[tuple[str, int]]) -> None:
    """Reject a planned suite whose input grid passes :data:`MAX_GRID_TERMS`,
    before any grid is built."""
    # Past 20 strands every one of these grids but an unsymmetrized one of
    # bound 0 is over the cap, so the exponent stops there.
    rank = min(kappa, 20)
    for name, bound in plan:
        if name == "subrep":  # each input is one symmetrized monomial
            terms, what = factorial(rank), f"--kappa {kappa} makes each symmetrized subrep input"
        else:
            terms = (2 * bound + 1) ** rank * (1 if name == "poly" else factorial(rank))
            grid = f"{name} relation" if name in ("poly", "skein") else name
            what = f"--kappa {kappa} and --max-exp {bound} make the {grid} grid"
        if terms > MAX_GRID_TERMS:
            raise ValueError(f"{what} larger than {MAX_GRID_TERMS} terms")


def _run_suites(args: argparse.Namespace,
                plan: list[tuple[str, int]]) -> tuple[dict, list[CheckReport]]:
    kappa, seed = args.kappa, args.seed
    reports: list[CheckReport] = []
    sizes: dict = {}
    words = None  # the random words, drawn once for both suites that use them

    for name, bound in plan:
        if name in ("poly", "skein"):
            grid = verify.monomial_grid if name == "poly" else verify.basis_grid
            inputs = _cap_inputs(grid(kappa, bound), args.max_inputs, seed)
            sizes[f"relations_{name}_inputs"] = len(inputs)
            sizes[f"relations_{name}_bound"] = bound
            reports.extend(verify.check_relations(kappa, name, inputs))
            continue
        if words is None:
            words = verify.random_words(kappa, args.num_words, args.max_word_len, seed)
        if name == "intertwiner":
            all_words = verify.single_generator_words(kappa) + words
            monomials = _cap_inputs(verify.monomial_grid(kappa, bound), args.max_inputs, seed)
            sizes["intertwiner_words"] = len(all_words)
            sizes["intertwiner_monomials"] = len(monomials)
            reports.append(verify.check_intertwiner(kappa, all_words, monomials, seed=seed))
        else:
            rng = random.Random(seed + 1)
            monomials = [
                LaurentPoly.monomial(kappa, [rng.randint(-bound, bound) for _ in range(kappa)])
                for _ in words
            ]
            sizes["subrep_words"] = len(words)
            reports.append(verify.check_subrep_closure(kappa, words, monomials, seed=seed))

    return sizes, reports


def _cmd_check(args: argparse.Namespace) -> int:
    plan = _suite_plan(args)
    # A smaller value would leave a suite nothing to check (or fail to draw).
    # The intertwiner suite keeps its single-letter words at --num-words 0;
    # the subrep suite checks only the random words.
    # A larger value would build more than the documented caps allow.
    _check_ranges(
        args,
        ("--kappa", 1, None),
        ("--max-exp", 0, None),
        ("--num-words", 1 if "subrep" in dict(plan) else 0, MAX_NUM_WORDS),
        ("--max-word-len", 1, MAX_WORD_LETTERS),
        ("--max-inputs", 1, None),
    )
    _check_grid_sizes(args.kappa, plan)
    header = {"record": "header"}
    header.update((key, getattr(args, key)) for key in (
        "suite", "kappa", "seed", "max_exp", "num_words", "max_word_len", "max_inputs"))
    try:
        sizes, reports = _run_suites(args, plan)
    except ArithmeticError as exc:
        # An arithmetic failure inside a suite is itself a check failure.
        reports = [CheckReport(
            label=f"{args.suite}:aborted",
            kappa=args.kappa,
            cases=1,
            failures=1,
            seed=args.seed,
            counterexample=verify.Counterexample("<suite>", "<aborted>", str(exc), ""),
        )]
        sizes = {}
    header.update(sizes)

    if args.format == "json-lines":
        print(json.dumps(header, sort_keys=True))
        for report in reports:
            record = {"record": "check", **asdict(report)}
            print(json.dumps(record, sort_keys=True))
    else:
        meta = " ".join(f"{k}={v}" for k, v in header.items() if k != "record" and v is not None)
        print(f"# {meta}")
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} {report.label}: cases={report.cases} failures={report.failures}")
            if report.counterexample is not None:
                ce = report.counterexample
                print(f"     word:  {ce.word}")
                print(f"     input: {ce.input}")
                print(f"     lhs:   {ce.lhs}")
                print(f"     rhs:   {ce.rhs}")
        total_failures = sum(r.failures for r in reports)
        print(f"# total: {len(reports)} checks, {sum(r.cases for r in reports)} cases, "
              f"{total_failures} failures")
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_check(args)
    except (ValueError, IndexError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
