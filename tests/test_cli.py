"""Tests for the command-line front end: output contracts and exit codes."""

from __future__ import annotations

import json

import pytest

from daha import CheckReport, Counterexample, LaurentPoly, verify
from daha import cli
from daha._tokens import MAX_EXPONENT, MAX_INT_DIGITS, MAX_TEXT_CHARS
from daha.cli import MAX_GRID_TERMS, MAX_KAPPA, MAX_NUM_WORDS, main
from daha.words import MAX_WORD_LETTERS


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_skein_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--rep", "skein", "--kappa", "2",
            "--word", "s1*y1", "--elem", "(a1^2*a2^-1,[2 1])",
        )
        assert code == 0
        assert out.strip() == "c^4*(a1^-1*a2^2,[1 2])"

    def test_poly_identity_word(self, capsys):
        code, out, _ = run(capsys, "eval", "--rep", "poly", "--kappa", "2",
                           "--word", "", "--elem", "X1")
        assert code == 0
        assert out.strip() == "X1"

    def test_poly_braid_on_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "--rep", "poly", "--kappa", "2",
                           "--word", "s1", "--elem", "1")
        assert code == 0
        assert out.strip() == "s"

    def test_d_substitution_flag(self, capsys):
        args = ["eval", "--rep", "skein", "--kappa", "2", "--word", "s1", "--elem", "(1,[1 2])"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.strip() == "d^-1*(1,[2 1])"
        code, out, _ = run(capsys, *args, "--d-eq-s")
        assert code == 0
        assert out.strip() == "s^-1*(1,[2 1])"

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2",
                           "--word", "x3", "--elem", "1")
        assert code == 2
        assert "error:" in err

    def test_bad_kappa_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "poly", "--kappa", "0",
                           "--word", "", "--elem", "1")
        assert code == 2
        assert err == "error: --kappa must be >= 1, got 0\n"

    def test_word_over_the_length_cap_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2",
                           "--word", f"s1^{MAX_WORD_LETTERS + 1}", "--elem", "1")
        assert code == 2
        assert f"more than {MAX_WORD_LETTERS} letters" in err

    def test_bad_element_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "skein", "--kappa", "2",
                           "--word", "", "--elem", "(a1,[1 1])")
        assert code == 2
        assert "error:" in err

    def test_word_from_file(self, capsys, tmp_path):
        word_file = tmp_path / "word.txt"
        word_file.write_text("s1*y1\n")
        code, out, _ = run(
            capsys, "eval", "--rep", "skein", "--kappa", "2",
            "--word-file", str(word_file), "--elem", "(a1^2*a2^-1,[2 1])",
        )
        assert code == 0
        assert out.strip() == "c^4*(a1^-1*a2^2,[1 2])"

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--rep", "poly", "--kappa", "2", "--word", ""], "required"),
        (["bench", "--kappa", "2", "--word-len", "2"], "invalid choice"),
    ], ids=["missing-elem", "bench"])
    def test_usage_error_exits_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert message in captured.err


class TestCheck:
    def test_relations_pass_and_echo_header(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "relations", "--kappa", "2",
                           "--max-exp", "1", "--seed", "3")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("#")
        assert "kappa=2" in header and "seed=3" in header
        assert "FAIL" not in out

    def test_json_lines_format(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "all", "--kappa", "2",
                           "--max-exp", "1", "--num-words", "3", "--max-word-len", "2",
                           "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["record"] == "header"
        assert records[0]["kappa"] == 2
        checks = [r for r in records[1:] if r["record"] == "check"]
        assert checks and all(r["failures"] == 0 for r in checks)

    def test_intertwiner_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "intertwiner", "--kappa", "2",
                           "--max-exp", "1", "--num-words", "5", "--max-word-len", "3")
        assert code == 0
        assert "PASS intertwiner" in out

    def test_subrep_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "subrep", "--kappa", "2",
                           "--num-words", "5", "--max-word-len", "3")
        assert code == 0

    def test_max_inputs_caps_grids(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "relations", "--kappa", "2",
                           "--max-exp", "1", "--max-inputs", "4", "--format", "json-lines")
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["relations_poly_inputs"] == 4

    def test_failures_exit_one(self, capsys, monkeypatch):
        failing = CheckReport(
            label="poly:forced", kappa=2, cases=1, failures=1, seed=0,
            counterexample=Counterexample("w", "v", "l", "r"),
        )
        monkeypatch.setattr("daha.verify.check_relations", lambda *a, **k: [failing])
        code, out, _ = run(capsys, "check", "--suite", "relations", "--kappa", "2")
        assert code == 1
        assert "FAIL poly:forced" in out
        assert "word:  w" in out

    def test_failed_certification_exits_one(self, capsys, monkeypatch):
        # A wrong product makes exact_divide's multiply-back check fail; the
        # suite reports that as a failed check, not as a crash.
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda self, other: LaurentPoly.zero(self.rank))
        code, out, _ = run(capsys, "check", "--suite", "relations", "--kappa", "2",
                           "--max-exp", "1", "--max-inputs", "4")
        assert code == 1
        assert "FAIL relations:aborted" in out
        assert "certification failed" in out

    def test_bad_kappa_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "relations", "--kappa", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag, value", [
        ("--max-exp", "-1"),
        ("--num-words", "-4"),
        ("--max-word-len", "0"),
        ("--max-word-len", "-2"),
        ("--max-inputs", "0"),
        ("--max-inputs", "-1"),
    ])
    def test_out_of_range_suite_size_exits_two(self, capsys, flag, value):
        # Each of these once ran, and passed, checks of zero cases.
        code, out, err = run(capsys, "check", "--suite", "all", "--kappa", "2", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be >= ")

    def test_suite_all_draws_the_random_words_once(self, capsys, monkeypatch):
        calls = []
        real = verify.random_words

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "random_words", counting)
        code, _, _ = run(capsys, "check", "--suite", "all", "--kappa", "2", "--max-exp", "0",
                         "--num-words", "2", "--max-word-len", "1", "--max-inputs", "1")
        assert code == 0
        assert calls == [(2, 2, 1, 0)]

    def test_smallest_suite_sizes_are_accepted(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "intertwiner", "--kappa", "2",
                           "--max-exp", "0", "--num-words", "0", "--max-word-len", "1",
                           "--max-inputs", "1")
        assert code == 0
        assert "PASS intertwiner: cases=10" in out and "FAIL" not in out

    @pytest.mark.parametrize("suite", ["subrep", "all"])
    def test_subrep_suite_without_words_exits_two(self, capsys, suite):
        # The subrep suite checks only random words; with none it once
        # printed "PASS subrep: cases=0" and exited 0.
        code, out, err = run(capsys, "check", "--suite", suite, "--kappa", "2",
                             "--num-words", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --num-words must be >= 1, got 0")

    @pytest.mark.parametrize("suite", ["subrep", "all"])
    def test_smallest_suite_sizes_with_the_subrep_suite_are_accepted(self, capsys, suite):
        code, out, _ = run(capsys, "check", "--suite", suite, "--kappa", "2", "--max-exp", "0",
                           "--num-words", "1", "--max-word-len", "1", "--max-inputs", "1")
        assert code == 0
        assert "PASS subrep: cases=1 failures=0" in out and "FAIL" not in out
        if suite == "all":
            assert "PASS intertwiner: cases=11" in out


class TestCheckCaps:
    """Suite sizes over a documented cap exit 2 before any input is built."""

    @pytest.fixture(autouse=True)
    def no_grids(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an input grid was built")

        for name in ("monomial_grid", "basis_grid", "random_words"):
            monkeypatch.setattr(verify, name, refuse)

    @pytest.mark.parametrize("flag, cap", [
        ("--num-words", MAX_NUM_WORDS),
        ("--max-word-len", MAX_WORD_LETTERS),
    ])
    def test_word_suite_over_its_cap_exits_two(self, capsys, flag, cap):
        code, out, err = run(capsys, "check", "--suite", "all", "--kappa", "2", flag, str(cap + 1))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be <= {cap}, got {cap + 1}")

    def test_grid_over_the_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "relations", "--kappa", "2",
                             "--max-exp", "3000", "--max-inputs", "5")
        assert code == 2
        assert out == ""
        assert err == ("error: --kappa 2 and --max-exp 3000 make the poly relation grid "
                       f"larger than {MAX_GRID_TERMS} terms\n")

    @pytest.mark.parametrize("suite, grid", [
        ("relations", "skein relation grid"),
        ("intertwiner", "intertwiner grid"),
    ])
    def test_symmetrized_grid_one_term_over_the_cap_exits_two(self, capsys, monkeypatch,
                                                              suite, grid):
        # kappa 2, bound 1: 3^2 monomials times 2! permutations is 18 terms.
        monkeypatch.setattr(cli, "MAX_GRID_TERMS", 17)
        code, out, err = run(capsys, "check", "--suite", suite, "--kappa", "2", "--max-exp", "1")
        assert code == 2
        assert out == ""
        assert f"make the {grid} larger than 17 terms" in err

    def test_subrep_input_one_term_over_the_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_TERMS", 5)  # 3! = 6 terms
        code, out, err = run(capsys, "check", "--suite", "subrep", "--kappa", "3")
        assert code == 2
        assert out == ""
        assert "--kappa 3 makes each symmetrized subrep input larger than 5 terms" in err

    def test_kappa_far_over_the_cap_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "intertwiner", "--kappa", "10" * 10,
                           "--max-exp", "0")
        assert code == 2
        assert "make the intertwiner grid larger than" in err


class TestFlagCaps:
    """``eval``'s ``--kappa`` over its documented cap exits 2 before any
    element or word is built."""

    @pytest.fixture(autouse=True)
    def no_builders(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an element or word was built")

        for name in ("parse_word", "parse_laurent", "parse_skein"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("rep", ["poly", "skein"])
    def test_eval_kappa_over_the_cap_exits_two(self, capsys, rep):
        code, out, err = run(capsys, "eval", "--rep", rep, "--kappa", str(MAX_KAPPA + 1),
                             "--word", "", "--elem", "1")
        assert (code, out) == (2, "")
        assert err == f"error: --kappa must be <= {MAX_KAPPA}, got {MAX_KAPPA + 1}\n"


class TestTextCap:
    def test_element_over_the_text_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2", "--word", "",
                             "--elem", " " * MAX_TEXT_CHARS + "1")
        assert (code, out) == (2, "")
        assert f"text longer than {MAX_TEXT_CHARS} characters" in err

    @pytest.mark.parametrize("file_flag", ["--word-file", "--elem-file"])
    def test_endless_file_is_read_only_to_the_cap(self, capsys, monkeypatch, file_flag):
        class Endless:
            """A stream like /dev/zero: an unsized read never returns."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, size=-1):
                if size is None or size < 0:
                    raise MemoryError("unsized read of an endless stream")
                return "\0" * size

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Endless(), raising=False)
        argv = {"--word": "", "--elem": "1"}
        argv.pop("--word" if file_flag == "--word-file" else "--elem")
        argv[file_flag] = "endless"
        code, out, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2",
                             *[part for item in argv.items() for part in item])
        assert (code, out) == (2, "")
        assert err == (f"error: text longer than {MAX_TEXT_CHARS} characters "
                       f"(at position {MAX_TEXT_CHARS})\n")

    def test_inline_element_with_trailing_spaces_at_the_cap_evaluates(self, capsys):
        code, out, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2", "--word", "",
                             "--elem", "X1" + " " * (MAX_TEXT_CHARS - 2))
        assert (code, out, err) == (0, "X1\n", "")

    @pytest.mark.parametrize("padding, accepted", [(MAX_TEXT_CHARS - 2, True),
                                                   (MAX_TEXT_CHARS - 1, False)])
    def test_file_at_the_cap_is_stripped_and_one_past_it_rejected(
        self, capsys, tmp_path, padding, accepted
    ):
        # "1", the padding and a newline: the cap exactly, or one past it,
        # which is rejected even though stripping would bring it under.
        elem_file = tmp_path / "elem.txt"
        elem_file.write_text("1" + " " * padding + "\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2", "--word", "",
                             "--elem-file", str(elem_file))
        if accepted:
            assert (code, out, err) == (0, "1\n", "")
        else:
            assert (code, out) == (2, "")
            assert f"text longer than {MAX_TEXT_CHARS} characters" in err


class TestCheckCapBoundaries:
    def test_grids_at_the_cap_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_TERMS", 18)
        code, out, _ = run(capsys, "check", "--suite", "all", "--kappa", "2", "--max-exp", "1",
                           "--num-words", "1", "--max-word-len", "1")
        assert code == 0
        assert "relations_skein_inputs=18" in out and "FAIL" not in out


class TestExponentCap:
    @pytest.mark.parametrize("rep, elem", [
        ("poly", f"X1^{MAX_EXPONENT + 1}"),
        ("skein", f"(a1^{MAX_EXPONENT + 1},[1 2])"),
    ])
    def test_exponent_over_the_cap_exits_two(self, capsys, rep, elem):
        code, out, err = run(capsys, "eval", "--rep", rep, "--kappa", "2",
                             "--word", "s1", "--elem", elem)
        assert code == 2
        assert out == ""
        assert f"exceeds {MAX_EXPONENT} in absolute value (at position 0)" in err


class TestIntegerTokens:
    def test_superscript_digit_exits_two_with_a_position(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "poly", "--kappa", "1",
                           "--word", "", "--elem", "X1^²")
        assert code == 2
        assert "unexpected character '²' (at position 3)" in err

    def test_exponent_over_the_digit_cap_exits_two_with_a_position(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "poly", "--kappa", "2",
                           "--word", "s1^" + "9" * (MAX_INT_DIGITS + 1), "--elem", "1")
        assert code == 2
        assert f"longer than {MAX_INT_DIGITS} digits (at position 3)" in err
