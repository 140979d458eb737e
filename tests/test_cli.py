import random

import pytest

from spreadpol import IdealFileError, Monomial, MonomialIdeal
from spreadpol.cli import format_ideal, main, parse_ideal
from genutils import random_ideal


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TRIPLE = "n 3\n1 1 1\n0 2 1\n"
REMARK = "n 2\n# comment\n\n2 1\n0 2\n"


class TestParse:
    def test_basic(self):
        I, dropped = parse_ideal(TRIPLE)
        assert I == MonomialIdeal.from_exponents(3, [(1, 1, 1), (0, 2, 1)])
        assert dropped == []

    def test_comments_and_blank_lines(self):
        I, _ = parse_ideal(REMARK)
        assert I == MonomialIdeal.from_exponents(2, [(2, 1), (0, 2)])

    def test_redundant_generator_warning(self):
        I, dropped = parse_ideal("n 2\n1 0\n1 1\n")
        assert I.generators == (Monomial((1, 0)),)
        assert dropped == [Monomial((1, 1))]

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("m 2\n1 0\n", 1, "header"),
            ("n x\n1 0\n", 1, "variable count"),
            ("n 0\n", 1, "positive"),
            ("n 2\n1 a\n", 2, "non-integer"),
            ("n 2\n1 -1\n", 2, "negative"),
            ("n 2\n1 0 2\n", 2, "expected 2 exponents"),
            ("n 2\n# nothing\n0 0\n", 3, "unit"),
            ("n 2\n", None, "no generators"),
            ("", None, "missing header"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(IdealFileError) as exc:
            parse_ideal(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_round_trip(self):
        rng = random.Random(61)
        for _ in range(50):
            I = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 4), 4)
            again, dropped = parse_ideal(format_ideal(I))
            assert again == I and not dropped


class TestCommands:
    def test_spread(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(["spread", "-t", "2", path]) == 0
        assert capsys.readouterr().out == "n 6\n0 1 0 1 0 0\n1 0 1 0 0 1\n"

    def test_spread_pad(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(["spread", "-t", "3", "--pad", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n 9\n")

    def test_spread_output_reparses(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", TRIPLE)
        main(["spread", "-t", "3", path])
        I, dropped = parse_ideal(capsys.readouterr().out)
        assert I.ambient == 9 and not dropped

    def test_polarize(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", TRIPLE)
        assert main(["polarize", path]) == 0
        I, _ = parse_ideal(capsys.readouterr().out)
        assert I == MonomialIdeal(
            9,
            [
                Monomial.from_indices([1, 2, 3], 9),
                Monomial.from_indices([2, 5, 3], 9),
            ],
        )

    def test_check_smooth_yes(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", TRIPLE)
        assert main(["check-smooth", path]) == 0
        out = capsys.readouterr().out
        assert "YES" in out and "tau (2 5)(3 6 9)" in out

    def test_check_smooth_no(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 3\n3 1 2\n1 2 3\n")
        assert main(["check-smooth", path]) == 1
        out = capsys.readouterr().out
        assert "NO" in out
        assert "witness i=1 l=2 j=2 expected=1 found=0" in out

    def test_embed_output_reparses_with_phi_comments(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(["embed", "-t", "3", path]) == 0
        out = capsys.readouterr().out
        assert "# phi 3 -> 4" in out
        I, _ = parse_ideal(out)
        assert I.ambient == 9

    def test_lattice_summary_and_dot(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 2\n2 2\n0 3\n")
        assert main(["lattice", path]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("elements 4\natoms 2\n")
        assert main(["lattice", "--dot", path]) == 0
        dot = capsys.readouterr().out
        assert dot.count("->") == 4 and '"x1^2*x2^3"' in dot

    def test_iso_and_noniso(self, tmp_path, capsys):
        a = write(tmp_path, "a.ideal", "n 2\n2 2\n0 3\n")
        b = write(tmp_path, "b.ideal", "n 8\n1 0 1 0 0 1 0 1\n0 1 0 1 0 1 0 0\n")
        c = write(tmp_path, "c.ideal", "n 2\n4 0\n2 1\n0 2\n")
        assert main(["iso", a, b]) == 0
        assert "ISO" in capsys.readouterr().out
        assert main(["iso", a, c]) == 1
        assert "NONISO" in capsys.readouterr().out

    def test_iso_prints_the_first_witness(self, tmp_path, capsys):
        # a complete intersection against its 3-spread: every bijection of
        # the three atoms is an isomorphism, and the first in atom order wins
        a = write(tmp_path, "ci.ideal", "n 3\n2 0 0\n0 1 0\n0 0 3\n")
        b = write(
            tmp_path,
            "spread.ideal",
            "n 9\n0 0 1 0 0 1 0 0 1\n0 1 0 0 0 0 0 0 0\n1 0 0 1 0 0 0 0 0\n",
        )
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == (
            "ISO\n"
            "0 0 0 -> 0 0 0 0 0 0 0 0 0\n"
            "0 0 3 -> 0 0 1 0 0 1 0 0 1\n"
            "0 1 0 -> 0 1 0 0 0 0 0 0 0\n"
            "0 1 3 -> 0 1 1 0 0 1 0 0 1\n"
            "2 0 0 -> 1 0 0 1 0 0 0 0 0\n"
            "2 0 3 -> 1 0 1 1 0 1 0 0 1\n"
            "2 1 0 -> 1 1 0 1 0 0 0 0 0\n"
            "2 1 3 -> 1 1 1 1 0 1 0 0 1\n"
        )

    def test_delta(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 2\n4 0\n2 1\n0 2\n")
        assert main(["delta", path]) == 0
        out = capsys.readouterr().out
        assert "join-preserving surjection: OK" in out

    def test_delta_collapse_is_internal_error(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 3\n0 3 1\n2 0 1\n1 1 2\n")
        assert main(["delta", path]) == 4
        assert "no collapse map exists" in capsys.readouterr().err

    def test_depth(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(["depth", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("depth 0\nprojdim 2\n")
        assert "betti i=0 dim=1 m=0 0" in out

    def test_sdepth(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 2\n1 1\n")
        assert main(["sdepth", path]) == 0
        assert capsys.readouterr().out.startswith("sdepth 1\n")
        assert main(["sdepth", "--ideal", path]) == 0
        assert capsys.readouterr().out.startswith("sdepth 2\n")

    def test_verify_laws(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 2\n2 0\n0 3\n")
        assert main(["verify-laws", "-t", "2..3", path]) == 0
        out = capsys.readouterr().out
        assert "smooth yes" in out and "ALL LAWS HOLD" in out

    def test_verify_laws_violation(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 3\n0 3 1\n2 0 1\n1 1 2\n")
        assert main(["verify-laws", "-t", "3", path]) == 1
        out = capsys.readouterr().out
        assert "LAW VIOLATION" in out and "FAIL" in out

    def test_verify_paper(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "14/14 rows pass" in out
        assert "FAIL" not in out

    def test_pretty_flag(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", TRIPLE)
        assert main(["--pretty", "check-smooth", path]) == 0
        assert "generator 1: x2^2*x3" in capsys.readouterr().out


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.ideal", "n 2\n1 a\n")
        assert main(["depth", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["depth", "/nonexistent/x.ideal"]) == 2

    def test_usage_error_is_2(self, capsys):
        assert main(["spread"]) == 2

    @pytest.mark.parametrize(
        "text",
        ["n 2\n65536 1\n", "n 3\n0 70000 1\n1 1 1\n", "n 1\n100000\n"],
    )
    def test_huge_exponent_is_2(self, tmp_path, capsys, text):
        path = write(tmp_path, "huge.ideal", text)
        assert main(["check-smooth", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: line 2: exponent exceeds 65535"
        ]

    def test_too_large_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "big.ideal", "n 1\n5000\n")
        assert main(["sdepth", path]) == 3

    def test_invariant_violation_is_4(self, tmp_path, capsys):
        # the 1-step spread of (x3, x1*x2) has a non-minimal image set
        path = write(tmp_path, "odd.ideal", "n 3\n0 0 1\n1 1 0\n")
        assert main(["spread", "-t", "1", path]) == 4

    def test_bad_t_range_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(["verify-laws", "-t", "3..2", path]) == 2

    def test_redundancy_warning_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "r.ideal", "n 2\n1 0\n1 1\n")
        assert main(["depth", path]) == 0
        captured = capsys.readouterr()
        assert "dropped redundant generator" in captured.err
        assert "dropped" not in captured.out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["check-smooth"],
            ["lattice", "--dot"],
            ["delta"],
            ["depth"],
            ["sdepth"],
            ["verify-laws", "-t", "2..3"],
        ],
    )
    def test_repeat_runs_are_identical(self, tmp_path, capsys, argv_tail):
        path = write(tmp_path, "i.ideal", "n 2\n2 2\n0 3\n")
        argv = argv_tail + [path]
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 and first == second
