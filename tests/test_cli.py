import contextlib
import io
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadpol import IdealFileError, InvariantViolation, Monomial, MonomialIdeal, spread_ideal
from spreadpol import cli
from spreadpol.cli import format_ideal, main, parse_ideal
from spreadpol.invariants import MAX_SDEPTH_STATES
from spreadpol.monomials import MAX_AMBIENT
from genutils import collapse_past_the_cap, random_ideal
import cli_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TRIPLE = "n 3\n1 1 1\n0 2 1\n"
REMARK = "n 2\n# comment\n\n2 1\n0 2\n"
HARD_SDEPTH = "n 3\n0 3 1\n1 0 2\n1 2 1\n2 2 0\n3 1 1\n"


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

    def test_delta_collapse_is_a_negative_answer(self, tmp_path, capsys):
        # valid input whose spread collapses the lcm-lattice: no collapse map
        path = write(tmp_path, "i.ideal", "n 3\n0 3 1\n2 0 1\n1 1 2\n")
        assert main(["delta", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        [line] = captured.out.splitlines()
        assert line.startswith("NO COLLAPSE MAP: spreading collapsed the lcm-lattice")
        assert line.endswith("no collapse map exists")

    def test_delta_answers_no_past_the_lattice_cap(self, tmp_path, capsys):
        # 24 generators: `lattice` refuses them (exit 3), `delta` still says no
        path = write(tmp_path, "i.ideal", format_ideal(collapse_past_the_cap()))
        assert main(["lattice", path]) == 3
        capsys.readouterr()
        assert main(["delta", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        [line] = captured.out.splitlines()
        assert line.startswith("NO COLLAPSE MAP: spreading collapsed the lcm-lattice")

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

    def test_verify_laws_cost_does_not_grow_with_t(self, tmp_path, capsys):
        # the 3000-spread uses the same 5 variables as the 2-spread; the
        # other 8995 are free and only counted
        path = write(tmp_path, "i.ideal", "n 2\n2 1\n0 2\n")
        start = time.perf_counter()
        assert main(["verify-laws", "-t", "3000", path]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert "spread t=3000 depth-quotient 8998 sdepth-quotient 8998 sdepth-ideal 8999" in out

    def test_verify_laws_range_cost_does_not_grow_with_t(self, tmp_path, capsys):
        # every step past n is derived from the n-spread, so a range of
        # 2999 steps costs about what one step does
        path = write(tmp_path, "i.ideal", "n 2\n2 1\n0 2\n")
        start = time.perf_counter()
        assert main(["verify-laws", "-t", "2..3000", path]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert "spread t=3000 depth-quotient 8998 sdepth-quotient 8998 sdepth-ideal 8999" in out
        assert "ok   depth of quotient: transfer t=2999 -> t=3000: 8998 == 8998" in out

    def test_verify_laws_answers_hard_sdepth(self, tmp_path, capsys):
        # `sdepth` on the 3-spread passes the failed-state cap (TestExitCodes);
        # the harness searches the compressed ideal, a grid of 90 points
        path = write(tmp_path, "hard.ideal", HARD_SDEPTH)
        start = time.perf_counter()
        assert main(["verify-laws", "-t", "3", path]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert "spread t=3 depth-quotient 12 sdepth-quotient 12 sdepth-ideal 13" in out
        assert "ALL LAWS HOLD" in out

    def test_verify_laws_ambient_cap(self, tmp_path, capsys):
        # 349526 * 3 variables pass MAX_AMBIENT = 1048576 by two
        path = write(tmp_path, "i.ideal", "n 2\n2 1\n0 2\n")
        assert main(["verify-laws", "-t", "349526", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ambient 1048578 exceeds {MAX_AMBIENT} variables\n"

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

    @pytest.mark.parametrize("name", ["cli/89bccb6f9b", "small/7", "small/300", "seeded/5", "huge",
                                      "lattice/0"])
    def test_corpus_runs_pretty_only_where_it_changes_output(self, tmp_path, capsys, name):
        """The CLI corpus gives --pretty twins only to the commands that
        print monomials through cli._render: sdepth, sdepth --ideal,
        verify-laws and lattice --dot print the same with the flag."""
        text = dict(cli_corpus.corpus_files())[name]
        argvs = cli_corpus.commands(name, text, name)
        plain = [argv for argv in argvs
                 if argv[0] != "--pretty" and ["--pretty", *argv] not in argvs]
        assert {" ".join(argv[:2]) for argv in plain} == (
            {"lattice --dot"} if name.startswith("lattice/") else
            {"sdepth " + name, "sdepth --ideal", "verify-laws -t", "lattice --dot"})
        path = write(tmp_path, "i.ideal", text)
        for argv in plain:
            argv = [path if a == name else a for a in argv]
            outputs = []
            for pre in ([], ["--pretty"]):
                code = main(pre + argv)
                outputs.append((code, capsys.readouterr()))
            assert outputs[0] == outputs[1], argv


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

    def test_stanley_depth_search_cap_is_3(self, tmp_path, capsys):
        # the quotient search on the 3-spread of HARD_SDEPTH passes
        # MAX_SDEPTH_STATES; verify-laws answers it (TestCommands)
        I, _ = parse_ideal(HARD_SDEPTH)
        path = write(tmp_path, "hard.ideal", format_ideal(spread_ideal(I, 3)))
        assert main(["sdepth", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: Stanley-depth search exceeds {MAX_SDEPTH_STATES} failed states"
        ]

    def test_invariant_violation_is_4(self, tmp_path, capsys, monkeypatch):
        # no valid input is known to break a library guarantee, so a broken
        # one is injected: any InvariantViolation maps to exit 4
        def broken(*args, **kwargs):
            raise InvariantViolation("injected")

        monkeypatch.setattr(cli, "spread_ideal", broken)
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(["spread", "-t", "1", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["internal error: injected"]

    def test_nonminimal_spread_is_2(self, tmp_path, capsys):
        # the 1-step spread of (x3, x1*x2) has a non-minimal image set
        path = write(tmp_path, "odd.ideal", "n 3\n0 0 1\n1 1 0\n")
        assert main(["spread", "-t", "1", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: spread images of a minimal generating set")

    @pytest.mark.parametrize(
        "argv",
        [
            ["spread", "-t", "1000000000000"],
            ["embed", "-t", "1000000000000"],
            ["verify-laws", "-t", "1000000000000"],
            ["verify-laws", "-t", "2..1000000000000"],
            ["verify-laws", "-t-1000000000000..2"],
        ],
    )
    def test_huge_t_is_3(self, tmp_path, capsys, argv):
        path = write(tmp_path, "i.ideal", REMARK)
        assert main(argv + [path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")

    def test_non_utf8_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.ideal"
        path.write_bytes(b"n 1\n\xff\n")
        assert main(["depth", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "not UTF-8" in line

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

    def test_parser_reuse_gives_identical_answers(self, tmp_path):
        # main builds its parser once per process; a corpus run twice, the
        # second time backwards, must answer the same each time
        path = write(tmp_path, "i.ideal", "n 2\n2 1\n0 2\n")
        bad = write(tmp_path, "bad.ideal", "n 2\n1 x\n")
        corpus = [
            ["spread", "-t", "2", path],
            ["--pretty", "polarize", path],
            ["check-smooth", path],
            ["embed", "-t", "3", path],
            ["lattice", "--dot", path],
            ["iso", path, path],
            ["delta", path],
            ["depth", path],
            ["sdepth", "--ideal", path],
            ["verify-laws", "-t", "2..3", path],
            ["verify-paper"],
            ["depth", bad],
            ["frobnicate", path],
            ["spread", path],
            ["--help"],
            ["embed", "--help"],
        ]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        first = [run(argv) for argv in corpus]
        second = [run(argv) for argv in reversed(corpus)][::-1]
        assert first == second
        assert cli._build_parser() is cli._build_parser()
        codes = [code for code, _, _ in first]
        assert codes[11:] == [2, 2, 2, 0, 0]
        assert first[14][1].startswith("usage: spreadpol")


# -t values: small ones, negative ones, a mid-size one and ones past the
# ambient cap; verify-laws computes only the source and the n-spread, and
# derives every other step of a range from the n-spread
T_VALUES = st.sampled_from(
    ["-1000000000000", "-3", "-1", "0", "1", "2", "3", "300", str(MAX_AMBIENT + 1),
     "1000000000000"]
)
COMMANDS = (
    "spread", "polarize", "check-smooth", "embed", "lattice", "iso", "delta",
    "depth", "sdepth", "verify-laws", "verify-paper",
)
JUNK_TOKENS = st.sampled_from(["-1", "x", "70000", "1.5", "0", "2", "#", ""])


@st.composite
def ideal_files(draw) -> bytes:
    """Small ideal files: mostly well formed, else with bad rows, else any bytes."""
    kind = draw(st.sampled_from(["good", "good", "good", "bad", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=30))
    n = draw(st.integers(1, 2))
    lines = [f"n {n}"]
    for _ in range(draw(st.integers(1, 3))):
        lines.append(" ".join(str(draw(st.integers(0, 2))) for _ in range(n)))
    if kind == "bad":
        junk = draw(st.lists(JUNK_TOKENS, max_size=3))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(junk))
        if draw(st.booleans()):
            lines[0] = draw(st.sampled_from(["n 0", "n x", "m 2", "n", ""]))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def invocations(draw, path: str, other: str) -> list[str]:
    argv = ["--pretty"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(COMMANDS))
    argv.append(command)
    # "-tSPEC" with the value attached, so that negative values reach the
    # command instead of being taken for options
    if command in ("spread", "embed"):
        argv.append("-t" + draw(T_VALUES))
    if command == "spread" and draw(st.booleans()):
        argv.append("--pad")
    if command == "verify-laws":
        lo, hi = draw(T_VALUES), draw(T_VALUES)
        argv.append("-t" + draw(st.sampled_from([lo, f"{lo}..{hi}", f"{lo}..", "..."])))
    if command in ("lattice", "sdepth") and draw(st.booleans()):
        argv.append("--dot" if command == "lattice" else "--ideal")
    if command != "verify-paper":
        argv.append(draw(st.sampled_from([path] * 4 + ["/nonexistent/x.ideal"])))
    if command == "iso":
        argv.append(draw(st.sampled_from([path, other])))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=4)))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "other.ideal").write_text(REMARK, encoding="utf-8")
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_returns_a_documented_code(fuzz_dir, data):
    path, other = fuzz_dir / "fuzz.ideal", fuzz_dir / "other.ideal"
    path.write_bytes(data.draw(ideal_files(), label="file"))
    argv = data.draw(invocations(str(path), str(other)), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code in (3, 4):
        # a cap or a broken guarantee ends the command with one error line
        lines = [x for x in err.getvalue().splitlines() if not x.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith(("error: ", "internal error: "))


class TestDecimalTokens:
    """Exponents and the variable count are ASCII decimal digits alone: the
    tokens int() would also read ("+1", "1_0", non-ASCII digits) are
    refused, with the line they sit on."""

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("n 2\n1_0 1\n", 2, "non-integer exponent in '1_0 1'"),
            ("n 2\n2 0\n+1 1\n", 3, "non-integer exponent in '+1 1'"),
            ("n 2\n٣ 1\n", 2, "non-integer exponent"),
            ("n 2\n1 -1 +1\n", 2, "negative exponent"),
            ("n 1_0\n1 0 0 0 0 0 0 0 0 0\n", 1, "bad variable count '1_0'"),
            ("n +2\n1 1\n", 1, "bad variable count '+2'"),
            ("n ٢\n1 1\n", 1, "bad variable count"),
        ],
    )
    def test_refused_with_line_numbers(self, text, line, fragment):
        with pytest.raises(IdealFileError) as exc:
            parse_ideal(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_polarize_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "i.ideal", "n 2\n1_0 1\n")
        assert main(["polarize", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and "non-integer exponent" in captured.err

    def test_decimal_tokens_still_read(self):
        I, _ = parse_ideal("n 2\n010 1\n0 07\n")
        assert I == MonomialIdeal.from_exponents(2, [(10, 1), (0, 7)])
