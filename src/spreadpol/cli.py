"""Command-line front end and the ideal-file format.

An ideal file is UTF-8 text: a header line ``n <count>``, then one minimal
generator per nonblank line as ``<count>`` space-separated nonnegative
exponents.  The count and the exponents are written in ASCII decimal digits
alone.  ``#`` starts a comment, blank lines are ignored.  Redundant
generators are dropped with a warning on the error stream.

Exit codes: 0 success or affirmative answer, 1 negative mathematical answer
(not smooth / not isomorphic / no collapse map / a law fails), 2 usage or
parse problem, 3 a size cap was exceeded, 4 an internal invariant broke.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call.  It is a constant description
of the command grammar: ``parse_args`` reads it and never changes it, so
repeated calls in one process answer exactly as fresh processes do.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .errors import (
    IdealFileError,
    InvariantViolation,
    SpreadpolError,
    TooLargeError,
    WellDefinednessViolation,
)
from .golden import run_golden
from .invariants import (
    depth_quotient,
    sdepth_ideal,
    sdepth_quotient,
    verify_spreading_laws,
)
from .lattices import build_delta, build_lcm_lattice, hasse_dot, is_isomorphic
from .monomials import (
    MAX_AMBIENT, Monomial, MonomialIdeal, embed_spread, polarize_ideal, spread_ideal,
)
from .smooth import SmoothCertificate, check_smooth_ideal


def parse_ideal(text: str) -> tuple[MonomialIdeal, list[Monomial]]:
    """Parse an ideal file; returns the ideal and any dropped redundant rows."""
    n: int | None = None
    gens: list[Monomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        tokens = line.split()
        if not tokens:
            continue
        # int() alone would also read "+1", "1_0" and non-ASCII digits
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise IdealFileError('expected header "n <count>"', lineno)
            count = tokens[1]
            try:
                n = int(count) if count.isascii() and count.isdigit() else None
            except ValueError:  # past the interpreter's limit on digits
                pass
            if n is None:
                raise IdealFileError(f"bad variable count {count!r}", lineno)
            if n < 1:
                raise IdealFileError("variable count must be positive", lineno)
            continue
        try:
            exps = [int(tok) for tok in tokens]
        except ValueError:
            raise IdealFileError(f"non-integer exponent in {line!r}", lineno) from None
        digits = "".join(tokens)
        if not (digits.isascii() and digits.isdigit()):
            if min(exps) < 0:
                raise IdealFileError("negative exponent", lineno)
            raise IdealFileError(f"non-integer exponent in {line!r}", lineno)
        if len(exps) != n:
            raise IdealFileError(f"expected {n} exponents, got {len(exps)}", lineno)
        if not any(exps):
            raise IdealFileError("unit generator (all-zero exponent row)", lineno)
        try:
            gens.append(Monomial(exps, n))
        except OverflowError as e:
            raise IdealFileError(str(e), lineno) from None
    if n is None:
        raise IdealFileError('missing header "n <count>"')
    if not gens:
        raise IdealFileError("no generators")
    ideal = MonomialIdeal(n, gens)
    dropped = sorted(set(gens) - set(ideal.generators))
    return ideal, dropped


def format_ideal(I: MonomialIdeal) -> str:
    lines = [f"n {I.ambient}"]
    lines += [" ".join(str(e) for e in g.exponents) for g in I.generators]
    return "\n".join(lines) + "\n"


def _render(u: Monomial, pretty: bool) -> str:
    return str(u) if pretty else " ".join(str(e) for e in u.exponents)


def _load(path: str) -> MonomialIdeal:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise IdealFileError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise IdealFileError(f"{path} is not UTF-8 text: {e.reason}") from None
    ideal, dropped = parse_ideal(text)
    for u in dropped:
        print(f"warning: dropped redundant generator {u}", file=sys.stderr)
    return ideal


def _cmd_spread(args) -> int:
    I = _load(args.file)
    print(format_ideal(spread_ideal(I, args.t, pad=args.pad)), end="")
    return 0


def _cmd_polarize(args) -> int:
    I = _load(args.file)
    print(format_ideal(polarize_ideal(I)), end="")
    return 0


def _cmd_check_smooth(args) -> int:
    I = _load(args.file)
    for k, g in enumerate(I.generators, start=1):
        print(f"generator {k}: {_render(g, args.pretty)}")
    res = check_smooth_ideal(I)
    if isinstance(res, SmoothCertificate):
        print("YES")
        cyc = "".join("(" + " ".join(map(str, c)) + ")" for c in res.cycles())
        print(f"tau {cyc or '()'}")
        return 0
    print("NO")
    print(
        f"witness i={res.i} l={res.ell} j={res.j} "
        f"expected={res.expected} found={res.found}"
    )
    print("positions i: " + " ".join(map(str, sorted(res.positions_i))))
    print("positions l: " + " ".join(map(str, sorted(res.positions_ell))))
    return 1


def _cmd_embed(args) -> int:
    I = _load(args.file)
    image, emb = embed_spread(I, args.t)
    out = format_ideal(image)
    out += "".join(
        f"# phi {j} -> {k}\n" for j, k in enumerate(emb.table, start=1)
    )
    print(out, end="")
    return 0


def _cmd_lattice(args) -> int:
    I = _load(args.file)
    L = build_lcm_lattice(I)
    if args.dot:
        print(hasse_dot(L), end="")
        return 0
    print(f"elements {len(L)}")
    print(f"atoms {len(L.atoms)}")
    for k, e in enumerate(L.elements):
        print(f"e{k}: {_render(e, args.pretty)}")
    for i, j in L.covers():
        print(f"cover e{i} e{j}")
    return 0


def _cmd_iso(args) -> int:
    L1 = build_lcm_lattice(_load(args.file1))
    L2 = build_lcm_lattice(_load(args.file2))
    bij = is_isomorphic(L1, L2)
    if bij is None:
        print("NONISO")
        return 1
    print("ISO")
    for e in L1.elements:
        print(f"{_render(e, args.pretty)} -> {_render(bij[e], args.pretty)}")
    return 0


def _cmd_delta(args) -> int:
    I = _load(args.file)
    try:
        dmap = build_delta(I)
    except WellDefinednessViolation as e:
        print(f"NO COLLAPSE MAP: {e}")
        return 1
    for e, v in dmap.mapping.items():  # in source element order
        print(f"{_render(e, args.pretty)} -> {_render(v, args.pretty)}")
    print("join-preserving surjection: OK")  # build_delta proved it
    return 0


def _cmd_depth(args) -> int:
    I = _load(args.file)
    rep = depth_quotient(I)
    print(f"depth {rep.value}")
    print(f"projdim {rep.betti.projective_dimension}")
    for (i, m), v in sorted(rep.betti.entries.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        print(f"betti i={i} dim={v} m={_render(m, args.pretty)}")
    return 0


def _cmd_sdepth(args) -> int:
    I = _load(args.file)
    rep = sdepth_ideal(I) if args.ideal else sdepth_quotient(I)
    print(f"sdepth {rep.value}")
    print("bound " + " ".join(map(str, rep.bound)))
    for lo, hi in rep.intervals:
        print(
            "interval ["
            + " ".join(map(str, lo))
            + "] ["
            + " ".join(map(str, hi))
            + "]"
        )
    return 0


def _parse_t_range(spec: str) -> list[int]:
    lo, sep, hi = spec.partition("..")
    try:
        if sep:
            a, b = int(lo), int(hi)
        else:
            a = b = int(lo)
    except ValueError:
        raise IdealFileError(f"bad -t range {spec!r}; use T or T1..T2") from None
    if b < a:
        raise IdealFileError(f"empty -t range {spec!r}")
    if max(-a, b) > MAX_AMBIENT:
        raise TooLargeError(f"-t range {spec!r} leaves -{MAX_AMBIENT}..{MAX_AMBIENT}")
    return list(range(a, b + 1))


def _cmd_verify_laws(args) -> int:
    I = _load(args.file)
    report = verify_spreading_laws(I, _parse_t_range(args.t))
    print(
        f"n {report.ambient} d {report.deg} "
        f"smooth {'yes' if report.smooth else 'no'} "
        f"lattice-iso {'yes' if report.lattice_isomorphic else 'no'}"
    )
    names = ("depth-quotient", "sdepth-quotient", "sdepth-ideal")
    src = " ".join(f"{k} {v}" for k, v in zip(names, report.source))
    print(f"source {src}")
    for t in report.t_values:
        row = " ".join(f"{k} {v}" for k, v in zip(names, report.spread[t]))
        print(f"spread t={t} {row}")
    for c in report.checks:
        mark = "ok  " if c.holds else "FAIL"
        print(f"{mark} {c.name}: {c.lhs} {c.relation} {c.rhs}")
    if report.all_hold:
        print("ALL LAWS HOLD")
        return 0
    print("LAW VIOLATION")
    return 1


def _cmd_verify_paper(args) -> int:
    rows = run_golden()
    passed = 0
    for name, ok in rows:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        passed += ok
    print(f"{passed}/{len(rows)} rows pass")
    return 0 if passed == len(rows) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadpol",
        description="Spreading, polarization and lcm-lattice computations "
        "on monomial ideals.",
    )
    parser.add_argument(
        "--pretty",
        action="store_true",
        help="render monomials as x1^2*x2 in reports (ideal files stay numeric)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spread", help="apply the t-fold spreading operator")
    p.add_argument("-t", type=int, required=True, help="spreading step (>= 0)")
    p.add_argument("--pad", action="store_true", help="embed into ambient t*deg")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spread)

    p = sub.add_parser("polarize", help="polarize the ideal")
    p.add_argument("file")
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("check-smooth", help="decide smooth spreadability")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_smooth)

    p = sub.add_parser("embed", help="re-embed the n-spread as the t-spread")
    p.add_argument("-t", type=int, required=True, help="target step (>= n)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("lattice", help="build the lcm-lattice")
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("iso", help="test two lcm-lattices for isomorphism")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("delta", help="collapse map from the n-spread lattice")
    p.add_argument("file")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("depth", help="depth of the quotient via Betti numbers")
    p.add_argument("file")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("sdepth", help="Stanley depth via interval partitions")
    p.add_argument("--ideal", action="store_true", help="of the ideal, not the quotient")
    p.add_argument("file")
    p.set_defaults(func=_cmd_sdepth)

    p = sub.add_parser("verify-laws", help="check the depth/sdepth spreading laws")
    p.add_argument("-t", required=True, help="range of spreading steps, T or T1..T2")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify_laws)

    p = sub.add_parser("verify-paper", help="replay the bundled worked examples")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except IdealFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TooLargeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except SpreadpolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
