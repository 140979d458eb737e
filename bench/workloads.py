"""Seeded inputs, ops and answer checks for the three benchmark workloads.

Each workload is a fixed list of ops made from the seed: cycles that each
hold a fixed count of ops per input class in seeded order.  A timed run stops at the end of a cycle, so every
run sees whole cycles.  The generators and the checks use only the exponent
arithmetic in this file (they never import ``tests/``), so the library sees
nothing but the generated ideals, and every check recomputes its answer
independently.

Input families and why they were chosen (timings: Python 3.11 on a
2-vCPU Intel Xeon virtual machine):

``laws``
    ``verify_spreading_laws(I, [n, n+1])``: the paper's law harness, where
    the Stanley-depth box search lives.  The family is every ideal of two
    kinds, n = 2 with 2-4 generators and exponents up to 4, and n = 3 with
    3 generators and exponents up to 3, split into classes by ``s``, the
    number of variables the spreads at t = n and t = n+1 use; the spreads'
    characteristic posets have 2**s points.  Only ``s <= 8`` (n = 2) and
    ``s <= 7`` (n = 3) are kept: every kept ideal was timed once and took
    under 0.16 s, while single ideals with s = 8 (n = 3) or s = 9 took
    8-60 s, which would make one op fill a whole run.  ``s`` comes from the
    exponents alone, before any library call, and is far inside
    ``MAX_POSET_POINTS``.  Generators sharing a common factor are left out
    (see ``COMMON_FACTOR_IDEALS``).  That leaves 663 ideals; a cycle of 100
    ops holds each class in proportion to its share of them
    (``laws_class_counts``):

    ======  =====  =====  =====  ===========
    n       s      ideals share  ops / cycle
    ======  =====  =====  =====  ===========
    2       0-5    14     2.1 %  2
    2       6      12     1.8 %  2
    2       7      17     2.6 %  2
    2       8      18     2.7 %  3
    3       3-6    272    41.0 % 41
    3       7      330    49.8 % 50
    ======  =====  =====  =====  ===========

    The 100 ideals are drawn once from a fixed family seed, and every cycle
    holds the same ones; ``--seed`` only orders each cycle, because ideals
    drawn afresh per seed moved the timings by up to 40 % between runs.
    The fixed ideal cyc4 (about 6 s at t = 4) is not an op: it would be a
    single sample far above every other, and the traced run times it as
    the probe ``invariants.verify_spreading_laws.cyc4_s``.
``lattice``
    Per ideal: ``build_lcm_lattice`` + ``covers()``, ``depth_quotient``,
    ``taylor_betti``, ``is_isomorphic(L_I, L_{n-spread})``, ``build_delta``
    + ``verify_delta``.  Equal-degree ideals (degree 3-4) with 7-8
    generators in 3-5 variables whose lcm-lattices have 30-110 elements,
    i.e. lattices near the depth cap.  A cycle of 50 ops holds a fixed count
    per lattice-size band (``LATTICE_CYCLE``) plus two complete
    intersections with 6 generators (Boolean lattices of 64 elements, where
    ``is_isomorphic`` must search).  The complete intersections are 4 % of
    the ops and the slowest ones, so neither p50 nor p90 sits on their
    class boundary.  Stanley depth runs nowhere here.  Every cycle holds the
    same 50 ideals, drawn from a fixed family seed; ``--seed`` only orders
    each cycle.  Op costs here spread over two orders of magnitude even
    within a size band (an isomorphism hit, a full collapse map), and ideals
    drawn afresh per seed or per cycle moved ops_per_s, p50, p90 and peak
    RSS by 10-30 % between 20 s runs.
``decide``
    The cheap pipeline a user scanning families runs: ``format_ideal`` ->
    ``parse_ideal`` -> ``check_smooth_ideal``, ``spread_ideal(I, n)``,
    ``polarize_ideal``, ``embed_spread(I, n+1)``, plus ``check_smooth_t2``
    when n = 2.  Ideals have n in {2, 3, 4} and 5 drawn generators with
    exponents up to 2, which makes about 70 % of them smoothly spreadable.
    Per cycle of 100 ops, 18 call ``cli.main(["check-smooth", file])``
    in-process and 2 do so on a malformed file (each an error the CLI
    documents, answered with exit 2).  The CLI ops are the slowest fifth,
    so p90 sits inside their class.  No lattice or invariant code runs, so
    this is the control for lattice and invariant work.

A run that outlasts its pass wraps around and repeats inputs: laws and
lattice repeat their 100 and 50 ideals by design, and the decide pass
(2000 ops) comes round about 20 times in a 30 s run.  The library keeps
no cache across calls, so a repeat costs what the first call cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import spreadpol as sp
from spreadpol import cli

WORKLOADS = ("laws", "lattice", "decide")

# ---------------------------------------------------------------- arithmetic
# Exponent-row arithmetic used by the generators and the checks.  It follows
# the definitions, not the library's code.


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_rows(rows) -> list[tuple[int, ...]]:
    """Minimal generators, sorted, as the library canonicalizes them."""
    uniq = sorted(set(rows))
    return [u for u in uniq if not any(v != u and divides(v, u) for v in uniq)]


def sorted_indices(row) -> list[int]:
    return [j for j, e in enumerate(row, 1) for _ in range(e)]


def spread_indices(row, t: int) -> list[int]:
    """Indices of the t-spread of x^row: the k-th sorted index moves by k*t."""
    return [i + k * t for k, i in enumerate(sorted_indices(row))]


def polar_indices(row, n: int) -> list[int]:
    """Indices of the polarization: x_j^a becomes x_j x_{j+n} ... x_{j+(a-1)n}."""
    return [j + s * n for j, a in enumerate(row, 1) for s in range(a)]


def squarefree_row(indices, ambient: int) -> tuple[int, ...]:
    out = [0] * ambient
    for i in indices:
        out[i - 1] += 1
    return tuple(out)


def spread_support(rows, t: int) -> int:
    """Variables used by the t-spread; its characteristic poset has 2**s points."""
    return len({i for r in rows for i in spread_indices(r, t)})


def lattice_elements(rows) -> set[tuple[int, ...]]:
    """All subset lcms, the empty subset giving the unit."""
    elems = {(0,) * len(rows[0])}
    for r in rows:
        elems |= {tuple(map(max, e, r)) for e in elems}
    return elems


def block_overlap(row_i, row_l, j: int) -> tuple[int, int]:
    """(expected, found) of the block-overlap identity at variable j.

    In the n-spread of x^row, variable j occupies the offsets
    p .. p+a-1 with p the sum of the exponents before j; smooth
    spreadability needs the two blocks to overlap in min(a_i, a_l) places.
    """
    pi, ai = sum(row_i[: j - 1]), row_i[j - 1]
    pl, al = sum(row_l[: j - 1]), row_l[j - 1]
    found = len(set(range(pi, pi + ai)) & set(range(pl, pl + al)))
    return min(ai, al), found


def first_violation(rows, n: int):
    """First (i, l, j, expected, found) breaking the identity, or None."""
    for (i, ri), (l, rl) in itertools.combinations(enumerate(rows, 1), 2):
        for j in range(1, n + 1):
            expected, found = block_overlap(ri, rl, j)
            if expected != found:
                return i, l, j, expected, found
    return None


def digest(value: Any) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:8]


def exps(ideal) -> tuple[tuple[int, ...], ...]:
    return tuple(g.exponents for g in ideal.generators)


# ---------------------------------------------------------------------- ops


@dataclass
class Op:
    kind: str
    n: int
    rows: tuple[tuple[int, ...], ...]
    ideal: Any = None
    arg: Any = None  # t-range (laws), lattice size (lattice), file (decide)


@dataclass
class Workload:
    ops: list[Op]  # whole cycles of `cycle` ops
    cycle: int
    warmup: Op
    run: Callable[[Op], Any]
    check: Callable[[Op, Any], bool]
    fingerprint: Callable[[Op, Any], str]


def _ideal(n, rows):
    return sp.MonomialIdeal.from_exponents(n, rows)


# ---------------------------------------------------------------- laws

CYC4 = ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2))

# (n, smallest s, largest s) of each laws class
LAWS_CLASSES = ((2, 0, 5), (2, 6, 6), (2, 7, 7), (2, 8, 8), (3, 0, 6), (3, 7, 7))
LAWS_CYCLE = 100
LAWS_CYCLES = 4

# Ideals whose generators share a common factor.  For these the harness
# reports the n-spread bound on depth and sdepth of the quotient as violated
# (e.g. depth 4 against 0 + 3 for the first), although both Betti routes
# agree on every depth.  They stay out of the workload; the traced run
# reports the share still flagged.
COMMON_FACTOR_IDEALS = (
    ((0, 1, 1), (0, 2, 0), (1, 1, 0)),
    ((0, 1, 3), (0, 2, 1), (1, 1, 2)),
    ((0, 2, 2), (0, 3, 0), (1, 2, 0)),
    ((2, 1, 1), (2, 3, 0), (3, 2, 0)),
)


def _laws_class(rows, n, lo, hi) -> bool:
    # Generators sharing a common factor are left out: see COMMON_FACTOR_IDEALS.
    coprime = not any(map(min, *rows))
    return coprime and lo <= max(spread_support(rows, t) for t in (n, n + 1)) <= hi


def _antichains(n, sizes, top):
    points = [p for p in itertools.product(range(top + 1), repeat=n) if any(p)]
    return [rows for m in sizes for rows in itertools.combinations(points, m)
            if not any(divides(u, v) for u, v in itertools.permutations(rows, 2))]


def laws_class_counts() -> dict[tuple, tuple[list, int]]:
    """Each class's ideals of the filtered family and its ops per cycle.

    The counts are the classes' shares of the family scaled to LAWS_CYCLE
    and rounded by largest remainder, so a cycle mixes the classes as a
    uniform draw from the family would.
    """
    family = {2: _antichains(2, (2, 3, 4), 4), 3: _antichains(3, (3,), 3)}
    classes = {c: [rows for rows in family[c[0]] if _laws_class(rows, *c)]
               for c in LAWS_CLASSES}
    total = sum(map(len, classes.values()))
    exact = {c: LAWS_CYCLE * len(v) / total for c, v in classes.items()}
    counts = {c: int(x) for c, x in exact.items()}
    by_remainder = sorted(exact, key=lambda c: counts[c] - exact[c])
    for c in by_remainder[: LAWS_CYCLE - sum(counts.values())]:
        counts[c] += 1
    return {c: (classes[c], counts[c]) for c in LAWS_CLASSES}


def _laws_op(n, rows, ts):
    return Op("laws", n, rows, _ideal(n, rows), tuple(ts))


def laws_ops(rng, cycles=LAWS_CYCLES) -> list[Op]:
    family_rng = random.Random("laws family")
    family = [_laws_op(c[0], rows, (c[0], c[0] + 1))
              for c, (pool, count) in laws_class_counts().items()
              for rows in family_rng.sample(pool, count)]
    ops = []
    for _ in range(cycles):
        rng.shuffle(family)
        ops += family
    return ops


def laws_run(op):
    return sp.verify_spreading_laws(op.ideal, op.arg)


def laws_check(op, rep):
    return rep.all_hold and rep.smooth == (first_violation(op.rows, op.n) is None)


def laws_fingerprint(op, rep):
    return digest((rep.source, sorted(rep.spread.items()), rep.smooth, rep.lattice_isomorphic,
                   [(c.name, c.lhs, c.relation, c.rhs) for c in rep.checks]))


# ---------------------------------------------------------------- lattice

# (smallest, largest lattice size, ideals per cycle of 50); the cycle adds two
# complete intersections.  Counts follow the sizes' natural frequencies.
LATTICE_CYCLE = ((30, 39, 14), (40, 49, 14), (50, 59, 8), (60, 69, 4),
                 (70, 79, 4), (80, 110, 4))
LATTICE_CI = 2
LATTICE_CYCLES = 10


def _compositions(n, d):
    if n == 1:
        yield (d,)
        return
    for a in range(d + 1):
        for rest in _compositions(n - 1, d - a):
            yield (a,) + rest


def _lattice_draw(rng, lo, hi):
    while True:
        n, d, m = rng.choice((3, 4, 5)), rng.choice((3, 4)), rng.choice((7, 8))
        pool = list(_compositions(n, d))
        if len(pool) < m:
            continue
        rows = tuple(sorted(rng.sample(pool, m)))
        size = len(lattice_elements(rows))
        if lo <= size <= hi:
            return n, rows, size


def _ci_draw(rng):
    """6 generators on disjoint, nonempty variable groups: a Boolean lattice."""
    n = rng.choice((6, 7, 8))
    order = list(range(n))
    rng.shuffle(order)
    cuts = [0] + sorted(rng.sample(range(1, n), 5)) + [n]
    rows = []
    for a, b in zip(cuts, cuts[1:]):
        row = [0] * n
        for j in order[a:b]:
            row[j] = rng.randint(1, 2)
        rows.append(tuple(row))
    return n, tuple(sorted(rows)), 64


def lattice_ops(rng, cycles=LATTICE_CYCLES) -> list[Op]:
    family_rng = random.Random("lattice family")
    draws = [_lattice_draw(family_rng, lo, hi)
             for lo, hi, count in LATTICE_CYCLE for _ in range(count)]
    draws += [_ci_draw(family_rng) for _ in range(LATTICE_CI)]
    family = [Op("lattice", n, rows, _ideal(n, rows), size) for n, rows, size in draws]
    ops = []
    for _ in range(cycles):
        rng.shuffle(family)
        ops += family
    return ops


def lattice_run(op):
    I = op.ideal
    L = sp.build_lcm_lattice(I)
    edges = L.covers()
    depth = sp.depth_quotient(I)
    taylor = sp.taylor_betti(I)
    LS = sp.build_lcm_lattice(sp.spread_ideal(I, op.n))
    iso = sp.is_isomorphic(L, LS)
    try:
        delta = sp.build_delta(I)
    except sp.WellDefinednessViolation:
        return L, edges, depth, taylor, LS, iso, None, None
    return L, edges, depth, taylor, LS, iso, delta, sp.verify_delta(delta)


def preserves_lcm(L, LS, iso) -> bool:
    f = {u.exponents: v.exponents for u, v in iso.items()}
    if sorted(f) != sorted(e.exponents for e in L.elements):
        return False
    if sorted(f.values()) != sorted(e.exponents for e in LS.elements):
        return False
    return all(f[tuple(map(max, u, v))] == tuple(map(max, f[u], f[v]))
               for u, v in itertools.combinations(f, 2))


def lattice_check(op, ans):
    L, edges, depth, taylor, LS, iso, delta, delta_ok = ans
    if len(L) != op.arg or dict(depth.betti.entries) != taylor:
        return False
    if depth.value != op.n - max(i for i, _ in taylor):
        return False
    if iso is not None and not preserves_lcm(L, LS, iso):
        return False
    if len(L) != len(LS) and iso is not None:
        return False
    return delta is None or delta_ok is True


def lattice_fingerprint(op, ans):
    L, edges, depth, taylor, LS, iso, delta, _ = ans
    betti = sorted((i, m.exponents, v) for (i, m), v in taylor.items())
    dmap = None if delta is None else sorted(
        (s.exponents, t.exponents) for s, t in delta.mapping.items())
    return digest((len(L), len(edges), depth.value, betti, len(LS), iso is not None, dmap))


# ---------------------------------------------------------------- decide

DECIDE_CYCLE = ("lib",) * 80 + ("cli",) * 18 + ("bad",) * 2
DECIDE_CYCLES = 20

# Malformed ideal files the CLI must reject with exit 2 and one error line.
BAD_FILES = (
    "n 3\n1 2\n",              # wrong exponent count
    "n x\n1 0\n",              # bad variable count
    "1 2 3\n",                 # missing header
    "n 2\n1 -1\n",             # negative exponent
    "n 2\n0 0\n",              # unit generator
    "n 2\n# only a comment\n", # no generators
    "n 2\n1 a\n",              # non-integer exponent
)

# Files whose exponent is at least 65536.  The CLI should answer exit 2
# with one error line; the run reports how many it mishandles.
HUGE_EXPONENT_FILES = (
    "n 2\n65536 1\n",
    "n 3\n0 70000 1\n1 1 1\n",
    "n 1\n100000\n",
)


def _decide_draw(rng):
    n = rng.choice((2, 3, 4))
    while True:
        rows = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(5)]
        rows = [r for r in rows if any(r)]
        if rows:
            return n, tuple(minimal_rows(rows))


def _ideal_text(n, rows):
    return f"n {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def decide_ops(rng, workdir, cycles=DECIDE_CYCLES) -> list[Op]:
    slots = list(DECIDE_CYCLE)
    ops = []
    for _ in range(cycles):
        rng.shuffle(slots)
        for kind in slots:
            n, rows = _decide_draw(rng)
            text = _ideal_text(n, rows)
            if kind == "bad":
                n, rows, text = 0, (), BAD_FILES[len(ops) % len(BAD_FILES)]
            path = None
            if kind != "lib":
                path = os.path.join(workdir, f"ideal{len(ops)}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            ops.append(Op(kind, n, rows, _ideal(n, rows) if rows else None, path))
    return ops


def call_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def decide_run(op):
    if op.kind != "lib":
        return call_cli(["check-smooth", op.arg])
    text = cli.format_ideal(op.ideal)
    J, dropped = cli.parse_ideal(text)
    verdict = sp.check_smooth_ideal(J)
    spread = sp.spread_ideal(J, op.n)
    polar = sp.polarize_ideal(J)
    embedded, _ = sp.embed_spread(J, op.n + 1)
    t2 = sp.check_smooth_t2(J) if op.n == 2 else None
    return J, dropped, verdict, spread, polar, embedded, t2


def clean_error(code, out, err) -> bool:
    """Exit 2, nothing on stdout, one ``error:`` line and no traceback."""
    lines = err.splitlines()
    return (code == 2 and out == "" and len(lines) == 1
            and lines[0].startswith("error: ") and "Traceback" not in err)


def _certificate_ok(rows, n, cert) -> bool:
    d = max(sum(r) for r in rows)
    tau = cert.tau
    if cert.n != n or sorted(tau) != list(range(1, n * cert.d + 1)) or cert.d < d:
        return False
    if any((tau[k - 1] - k) % n for k in range(1, n * cert.d + 1)):
        return False
    return all({tau[i - 1] for i in spread_indices(r, n)} == set(polar_indices(r, n))
               for r in rows)


def _witness_ok(rows, n, w) -> bool:
    ri, rl = rows[w.i - 1], rows[w.ell - 1]
    expected, found = block_overlap(ri, rl, w.j)
    pi, pl = sum(ri[: w.j - 1]), sum(rl[: w.j - 1])
    return ((w.expected, w.found) == (expected, found) and expected != found
            and w.positions_i == {(pi + s) * n + w.j for s in range(ri[w.j - 1])}
            and w.positions_ell == {(pl + s) * n + w.j for s in range(rl[w.j - 1])})


def decide_check(op, ans):
    if op.kind == "bad":
        return clean_error(*ans)
    smooth = first_violation(op.rows, op.n) is None
    if op.kind == "cli":
        code, out, err = ans
        lines = out.splitlines()
        verdict = lines[len(op.rows)] if len(lines) > len(op.rows) else None
        return err == "" and (code, verdict) == ((0, "YES") if smooth else (1, "NO"))
    J, dropped, verdict, spread, polar, embedded, t2 = ans
    n, rows = op.n, op.rows
    d = max(sum(r) for r in rows)
    if list(exps(J)) != list(rows) or dropped:
        return False
    if isinstance(verdict, sp.SmoothCertificate) != smooth:
        return False
    if smooth:
        ok = _certificate_ok(rows, n, verdict)
    else:
        first = first_violation(rows, n)
        ok = (verdict.i, verdict.ell, verdict.j) == first[:3] and _witness_ok(rows, n, verdict)
    if not ok:
        return False
    if set(exps(spread)) != {squarefree_row(spread_indices(r, n), n * d) for r in rows}:
        return False
    if set(exps(polar)) != {squarefree_row(polar_indices(r, n), n * d) for r in rows}:
        return False
    if set(exps(embedded)) != {squarefree_row(spread_indices(r, n + 1), (n + 1) * d) for r in rows}:
        return False
    if t2 is sp.T2Verdict.SUFFICIENT_HOLDS and not smooth:
        return False
    return not (t2 is sp.T2Verdict.NECESSARY_FAILS and smooth)


def decide_fingerprint(op, ans):
    if op.kind != "lib":
        return digest(ans)
    J, dropped, verdict, spread, polar, embedded, t2 = ans
    v = ("yes",) if isinstance(verdict, sp.SmoothCertificate) else (
        "no", verdict.i, verdict.ell, verdict.j, verdict.expected, verdict.found)
    return digest((exps(J), v, exps(spread), exps(polar), exps(embedded), t2))


# ---------------------------------------------------------------- setup


def build(name: str, seed: int, workdir: str, cycles: int | None = None) -> Workload:
    """Generate the op list of one workload from its seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "laws":
        ops = laws_ops(rng, cycles or LAWS_CYCLES)
        warm = _laws_op(2, ((0, 3), (1, 1), (2, 0)), (2, 3))
        return Workload(ops, LAWS_CYCLE, warm, laws_run, laws_check, laws_fingerprint)
    if name == "lattice":
        ops = lattice_ops(rng, cycles or LATTICE_CYCLES)
        rows = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (1, 1, 1))
        warm = Op("lattice", 3, rows, _ideal(3, rows), len(lattice_elements(rows)))
        return Workload(ops, 50, warm, lattice_run, lattice_check,
                        lattice_fingerprint)
    if name == "decide":
        ops = decide_ops(rng, workdir, cycles or DECIDE_CYCLES)
        rows = ((0, 2, 1), (1, 1, 1), (2, 0, 0))
        warm = Op("lib", 3, rows, _ideal(3, rows))
        return Workload(ops, 100, warm, decide_run, decide_check, decide_fingerprint)
    raise ValueError(f"unknown workload {name!r}")
