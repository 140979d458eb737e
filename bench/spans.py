"""Span recording around the library's public functions, from outside it.

For one traced pass, ``install`` rebinds each function in ``TRACED`` in
every ``spreadpol`` module namespace that holds it (so that, say, the
``build_lcm_lattice`` calls made inside ``verify_spreading_laws`` are seen
too) and wraps ``LcmLattice.covers``; ``uninstall`` restores the originals.
``Monomial`` methods stay unwrapped: they run millions of times, and their
cost stays in their callers' self time.

A span is ``(name, start, end, parent, op)``.  Spans stay in memory until
the run ends.  Counters are updated from each call's result, after its
span has closed.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import spreadpol as sp
from spreadpol import cli, golden, lattices  # noqa: F401  (bound before install)


def _add(key, size):
    def hook(counts, out, exc):
        if exc is None:
            counts[key] += size(out)
    return hook


def _hit(key, test):
    def hook(counts, out, exc):
        counts[key] += test(out, exc)
    return hook


# "module.function" -> hook(counts, result, exception) or None
TRACED = {
    "invariants.verify_spreading_laws": _add("invariants.verify_spreading_laws.checks",
                                             lambda r: len(r.checks)),
    "invariants.sdepth_quotient": _add("invariants.sdepth.boxes", lambda r: len(r.intervals)),
    "invariants.sdepth_ideal": _add("invariants.sdepth.boxes", lambda r: len(r.intervals)),
    "invariants.build_characteristic_poset": _add("invariants.build_characteristic_poset.points",
                                                  lambda r: len(r.points)),
    "invariants.depth_quotient": _add("invariants.depth_quotient.betti_entries",
                                      lambda r: len(r.betti.entries)),
    "invariants.order_complex_betti": None,
    "lattices.build_lcm_lattice": _add("lattices.build_lcm_lattice.elements", len),
    "lattices.is_isomorphic": _hit("lattices.is_isomorphic.hits",
                                   lambda r, e: e is None and r is not None),
    "lattices.build_delta": _hit("lattices.build_delta.collapses",
                                 lambda r, e: isinstance(e, sp.WellDefinednessViolation)),
    "lattices.verify_delta": None,
    "taylor.taylor_betti": None,
    "smooth.check_smooth": _hit("smooth.check_smooth.certs",
                                lambda r, e: isinstance(r, sp.SmoothCertificate)),
    "smooth.verify_certificate": None,
    "monomials.spread_ideal": None,
    "monomials.polarize_ideal": None,
    "monomials.embed_spread": None,
    "monomials.sigma_t": None,
    "cli.parse_ideal": None,
    "cli.format_ideal": None,
    "cli.main": None,
    "golden.run_golden": None,
}
COVERS = "lattices.covers"
COVERS_HOOK = _add("lattices.covers.edges", len)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(k)
            exc = out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[k] = (name, start, end, parent, self.op)
                counts[name + ".calls"] += 1
                if hook is not None:
                    hook(counts, out, exc)

        return traced


def install(rec: Recorder) -> list:
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "spreadpol" or name.startswith("spreadpol."))]
    saved = []
    for qual, hook in TRACED.items():
        modname, fname = qual.split(".")
        orig = getattr(sys.modules["spreadpol." + modname], fname)
        wrapper = rec.wrap(qual, orig, hook)
        for m in mods:
            for attr in [a for a, v in vars(m).items() if v is orig]:
                saved.append((m, attr, orig))
                setattr(m, attr, wrapper)
    cls = lattices.LcmLattice
    saved.append((cls, "covers", cls.covers))
    cls.covers = rec.wrap(COVERS, cls.covers, COVERS_HOOK)
    return saved


def uninstall(saved: list) -> None:
    for obj, attr, orig in reversed(saved):
        setattr(obj, attr, orig)


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[k]
    return out


def nested(spans) -> bool:
    """Every span lies within its parent's interval, and its children's
    durations add up to no more than its own."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            _, pstart, pend, _, _ = spans[parent]
            if not pstart <= start <= end <= pend:
                return False
    return all(end - start - c >= -1e-9 for (_, start, end, _, _), c in zip(spans, child))


def root_time(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
