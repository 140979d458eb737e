"""Seeded benchmark of spreadpol: one closed-loop client per workload.

    python3 bench/run.py --workload {laws,lattice,decide} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S --trace {0,1}

Run from the repository root.  One run times one op at a time through the
public ``spreadpol`` API in this single process (no threads, no pool) until
the timed ops add up to ``--seconds``, number at least ``MIN_OPS`` and a
cycle of the workload's input classes is complete, and checks every answer
outside the timed region.  The last line of stdout is one JSON object with
the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to stderr.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced pass (see ``bench/README.md``).
``--workload all`` runs every workload in a fresh process and prints a
table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# Kernel samples timed between two set-ups (see speed.py).
SETUP_SAMPLES = 5
COLD_START_REPEATS = 5
# A timed run times at least this many ops, so that at least 10 lie beyond p90.
MIN_OPS = 100
# Ops of the traced pass; each is a whole number of the workload's cycles.
TRACE_OPS = {"laws": 100, "lattice": 50, "decide": 2000}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from spans import COVERS, TRACED

    units = {f"{name}.self_s": "s" for name in [*TRACED, COVERS]}
    units.update({
        "invariants.sdepth.boxes": "count",
        "invariants.build_characteristic_poset.points": "count",
        "invariants.order_complex_betti.calls": "count",
        "invariants.depth_quotient.betti_entries": "count",
        "invariants.verify_spreading_laws.checks": "count",
        "invariants.depth_quotient.ci8_s": "s",
        "invariants.verify_spreading_laws.cyc4_s": "s",
        "invariants.verify_spreading_laws.common_factor_fail_frac": "ratio",
        "lattices.is_isomorphic.hit_ratio": "ratio",
        "lattices.is_isomorphic.ci8_s": "s",
        "lattices.build_delta.collapse_ratio": "ratio",
        "lattices.build_lcm_lattice.elements": "count",
        "lattices.covers.edges": "count",
        "smooth.check_smooth.calls": "count",
        "smooth.check_smooth.cert_ratio": "ratio",
        "smooth.verify_certificate.calls": "count",
        "monomials.sigma_t.calls": "count",
        "cli.main.calls": "count",
        "cli.main.huge_exponent_fail_frac": "ratio",
        "cli.cold_start_s": "s",
        "bench.untraced_self_s": "s",
        "bench.traced_wall_s": "s",
        "bench.trace_overhead_frac": "ratio",
    })
    return units


# ---------------------------------------------------------------- helpers


def load_reference(name: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[name]


def setup(name: str, seed: int, workdir: str):
    """Generate the inputs, write the CLI files and run one untimed warm-up op."""
    import workloads

    wl = workloads.build(name, seed, workdir)
    ans = wl.run(wl.warmup)
    if not wl.check(wl.warmup, ans):
        raise RuntimeError(f"{name}: warm-up op gave a wrong answer")
    return wl


class Checker:
    """Checks answers one at a time and keeps the failure count."""

    def __init__(self, wl, reference: str | None):
        self.wl, self.reference = wl, reference
        self.attempted = self.failed = self.fingerprinted = 0

    def __call__(self, k: int, op, ans) -> None:
        """Check the answer to op `k` of the pass."""
        self.attempted += 1
        ok = not isinstance(ans, Exception)
        if ok:
            try:
                ok = self.wl.check(op, ans)
                if ok and self.reference is not None:
                    ok = self.wl.fingerprint(op, ans) == self.reference[8 * k: 8 * k + 8]
                    self.fingerprinted += 1
            except Exception as e:  # a malformed answer fails its check
                print(f"check of op {k} raised {e!r}", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
            print(f"op {k} ({op.kind}, n={op.n}, {op.rows}) failed: {ans!r:.200}",
                  file=sys.stderr)


def run_ops(wl, ops, checker, seconds=None, rec=None, host=None) -> array:
    """Time each op alone, all of `ops` or, given `seconds`, whole cycles.

    A timed run stops at the first cycle end after the timed ops add up to
    `seconds` and number at least MIN_OPS; past the end of the pass it wraps
    around to the first cycle.  Given `host` (a `speed.Speed`), the kernel
    is timed before the first op, after the last one and in between, right
    after an op, every `speed.EVERY_S` seconds of op time.
    """
    import speed

    lat = array("d")
    busy = since = 0.0
    i = 0
    if host is not None:
        host.sample(0)
    while True:
        if seconds is None:
            if i == len(ops):
                break
        elif busy >= seconds and i >= MIN_OPS and i % wl.cycle == 0:
            break
        k = i % len(ops)
        op = ops[k]
        if rec is not None:
            rec.op = i
        start = perf_counter()
        try:
            ans = wl.run(op)
        except Exception as e:  # counted as a failed op by the checker
            ans = e
        dt = perf_counter() - start
        lat.append(dt)
        busy += dt
        since += dt
        i += 1
        if host is not None and since >= speed.EVERY_S:
            host.sample(i)
            since = 0.0
        checker(k, op, ans)
    if host is not None and since:
        host.sample(i)
    return lat


def golden_passes(rows) -> bool:
    """`run_golden()` rows: all 14 (or more) worked examples pass."""
    return len(rows) >= 14 and all(ok for _, ok in rows)


def huge_exponent_fail_frac(workdir: str) -> float:
    """Share of ideal files with an exponent >= 65536 that the CLI mishandles."""
    import workloads

    bad = 0
    for k, text in enumerate(workloads.HUGE_EXPONENT_FILES):
        path = os.path.join(workdir, f"huge{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            bad += not workloads.clean_error(*workloads.call_cli(["check-smooth", path]))
        except Exception:  # an exception escaping main is the failure counted here
            bad += 1
    return bad / len(workloads.HUGE_EXPONENT_FILES)


def setup_seconds(name: str, seed: int, host) -> list[float]:
    """Wall time from starting a fresh interpreter until its first timed op.

    `host` times SETUP_SAMPLES kernels before and after each start.
    """
    out = []
    host.sample(0, SETUP_SAMPLES)
    for k in range(SETUP_REPEATS):
        # CLOCK_MONOTONIC is shared by all processes on Linux, so the child's
        # stamp and this one are on the same clock.
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
        host.sample(k + 1, SETUP_SAMPLES)
    return out


# ---------------------------------------------------------------- runs


def timing_metrics(lat) -> dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
    }


def timed_run(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Set-up and op timings, each corrected for the host's speed (speed.py)."""
    import speed
    from spreadpol import golden

    setup_host, host = speed.Speed(), speed.Speed()
    setups = setup_seconds(name, seed, setup_host)
    wl = setup(name, seed, workdir)
    checker = Checker(wl, load_reference(name, seed))
    raw = run_ops(wl, wl.ops, checker, seconds=seconds, host=host)
    golden_ok = golden_passes(golden.run_golden())
    # read before the statistics below allocate their sorted copies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup_host.scale(setups)),
        **timing_metrics(host.scale(raw)),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_metrics = {"setup_s": statistics.median(setups), **timing_metrics(raw)}
    print(f"{name} seed={seed}: {len(raw)} ops, {checker.failed} failed "
          f"(fail_frac {checker.failed / len(raw):.4f}), "
          f"{checker.fingerprinted} fingerprints checked, golden {'ok' if golden_ok else 'FAILED'}, "
          f"{host.samples()} kernel samples; uncorrected: {json.dumps(raw_metrics)}",
          file=sys.stderr)
    return {
        "correct": checker.failed == 0 and golden_ok and host.ok and setup_host.ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def probes() -> tuple[dict[str, float], bool]:
    """One-shot timings of the known hot spots at their caps, checked."""
    import spreadpol as sp
    import workloads

    ci8 = sp.MonomialIdeal.from_exponents(8, [[int(i == j) for j in range(8)] for i in range(8)])
    cyc4 = sp.MonomialIdeal.from_exponents(4, workloads.CYC4)
    L = sp.build_lcm_lattice(ci8)
    out, ok = {}, True
    start = perf_counter()
    depth = sp.depth_quotient(ci8)
    out["invariants.depth_quotient.ci8_s"] = perf_counter() - start
    ok &= depth.value == 0
    start = perf_counter()
    iso = sp.is_isomorphic(L, L)
    out["lattices.is_isomorphic.ci8_s"] = perf_counter() - start
    ok &= iso is not None and workloads.preserves_lcm(L, L, iso)
    start = perf_counter()
    report = sp.verify_spreading_laws(cyc4, [4, 5])
    out["invariants.verify_spreading_laws.cyc4_s"] = perf_counter() - start
    ok &= report.all_hold
    flagged = [not sp.verify_spreading_laws(sp.MonomialIdeal.from_exponents(3, rows), [3, 4]).all_hold
               for rows in workloads.COMMON_FACTOR_IDEALS]
    out["invariants.verify_spreading_laws.common_factor_fail_frac"] = sum(flagged) / len(flagged)
    return out, bool(ok)


def cold_start() -> tuple[float, bool]:
    """Median wall time of `python -m spreadpol.cli verify-paper` as a subprocess."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times, ok = [], True
    for _ in range(COLD_START_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "spreadpol.cli", "verify-paper"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        passed, _, total = proc.stdout.split()[-3].partition("/")
        ok &= proc.returncode == 0 and passed == total
    return statistics.median(times), ok


def traced_pass(wl, ops, name: str, seed: int):
    """Run `ops` with every traced function wrapped; returns the recorder and wall."""
    import spans

    rec = spans.Recorder()
    checker = Checker(wl, load_reference(name, seed))
    saved = spans.install(rec)
    try:
        wall = sum(run_ops(wl, ops, checker, rec=rec))
    finally:
        spans.uninstall(saved)
    return rec, wall, checker


def traced_run(name: str, seed: int, workdir: str) -> dict:
    import spans
    from spreadpol import golden

    wl = setup(name, seed, workdir)
    ops = wl.ops[: TRACE_OPS[name]]
    plain = Checker(wl, load_reference(name, seed))
    # Untraced and traced passes alternate and each side keeps its faster
    # pass, so that a slow stretch of the host does not fall on one side only.
    untraced_wall, traced = float("inf"), []
    for _ in range(2):
        untraced_wall = min(untraced_wall, sum(run_ops(wl, ops, plain)))
        traced.append(traced_pass(wl, ops, name, seed))
    rec, traced_wall, _ = min(traced, key=lambda t: t[1])

    grec = spans.Recorder()
    saved = spans.install(grec)
    try:
        rows = golden.run_golden()
    finally:
        spans.uninstall(saved)

    selfs = spans.self_times(rec.spans)
    counts = rec.counts
    metrics = {f"{n}.self_s": selfs.get(n, 0.0) for n in [*spans.TRACED, spans.COVERS]}
    metrics["golden.run_golden.self_s"] = spans.self_times(grec.spans)["golden.run_golden"]

    def ratio(hits, calls):
        return counts[hits] / counts[calls] if counts[calls] else 0.0

    metrics.update({
        "invariants.sdepth.boxes": counts["invariants.sdepth.boxes"],
        "invariants.build_characteristic_poset.points":
            counts["invariants.build_characteristic_poset.points"],
        "invariants.order_complex_betti.calls": counts["invariants.order_complex_betti.calls"],
        "invariants.depth_quotient.betti_entries":
            counts["invariants.depth_quotient.betti_entries"],
        "invariants.verify_spreading_laws.checks":
            counts["invariants.verify_spreading_laws.checks"],
        "lattices.is_isomorphic.hit_ratio":
            ratio("lattices.is_isomorphic.hits", "lattices.is_isomorphic.calls"),
        "lattices.build_delta.collapse_ratio":
            ratio("lattices.build_delta.collapses", "lattices.build_delta.calls"),
        "lattices.build_lcm_lattice.elements": counts["lattices.build_lcm_lattice.elements"],
        "lattices.covers.edges": counts["lattices.covers.edges"],
        "smooth.check_smooth.calls": counts["smooth.check_smooth.calls"],
        "smooth.check_smooth.cert_ratio":
            ratio("smooth.check_smooth.certs", "smooth.check_smooth.calls"),
        "smooth.verify_certificate.calls": counts["smooth.verify_certificate.calls"],
        "monomials.sigma_t.calls": counts["monomials.sigma_t.calls"],
        "cli.main.calls": counts["cli.main.calls"],
        "cli.main.huge_exponent_fail_frac": huge_exponent_fail_frac(workdir),
        "bench.untraced_self_s": traced_wall - spans.root_time(rec.spans),
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1,
    })
    found, probes_ok = probes()
    metrics.update(found)
    metrics["cli.cold_start_s"], cold_ok = cold_start()

    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans-{name}-{seed}.json.gz", "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rec.spans}, fh)

    units = per_layer_units()
    nested = spans.nested(rec.spans)
    print(f"{name} seed={seed} traced: {len(ops)} ops, spans nested "
          f"{'ok' if nested else 'BROKEN'}, traced wall {traced_wall:.6f} s, "
          f"overhead {metrics['bench.trace_overhead_frac']:+.3f}", file=sys.stderr)
    failed = plain.failed + sum(checker.failed for _, _, checker in traced)
    return {
        "correct": failed == 0 and nested and golden_passes(rows) and probes_ok and cold_ok,
        "attempted": plain.attempted + sum(checker.attempted for _, _, checker in traced),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(args) -> int:
    """Every workload in a fresh process; prints a table of metric, value, unit."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        status |= not res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_frac={res['failed'] / res['attempted']:.4f}")
        for key, m in res["metrics"].items():
            print(f"  {key:48} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["laws", "lattice", "decide", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    if not (SRC / "spreadpol" / "__init__.py").is_file():
        print(f"error: no spreadpol sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic())
            return 0
        if args.trace:
            result = traced_run(args.workload, args.seed, workdir)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
