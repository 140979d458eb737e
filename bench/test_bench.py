"""Smoke test of the benchmark: a small pass of each workload and a traced pass.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_pass_matches_reference(name, workdir):
    wl = workloads.build(name, run.DEFAULT_SEED, workdir, cycles=1)
    checker = run.Checker(wl, run.load_reference(name, run.DEFAULT_SEED))
    lat = run.run_ops(wl, wl.ops, checker)
    assert len(lat) == len(wl.ops) >= 20
    assert checker.failed == 0
    assert checker.fingerprinted == checker.attempted == len(wl.ops)


def test_timed_run_wraps_to_min_ops(workdir, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 250)
    wl = workloads.build("decide", run.DEFAULT_SEED, workdir, cycles=1)
    checker = run.Checker(wl, run.load_reference("decide", run.DEFAULT_SEED))
    host = speed.Speed()
    lat = run.run_ops(wl, wl.ops, checker, seconds=0, host=host)
    assert len(lat) == 300  # the first cycle end at or after 250 ops
    assert checker.failed == 0 and checker.fingerprinted == 300
    # the kernel ran before the first op and after the last one
    assert host.ok and host.tags[0] == 0 and host.tags[-1] == 300
    assert all(x > 0 for x in host.scale(lat))


def test_speed_divides_each_time_by_the_samples_around_it():
    ref = speed.REFERENCE_S
    host = speed.Speed()
    host.tags, host.groups = [0, 2, 3], [[2 * ref], [3 * ref, 4 * ref, 5 * ref], [ref]]
    # items 0 and 1 lie between the groups tagged 0 and 2, item 2 between
    # those tagged 2 and 3, item 3 after the last one
    assert host.scale([6.0, 3.0, 5.0, 1.0]) == pytest.approx([2.0, 1.0, 2.0, 1.0])
    host.sample(4, repeats=2)
    assert host.ok and host.samples() == 7 and host.tags[-1] == 4


@pytest.mark.parametrize("name", ["lattice", "decide"])
def test_traced_pass_accounts_for_wall_time(name, workdir):
    wl = workloads.build(name, 1, workdir, cycles=1)
    rec, wall, checker = run.traced_pass(wl, wl.ops, name, 1)
    assert checker.failed == 0
    assert spans.nested(rec.spans)
    assert 0 < spans.root_time(rec.spans) < wall
    assert all(span[4] is not None for span in rec.spans)
    if name == "lattice":
        assert rec.counts["invariants.order_complex_betti.calls"] > 0
        assert rec.counts["lattices.covers.edges"] > 0
    else:
        assert rec.counts["cli.main.calls"] > 0
        assert rec.counts["monomials.sigma_t.calls"] > 0
    # every wrapper is gone again
    import spreadpol as sp
    from spreadpol import lattices, smooth

    assert not hasattr(sp.check_smooth_ideal, "__wrapped__")
    assert not hasattr(smooth.check_smooth, "__wrapped__")
    assert not hasattr(lattices.LcmLattice.covers, "__wrapped__")


def test_nested_rejects_a_child_outside_its_parent():
    good = [("a", 0.0, 1.0, -1, 0), ("b", 0.2, 0.5, 0, 0), ("c", 0.5, 0.9, 0, 0)]
    assert spans.nested(good)
    assert not spans.nested([good[0], ("b", 0.2, 1.5, 0, 0)])
    assert not spans.nested([good[0], ("b", 0.0, 0.8, 0, 0), ("c", 0.1, 0.9, 0, 0)])


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work-*", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
