"""Rewrite bench/reference.json: each op's answer fingerprint at the default seed.

    python3 bench/make_reference.py [laws] [lattice] [decide]

Runs the whole pass of each named workload (all three by default) untimed,
checks every answer and stores one 8-hex-digit fingerprint per op.  A timed
run at the default seed must reproduce them, so regenerate the file only
in a change that is meant to alter answers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import BENCH, DEFAULT_SEED, REFERENCE, SRC, setup


def fingerprints(name: str, workdir: str) -> str:
    wl = setup(name, DEFAULT_SEED, workdir)
    out = []
    for i, op in enumerate(wl.ops):
        ans = wl.run(op)
        if not wl.check(op, ans):
            raise SystemExit(f"{name}: op {i} ({op.n}, {op.rows}) gave a wrong answer")
        out.append(wl.fingerprint(op, ans))
    return "".join(out)


def main(names) -> None:
    sys.path.insert(0, str(SRC))
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref["seed"] = DEFAULT_SEED
    for name in names:
        workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
        try:
            ref[name] = fingerprints(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(ref[name]) // 8} ops", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["laws", "lattice", "decide"])
