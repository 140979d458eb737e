"""Output-identity corpus for the command-line front end.

Runs ``spreadpol.cli.main`` in process over a fixed set of ideal files and
argument lists, and prints one line per run: the argv, with each file path
replaced by the file's corpus name, then the sha1 of (exit code, stdout,
stderr).  A change that must keep every CLI byte is checked by running the
script on both trees and diffing the two outputs:

    python tests/cli_corpus.py > after.txt

The script imports ``spreadpol`` from the ``src`` directory next to it.  Its
name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import random
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from genutils import random_ideal, small_family  # noqa: E402
from spreadpol.cli import format_ideal, main  # noqa: E402


def cli_texts() -> list[str]:
    """The ideal-file string literals of test_cli.py (those whose first line
    is an `n` header), in order of first appearance."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    texts = sorted(
        (node.lineno, node.col_offset, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.match(r"n \S+\n", node.value)
    )
    return list(dict.fromkeys(text for _, _, text in texts))


# three generators with exponents near the cap: the n-spread lives in
# 393207 variables
HUGE_EXPONENTS = "n 3\n65535 1 0\n65534 0 65535\n0 65535 65533\n"


def corpus_files() -> list[tuple[str, str]]:
    """(name, text) of every ideal file in the corpus."""
    files = [(f"cli/{k}", text) for k, text in enumerate(cli_texts())]
    files += [(f"small/{k}", format_ideal(I)) for k, I in enumerate(small_family())]
    rng = random.Random(2024)
    for k in range(40):
        I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
        files.append((f"seeded/{k}", format_ideal(I)))
    files.append(("huge", HUGE_EXPONENTS))
    return files


def _n(text: str) -> int:
    """The variable count of a file's header, 1 when it has none."""
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) == 2 and parts[0] == "n" and parts[1].isdigit():
            return int(parts[1])
    return 1


def commands(name: str, text: str, other: str) -> list[list[str]]:
    """Every argv run on one file; `other` is the second file of `iso`."""
    n = _n(text)
    tails = [
        ["check-smooth", name],
        ["lattice", name],
        ["lattice", "--dot", name],
        ["iso", name, other],
        ["delta", name],
        ["depth", name],
        ["sdepth", name],
        ["sdepth", "--ideal", name],
        ["verify-laws", "-t", str(n), name],
        ["verify-laws", "-t", f"{n}..{n + 2}", name],
        ["verify-laws", "-t", "3000", name],
    ]
    return [pre + tail for tail in tails for pre in ([], ["--pretty"])]


def run(argv: list[str], paths: dict[str, str], root: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv])
    result = (code, *(s.getvalue().replace(root, "<dir>") for s in (out, err)))
    return " ".join(argv) + "  " + hashlib.sha1(repr(result).encode()).hexdigest()


def main_corpus() -> None:
    files = corpus_files()
    with tempfile.TemporaryDirectory() as root:
        paths = {}
        for k, (name, text) in enumerate(files):
            paths[name] = os.path.join(root, f"{k}.ideal")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        print(run(["verify-paper"], paths, root), flush=True)
        for k, (name, text) in enumerate(files):
            other = files[(k + 1) % len(files)][0]
            for argv in commands(name, text, other):
                print(run(argv, paths, root), flush=True)


if __name__ == "__main__":
    main_corpus()
