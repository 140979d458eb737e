"""Betti numbers against their combinations reference, without pytest.

Runs ``spreadpol.taylor.taylor_betti``, ``spreadpol.depth_quotient`` and the
reference ``oracles.taylor_betti_by_combinations`` on the small family and
its n-spreads, 300 seeded ideals with 1 to 10 generators, the CLI corpus's
huge-exponent file and an ideal whose top fails the degree cap.  It checks
that taylor_betti's entries agree with the reference and come in
first-reached order, that depth_quotient's entries agree with it too, and
that depth_quotient refuses only the ideal whose top fails the degree cap
(its lcm-lattice checks the top in full).  It needs only the standard
library, so it runs on interpreters without pytest:

    python3.10 tests/taylor_check.py

It prints the Python version and the number of ideals checked, and exits 1
on the first mismatch.  The script imports ``spreadpol`` from the ``src``
directory next to it; its name does not match ``test_*.py``, so pytest does
not collect it.
"""

from __future__ import annotations

import os
import platform
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from genutils import ideals_by_generator_count, small_family  # noqa: E402
from oracles import first_reached_keys, taylor_betti_by_combinations  # noqa: E402
from spreadpol import MonomialIdeal, TooLargeError, depth_quotient, spread_ideal  # noqa: E402
from spreadpol.taylor import taylor_betti  # noqa: E402


def family() -> list[MonomialIdeal]:
    ideals = [J for I in small_family() for J in (I, spread_ideal(I, I.ambient))]
    ideals += ideals_by_generator_count(random.Random(95), 300)
    ideals.append(MonomialIdeal.from_exponents(
        3, [(65535, 1, 0), (65534, 0, 65535), (0, 65535, 65533)]))
    k, e = 20000, 32767  # (X^2e, X^e Y^e, Y^2e): no entry fails the degree cap, the top does
    ideals.append(MonomialIdeal.from_exponents(
        2 * k, [(2 * e,) * k + (0,) * k, (e,) * (2 * k), (0,) * k + (2 * e,) * k]))
    return ideals


def main() -> int:
    ideals = family()
    refused = []
    for I in ideals:
        betti, reference = taylor_betti(I), taylor_betti_by_combinations(I)
        if betti != reference:
            print(f"entries differ on {I}")
            return 1
        if list(betti) != first_reached_keys(I, betti):
            print(f"keys out of first-reached order on {I}")
            return 1
        try:
            entries = depth_quotient(I).betti.entries
        except TooLargeError:
            refused.append(I)
            continue
        if dict(entries) != reference:
            print(f"depth_quotient entries differ on {I}")
            return 1
    if refused != ideals[-1:]:
        print(f"depth_quotient refused {len(refused)} ideals, not only the last")
        return 1
    print(f"Python {platform.python_version()}: {len(ideals)} ideals agree, "
          f"{len(ideals) - 1} through depth_quotient too")
    return 0


if __name__ == "__main__":
    sys.exit(main())
