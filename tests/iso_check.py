"""The law harness's isomorphism verdict against the lcm-lattices, without pytest.

For every ideal of the n = 4 family (every antichain of 2 or 3 nonzero
exponent vectors with entries at most 2 in 4 variables, 26,050 ideals) it
computes the verdict as ``spreadpol.verify_spreading_laws`` does: an atom
bijection carrying the irreducible threshold masks of the ideal
(``invariants._irreducible`` of ``taylor._columns``) onto those of its
n-spread (of ``lattices._spread_columns``), found by ``lattices._atom_image``.
It compares that verdict with ``spreadpol.is_isomorphic`` on the two built
lcm-lattices, the source's and that of the n-spread built by
``spread_ideal``.  It needs only the standard library:

    python3 tests/iso_check.py

It prints the number of ideals and of isomorphic pairs, and exits 1 on the
first disagreement.  The script imports ``spreadpol`` from the ``src``
directory next to it; its name does not match ``test_*.py``, so pytest does
not collect it.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from genutils import antichain_family  # noqa: E402
from spreadpol import build_lcm_lattice, is_isomorphic, spread_ideal  # noqa: E402
from spreadpol.invariants import _irreducible  # noqa: E402
from spreadpol.lattices import _atom_image, _spread_columns  # noqa: E402
from spreadpol.smooth import _blocks  # noqa: E402
from spreadpol.taylor import _columns  # noqa: E402


def mask_verdict(I) -> bool:
    """The harness's verdict: its irreducible masks against the sweep's."""
    n, m = I.ambient, len(I.generators)
    source = _columns([u.exponents for u in I.generators])
    spread = _spread_columns([_blocks(u) for u in I.generators], n)
    return _atom_image(_irreducible(source), _irreducible(spread), m) is not None


def main() -> int:
    ideals = antichain_family(4)
    isomorphic = 0
    for I in ideals:
        want = is_isomorphic(build_lcm_lattice(I),
                             build_lcm_lattice(spread_ideal(I, I.ambient))) is not None
        if mask_verdict(I) != want:
            print(f"mask verdict {not want}, lattice isomorphism {want} on {I}")
            return 1
        isomorphic += want
    print(f"{len(ideals)} ideals agree, {isomorphic} isomorphic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
