"""The mask verdicts on lcm-lattices against the built lattices, without pytest.

For every ideal of the n = 4 family (every antichain of 2 or 3 nonzero
exponent vectors with entries at most 2 in 4 variables, 26,050 ideals) it
computes the verdict as ``spreadpol.verify_spreading_laws`` does: an atom
bijection carrying the irreducible threshold masks of the ideal
(``invariants._irreducible`` of ``taylor._columns``) onto those of its
n-spread (of ``lattices._spread_columns``), found by ``lattices._atom_image``.
It compares that verdict with ``spreadpol.is_isomorphic`` on the two built
lcm-lattices, the source's and that of the n-spread built by
``spread_ideal``.  On the same two lattices it also compares the verdict of
``spreadpol.build_delta``, which reads the threshold masks alone
(``lattices._uncovered``), with support inclusion (a collapse map exists iff
every atom support of the source is one of the spread), and the two-way
mask test with support equality (a fixed-order isomorphism, spread atom k
to source atom k).  Each collapse map it builds must pass
``spreadpol.verify_delta``, and its Monomial map must equal the reference
built from divisibility (``oracles.delta_by_divisibility``); where there is
no collapse map, ``verify_delta`` must refuse that reference map.  It needs
only the standard library:

    python3 tests/iso_check.py

It prints the number of ideals, of isomorphic pairs, of collapse maps
verified and of reference maps refused, and of fixed-order isomorphisms,
and exits 1 on the first disagreement.  The script imports ``spreadpol``
from the ``src`` directory next to it; its name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from genutils import antichain_family  # noqa: E402
from oracles import delta_by_divisibility  # noqa: E402
from spreadpol import (  # noqa: E402
    LatticeMap,
    WellDefinednessViolation,
    build_delta,
    build_lcm_lattice,
    is_isomorphic,
    spread_ideal,
    verify_delta,
)
from spreadpol.invariants import _irreducible  # noqa: E402
from spreadpol.lattices import _atom_image, _spread_columns, _uncovered  # noqa: E402
from spreadpol.smooth import _blocks  # noqa: E402
from spreadpol.taylor import _columns  # noqa: E402


def columns(I) -> tuple[list[list[int]], list[list[int]]]:
    """The threshold masks of I and those of its n-spread, from the sweep."""
    source = _columns([u.exponents for u in I.generators])
    return source, _spread_columns([_blocks(u) for u in I.generators], I.ambient)


def mask_verdict(I) -> bool:
    """The harness's verdict: its irreducible masks against the sweep's."""
    source, spread = columns(I)
    return _atom_image(_irreducible(source), _irreducible(spread), len(I.generators)) is not None


def collapse_map(I) -> LatticeMap | None:
    try:
        return build_delta(I)
    except WellDefinednessViolation:
        return None


def main() -> int:
    ideals = antichain_family(4)
    isomorphic = collapses = fixed = 0
    for I in ideals:
        L, LS = build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, I.ambient))
        want = is_isomorphic(L, LS) is not None
        if mask_verdict(I) != want:
            print(f"mask verdict {not want}, lattice isomorphism {want} on {I}")
            return 1
        inclusion = set(L._support) <= set(LS._support)
        delta = collapse_map(I)
        if (delta is not None) != inclusion:
            print(f"build_delta verdict {not inclusion}, support inclusion {inclusion} on {I}")
            return 1
        reference = delta_by_divisibility(I)
        if delta is None:  # the reference map is no collapse map: verify_delta must refuse it
            delta = LatticeMap(source=LS, target=L, mapping=reference)
            if verify_delta(delta):
                print(f"verify_delta accepts the reference map of {I}, which has no collapse map")
                return 1
        elif not verify_delta(delta):
            print(f"verify_delta refuses the collapse map of {I}")
            return 1
        elif delta.mapping != reference:
            print(f"the collapse map of {I} differs from the divisibility reference")
            return 1
        source, spread = columns(I)
        equal = set(L._support) == set(LS._support)
        if (_uncovered(source, spread) is None and _uncovered(spread, source) is None) != equal:
            print(f"two-way mask test {not equal}, support equality {equal} on {I}")
            return 1
        isomorphic += want
        collapses += inclusion
        fixed += equal
    print(f"{len(ideals)} ideals agree, {isomorphic} isomorphic, {collapses} collapse maps verified "
          f"and {len(ideals) - collapses} refused, {fixed} fixed-order isomorphisms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
