"""The mask verdicts on lcm-lattices against the built lattices, without pytest.

For every ideal of the n = 4 family (every antichain of 2 or 3 nonzero
exponent vectors with entries at most 2 in 4 variables, 26,050 ideals) it
computes the verdict as ``spreadpol.verify_spreading_laws`` does: an atom
bijection carrying the irreducible threshold masks of the ideal
(``lattices._irreducible`` of ``taylor._columns``) onto those of its
n-spread (of ``lattices._spread_columns``), found by ``lattices._atom_image``.
It compares that verdict with ``spreadpol.is_isomorphic`` on the two built
lcm-lattices, the source's and that of the n-spread built by
``spread_ideal``.  Both go through ``_atom_image``, which tries the given
atom order first, so the image is also checked on its own terms: it is the
identity exactly when the two atom-support families are equal, and each
image it returns is a bijection of atoms carrying the irreducible masks of
the ideal onto those of its n-spread.  On the same two lattices it also
compares the verdict of ``spreadpol.build_delta``, which reads the
threshold masks alone (``lattices._uncovered``), with support inclusion (a
collapse map exists iff every atom support of the source is one of the
spread), and the two-way mask test with support equality (a fixed-order isomorphism, spread atom k
to source atom k).  Each collapse map it builds must pass
``spreadpol.verify_delta``, and its Monomial map must equal the reference
built from divisibility (``oracles.delta_by_divisibility``); where there is
no collapse map, ``verify_delta`` must refuse that reference map.  Those
refused maps are not onto, so they never reach the atom step; the 80
principal ideals of the n = 4 grid (entries at most 2) do.  On each,
``verify_delta`` must accept the collapse map and refuse the onto map that
swaps the bottom and the top, which fails only the atom step of the one
atom.  It needs only the standard library:

    python3 tests/iso_check.py

It prints the number of ideals, of isomorphic pairs, of identity images
and of images checked, of collapse maps verified and of reference maps
refused, of fixed-order isomorphisms, and of principal ideals whose two
maps are judged right, and exits 1 on the first disagreement.  The script
imports ``spreadpol`` from the ``src`` directory next to it; its name does
not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from genutils import antichain_family  # noqa: E402
from oracles import delta_by_divisibility  # noqa: E402
from spreadpol import (  # noqa: E402
    LatticeMap,
    MonomialIdeal,
    WellDefinednessViolation,
    build_delta,
    build_lcm_lattice,
    is_isomorphic,
    spread_ideal,
    verify_delta,
)
from spreadpol.lattices import _atom_image, _irreducible, _spread_columns, _uncovered  # noqa: E402
from spreadpol.smooth import _blocks  # noqa: E402
from spreadpol.taylor import _columns  # noqa: E402


def columns(I) -> tuple[list[list[int]], list[list[int]]]:
    """The threshold masks of I and those of its n-spread, from the sweep."""
    source = _columns([u.exponents for u in I.generators])
    return source, _spread_columns([_blocks(u) for u in I.generators], I.ambient)


def carries(image: list[int], A: list[int], B: list[int]) -> bool:
    """Whether image, one atom bit per atom, is a bijection of the atoms
    carrying the mask family A onto B."""
    m = len(image)
    moved = {sum(image[a] for a in range(m) if x >> a & 1) for x in A}
    return sorted(image) == [1 << b for b in range(m)] and moved == set(B)


def collapse_map(I) -> LatticeMap | None:
    try:
        return build_delta(I)
    except WellDefinednessViolation:
        return None


def main() -> int:
    ideals = antichain_family(4)
    isomorphic = identities = collapses = fixed = 0
    for I in ideals:
        L, LS = build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, I.ambient))
        want = is_isomorphic(L, LS) is not None
        source, spread = columns(I)
        A, B = _irreducible(source), _irreducible(spread)  # the harness's verdict
        image = _atom_image(A, B, len(I.generators))
        if (image is not None) != want:
            print(f"mask verdict {not want}, lattice isomorphism {want} on {I}")
            return 1
        equal = set(L._support) == set(LS._support)
        identity = image == [1 << a for a in range(len(I.generators))]
        if identity != equal:
            print(f"harness image is the identity: {identity}, support equality {equal} on {I}")
            return 1
        if image is not None and not carries(image, A, B):
            print(f"the harness image {image} does not carry the irreducible masks of {I}")
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
        if (_uncovered(source, spread) is None and _uncovered(spread, source) is None) != equal:
            print(f"two-way mask test {not equal}, support equality {equal} on {I}")
            return 1
        isomorphic += want
        identities += identity
        collapses += inclusion
        fixed += equal
    principal = [MonomialIdeal.from_exponents(4, [v])
                 for v in itertools.product(range(3), repeat=4) if any(v)]
    for I in principal:
        delta = build_delta(I)
        if not verify_delta(delta):
            print(f"verify_delta refuses the collapse map of {I}")
            return 1
        S, T = delta.source, delta.target
        swap = LatticeMap(source=S, target=T, mapping={S.bottom: T.top, S.top: T.bottom})
        if verify_delta(swap):
            print(f"verify_delta accepts the map of {I} that swaps the bottom and the top")
            return 1
    print(f"{len(ideals)} ideals agree, {isomorphic} isomorphic, {identities} identity images and "
          f"{isomorphic} carrying the irreducible masks, {collapses} collapse maps verified "
          f"and {len(ideals) - collapses} refused, {fixed} fixed-order isomorphisms, "
          f"{len(principal)} principal ideals with the collapse map verified and the swap refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
