"""Exhaustive reference implementations kept as test oracles.

The library checks the mixing law C3 on orthogonal pairs only.  The oracle
here walks every orthogonal family of the conditional system (2^|cs|
subsets), so it is only usable on small lattices.
"""

from __future__ import annotations

from itertools import combinations

from omlprob.errors import C3Violation
from omlprob.lattice import OrthomodularLattice


def orthogonal_families(L: OrthomodularLattice, members: frozenset[int]):
    """All subsets of members of size ≥ 2 that are mutually orthogonal and
    whose join lies in members (the families quantified over by C3)."""
    elems = sorted(members)
    for size in range(2, len(elems) + 1):
        for fam in combinations(elems, size):
            if all(L.is_orthogonal(a, b) for a, b in combinations(fam, 2)):
                if L.join_all(fam) in members:
                    yield fam


def c3_exhaustive(L: OrthomodularLattice, cs: frozenset[int], tab) -> C3Violation | None:
    """The first C3 failure over all orthogonal families, or None.

    ``tab`` must be total on L × cs and satisfy C1 and C2.
    """
    for fam in orthogonal_families(L, cs):
        top = L.join_all(fam)
        for b in L.elements:
            mix = sum(tab[(a, top)] * tab[(b, a)] for a in fam)
            if tab[(b, top)] != mix:
                return C3Violation(
                    f"f({L.label(b)}, {L.label(top)}) = {tab[(b, top)]} but the "
                    f"mixture over {tuple(L.label(a) for a in fam)} gives {mix}",
                    witness=(L.label(b), tuple(L.label(a) for a in fam)),
                )
    return None
