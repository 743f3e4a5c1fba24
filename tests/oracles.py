"""Exhaustive reference implementations kept as test oracles.

The library checks the mixing law C3 on orthogonal pairs only.  The C3 oracle
here walks every orthogonal family of the conditional system (2^|cs|
subsets), so it is only usable on small lattices.

The library reads the orthogonal pairs of additivity and s3 from
``L.orthogonal_pairs``.  The additivity and s3 oracles find them with a
double loop over all elements and an orthogonality test instead.
"""

from __future__ import annotations

from itertools import combinations

from omlprob.errors import C3Violation, NotAdditive, S3Violation
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


def additivity_exhaustive(L: OrthomodularLattice, vals) -> NotAdditive | None:
    """The first additivity failure of the value sequence ``vals``, or None."""
    for a in L.elements:
        for b in L.elements:
            if a < b and L.is_orthogonal(a, b):
                if vals[L.join(a, b)] != vals[a] + vals[b]:
                    return NotAdditive(
                        f"m({L.label(a)} ∨ {L.label(b)}) ≠ "
                        f"m({L.label(a)}) + m({L.label(b)})",
                        witness=(L.label(a), L.label(b)),
                    )
    return None


def s3_exhaustive(L: OrthomodularLattice, rows) -> S3Violation | None:
    """The first s3 failure of the dense table ``rows``, or None."""
    for a in L.elements:
        for b in L.elements:
            if a < b and L.is_orthogonal(a, b):
                j = L.join(a, b)
                for c in L.elements:
                    if rows[j][c] != rows[a][c] + rows[b][c]:
                        return S3Violation(
                            f"p({L.label(j)}, {L.label(c)}) ≠ "
                            f"p({L.label(a)}, {L.label(c)}) + p({L.label(b)}, {L.label(c)})",
                            witness=(L.label(c), (L.label(a), L.label(b)), "first"),
                        )
                    if rows[c][j] != rows[c][a] + rows[c][b]:
                        return S3Violation(
                            f"p({L.label(c)}, {L.label(j)}) ≠ "
                            f"p({L.label(c)}, {L.label(a)}) + p({L.label(c)}, {L.label(b)})",
                            witness=(L.label(c), (L.label(a), L.label(b)), "second"),
                        )
    return None
