"""Oracles for the linear-algebra paths of the property sweeps.

The null-space orthogonal complement and the component space built on it
are compared with the scans over all 2^width vectors they replaced, the
square-and-multiply power maps with Horner tabulation of x^d, and Ben-Or's
irreducibility test with trial division.  The references are the former
library code, kept here unchanged.
"""

import pytest

from hiddensums.cipher import TOY_SBOX_BASIS
from hiddensums.corpus import FIELD_MODULI, field_spec, pinned_corpus
from hiddensums.gf2 import FieldSpec, Subspace, _poly_mod, dot
from hiddensums.vbf import VBF, component_space, derivative_image


def reference_orthogonal_complement(s: Subspace) -> Subspace:
    """All v with dot(v, b) = 0 for every basis vector b."""
    perp = [v for v in range(1 << s.width) if all(dot(v, b) == 0 for b in s.basis)]
    return Subspace(perp, s.width)


def reference_component_space(f: VBF, a: int) -> Subspace:
    """The space of v for which x |-> dot(D_a f(x), v) is constant."""
    if a == 0:
        raise ValueError("direction must be nonzero")
    img = sorted(derivative_image(f, a).image)
    diffs = [w ^ img[0] for w in img[1:]]
    members = [
        v
        for v in range(1 << f.n)
        if all(dot(w, v) == 0 for w in diffs)
    ]
    return Subspace(members, f.n)


def reference_is_irreducible(modulus: int) -> bool:
    """Trial division by every polynomial of degree up to m // 2."""
    m = modulus.bit_length() - 1
    for deg in range(1, m // 2 + 1):
        for q in range(1 << deg, 1 << (deg + 1)):
            if _poly_mod(modulus, q) == 0:
                return False
    return True


def all_subspaces(width: int) -> list[Subspace]:
    """Every subspace of (F_2)^width: closure of {0} under adjoining one
    vector, deduplicated by echelon basis."""
    seen = {(): Subspace([], width)}
    frontier = list(seen.values())
    while frontier:
        grown = []
        for s in frontier:
            for v in range(1, 1 << width):
                if v not in s:
                    t = Subspace(s.basis + (v,), width)
                    if t.basis not in seen:
                        seen[t.basis] = t
                        grown.append(t)
        frontier = grown
    return list(seen.values())


@pytest.mark.parametrize("width,count", [(1, 2), (2, 5), (3, 16), (4, 67), (5, 374)])
def test_complement_matches_scan_on_every_subspace(width, count):
    subspaces = all_subspaces(width)
    assert len(subspaces) == count
    for s in subspaces:
        perp = s.orthogonal_complement()
        assert perp.basis == reference_orthogonal_complement(s).basis
        assert perp.dim + s.dim == width
        assert perp.orthogonal_complement() == s


def test_component_space_matches_scan_on_corpus():
    pairs = 0
    for m in range(3, 7):
        for label, f in pinned_corpus(m):
            for a in range(1, 1 << m):
                assert component_space(f, a) == reference_component_space(f, a), (label, a)
                pairs += 1
    assert pairs == 9167


@pytest.mark.parametrize("m", sorted(FIELD_MODULI))
def test_power_map_matches_horner(m):
    fs = field_spec(m)
    bases = [None, TOY_SBOX_BASIS] if m == TOY_SBOX_BASIS.size else [None]
    for basis in bases:
        for d in range((1 << m) + 2):
            assert VBF.from_power(d, fs, basis) == VBF.from_univariate([0] * d + [1], fs, basis), d


def test_irreducibility_matches_trial_division():
    irreducible = {}
    for m in range(1, 11):
        for modulus in range(1 << m, 1 << (m + 1)):
            try:
                FieldSpec(m, modulus)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == reference_is_irreducible(modulus), bin(modulus)
            irreducible[m] = irreducible.get(m, 0) + accepted
    # OEIS A001037: irreducible binary polynomials of degree m
    assert list(irreducible.values()) == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
