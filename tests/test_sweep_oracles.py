"""Oracles for the fast paths of the property sweeps.

The null-space orthogonal complement and the component space built on it
are compared with the scans over all 2^width vectors they replaced, the
exp/log power maps with Horner tabulation of x^d and with square-and-
multiply at every point, Ben-Or's irreducibility test with trial division,
the APN test from image sizes with the full difference table, the coset
test that rejects sizes other than 2^k with the span and closure tests,
and the pivot-table span kernel with the insertion-sort kernel.  The
references are the former library code, kept here unchanged.
"""

import itertools
import math
import random
from functools import reduce
from operator import xor

import pytest

from hiddensums.cipher import TOY_SBOX_BASIS, toy_brick_sum
from hiddensums.corpus import (
    FIELD_MODULI,
    field_spec,
    pinned_corpus,
    power_permutation_exponents,
)
from hiddensums.gf2 import (
    BinMatrix,
    FieldSpec,
    Subspace,
    _poly_mod,
    dot,
    field_to_vec,
    gf_pow,
    span_basis,
    vec_to_field,
)
from hiddensums.vbf import (
    VBF,
    component_space,
    derivative_image,
    diff_uniformity,
    is_apn,
    is_coset,
)


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


def reference_is_apn(f: VBF) -> bool:
    """Differential uniformity 2, from the full difference table."""
    if f.m != f.n:
        raise ValueError("APN is defined for m = n")
    return diff_uniformity(f).delta == 2


def reference_is_coset(points, sum_op=None) -> bool:
    """Translate the smallest point to the identity; for XOR compare the
    size with the span, for other sums test closure pairwise."""
    pts = set(points)
    if not pts:
        raise ValueError("empty set has no coset structure")
    base = min(pts)
    if sum_op is None or getattr(sum_op, "is_xor", False):
        shifted = [p ^ base for p in pts]
        return len(pts) == 1 << len(reference_span_basis(shifted))
    shifted = {sum_op.op(p, base) for p in pts}
    return all(sum_op.op(u, v) in shifted for u in shifted for v in shifted)


def reference_span_basis(vectors) -> tuple[int, ...]:
    """Insertion into a list kept sorted by leading bit, then
    back-substitution to reduced form."""
    basis: list[int] = []  # kept sorted by leading bit, descending
    for v in vectors:
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # back-substitute to reduced form
    for i in range(len(basis)):
        for j in range(i):
            if basis[j] ^ basis[i] < basis[j]:
                basis[j] ^= basis[i]
    return tuple(basis)


def reference_from_power(d: int, fs: FieldSpec, basis: BinMatrix | None = None) -> VBF:
    """The power map x^d, each point by square-and-multiply."""
    if basis is None:
        basis = BinMatrix.identity(fs.m)
    table = [field_to_vec(gf_pow(vec_to_field(v, basis), d, fs), basis) for v in range(1 << fs.m)]
    return VBF(fs.m, fs.m, table)


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


# Counted by the difference-table reference: APN functions among the pinned
# corpus at m = 3..6, and APN power maps at m = 7 and 8 among the exponents
# tested below (at m = 8 only the four Gold exponents, none a permutation).
APN_IN_CORPUS = 41
APN_POWER_EXPONENTS = {7: 77, 8: 4}


def test_is_apn_matches_difference_table_on_all_3bit_permutations():
    apn = 0
    for perm in itertools.permutations(range(8)):
        f = VBF(3, 3, perm)
        assert is_apn(f) == reference_is_apn(f), perm
        apn += is_apn(f)
    # 8 translates x + c of each of the 1344 zero-fixing APN permutations
    assert apn == 10752


def test_is_apn_matches_difference_table_on_corpus():
    apn = 0
    for m in range(3, 7):
        for label, f in pinned_corpus(m):
            assert is_apn(f) == reference_is_apn(f), label
            apn += is_apn(f)
    assert apn == APN_IN_CORPUS


@pytest.mark.parametrize("m", [7, 8])
def test_is_apn_matches_difference_table_on_power_maps(m):
    """Every power permutation, plus the Gold exponents 2^k + 1 with
    gcd(k, m) = 1, which are APN but not permutations when m is even."""
    fs = field_spec(m)
    gold = [(1 << k) + 1 for k in range(1, m) if math.gcd(k, m) == 1]
    apn = set()
    for d in power_permutation_exponents(m) + gold:
        f = VBF.from_power(d, fs)
        assert is_apn(f) == reference_is_apn(f), d
        if is_apn(f):
            apn.add(d)
    assert apn >= set(gold)
    assert len(apn) == APN_POWER_EXPONENTS[m]


@pytest.mark.parametrize(
    "width, sum_op, cosets",
    [(3, None, 51), (4, None, 307), (3, toy_brick_sum(), 51)],
    ids=["xor3", "xor4", "brick-sum3"],
)
def test_is_coset_matches_reference_on_every_subset(width, sum_op, cosets):
    """Every non-empty subset; the coset count is the number of subgroups
    of each order 2^k times their 2^(width - k) cosets."""
    found = 0
    for mask in range(1, 1 << (1 << width)):
        points = [x for x in range(1 << width) if mask >> x & 1]
        assert is_coset(points, sum_op) == reference_is_coset(points, sum_op), points
        found += is_coset(points, sum_op)
    assert found == cosets


def span_lists(seed: int):
    """Seeded vector lists: random subsets of a width (spans that soon fill
    the width), vectors drawn from a random low-rank space (spans that never
    fill it), zeros and repeats, and vectors wider than the stated width."""
    rng = random.Random(seed)
    for _ in range(200):
        width = rng.randint(1, 10)
        kind = rng.randrange(4)
        if kind == 0:
            yield width, rng.sample(range(1 << width), rng.randint(0, min(40, 1 << width)))
        elif kind == 1:
            gens = [rng.randrange(1 << width) for _ in range(rng.randint(1, width))]
            yield width, [
                reduce(xor, (g for g in gens if rng.random() < 0.5), 0)
                for _ in range(rng.randint(0, 30))
            ]
        elif kind == 2:
            pool = [0, 1 << (width - 1), (1 << width) - 1]
            yield width, [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        else:
            yield width, [rng.randrange(1 << (width + 4)) for _ in range(rng.randint(0, 20))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_basis_matches_insertion_sort(seed):
    for width, vectors in span_lists(seed):
        expected = reference_span_basis(vectors)
        assert span_basis(vectors) == expected, (width, vectors)
        assert span_basis(iter(vectors)) == expected
        assert Subspace(vectors, width).basis == expected


def test_span_basis_of_out_of_width_vectors():
    """A span that fills bits 1..L is not taken for the whole space: a
    longer vector is still reduced and added."""
    vectors = [1, 2, 4, 3, 8, 1 << 9, 5, (1 << 9) | 1]
    assert span_basis(vectors) == reference_span_basis(vectors) == (1 << 9, 8, 4, 2, 1)
    assert Subspace([8, 1, 2], 3).orthogonal_complement() == Subspace([4], 3)


def seeded_invertible(width: int, seed: int) -> BinMatrix:
    rng = random.Random(seed)
    while True:
        matrix = BinMatrix([rng.randrange(1 << width) for _ in range(width)])
        if matrix.is_invertible():
            return matrix


FIELDS = [FieldSpec(1, 0b10), FieldSpec(1, 0b11), FieldSpec(2, 0b111)] + [
    field_spec(m) for m in sorted(FIELD_MODULI)
]


@pytest.mark.parametrize("fs", FIELDS, ids=lambda fs: f"{fs.modulus:#x}")
def test_power_map_matches_square_and_multiply(fs):
    bases = [None, seeded_invertible(fs.m, fs.modulus)]
    if fs.m == TOY_SBOX_BASIS.size:
        bases.append(TOY_SBOX_BASIS)
    for basis in bases:
        for d in range((1 << fs.m) + 2):
            assert VBF.from_power(d, fs, basis) == reference_from_power(d, fs, basis), d


@pytest.mark.parametrize("fs", FIELDS, ids=lambda fs: f"{fs.modulus:#x}")
def test_exp_log_tables(fs):
    exp, log = fs.exp_log()
    assert len(exp) == (1 << fs.m) - 1
    assert sorted(exp) == list(range(1, 1 << fs.m))
    g = exp[1 % len(exp)]
    assert all(gf_pow(g, i, fs) == y for i, y in enumerate(exp))
    assert all(exp[log[x]] == x for x in range(1, 1 << fs.m))
    assert fs.exp_log() is fs.exp_log()


def test_generator_search_does_not_assume_x_primitive():
    fs = FieldSpec(8, 0x11B)
    assert gf_pow(0b10, 51, fs) == 1
    exp, _ = fs.exp_log()
    assert exp[1] == 0b11


def test_table_limit_checked_before_exp_log():
    fs = FieldSpec(17, (1 << 17) | 0b1001)  # x^17 + x^3 + 1
    with pytest.raises(ValueError, match="table limit"):
        VBF.from_power(3, fs)
    assert fs._exp_log is None
