"""Oracles for the fast paths of the property sweeps.

The derivative image, taken as one bytes object for m, n <= 8 and over
one point of each pair {x, x + a} for wider functions, is compared with
the scan over all 2^m points (and its distinct values, taken by two
translates, with the sorted scan), the differential spectrum counted from the
derivative bytes and the extended-affine transform read off the maps'
tables with their former per-point loops, the null-space orthogonal
complement and the component space built on the derivative hull with the
scans over all 2^width vectors they replaced and with the span of the
sorted image's differences to its minimum, each function's per-direction
memo of image size and hull (and the coset verdict and component space
read from it) with the same four taken from a newly scanned image, the
verdicts that the memo decides from sizes before any hull is spanned
with those read off freshly spanned hulls, its
hull with the span of that image (the width's one shared whole-space hull
exactly when it has dimension n), the memoized complement with the scan, the
exp/log power maps with Horner tabulation of x^d and with square-and-
multiply at every point, Ben-Or's irreducibility test with trial division,
the APN test from image sizes with the full difference table, the coset
test that rejects sizes other than 2^k with the span and closure tests,
every question about a hidden sum asked of the map's conjugate in the
sum's coordinates with the per-point derivative under the sum and the
pairwise closure,
the pivot-table span kernel with the insertion-sort kernel, and the
rank and inverse, read off that span kernel, with the former Gauss-Jordan
elimination that searched for pivots with a generator.  The references are the
former library code, kept here unchanged.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from functools import reduce
from operator import xor

import pytest

import hiddensums
from hiddensums import vbf
from hiddensums.cipher import toy_brick, toy_brick_sum
from hiddensums.corpus import (
    FIELD_MODULI,
    field_spec,
    pinned_corpus,
    power_permutation_exponents,
)
from hiddensums.gf2 import (
    AffineSubspace,
    BinMatrix,
    FieldSpec,
    SingularMatrixError,
    Subspace,
    _orthogonal_complement,
    _poly_mod,
    dot,
    gf_mul,
    gf_pow,
    span_basis,
)
from hiddensums.vbf import (
    VBF,
    affine_hull,
    component_space,
    derivative_hull,
    derivative_image,
    derivative_is_coset,
    derivative_shape,
    DiffSpectrum,
    _derivative_values,
    _whole_hull,
    diff_uniformity,
    ea_transform,
    is_anti_crooked,
    is_apn,
    is_coset,
    is_coset_free,
    is_crooked,
    is_weakly_apn,
)
from hiddensums.hidden_sum import AffineMap, translation_compatible_sums
from hiddensums.reproduce import _ea_references, _random_affine_map


def reference_orthogonal_complement(s: Subspace) -> Subspace:
    """All v with dot(v, b) = 0 for every basis vector b."""
    perp = [v for v in range(1 << s.width) if all(dot(v, b) == 0 for b in s.basis)]
    return Subspace(perp, s.width)


def reference_component_space(f: VBF, a: int) -> Subspace:
    """The space of v for which x |-> dot(D_a f(x), v) is constant."""
    if a == 0:
        raise ValueError("direction must be nonzero")
    img = sorted(derivative_image(f, a))
    diffs = [w ^ img[0] for w in img[1:]]
    members = [
        v
        for v in range(1 << f.n)
        if all(dot(w, v) == 0 for w in diffs)
    ]
    return Subspace(members, f.n)


def reference_derivative_image(f: VBF, a: int) -> frozenset[int]:
    """Im of x |-> f(x + a) + f(x), every x in (F_2)^m visited."""
    if a == 0:
        raise ValueError("derivative direction must be nonzero")
    table = f.table
    return frozenset(table[x ^ a] ^ table[x] for x in range(1 << f.m))


def reference_diff_uniformity(f: VBF, keep_counts: bool = False) -> DiffSpectrum:
    """Exact differential uniformity over all nonzero a and all b."""
    delta = 0
    witness = (0, 0)
    all_counts: dict[int, dict[int, int]] = {}
    for a in range(1, 1 << f.m):
        counts: dict[int, int] = {}
        for x in range(1 << f.m):
            b = f.table[x ^ a] ^ f.table[x]
            counts[b] = counts.get(b, 0) + 1
        best_b = max(counts, key=lambda b: (counts[b], -b))
        if counts[best_b] > delta:
            delta = counts[best_b]
            witness = (a, best_b)
        if keep_counts:
            all_counts[a] = counts
    return DiffSpectrum(delta, witness, all_counts if keep_counts else None)


def reference_ea_transform(f: VBF, outer, inner, added) -> VBF:
    """g1(f(g2(x))) + g3(x) for affine g1 (invertible, on outputs), g2
    (invertible, on inputs) and arbitrary affine g3."""
    for g, what in ((outer, "outer"), (inner, "inner")):
        if not g.matrix.is_invertible():
            raise ValueError(f"{what} affine map must be invertible")
    table = [
        outer.apply(f.table[inner.apply(x)]) ^ added.apply(x)
        for x in range(1 << f.m)
    ]
    return VBF(f.m, f.n, table)


def reference_component_space_from_image(f: VBF, a: int) -> Subspace:
    """The complement of the span of the image's differences to its
    smallest point."""
    if a == 0:
        raise ValueError("direction must be nonzero")
    img = sorted(derivative_image(f, a))
    return Subspace((w ^ img[0] for w in img[1:]), f.n).orthogonal_complement()


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
    if sum_op is None:
        shifted = [p ^ base for p in pts]
        return len(pts) == 1 << len(reference_span_basis(shifted))
    shifted = {sum_op.op(p, base) for p in pts}
    return all(sum_op.op(u, v) in shifted for u in shifted for v in shifted)


def reference_sum_derivative_image(f: VBF, a: int, hs) -> frozenset[int]:
    """Im of x |-> f(x # a) # f(x) under the hidden sum, one point at a
    time (every element is its own negative)."""
    if f.m != f.n:
        raise ValueError("custom sums require m = n")
    op, table = hs.op, f.table
    return frozenset(op(table[op(x, a)], table[x]) for x in range(1 << f.m))


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


def reference_eliminate(m: BinMatrix) -> tuple[int, list[int]]:
    """Gauss-Jordan on [m | I]; returns (rank, reduced augmented rows)."""
    n = m.size
    aug = [m.rows[i] | (1 << (n + i)) for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if (aug[r] >> col) & 1), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for r in range(n):
            if r != rank and (aug[r] >> col) & 1:
                aug[r] ^= aug[rank]
        rank += 1
    return rank, aug


def reference_from_power(d: int, fs: FieldSpec) -> VBF:
    """The power map x^d, each point by square-and-multiply."""
    return VBF(fs.m, fs.m, [gf_pow(x, d, fs) for x in range(1 << fs.m)])


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
                expected = reference_component_space(f, a)
                assert component_space(f, a) == expected, (label, a)
                assert reference_component_space_from_image(f, a) == expected, (label, a)
                pairs += 1
    assert pairs == 9167


def test_derivative_image_matches_full_scan_on_corpus():
    pairs = 0
    for m in range(3, 7):
        for label, f in pinned_corpus(m):
            for a in range(1, 1 << m):
                assert derivative_image(f, a) == reference_derivative_image(f, a), (label, a)
                pairs += 1
    assert pairs == 9167


def test_derivative_image_matches_full_scan_on_all_3bit_permutations():
    for perm in itertools.permutations(range(8)):
        f = VBF(3, 3, perm)
        for a in range(1, 8):
            assert derivative_image(f, a) == reference_derivative_image(f, a), (perm, a)


@pytest.mark.parametrize(
    "m, n",
    [(1, 1), (1, 3), (2, 1), (2, 5), (3, 1), (4, 2), (5, 3), (6, 8), (7, 4),
     (8, 8), (8, 1), (1, 8), (9, 3), (3, 9)],
)
def test_derivative_image_matches_full_scan_off_square(m, n):
    """Seeded tables on both sides of the byte kernel's m, n <= 8 limit."""
    rng = random.Random(100 * m + n)
    for _ in range(20 if m < 8 else 3):
        f = VBF(m, n, [rng.randrange(1 << n) for _ in range(1 << m)])
        for a in range(1, 1 << m):
            assert derivative_image(f, a) == reference_derivative_image(f, a), (f.table, a)


def assert_spectra_equal(got: DiffSpectrum, expected: DiffSpectrum) -> None:
    assert got == expected
    if expected.counts is not None:
        assert list(got.counts) == list(expected.counts)
        for a, counts in expected.counts.items():
            assert type(got.counts[a]) is dict
            assert list(got.counts[a].items()) == list(counts.items()), a


def test_diff_uniformity_matches_pair_count_on_corpus():
    functions = 0
    for m in range(3, 7):
        for label, f in pinned_corpus(m):
            for keep in (False, True):
                assert_spectra_equal(diff_uniformity(f, keep), reference_diff_uniformity(f, keep))
            functions += 1
    assert functions == 281


def test_diff_uniformity_matches_pair_count_on_inversion_at_m8():
    f = VBF.from_power(254, field_spec(8))
    for keep in (False, True):
        spectrum = diff_uniformity(f, keep)
        assert_spectra_equal(spectrum, reference_diff_uniformity(f, keep))
    assert (spectrum.delta, spectrum.witness) == (4, (1, 1))


@pytest.mark.parametrize("m, n", [(3, 3), (4, 2), (2, 4), (8, 8), (8, 3), (9, 9), (3, 9), (9, 2)])
def test_diff_uniformity_matches_pair_count_on_seeded_tables(m, n):
    """Both sides of the byte limit; low output widths give ties among the
    top counts, so the smallest-b rule is exercised."""
    rng = random.Random(7 * m + n)
    for _ in range(6 if m < 8 else 1):
        f = VBF(m, n, [rng.randrange(1 << n) for _ in range(1 << m)])
        for keep in (False, True):
            assert_spectra_equal(diff_uniformity(f, keep), reference_diff_uniformity(f, keep))


def seeded_affine_map(width: int, rng: random.Random, invertible: bool) -> AffineMap:
    while True:
        matrix = BinMatrix([rng.randrange(1 << width) for _ in range(width)])
        if not invertible or matrix.is_invertible():
            return AffineMap(matrix, rng.randrange(1 << width))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_ea_transform_matches_per_point_maps(m):
    """Seeded transforms of the corpus maps, the inversion and seeded
    tables, and the transforms' spectra; the added map is often
    singular."""
    rng = random.Random(40 + m)
    functions = [f for _, f in pinned_corpus(m)] if 3 <= m <= 6 else []
    if m in FIELD_MODULI:
        functions.append(VBF.from_power((1 << m) - 2, field_spec(m)))
    functions.append(VBF(m, m, [rng.randrange(1 << m) for _ in range(1 << m)]))
    for f in functions:
        for _ in range(3):
            maps = (seeded_affine_map(m, rng, True), seeded_affine_map(m, rng, True),
                    seeded_affine_map(m, rng, rng.random() < 0.5))
            g = ea_transform(f, *maps)
            assert g == reference_ea_transform(f, *maps), (f.table, [h.encode() for h in maps])
            assert_spectra_equal(diff_uniformity(g, True), reference_diff_uniformity(g, True))


def test_ea_transform_matches_per_point_maps_off_square():
    rng = random.Random(5)
    for m, n in [(3, 2), (4, 1), (5, 3)]:
        f = VBF(m, n, [rng.randrange(1 << n) for _ in range(1 << m)])
        # the added map is m wide, so its outputs must fit in n bits
        zero_rows = BinMatrix([0] * m)
        low = BinMatrix([1 << i if i < n else 0 for i in range(m)])
        for _ in range(10):
            maps = (seeded_affine_map(n, rng, True), seeded_affine_map(m, rng, True),
                    AffineMap(rng.choice((zero_rows, low)), rng.randrange(1 << n)))
            assert ea_transform(f, *maps) == reference_ea_transform(f, *maps)


def fresh_shape(f: VBF, a: int) -> tuple[int, AffineSubspace, bool, Subspace]:
    """Size, hull, coset verdict and component space of Im D_a f, all from
    a newly scanned image."""
    image = reference_derivative_image(f, a)
    hull = affine_hull(image, f.n)
    return len(image), hull, is_coset(image), reference_orthogonal_complement(hull.space)


def memo_shape(f: VBF, a: int) -> tuple[int, AffineSubspace, bool, Subspace]:
    size, hull = derivative_shape(f, a)
    assert derivative_hull(f, a) is hull
    return size, hull, derivative_is_coset(f, a), component_space(f, a)


def assert_memo_holds_no_images(f: VBF) -> None:
    for a, shape in f._derivatives.items():
        size, hull = shape
        assert 0 < a < 1 << f.m
        assert type(size) is int and type(hull) is AffineSubspace, (f, a, shape)


def test_derivative_memo_matches_fresh_scan_on_corpus():
    pairs = 0
    for m in range(3, 7):
        for label, f in pinned_corpus(m):
            for a in range(1, 1 << m):
                assert memo_shape(f, a) == fresh_shape(f, a), (label, a)
                pairs += 1
            assert len(f._derivatives) == (1 << m) - 1
            assert_memo_holds_no_images(f)
    assert pairs == 9167


def test_derivative_memo_matches_fresh_scan_on_all_3bit_permutations():
    # the reference complement is a pure scan; 16 subspaces of width 3 occur
    complements: dict[Subspace, Subspace] = {}
    for perm in itertools.permutations(range(8)):
        f = VBF(3, 3, perm)
        for a in range(1, 8):
            image = reference_derivative_image(f, a)
            hull = affine_hull(image, 3)
            if hull.space not in complements:
                complements[hull.space] = reference_orthogonal_complement(hull.space)
            expected = (len(image), hull, is_coset(image), complements[hull.space])
            assert memo_shape(f, a) == expected, (perm, a)
        assert_memo_holds_no_images(f)


def assert_memo_matches_fresh_scan(f: VBF) -> None:
    for a in range(1, 1 << f.m):
        assert memo_shape(f, a) == fresh_shape(f, a), (f.table, a)
    assert len(f._derivatives) == (1 << f.m) - 1
    assert_memo_holds_no_images(f)


@pytest.mark.parametrize("m", [7, 8])
def test_derivative_memo_matches_fresh_scan_on_inversion(m):
    assert_memo_matches_fresh_scan(VBF.from_power((1 << m) - 2, field_spec(m)))


@pytest.mark.parametrize("m, n", [(4, 2), (5, 8), (7, 7), (8, 3), (8, 8), (9, 3), (3, 9), (9, 9)])
def test_derivative_memo_matches_fresh_scan_on_seeded_tables(m, n):
    """Off-square and full-width tables up to the byte limit, and past it
    on either side; low output widths make many images small cosets."""
    rng = random.Random(11 * m + n)
    for _ in range(4 if m < 7 else 1):
        assert_memo_matches_fresh_scan(VBF(m, n, [rng.randrange(1 << n) for _ in range(1 << m)]))


def assert_hulls_match_fresh_span(f: VBF) -> int:
    """On every direction: the memo's hull is c + the span of the scanned
    image translated by c = D_a f(0), built fresh; it is the width's one
    shared whole-space hull exactly when its dimension is n; its space and
    the component space keep each other; and a repeated call returns the
    same entry.  Returns how many hulls are the whole space."""
    whole = _whole_hull(f.n)
    shared = 0
    for a in range(1, 1 << f.m):
        c = f.table[a] ^ f.table[0]
        image = reference_derivative_image(f, a)
        size, hull = entry = derivative_shape(f, a)
        assert size == len(image), (f.table, a)
        assert hull == AffineSubspace(c, Subspace([v ^ c for v in image], f.n)), (f.table, a)
        assert (hull is whole) == (hull.dim == f.n), (f.table, a)
        shared += hull is whole
        perp = component_space(f, a)
        assert perp is hull.space.orthogonal_complement() and perp.dim == f.n - hull.dim
        assert perp.orthogonal_complement() == hull.space
        assert derivative_shape(f, a) is entry and f._derivatives[a] is entry
        assert entry[1] is hull and component_space(f, a) is perp
    assert whole == AffineSubspace(1, Subspace(range(1 << f.n), f.n))
    assert whole.base == 0 and _whole_hull(f.n) is whole
    return shared


def test_hulls_match_fresh_span_on_corpus():
    shared = total = 0
    for m in range(3, 7):
        for label, f in pinned_corpus(m):
            shared += assert_hulls_match_fresh_span(f)
            total += (1 << m) - 1
    # both kinds of hull occur: the shared whole space and proper cosets
    assert total == 9167 and 0 < shared < total


@pytest.mark.parametrize("m", [7, 8])
def test_hulls_match_fresh_span_on_inversion(m):
    assert_hulls_match_fresh_span(VBF.from_power((1 << m) - 2, field_spec(m)))


def test_hulls_match_fresh_span_on_a_wide_permutation():
    """Past the byte limit the values come from the half-pair scan."""
    rng = random.Random(2909)
    f = VBF(9, 9, rng.sample(range(1 << 9), 1 << 9))
    assert f._bytes is None
    assert_hulls_match_fresh_span(f)


def edge_tables():
    """(label, m, n, table) at the edges of the distinct-value step: a
    constant, tables that hit every n-bit value or all but 2^n - 1, ones
    whose derivative in direction 2^n hits every value or all but 2^n - 1,
    m = 1, and the off-square widths (8, 2) and (2, 8)."""
    rng = random.Random(2401)
    yield "constant", 4, 4, [5] * 16
    yield "constant", 8, 8, [0xA7] * 256
    for n in (1, 4, 8):
        top = (1 << n) - 1
        perm = rng.sample(range(top + 1), top + 1)
        yield "table hits all", n, n, perm
        yield "table misses only top", n, n, [y if y != top else top ^ 1 for y in perm]
        if n < 8:
            # f(x + 2^n) + f(x) = x, or 0 at x = 2^n - 1
            yield "derivative hits all", n + 1, n, perm + [y ^ x for x, y in enumerate(perm)]
            yield "derivative misses only top", n + 1, n, perm + [
                y ^ x if x != top else y for x, y in enumerate(perm)
            ]
        yield "m = 1", 1, n, [0, top]
        yield "m = 1", 1, n, [rng.randrange(top + 1) for _ in range(2)]
    for m, n in ((8, 2), (2, 8)):
        for _ in range(2):
            yield "off square", m, n, [rng.randrange(1 << n) for _ in range(1 << m)]


@pytest.mark.parametrize("label, m, n, table", list(edge_tables()))
def test_distinct_values_match_full_scan_on_edge_tables(label, m, n, table):
    """The two-translate distinct values are the scanned image in
    ascending order, and the memo and derivative_image built on them match
    a fresh scan, wherever the values absent from a derivative are none,
    one, or all but one."""
    f = VBF(m, n, table)
    images = {a: reference_derivative_image(f, a) for a in range(1, 1 << m)}
    for a, image in images.items():
        assert _derivative_values(f, a) == bytes(sorted(image)), (label, a)
        assert derivative_image(f, a) == image, (label, a)
        assert memo_shape(f, a) == fresh_shape(f, a), (label, a)
    assert len(f._derivatives) == (1 << m) - 1
    assert_memo_holds_no_images(f)
    every = frozenset(range(1 << n))
    if label == "constant":
        assert set(images.values()) == {frozenset({0})}
    elif label.startswith("table"):
        assert every - set(table) == (set() if label.endswith("all") else {(1 << n) - 1})
    elif label.startswith("derivative"):
        missed = every - images[1 << n]
        assert missed == (set() if label.endswith("all") else {(1 << n) - 1})


def criterion_9_transforms() -> list[VBF]:
    """Criterion 9's 200 EA transforms, rebuilt from its seeds."""
    transforms = []
    for m in range(3, 7):
        refs = _ea_references(m)
        rng = random.Random(1000 + m)
        for _ in range(25):
            maps = (_random_affine_map(m, rng), _random_affine_map(m, rng),
                    _random_affine_map(m, rng, invertible=False))
            transforms += [ea_transform(f, *maps) for f in refs]
    return transforms


SIZE_FIRST_CASES = {
    "corpus": lambda: [f for m in range(3, 7) for _, f in pinned_corpus(m)],
    "inversion": lambda: [VBF.from_power((1 << m) - 2, field_spec(m)) for m in range(3, 9)],
    "criterion 9": criterion_9_transforms,
}
# (functions, directions, coset directions, coset-free, permutations,
# crooked, APN, weakly APN), counted from fresh images and hulls
SIZE_FIRST_COUNTS = {
    "corpus": (281, 9167, 1689, 185, 281, 88, 41, 188),
    "inversion": (6, 498, 7, 5, 6, 1, 3, 6),
    "criterion 9": (200, 5800, 3075, 75, 11, 11, 75, 125),
}


@pytest.mark.parametrize("case", sorted(SIZE_FIRST_CASES))
def test_size_first_verdicts_match_fresh_hulls(case):
    """Each verdict, each taken on a new object with an empty memo, equals
    the one read from a freshly scanned image's size and hull, where a
    size that is not a power of two decides without the hull."""
    counts = [0] * 8
    for f in SIZE_FIRST_CASES[case]():
        def fresh():
            return VBF(f.m, f.n, f.table)
        directions = range(1, 1 << f.m)
        sizes, cosets = [], []
        for a in directions:
            image = reference_derivative_image(f, a)
            sizes.append(len(image))
            cosets.append(len(image) == len(affine_hull(image, f.n)))
        g = fresh()
        assert [derivative_is_coset(g, a) for a in directions] == cosets, f.table
        witness = next((a for a, coset in zip(directions, cosets) if coset), None)
        assert is_coset_free(fresh()) == (witness is None, witness), f.table
        apn = all(size == 1 << f.m >> 1 for size in sizes)
        weak = all(4 * size > 1 << f.m for size in sizes)
        assert (is_apn(fresh()), is_weakly_apn(fresh())) == (apn, weak), f.table
        if f.is_permutation:
            assert is_crooked(fresh()) == all(cosets), f.table
        for i, n in enumerate((1, len(directions), sum(cosets), witness is None,
                               f.is_permutation, f.is_permutation and all(cosets), apn, weak)):
            counts[i] += n
    assert tuple(counts) == SIZE_FIRST_COUNTS[case]


def test_size_first_path_spans_only_hulls_that_are_read(monkeypatch):
    """is_anti_crooked on the inversion at m = 8 decides all 255 sizes of
    127 without a span; the APN tests never span; a hull is spanned on its
    first read and not on later ones."""
    spans = []

    def counting_span_basis(vectors, width=None):
        spans.append(width)
        return span_basis(vectors, width)

    monkeypatch.setattr(vbf, "span_basis", counting_span_basis)
    f = VBF(8, 8, VBF.from_power(254, field_spec(8)).table)
    assert is_anti_crooked(f) and spans == []
    assert {f._derivatives[a][0] for a in range(1, 256)} == {127}
    apn = weak = 0
    for m in range(3, 7):
        for _, g in pinned_corpus(m):
            h = VBF(m, m, g.table)
            apn += is_apn(h)
            weak += is_weakly_apn(h)
    assert (apn, weak, spans) == (41, 188, [])
    hulls = [derivative_hull(f, a) for a in range(1, 256)]
    assert len(spans) == 255
    for a in range(1, 256):
        assert derivative_shape(f, a)[1] is hulls[a - 1]
        derivative_is_coset(f, a), component_space(f, a)
    assert len(spans) == 255
    assert_memo_holds_no_images(f)


def test_derivative_hull_memo_matches_fresh_computation():
    """Interleaved calls on functions that share directions, and on two
    equal tables held by different objects, each read their own entry."""
    fs = field_spec(4)
    f, g = VBF.from_power(3, fs), VBF.from_power(7, fs)
    twin = VBF(4, 4, f.table)
    off_square = VBF(4, 2, [x * 7 % 4 for x in range(16)])
    functions = (f, g, twin, off_square, VBF.identity(4))
    rng = random.Random(8)
    for _ in range(400):
        h, a = rng.choice(functions), rng.randrange(1, 16)
        assert memo_shape(h, a) == fresh_shape(h, a), (h.table, a)
        assert component_space(h, a) == reference_component_space(h, a), (h.table, a)
    for h in functions:
        assert_memo_holds_no_images(h)
        if h.m == h.n:
            assert is_apn(h) == reference_is_apn(h)
        with pytest.raises(ValueError):
            derivative_hull(h, 0)
        with pytest.raises(ValueError):
            derivative_shape(h, 16)
        assert 0 not in h._derivatives and 16 not in h._derivatives
    with pytest.raises(ValueError):
        component_space(f, 0)


def test_power_maps_are_shared_objects():
    fs = field_spec(5)
    f = VBF.from_power(7, fs)
    assert VBF.from_power(7, fs) is f
    assert VBF.from_power(7, FieldSpec(5, fs.modulus)) is f
    assert VBF.from_power(7, FieldSpec(5, 0b101001)) is not f


def test_corpus_brick_is_the_cipher_brick():
    """The width-3 corpus holds the cipher's own brick object, so the two
    share one derivative memo."""
    assert dict(pinned_corpus(3))["cipher brick"] is toy_brick()
    assert all(label != "cipher brick" for m in (4, 5, 6) for label, _ in pinned_corpus(m))


def test_battery_power_maps_are_the_corpus_entries():
    """In a fresh interpreter, as the battery runs, criterion 6's power maps
    are the corpus entries that criteria 7 and 8 sweep.  (In this process
    other tests may have pushed them out of from_power's bounded memo.)"""
    script = (
        "from hiddensums import corpus, reproduce, vbf\n"
        "list(reproduce.results([6]))\n"
        "for m in range(3, 7):\n"
        "    entries = dict(corpus.pinned_corpus(m))\n"
        "    for d in corpus.power_permutation_exponents(m):\n"
        "        f = entries[f'x^{d} over GF(2^{m})']\n"
        "        assert f is vbf.VBF.from_power(d, corpus.field_spec(m)), (m, d)\n"
        "        assert len(f._derivatives) == (1 << m) - 1, (m, d)\n"
    )
    src = os.path.dirname(os.path.dirname(hiddensums.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("width", range(9))
def test_complement_of_zero_and_whole_space_matches_scan(width):
    """The zero space and the whole space go through the general
    complement path, which gives the unit vectors and () as the shared
    tuples span_basis returns; both agree with the scan, both ways, and
    the whole-space hull of vbf round-trips through its complement."""
    zero = Subspace([], width)
    whole = Subspace(range(1 << width), width)
    assert whole.basis is span_basis(1 << i for i in range(width))
    for s, other in ((zero, whole), (whole, zero)):
        perp = _orthogonal_complement(s.basis, width)
        assert perp == reference_orthogonal_complement(s) == other
        assert perp.basis is other.basis and perp.width == width
        assert perp.orthogonal_complement() == s
    space = _whole_hull(width).space
    assert _whole_hull(width).base == 0 and space.basis is whole.basis
    assert space == whole == reference_orthogonal_complement(zero)
    back = space.orthogonal_complement()
    assert back == zero == reference_orthogonal_complement(space)
    assert back.orthogonal_complement() == space


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_complement_memo_per_basis_and_width(width):
    """Each (basis, width) is computed once and then shared by every
    subspace with that basis, spanned or built from its echelon basis; a
    subspace keeps its complement, which keeps a subspace equal to it in
    turn; the same basis in a wider space has its own complement."""
    for s in all_subspaces(width):
        perp = s.orthogonal_complement()
        assert s.orthogonal_complement() is perp and s._perp is perp
        assert Subspace(s.basis, width).orthogonal_complement() is perp
        assert Subspace._from_echelon(s.basis, width).orthogonal_complement() is perp
        assert perp == reference_orthogonal_complement(s)
        back = perp.orthogonal_complement()
        assert back == s and back.orthogonal_complement() is perp
        assert perp.orthogonal_complement() is back
        wider = Subspace(s.basis, width + 1).orthogonal_complement()
        assert wider.width == width + 1 and wider.dim == perp.dim + 1
        assert wider == reference_orthogonal_complement(Subspace(s.basis, width + 1))
    # the whole space, spanned or as the shared complement of {0}
    whole = _orthogonal_complement((), width)
    assert Subspace([], width).orthogonal_complement() is whole
    assert Subspace._from_echelon((), width).orthogonal_complement() is whole
    assert whole == Subspace(range(1 << width), width) and whole.dim == width
    zero = whole.orthogonal_complement()
    assert whole.orthogonal_complement() is zero and zero.dim == 0
    assert Subspace(range(1 << width), width).orthogonal_complement() == zero
    assert zero.orthogonal_complement() == whole
    assert zero.orthogonal_complement().orthogonal_complement() is zero


@pytest.mark.parametrize("m", sorted(FIELD_MODULI))
def test_power_map_matches_horner(m):
    """x^d by Horner's rule on the monomial, which is d products by x, at
    every point and for every exponent up to 2^m + 1; each exponent reuses
    the table of x^(d-1), so it costs one bitwise field product per point.
    Independent of the exp/log tables that from_power reads."""
    fs = field_spec(m)
    powers = [1] * (1 << m)  # x^0 = 1, also at x = 0
    for d in range((1 << m) + 2):
        assert VBF.from_power(d, fs).table == tuple(powers), d
        powers = [gf_mul(p, x, fs) for x, p in enumerate(powers)]


@pytest.mark.parametrize("m", sorted(FIELD_MODULI))
def test_univariate_matches_sum_of_monomials_at_high_degree(m):
    """Seeded dense polynomials of degree 2^m + 1, whose terms past x^(2^m - 1)
    wrap around, against the sum of c_i * x^i at every point, the powers
    taken by repeated products; and the top monomials against from_power."""
    fs = field_spec(m)
    rng = random.Random(m)
    degree = (1 << m) + 1
    for _ in range(2):
        coeffs = [rng.randrange(1 << m) for _ in range(degree)] + [rng.randrange(1, 1 << m)]
        expected = []
        for x in range(1 << m):
            acc, power = 0, 1
            for c in coeffs:
                acc ^= gf_mul(c, power, fs)
                power = gf_mul(power, x, fs)
            expected.append(acc)
        assert VBF.from_univariate(coeffs, fs).table == tuple(expected)
    for d in range(degree - 3, degree + 1):
        assert VBF.from_univariate([0] * d + [1], fs) == VBF.from_power(d, fs), d


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
    of each order 2^k times their 2^(width - k) cosets.  A set is a coset
    of a hidden sum exactly when its coordinates are an XOR coset."""
    coords = sum_op.coords if sum_op else int
    found = 0
    for mask in range(1, 1 << (1 << width)):
        points = [x for x in range(1 << width) if mask >> x & 1]
        verdict = is_coset(map(coords, points))
        assert verdict == reference_is_coset(points, sum_op), points
        found += verdict
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
        if max(vectors, default=0) >> width:
            with pytest.raises(ValueError, match=f"more than the {width}-bit space"):
                Subspace(vectors, width)
        else:
            assert Subspace(vectors, width).basis == expected
            # a width that every vector fits changes only where reading stops
            assert span_basis(vectors, width) == span_basis(iter(vectors), width) == expected


def unread_after(vectors):
    """The vectors, then a failure if the span asks for one more."""
    yield from vectors
    raise AssertionError("span_basis read past a span that fills its width")


@pytest.mark.parametrize("length", range(1, 9))
def test_full_spans_share_one_tuple(length):
    """Every span that fills bits 1..L is one tuple per L, with or without
    a width; given the width L, it returns as soon as the span fills it."""
    units = [1 << i for i in range(length)]
    full = span_basis(units)
    assert full == reference_span_basis(units) == tuple(reversed(units))
    assert span_basis([(1 << length) - 1, *reversed(units), 1]) is full
    assert span_basis(unread_after(units[::-1]), length) is full
    assert span_basis(unread_after([v | 1 for v in units]), length) is full
    assert Subspace(units, length).basis is full


def test_span_basis_of_out_of_width_vectors():
    """A span that fills bits 1..L is not taken for the whole space: a
    longer vector is still reduced and added.  A Subspace refuses it."""
    vectors = [1, 2, 4, 3, 8, 1 << 9, 5, (1 << 9) | 1]
    assert span_basis(vectors) == reference_span_basis(vectors) == (1 << 9, 8, 4, 2, 1)
    with pytest.raises(ValueError, match="more than the 3-bit space"):
        Subspace([8, 1, 2], 3)
    # a span that fills the width is not where Subspace stops reading
    with pytest.raises(ValueError, match="more than the 3-bit space"):
        Subspace([1, 2, 4, 8], 3)


def test_complement_of_an_out_of_width_span_is_not_pointed_back():
    """No span of vectors wider than its width is built, so every
    complement points back to the subspace that first asked for it."""
    for vectors in ([8, 1, 2], [1, 2, 8], [1 << 40]):
        with pytest.raises(ValueError, match="more than the 3-bit space"):
            Subspace(vectors, 3)
    s = Subspace([4, 1, 2], 3)
    perp = s.orthogonal_complement()
    assert perp == Subspace([], 3)
    assert perp.orthogonal_complement() == s


def assert_elimination_matches_reference(rows) -> int:
    """Rank, and the inverse or the singular rank, each read from a new
    matrix so that nothing is cached, against the reference's reduced
    rows; returns the rank."""
    n = len(rows)
    rank, aug = reference_eliminate(BinMatrix(rows))
    assert BinMatrix(rows).rank() == rank
    if rank == n:
        inverse = BinMatrix(rows).inverse()
        assert inverse.rows == tuple((a >> n) & ((1 << n) - 1) for a in aug), rows
    else:
        with pytest.raises(SingularMatrixError) as exc:
            BinMatrix(rows).inverse()
        assert (exc.value.rank, exc.value.size) == (rank, n)
    return rank


@pytest.mark.parametrize("n", [3, 4])
def test_elimination_matches_reference_on_every_matrix(n):
    ranks = [0] * (n + 1)
    for rows in itertools.product(range(1 << n), repeat=n):
        ranks[assert_elimination_matches_reference(rows)] += 1
    # the number of n x n matrices of each rank over F_2, n = 3 and 4
    assert ranks == {3: [1, 49, 294, 168], 4: [1, 225, 7350, 37800, 20160]}[n]


@pytest.mark.parametrize("n", [8, 12, 16])
def test_elimination_matches_reference_on_random_matrices(n):
    """Seeded matrices up to 16 x 16, the widest state a cipher allows."""
    rng = random.Random(n)
    singular = 0
    for _ in range(400):
        rows = [rng.randrange(1 << n) for _ in range(n)]
        if rng.random() < 0.25:
            rows[rng.randrange(n)] = rows[rng.randrange(n)] ^ rows[rng.randrange(n)]
        singular += assert_elimination_matches_reference(rows) < n
    assert 50 < singular < 350


def test_elimination_of_the_empty_matrix():
    assert assert_elimination_matches_reference([]) == 0
    empty = BinMatrix([])
    assert empty.is_invertible() and empty.inverse() == empty and empty.inverse().rows == ()


FIELDS = [FieldSpec(1, 0b10), FieldSpec(1, 0b11), FieldSpec(2, 0b111)] + [
    field_spec(m) for m in sorted(FIELD_MODULI)
]


@pytest.mark.parametrize("fs", FIELDS, ids=lambda fs: f"{fs.modulus:#x}")
def test_power_map_matches_square_and_multiply(fs):
    for d in range((1 << fs.m) + 2):
        assert VBF.from_power(d, fs) == reference_from_power(d, fs), d


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


def assert_conjugate_matches_sum_paths(f: VBF, hs) -> tuple[int, bool]:
    """Ask every question about f under the sum of its conjugate G: Im D_a f
    under the sum is element(Im D_{C(a)} G), its coset verdict is G's, and
    so are the coset-free, crooked and anti-crooked values.  G's coset
    witness is the first coordinate direction, read back through element.
    Returns the number of coset directions and whether f is crooked."""
    g = VBF(f.m, f.n, hs.conjugate(f.table))
    assert g.is_permutation == f.is_permutation
    cosets = []
    for c in range(1, 1 << f.m):
        image = reference_sum_derivative_image(f, hs.element(c), hs)
        assert {hs.element(v) for v in derivative_image(g, c)} == image, c
        verdict = reference_is_coset(image, hs)
        assert derivative_is_coset(g, c) == is_coset(derivative_image(g, c)) == verdict, c
        cosets.append(verdict)
    first = next((hs.element(c) for c, v in enumerate(cosets, 1) if v), None)
    free = is_coset_free(g)
    witness = None if free.witness is None else hs.element(free.witness)
    assert (free.value, witness) == (first is None, first)
    if not f.is_permutation:
        return sum(cosets), False
    assert is_anti_crooked(g) == free
    assert is_crooked(g) == all(cosets)
    return sum(cosets), all(cosets)


def conjugate_cases(width: int, count: int, seed: int) -> list[VBF]:
    """Seeded permutations of the width and one seeded table that is not
    a permutation."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        table = list(range(1 << width))
        rng.shuffle(table)
        cases.append(VBF(width, width, table))
    table = [rng.randrange(1 << width) for _ in range(1 << width)]
    table[1] = table[0]
    return cases + [VBF(width, width, table)]


def test_conjugate_matches_sum_paths_on_width_3_sums():
    """All 8 width-3 sums against the brick, the patched inversion x^6, the
    identity and seeded tables, at every direction."""
    fs = FieldSpec(3, 0b1011)
    named = [VBF.from_univariate((0, 2, 2, 7, 4, 2, 7), fs), VBF.from_power(6, fs), VBF.identity(3)]
    cases = named + conjugate_cases(3, 20, 25)
    sums = translation_compatible_sums(3)
    assert len(sums) == 8
    outcomes = [assert_conjugate_matches_sum_paths(f, hs) for hs in sums for f in cases]
    cosets = [n for n, _ in outcomes]
    # both verdicts are reached: coset-free pairs, and crooked ones (the
    # brick under its own sum and the identity under every sum)
    assert 0 in cosets and sum(crooked for _, crooked in outcomes) >= 9
    assert assert_conjugate_matches_sum_paths(named[0], toy_brick_sum()) == (7, True)


def test_conjugate_matches_sum_paths_on_width_4_sums():
    """Seeded 4-bit permutations (and one table that is not one) on each of
    the 106 width-4 sums, at every direction."""
    sums = translation_compatible_sums(4)
    assert len(sums) == 106
    outcomes = [
        assert_conjugate_matches_sum_paths(f, hs)
        for i, hs in enumerate(sums)
        for f in conjugate_cases(4, 2, 400 + i)
    ]
    assert {n for n, _ in outcomes} >= {0, 1, 2}
