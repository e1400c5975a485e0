"""Oracles for the fast hidden-sum paths.

The orbit enumerator is compared with the structure-constant
backtracking it replaced and with the generator-chain search before
that, its products with the bit sums of a plain backtracking, the sum
builder's involution test with composition, the brickwise product tables
with the product built from the embedded affine maps, the coordinate
affinity test with the pair scan, the doubling coordinate tables with
the bit loop, the sum built from generators alone with the group's own
elements, equality and order by structure constants with those of the op
tables, the lemma that every sum below width 7 keeps all XOR
translations with the triple-product filter and membership of the
translations, the report's verdicts and the sum built from bare
generators with the closure of the group they generate, the search
without its translation checks (and with its brick pruning) with the
unpruned search that ran them, the brick test's list scan, for one
table and for several, with the lemma read off the tables point by point,
the brick survivors found by testing each product in a basis of its own
with those of the canonical sums tested one by one, the per-point spot
check with the doubling table, membership through the conjugate with
the compare of the map's own points against that table, and the search
with its annihilator pre-test with the search without it, whose
soundness rests on every annihilator direction of a sum passing the
pre-test's unit-pair test for the sum's affine maps.  The references
are the former library code, kept here as unchanged as the current API
allows.
"""

import itertools
import random
import time
from array import array
from functools import lru_cache

import pytest

from hiddensums import hidden_sum
from hiddensums.cipher import (
    TOY_GROUP_SPEC,
    builtin_toy_spec,
    inverse_brick_spec,
    toy_brick_sum,
    toy_coordinate_basis,
    toy_state_sum,
)
from hiddensums.gf2 import BinMatrix
from hiddensums.hidden_sum import (
    MAX_BRICK_WIDTH,
    AffineMap,
    BasisError,
    CoordinateMap,
    HiddenSum,
    NotElementaryAbelianError,
    NotRegularError,
    _brick_survivors,
    _direction_passes,
    _unit_pair_preimages,
    agl_membership,
    check_kappa_homomorphism,
    check_ring_axioms,
    compute_U,
    enumerate_regular_groups,
    find_hidden_sums,
    hidden_sum_report,
    kappa,
    parse_group_spec,
    product_sum,
    ring_product,
    translation_compatible_sums,
    xor_translation_table,
)
from hiddensums.gf2 import vec_to_str
from hiddensums.vbf import VBF


class NotAbelianError(ValueError):
    pass


class ClosureOverflowError(ValueError):
    pass


class RegularGroup:
    """An abelian group of affine maps acting regularly on (F_2)^width.

    elements[v] is the unique group element sending 0 to v.  The plain
    constructor trusts its input; RegularGroup.build closes a generator
    set and verifies everything.
    """

    __slots__ = ("width", "generators", "elements")

    def __init__(self, width, generators, elements):
        if len(elements) != 1 << width:
            raise NotRegularError(
                f"need {1 << width} elements, got {len(elements)}"
            )
        self.width = width
        self.generators = tuple(generators)
        self.elements = tuple(elements)

    @classmethod
    def build(cls, generators):
        """Close the generators under composition and verify the result is
        abelian and regular."""
        if not generators:
            raise ValueError("need at least one generator")
        width = generators[0].width
        if any(g.width != width for g in generators):
            raise ValueError("generators have mixed widths")
        for g, h in itertools.combinations(generators, 2):
            if g.then(h) != h.then(g):
                raise NotAbelianError((g, h))
        cap = 1 << width
        seen = {AffineMap.identity(width)}
        frontier = list(seen)
        while frontier:
            fresh = []
            for g in frontier:
                for gen in generators:
                    h = g.then(gen)
                    if h not in seen:
                        seen.add(h)
                        if len(seen) > cap:
                            raise ClosureOverflowError(
                                f"closure exceeds {cap} elements; "
                                "generators cannot lie in a regular group"
                            )
                        fresh.append(h)
            frontier = fresh
        by_image = {}
        for g in seen:
            v = g.translation  # g(0)
            if v in by_image:
                raise NotRegularError(
                    f"two elements send 0 to {v}; the action is not free"
                )
            by_image[v] = g
        if len(by_image) != cap:
            raise NotRegularError(
                f"orbit of 0 has {len(by_image)} points, expected {cap}"
            )
        return cls(width, generators, [by_image[v] for v in range(cap)])

    def encode(self):
        return tuple(e.encode() for e in self.elements)

    def __eq__(self, other):
        return isinstance(other, RegularGroup) and self.encode() == other.encode()

    def __hash__(self):
        return hash(self.encode())


def reference_hidden_sum(group):
    """The sum of a closed group, from its generators."""
    # commuting involutions generate an elementary abelian group;
    # keep each generator whose translation is not yet reached
    by_coeff, basis = [0], []
    for g in group.generators:
        if not reference_is_involution(g):
            raise NotElementaryAbelianError(
                f"generator moving 0 to {g.translation} is not an involution"
            )
        if g.translation not in by_coeff:
            basis.append(g.translation)
            by_coeff += [g.apply(x) for x in by_coeff]
    if len(basis) != group.width:
        raise NotRegularError("generators do not generate the group")
    return HiddenSum.__new__(HiddenSum)._adopt(by_coeff, basis)


def reference_hidden_sum_report(generators):
    """Build and fully verify a hidden sum, reporting each check; the
    group is closed first.  Also returns the sum, or None.  A generator
    that is not a permutation of the space is refused with ValueError."""
    for g in generators:
        if len({g.apply(x) for x in range(1 << g.width)}) != 1 << g.width:
            raise ValueError("generator is not a permutation")
    report = {
        "abelian": True,
        "regular": True,
        "elementary_abelian": True,
        "kappa_homomorphism": None,
        "U_basis": None,
        "ring_axioms": None,
        "nilpotency_index": None,
    }
    try:
        group = RegularGroup.build(generators)
    except NotAbelianError:
        report["abelian"] = False
        report["regular"] = None
        report["elementary_abelian"] = None
        return report, None
    except (NotRegularError, ClosureOverflowError):
        report["regular"] = False
        report["elementary_abelian"] = None
        return report, None
    try:
        hs = reference_hidden_sum(group)
    except NotElementaryAbelianError:
        report["elementary_abelian"] = False
        return report, None
    report["kappa_homomorphism"] = bool(check_kappa_homomorphism(hs))
    u = compute_U(hs)
    report["U_basis"] = [vec_to_str(b, hs.width) for b in u.basis]
    ring = check_ring_axioms(hs)
    report["ring_axioms"] = ring.ok
    report["nilpotency_index"] = ring.nilpotency_index
    return report, hs


@lru_cache(maxsize=None)
def reference_enumerate_regular_groups(width: int) -> tuple[RegularGroup, ...]:
    """All regular groups of affine involutions on (F_2)^width.

    Every non-identity element of such a group is an affine involution
    whose translation part is a nonzero fixed vector of its (unipotent)
    matrix part, so growing commuting independent sets from that pool is
    exhaustive.  Duplicate discovery is pruned by requiring each new
    generator to be the pool-minimal element of the coset it adds, with
    surviving repeats removed by element-table equality.  Returned in a
    canonical order; width 4 takes a few seconds and is cached.
    """
    if width > MAX_BRICK_WIDTH:
        raise ValueError(
            f"regular-group enumeration is exhaustive only up to width {MAX_BRICK_WIDTH}"
        )
    n = 1 << width
    ident = BinMatrix.identity(width)
    pool_maps = []
    for rows in itertools.product(range(n), repeat=width):
        m = BinMatrix(rows)
        if m @ m == ident:
            pool_maps += [AffineMap(m, t) for t in range(1, n) if m.apply(t) == t]
    pool_maps.sort(key=AffineMap.encode)
    pool = [tuple(g.apply(x) for x in range(n)) for g in pool_maps]
    index_of = {table: i for i, table in enumerate(pool)}
    units = [0] + [1 << i for i in range(width)]
    all_mask = (1 << len(pool)) - 1

    commute_cache: dict[int, int] = {}

    def commute_row(i: int) -> int:
        # affine maps agree iff they agree at 0 and the unit vectors
        row = commute_cache.get(i)
        if row is None:
            gi = pool[i]
            row = 0
            for j, gj in enumerate(pool):
                if all(gi[gj[p]] == gj[gi[p]] for p in units):
                    row |= 1 << j
            commute_cache[i] = row
        return row

    found: dict[tuple, RegularGroup] = {}

    def record(chosen: list[int], elements: dict[int, tuple[int, ...]]) -> None:
        by_image = {}
        for table in elements.values():
            t = table[0]
            rows = [table[1 << i] ^ t for i in range(width)]
            by_image[t] = AffineMap(BinMatrix(rows), t)
        group = RegularGroup(
            width, [pool_maps[i] for i in chosen], [by_image[v] for v in range(n)]
        )
        found.setdefault(group.encode(), group)

    def grow(chosen: list[int], elements: dict[int, tuple[int, ...]], candidates: int):
        if len(chosen) == width:
            record(chosen, elements)
            return
        mask = candidates
        while mask:
            idx = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            g = pool[idx]
            if g[0] in elements:
                continue
            coset = {}
            minimal = True
            for img, e in elements.items():
                h = tuple(g[e[x]] for x in range(n))
                if h[0] in elements or h[0] in coset:
                    coset = None
                    break
                # visit each group through one generator chain only: the
                # new generator must be the pool-minimal coset member
                if index_of[h] < idx:
                    minimal = False
                    break
                coset[h[0]] = h
            if coset is None or not minimal:
                continue
            grow(
                chosen + [idx],
                {**elements, **coset},
                candidates & commute_row(idx) & ~((2 << idx) - 1),
            )

    grow([], {0: tuple(range(n))}, all_mask)
    return tuple(found[k] for k in sorted(found))


def reference_structure_constants(width: int):
    """Yield each commutative, associative product on (F_2)^width with
    x*x = 0 as its table: entry [y][i] is e_i*y.

    Backtracking over the structure constants e_i*e_j, i < j, pruned as
    soon as a basis triple breaks associativity; each term u*e_k is
    summed over the bits of u.
    """
    n = 1 << width
    pairs = list(itertools.combinations(range(width), 2))
    triples = list(itertools.combinations_with_replacement(range(width), 3))
    # assigning e_i*e_j changes only the triples that contain i or j
    touched = [[t for t in triples if i in t or j in t] for i, j in pairs]
    mul = [[0 if i == j else None for j in range(width)] for i in range(width)]

    def times(v: int, k: int) -> int | None:
        out = 0
        while v:
            m = mul[(v & -v).bit_length() - 1][k]
            if m is None:
                return None
            out ^= m
            v &= v - 1
        return out

    def associative(s: int) -> bool:
        # (ab)c, (bc)a and (ac)b must agree wherever they are determined
        for a, b, c in touched[s]:
            seen = None
            for u, k in ((mul[a][b], c), (mul[b][c], a), (mul[a][c], b)):
                t = None if u is None else times(u, k)
                if t is None:
                    continue
                if seen is None:
                    seen = t
                elif t != seen:
                    return False
        return True

    def complete(s: int):
        """Yield each time mul holds a complete product, from pair s on."""
        if s == len(pairs):
            yield
            return
        i, j = pairs[s]
        for v in range(n):
            mul[i][j] = mul[j][i] = v
            if associative(s):
                yield from complete(s + 1)
        mul[i][j] = mul[j][i] = None

    for _ in complete(0):
        yield tuple(tuple(times(y, i) for i in range(width)) for y in range(n))


@lru_cache(maxsize=None)
def reference_backtracking_groups(width: int) -> tuple[tuple[AffineMap, ...], ...]:
    """The regular groups as the former enumerate_regular_groups found them,
    in its canonical order.

    The products are found by backtracking over the structure constants
    e_i*e_j, i < j, pruned as soon as a basis triple breaks associativity.
    Column tables hold u*e_k for every u, kept current one XOR per entry
    as constants are set, so a triple's terms (e_a*e_b)*e_c are single
    lookups.  Before any entry is filled, a value v for e_i*e_j is dropped
    if the tables already decide that v*e_i or v*e_j is not 0, as the
    triples (i, i, j) and (i, j, j) demand; of the rest, the triples that
    contain both i and j, which reject most candidates, are tested first.
    Each group is returned as its generators, chosen greedily, each the
    smallest element (by matrix rows, then translation) not yet generated.
    """
    n = 1 << width
    mul = [[0 if i == j else None for j in range(width)] for i in range(width)]
    # col[k][u] = u*e_k, or None while some e_l*e_k with bit l in u is unset
    col = [[0 if u in (0, 1 << k) else None for u in range(n)] for k in range(width)]

    def checks(i: int, j: int) -> list[list[tuple]]:
        """The basis triples a <= b <= c that setting e_i*e_j can break,
        those holding both i and j first.  Each is kept as its distinct
        terms (e_x*e_y)*e_z, read as col[z][mul[x][y]]; a triple with one
        distinct term cannot fail and is left out."""
        both, either = [], []
        for a, b, c in itertools.combinations_with_replacement(range(width), 3):
            if i in (a, b, c) or j in (a, b, c):
                terms = sorted({(a, b, c), (b, c, a), (a, c, b)})
                if len(terms) > 1:
                    refs = [(mul[x], y, col[z]) for x, y, z in terms]
                    (both if i in (a, b, c) and j in (a, b, c) else either).append(refs)
        return both + either

    steps = [(i, j, checks(i, j)) for i, j in itertools.combinations(range(width), 2)]

    def fillable(column: list, bit: int) -> list[tuple[int, int]]:
        """(u, entry of u + bit) for each u holding the bit whose entry
        without it is known: setting the constant fills exactly these."""
        return [(u, w) for u in range(n) if u & bit and (w := column[u ^ bit]) is not None]

    def associative(triples) -> bool:
        # all determined terms of each triple must agree
        for terms in triples:
            seen = None
            for row, b, column in terms:
                u = row[b]
                if u is not None:
                    t = column[u]
                    if t is not None:
                        if seen is None:
                            seen = t
                        elif t != seen:
                            return False
        return True

    def complete(s: int):
        """Yield each time mul holds a complete product, from pair s on."""
        if s == len(steps):
            yield
            return
        i, j, triples = steps[s]
        row_i, row_j, col_i, col_j = mul[i], mul[j], col[i], col[j]
        bit_i, bit_j = 1 << i, 1 << j
        # u*e_j for u holding bit i is (u + e_i)*e_j + v, and the same with
        # i and j swapped; the entries without that bit do not change here
        fill_j, fill_i = fillable(col_j, bit_i), fillable(col_i, bit_j)
        # v*e_i = v*e_j = 0, the triples (i, i, j) and (i, j, j): v*e_i is
        # (v + e_j)*e_i + v once set if v holds bit j, and col_i[v] if not
        candidates = [
            v
            for v in range(n)
            if (col_i[v ^ bit_j] in (None, v) if v & bit_j else col_i[v] in (None, 0))
            and (col_j[v ^ bit_i] in (None, v) if v & bit_i else col_j[v] in (None, 0))
        ]
        for v in candidates:
            row_i[j] = row_j[i] = v
            for u, w in fill_j:
                col_j[u] = w ^ v
            for u, w in fill_i:
                col_i[u] = w ^ v
            if associative(triples):
                yield from complete(s + 1)
        row_i[j] = row_j[i] = None
        for u, _ in fill_j:
            col_j[u] = None
        for u, _ in fill_i:
            col_i[u] = None

    groups = []
    for _ in complete(0):
        # row i of the element sending 0 to y is e_i + e_i*y
        rows = [tuple((1 << i) ^ col[i][y] for i in range(width)) for y in range(n)]
        span, generators = {0}, []
        for y in sorted(range(n), key=rows.__getitem__):
            if y not in span:
                g = AffineMap(BinMatrix(rows[y]), y)
                generators.append(g)
                span |= {g.apply(x) for x in span}
        groups.append((rows, tuple(generators)))
    groups.sort(key=lambda group: group[0])
    return tuple(generators for _, generators in groups)


def reference_is_involution(g: AffineMap) -> bool:
    return g.then(g) == AffineMap.identity(g.width)


def reference_product_group(parts):
    """Brick-parallel group acting on the concatenation of the parts.

    The parts' elements and generators are read through kappa and
    generators(), since a sum no longer keeps its group."""
    widths = [p.width for p in parts]
    total = sum(widths)
    offsets = [sum(widths[:i]) for i in range(len(parts))]

    def embed(maps):
        rows = []
        translation = 0
        for part_map, off, w in zip(maps, offsets, widths):
            rows += [r << off for r in part_map.matrix.rows]
            translation |= part_map.translation << off
        return AffineMap(BinMatrix(rows), translation)

    elements = []
    for v in range(1 << total):
        parts_of_v = [
            (v >> off) & ((1 << w) - 1) for off, w in zip(offsets, widths)
        ]
        elements.append(
            embed([AffineMap(kappa(p, vi), vi) for p, vi in zip(parts, parts_of_v)])
        )
    generators = []
    for i, p in enumerate(parts):
        for g in p.generators():
            pieces = [
                g if j == i else AffineMap.identity(widths[j])
                for j in range(len(parts))
            ]
            generators.append(embed(pieces))
    return RegularGroup(total, generators, elements)


def xor_group(width):
    """The XOR translations, whose induced sum is XOR itself."""
    return RegularGroup.build([AffineMap(BinMatrix.identity(width), 1 << i) for i in range(width)])


def group_of(generators):
    """The closed group of an enumerated generator tuple."""
    return RegularGroup.build(list(generators))


def op_rows(hs):
    """Row y holds x # y for every x, read through hs.op."""
    n = 1 << hs.width
    return [[hs.op(x, y) for x in range(n)] for y in range(n)]


def reference_agl_membership(g_table, sigma) -> bool:
    """Whether the permutation is affine for the hidden sum whose op rows
    (op_rows) are given.

    g is affine iff x |-> g(x) # (-g(0)) is additive for the sum; this is
    verified over all 2^(2d) pairs.  (-g(0) is g(0): the former negation
    table held the identity map for every sum.)
    """
    n = len(sigma)
    if len(g_table) != n or len(set(g_table)) != n:
        raise ValueError("membership test requires a bijective table on the space")
    shift = sigma[g_table[0]]
    h = [shift[y] for y in g_table]
    for x in range(n):
        hx = h[x]
        row = sigma[hx]
        sx = sigma[x]
        for y in range(n):
            if h[sx[y]] != row[h[y]]:
                return False
    return True


def reference_coordinate_table(hs, basis):
    """The element with each coefficient vector, by the former bit loop;
    BasisError if the vectors do not generate the sum freely."""
    n = 1 << hs.width
    by_coeff = []
    for c in range(n):
        x = 0
        for i in range(hs.width):
            if (c >> i) & 1:
                x = hs.op(x, basis[i])
        by_coeff.append(x)
    if len(set(by_coeff)) != n:
        raise BasisError("vectors do not freely generate the hidden sum")
    return by_coeff


def sums(width):
    return [HiddenSum(g) for g in enumerate_regular_groups(width)]


@pytest.mark.parametrize("width, count", [(1, 1), (2, 1), (3, 8), (4, 106)])
def test_enumeration_matches_generator_chains(width, count):
    fast = enumerate_regular_groups(width)
    slow = reference_enumerate_regular_groups(width)
    assert len(fast) == len(slow) == count
    for f, s in zip(fast, slow):
        assert group_of(f).encode() == s.encode()
        assert [g.encode() for g in f] == [g.encode() for g in s.generators]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_orbits_match_backtracking(width):
    """The groups built from the orbits are the backtracking's, generator
    for generator and in the same order."""
    orbits = enumerate_regular_groups(width)
    backtracking = reference_backtracking_groups(width)
    assert [[g.encode() for g in gens] for gens in orbits] == [
        [g.encode() for g in gens] for gens in backtracking
    ]


@pytest.mark.parametrize("width, count", [(1, 1), (2, 1), (3, 8), (4, 106)])
def test_column_tables_match_bit_sums(width, count):
    """The products read back from the sums (row i of the linear part of
    the element sending 0 to y is e_i + e_i*y) are those the bit sums
    find."""
    slow = list(reference_structure_constants(width))
    fast = {
        tuple(
            tuple(row ^ (1 << i) for i, row in enumerate(kappa(hs, y).rows))
            for y in range(1 << width)
        )
        for hs in sums(width)
    }
    assert len(slow) == len(set(slow)) == len(fast) == count
    assert set(slow) == fast


def builds_as_involution(g: AffineMap) -> bool:
    """Whether HiddenSum takes g for an involution: only
    NotElementaryAbelianError says it does not, and a lone generator that
    passes may still leave the sum short of a basis."""
    try:
        HiddenSum([g])
    except NotElementaryAbelianError:
        return False
    except NotRegularError:
        pass
    return True


def test_involution_test_matches_composition():
    for width in range(1, MAX_BRICK_WIDTH + 1):
        for generators in enumerate_regular_groups(width):
            for g in group_of(generators).elements:
                assert builds_as_involution(g) and reference_is_involution(g)
    # random matrices, mostly singular or not involutory, and involutory
    # matrices of group elements with random translations, which t*M = t
    # tells apart
    rng = random.Random(500)
    seen = set()
    for k in range(500):
        width = 1 + k % MAX_BRICK_WIDTH
        n = 1 << width
        if rng.random() < 0.5:
            matrix = BinMatrix([rng.randrange(n) for _ in range(width)])
        else:
            matrix = kappa(rng.choice(sums(width)), rng.randrange(n))
        g = AffineMap(matrix, rng.randrange(n))
        verdict = builds_as_involution(g)
        assert verdict == reference_is_involution(g)
        involutory = matrix @ matrix == BinMatrix.identity(width)
        seen.add((verdict, involutory, matrix.is_invertible()))
    assert seen == {(True, True, True), (False, True, True), (False, False, True), (False, False, False)}


def brick_combinations():
    w1, w2, w3, w4 = (sums(w) for w in (1, 2, 3, 4))
    yield from itertools.product(w3, w3)
    for i, a in enumerate(w3):
        for b in w4[i::53]:
            yield a, b
            yield b, a
    yield from itertools.product(w1, w2, w3)


def test_product_sum_matches_embedded_group():
    tested = 0
    for parts in brick_combinations():
        fast = product_sum(list(parts))
        group = reference_product_group(list(parts))
        slow = reference_hidden_sum(group)
        n = 1 << fast.width
        assert fast.width == slow.width
        assert op_rows(fast) == op_rows(slow)
        assert fast.basis == slow.basis
        # coefficient bit i selects basis vector i, as in a sum built directly
        assert fast._by_coeff == slow._by_coeff == reference_coordinate_table(fast, fast.basis)
        assert [AffineMap(kappa(fast, y), y).encode() for y in range(n)] == [
            e.encode() for e in group.elements
        ]
        assert [g.encode() for g in fast.generators()] == [
            g.encode() for g in group.generators
        ]
        tested += 1
    assert tested == 64 + 2 * 16 + 8


def toy_search_sums():
    """The 64 product sums the toy search tests: every pair of width-3 sums."""
    per_brick = translation_compatible_sums(3)
    return [product_sum([a, b]) for a in per_brick for b in per_brick]


def seeded_permutations(width, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        table = list(range(1 << width))
        rng.shuffle(table)
        out.append(table)
    return out


def hidden_translations(hs):
    """x |-> x # b for each basis vector b: affine for the sum by design."""
    return [[hs.op(x, b) for x in range(1 << hs.width)] for b in hs.basis]


def reference_inline_membership(g_table, hs) -> bool:
    """M and t read off g at 0 and the basis, then the 2^d points compared
    in coordinates with one table of c*M + t built by doubling."""
    n = 1 << hs.width
    if len(g_table) != n or set(g_table) != set(range(n)):
        raise ValueError("membership test requires a bijective table on the space")
    matrix, t = hs.read_affine(g_table.__getitem__)
    image, coords = matrix.affine_table(t), hs._by_element
    return all(coords[y] == image[c] for c, y in zip(coords, g_table))


def test_membership_through_conjugate_matches_inline_compare():
    """All 5,040 permutations of 3 bits that fix 0, on each of the 8
    width-3 sums.  g fixes 0 exactly when its conjugate does, so each sum
    accepts the conjugates of GL(3, 2): 168 of them."""
    sums = translation_compatible_sums(3)
    assert len(sums) == 8
    for hs in sums:
        accepted = 0
        for rest in itertools.permutations(range(1, 8)):
            table = (0, *rest)
            verdict = agl_membership(table, hs)
            assert verdict == reference_inline_membership(table, hs), table
            accepted += verdict
        assert accepted == 168


def test_membership_matches_pair_scan_on_toy_search_sums():
    spec = builtin_toy_spec()
    tables = [spec.core_table(), inverse_brick_spec().core_table()]
    tables += [spec.encrypt_table(k) for k in range(64)]
    tables += [xor_translation_table(6, 1 << i) for i in range(6)]
    tables += seeded_permutations(6, 20, 11)
    pairs = accepted = 0
    for hs in toy_search_sums():
        sigma = op_rows(hs)
        for table in tables + hidden_translations(hs):
            verdict = agl_membership(table, hs)
            assert verdict == reference_agl_membership(table, sigma)
            pairs += 1
            accepted += verdict
    assert pairs == 64 * (len(tables) + 6)
    # every sum keeps its 6 XOR and 6 hidden translations; the bundled sum
    # also keeps the core round and all 64 encryptions
    assert accepted == 64 * 12 + 65


@pytest.mark.parametrize("width", [3, 4])
def test_membership_matches_pair_scan_on_brick_sums(width):
    perms = seeded_permutations(width, 10, width)
    for hs in (HiddenSum(g) for g in enumerate_regular_groups(width)):
        members = [xor_translation_table(width, 1 << i) for i in range(width)]
        members += hidden_translations(hs)
        sigma = op_rows(hs)
        for table in members + perms:
            assert agl_membership(table, hs) == reference_agl_membership(table, sigma)
        assert all(agl_membership(table, hs) for table in members)


def seeded_product_sums(bricks, count, seed):
    """count product sums on the bricks, each part drawn with the seed from
    translation_compatible_sums of its width."""
    rng = random.Random(seed)
    return [
        product_sum([rng.choice(translation_compatible_sums(w)) for w in bricks])
        for _ in range(count)
    ]


def random_invertible(width, rng):
    while True:
        matrix = BinMatrix([rng.randrange(1 << width) for _ in range(width)])
        if matrix.is_invertible():
            return matrix


@pytest.mark.parametrize("bricks", [[4, 4], [3, 3, 3], [3] * 4], ids=["d8", "d9", "d12"])
def test_membership_matches_inline_compare_at_the_byte_line(bricks):
    """On either side of gf2.BYTE_BITS, for three seeded sums: seeded
    permutations, the XOR and hidden translations, and affine functions
    of the sum, each also with two points swapped, which no affine map of
    8 or more points survives."""
    d = sum(bricks)
    n = 1 << d
    rng = random.Random(d)
    accepted = rejected = 0
    for hs in seeded_product_sums(bricks, 3, d):
        affine = [hs.affine_function(random_invertible(d, rng), rng.randrange(n)) for _ in range(3)]
        swapped = []
        for table in affine:
            a, b = rng.sample(range(n), 2)
            table = list(table)
            table[a], table[b] = table[b], table[a]
            swapped.append(table)
        members = [xor_translation_table(d, 1 << i) for i in range(d)]
        members += hidden_translations(hs) + affine
        for table in members + swapped + seeded_permutations(d, 3, rng.randrange(1000)):
            verdict = agl_membership(table, hs)
            assert verdict == reference_inline_membership(table, hs)
            accepted += verdict
            rejected += not verdict
    assert (accepted, rejected) == (3 * (2 * d + 3), 3 * 6)


@pytest.mark.parametrize("bricks", [[3], [3, 4], [4, 4], [3, 3, 3]], ids=["d3", "d7", "d8", "d9"])
def test_membership_refusals_match_across_the_byte_line(bricks):
    """Floats, negative entries, entries past the space (below 256 as well
    as above), duplicates and wrong lengths: the same
    ValueError on both sides of gf2.BYTE_BITS, as list, tuple and iterator.
    An iterator has no length, so the identity is refused as one too."""
    (hs,) = seeded_product_sums(bricks, 1, 7)
    n = 1 << hs.width
    identity = list(range(n))

    def patched(x, value):
        table = list(identity)
        table[x] = value
        return table

    bad = [
        [float(x) for x in identity],
        patched(0, -1),
        patched(n - 1, -n),
        patched(n - 1, n),
        patched(0, 256),
        patched(1, 0),
        identity[:-1],
        identity + [0],
    ]
    bad += [patched(x, 255) for x in (0, n - 1) if n <= 255]
    for table in bad:
        for form in (table, tuple(table), iter(table)):
            with pytest.raises(ValueError, match="^membership test requires a bijective table on the space$"):
                agl_membership(form, hs)
    with pytest.raises(ValueError, match="^membership test requires a bijective table on the space$"):
        agl_membership(iter(identity), hs)


@pytest.mark.parametrize("bricks", [[3], [4], [4, 4], [3, 3, 3]], ids=["d3", "d4", "d8", "d9"])
def test_conjugate_matches_coordinate_lookup(bricks):
    """conjugate is coords(g(element(c))) entry by entry on either side of
    gf2.BYTE_BITS, for permutations and for a map that is not one, given
    as a list, a tuple or an array of 16-bit items; VBF takes it as the vbf
    tests do.  A table that does not map the space into itself is refused."""
    for hs in seeded_product_sums(bricks, 2, 3):
        d = hs.width
        n = 1 << d
        rng = random.Random(n)
        tables = seeded_permutations(d, 2, n) + [[rng.randrange(n) for _ in range(n)]]
        for table in tables:
            expected = [hs.coords(table[hs.element(c)]) for c in range(n)]
            for form in (table, tuple(table), array("H", table)):
                assert list(hs.conjugate(form)) == expected
            assert VBF(d, d, hs.conjugate(table)).table == tuple(expected)
        for table in ([n] * n, [-1] + list(range(1, n)), list(range(n - 1)), [0.0] * n):
            with pytest.raises(ValueError, match="conjugate requires"):
                hs.conjugate(table)


def test_coordinate_tables_match_bit_loop():
    free = 0
    for hs in toy_search_sums():
        for basis in (hs.basis, toy_coordinate_basis()):
            try:
                slow = reference_coordinate_table(hs, basis)
            except BasisError:
                with pytest.raises(BasisError):
                    CoordinateMap(hs, basis)
                continue
            cm = CoordinateMap(hs, basis)
            assert [cm.element(c) for c in range(64)] == slow
            assert [cm.coords(x) for x in slow] == list(range(64))
            free += 1
    # every own basis is free; the unit vectors generate 49 of the 64 freely
    assert free == 64 + 49


def test_redundant_generator_yields_free_basis():
    gens = parse_group_spec(TOY_GROUP_SPEC)
    redundant = gens[:2] + [gens[0].then(gens[1])] + gens[2:]
    hs = HiddenSum(redundant)
    assert len(hs.basis) == hs.width == 3
    assert hs.basis == tuple(g.translation for g in gens)
    assert op_rows(hs) == op_rows(toy_brick_sum())
    CoordinateMap(hs, hs.basis)  # free: must not raise


def oracle_groups():
    """Every enumerated group, the XOR group, and the toy group built with
    a redundant generator."""
    for width in range(1, MAX_BRICK_WIDTH + 1):
        yield from map(group_of, enumerate_regular_groups(width))
    yield xor_group(3)
    gens = parse_group_spec(TOY_GROUP_SPEC)
    yield RegularGroup.build(gens[:2] + [gens[0].then(gens[1])] + gens[2:])


def test_generator_doubling_matches_group_elements():
    """The sum, built from the generators alone, is the action of the
    group's elements: x # y is the element sending 0 to y, applied to x."""
    tested = 0
    for group in oracle_groups():
        hs = HiddenSum(group.generators)
        n = 1 << group.width
        assert hs.width == group.width
        assert hs._by_coeff == reference_coordinate_table(hs, hs.basis)
        for y in range(n):
            assert [hs.op(x, y) for x in range(n)] == [
                group.elements[y].apply(x) for x in range(n)
            ]
        tested += 1
    assert tested == 1 + 1 + 8 + 106 + 2


def identity_pool():
    """The sums of oracle_groups, the 64 toy products, and re-based
    copies: each sum in its reversed own basis, the toy products also in
    the unit vectors wherever those generate them freely."""
    built = [HiddenSum(g.generators) for g in oracle_groups()] + toy_search_sums()
    rebased = [CoordinateMap(hs, hs.basis[::-1]) for hs in built]
    for hs in toy_search_sums():
        try:
            rebased.append(CoordinateMap(hs, toy_coordinate_basis()))
        except BasisError:
            pass
    return built, rebased


def test_identity_is_the_op_table():
    """Two sums are equal exactly when x # y agrees on all pairs; equal
    sums hash equal; and sorting by the key orders sums as their op tables."""
    built, rebased = identity_pool()
    assert len(built) == 118 + 64 and len(rebased) == len(built) + 49
    # a re-based copy is the same sum
    assert all(hs == cm for hs, cm in zip(built, rebased))
    pool = built + rebased
    tables = [(hs.width, tuple(map(tuple, op_rows(hs)))) for hs in pool]
    for (a, ta), (b, tb) in itertools.combinations(zip(pool, tables), 2):
        if a.width != b.width:
            continue
        assert (a == b) == (ta == tb)
        if a == b:
            assert hash(a) == hash(b)
    order = sorted(range(len(pool)), key=lambda i: pool[i]._key())
    assert [tables[i] for i in order] == sorted(tables)


def test_identity_search_returns_every_width_four_sum():
    """Every width-4 sum makes the identity and the XOR translations
    affine: the search finds all 106, ordered by op table."""
    found = find_hidden_sums([list(range(16))], [4])
    expected = sorted(op_rows(HiddenSum(g)) for g in enumerate_regular_groups(4))
    assert [op_rows(hs) for hs in found] == expected
    assert len(set(found)) == len(found) == 106


def test_twelve_bit_identity_in_milliseconds():
    """hash and == read d^2 values, not the 4^d op table."""
    brick = toy_brick_sum()
    a, b = product_sum([brick] * 4), product_sum([brick] * 4)
    c = product_sum([brick] * 3 + [HiddenSum(xor_group(3).generators)])
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        same = hash(a) == hash(b) and a == b
        seconds.append(time.perf_counter() - start)
    assert same and a != c
    assert min(seconds) < 0.01


def triple_products_vanish(hs) -> bool:
    """Whether every XOR translation is affine for the sum, read off its
    ring as x*y*a = 0 for all x, y and a (see translation_compatible_sums).
    The triple product is trilinear, so basis triples e_i*e_j*e_k decide
    it; as e_i*e_i = 0 and the product commutes, the pairs i < j suffice.
    """
    units = [1 << i for i in range(hs.width)]
    return not any(
        ring_product(hs, ring_product(hs, a, b), c)
        for a, b in itertools.combinations(units, 2)
        for c in units
    )


def reference_translation_filter(hs) -> bool:
    """Whether every XOR translation is affine for the sum: the translations
    by the unit vectors, each put through agl_membership."""
    return all(
        agl_membership(xor_translation_table(hs.width, 1 << i), hs)
        for i in range(hs.width)
    )


def sum_from_constants(width, constants):
    """The sum of the commutative, associative product with x*x = 0 whose
    structure constants e_i*e_j, i < j, are constants[(i, j)] (0 if
    absent): the element sending 0 to y is x |-> x(I + delta_y) + y."""

    def times(u, k):
        out = 0
        for i in range(width):
            if u >> i & 1 and i != k:
                out ^= constants.get((min(i, k), max(i, k)), 0)
        return out

    return HiddenSum(
        [
            AffineMap(BinMatrix([(1 << i) ^ times(y, i) for i in range(width)]), y)
            for y in (1 << j for j in range(width))
        ]
    )


def free_algebra_sums():
    """The algebra on a, b, c (bits 0-2) with ab, ac, bc (bits 3-5) and
    x*x = 0, whose triple products vanish; and the same with abc (bit 6),
    where a*b*c does not vanish, also with its bits in reverse order."""
    pairs = {(0, 1): 1 << 3, (0, 2): 1 << 4, (1, 2): 1 << 5}
    cubes = {**pairs, (0, 5): 1 << 6, (1, 4): 1 << 6, (2, 3): 1 << 6}
    flip = {
        (6 - j, 6 - i): int(f"{v:07b}"[::-1], 2) for (i, j), v in cubes.items()
    }
    kept = sum_from_constants(6, pairs)
    return kept, [sum_from_constants(7, cubes), sum_from_constants(7, flip)]


def test_triple_products_match_translation_membership():
    """The filter's verdict equals the membership test's on every
    enumerated sum, and on sums whose triple products do and do not
    vanish; every sum up to MAX_BRICK_WIDTH keeps all translations, as
    the lemma of translation_compatible_sums says, and width 7 is the
    first where one does not."""
    verdicts = []
    for width in range(1, MAX_BRICK_WIDTH + 1):
        for hs in sums(width):
            verdict = triple_products_vanish(hs)
            assert verdict == reference_translation_filter(hs)
            verdicts.append(verdict)
        assert translation_compatible_sums(width) == tuple(
            hs for hs in sums(width) if reference_translation_filter(hs)
        )
    assert verdicts == [True] * (1 + 1 + 8 + 106)
    kept, dropped = free_algebra_sums()
    assert all(check_ring_axioms(hs).ok for hs in [kept, *dropped])
    assert triple_products_vanish(kept) and reference_translation_filter(kept)
    for hs in dropped:
        assert not triple_products_vanish(hs)
        assert not reference_translation_filter(hs)


def random_affine_map(rng, width):
    n = 1 << width
    return AffineMap(BinMatrix([rng.randrange(n) for _ in range(width)]), rng.randrange(n))


def generator_corpus(seed):
    """(label, generators) at widths 1-4, of four kinds: enumerated
    generators shuffled with redundant elements added, random subsets of
    a group's elements, random affine maps (singular ones included), and
    a regular group of order-4 elements."""
    rng = random.Random(seed)
    for width in range(1, MAX_BRICK_WIDTH + 1):
        n = 1 << width
        groups = enumerate_regular_groups(width)
        for _ in range(60):
            gens = list(rng.choice(groups))
            for _ in range(rng.randrange(3)):
                picked = [g for g in gens if rng.random() < 0.5] or gens[:1]
                product = picked[0]
                for g in picked[1:]:
                    product = product.then(g)
                gens.append(product)
            rng.shuffle(gens)
            yield "enumerated", gens
        for _ in range(60):
            elements = group_of(rng.choice(groups)).elements
            yield "subset", rng.sample(elements, rng.randrange(1, n + 1))
        for _ in range(60):
            yield "random", [random_affine_map(rng, width) for _ in range(rng.randrange(1, width + 2))]
    yield "order four", parse_group_spec("2\n1101|10\n")


def test_generator_sum_matches_reference_closure():
    """The report's verdicts, reached without closing the group, and the
    sum built from bare generators, equal those of the closed group; both
    refuse the same generator sets as not in AGL(d, 2)."""
    outcomes = {}
    for seed in (2301, 2302):
        for kind, gens in generator_corpus(seed):
            try:
                expected, slow = reference_hidden_sum_report(gens)
            except ValueError:
                with pytest.raises(ValueError, match="singular matrix"):
                    hidden_sum_report(gens)
                outcomes[kind, "singular"] = outcomes.get((kind, "singular"), 0) + 1
                continue
            report = hidden_sum_report(gens)
            assert report == expected, (kind, gens)
            if slow is None:
                verdict = next(key for key, value in report.items() if value is not True)
                if verdict != "abelian":  # the constructor trusts commutation
                    with pytest.raises((NotRegularError, NotElementaryAbelianError)):
                        HiddenSum(gens)
            else:
                verdict = "sum"
                fast = HiddenSum(gens)
                assert fast._key() == slow._key() and fast.basis == slow.basis
                assert fast._by_coeff == slow._by_coeff
            outcomes[kind, verdict] = outcomes.get((kind, verdict), 0) + 1
    # each verdict is reached, each kind builds sums, and random maps fail
    # each way
    assert {verdict for _, verdict in outcomes} == {
        "singular", "abelian", "regular", "elementary_abelian", "sum",
    }
    assert {kind for kind, verdict in outcomes if verdict == "sum"} == {"enumerated", "subset", "random"}
    assert {verdict for kind, verdict in outcomes if kind == "random"} >= {
        "singular", "abelian", "regular",
    }
    assert outcomes["enumerated", "sum"] == 2 * 4 * 60
    assert outcomes["order four", "elementary_abelian"] == 2


def reference_search_with_translation_checks(round_generators, brick_widths):
    """The search with its translation checks: per-brick candidates kept
    only if their triple products vanish, and each survivor re-checked
    against the XOR translations at full width."""
    total = sum(brick_widths)
    per_brick = [
        tuple(hs for hs in sums(w) if triple_products_vanish(hs)) for w in brick_widths
    ]
    results = []
    for combo in itertools.product(*per_brick):
        hs = product_sum(list(combo))
        if not all(agl_membership(t, hs) for t in round_generators):
            continue
        if not all(
            agl_membership(xor_translation_table(total, 1 << i), hs)
            for i in range(total)
        ):
            continue
        results.append(hs)
    results.sort(key=HiddenSum._key)
    return results


def planted_tables(bricks, seed, count=1):
    """A product sum drawn with the seed from translation_compatible_sums of
    each brick width, and count round tables affine for it: the sum's
    affine_function of a random invertible M and a random t."""
    rng = random.Random(seed)
    hs = product_sum([rng.choice(translation_compatible_sums(w)) for w in bricks])
    n = 1 << hs.width
    tables = [
        hs.affine_function(random_invertible(hs.width, rng), rng.randrange(n))
        for _ in range(count)
    ]
    return hs, tables


# (brick widths, seed) of the planted search cases: splits of 6 bits, and
# [3, 3, 3] at 9 bits
PLANTED = [([2, 4], 24), ([4, 2], 42), ([1, 2, 3], 123), ([2, 2, 2], 222), ([3, 3, 3], 333)]


def search_cases():
    """(id, round tables, brick widths, sums the search finds)."""
    spec = builtin_toy_spec()
    yield "builtin", [spec.core_table()], [3, 3], 1
    yield "inversion", [inverse_brick_spec().core_table()], [3, 3], 0
    yield "identity-3-3", [list(range(64))], [3, 3], 64
    yield "identity-4", [list(range(16))], [4], 106
    yield "identity-1-2-3", [list(range(64))], [1, 2, 3], 8
    for widths in ([3, 3], [4], [1, 2, 3]):
        total = sum(widths)
        yield f"permutations-{total}", seeded_permutations(total, 2, total), widths, 0
    # the bundled sum's own translations, which several sums share
    state = toy_state_sum()
    yield "hidden-translations", hidden_translations(state)[:2], [3, 3], None
    # planted product sums, each the only sum its table keeps
    for bricks, seed in PLANTED:
        yield f"planted-{bricks}", planted_tables(bricks, seed)[1], bricks, 1
    # two tables at once: each prunes the bricks, and both must be affine
    yield "two-tables-builtin", [spec.core_table(), spec.encrypt_table(5)], [3, 3], 1
    yield "two-tables-planted", planted_tables([2, 4], 31, 2)[1], [2, 4], 1
    yield "builtin-and-inversion", [spec.core_table(), inverse_brick_spec().core_table()], [3, 3], 0


@pytest.mark.parametrize(
    "tables, widths, count",
    [case[1:] for case in search_cases()],
    ids=[case[0] for case in search_cases()],
)
def test_search_matches_search_with_translation_checks(tables, widths, count):
    fast = find_hidden_sums(tables, widths)
    slow = reference_search_with_translation_checks(tables, widths)
    assert [hs._key() for hs in fast] == [hs._key() for hs in slow]
    assert [hs.basis for hs in fast] == [hs.basis for hs in slow]
    assert [hs.generators() for hs in fast] == [hs.generators() for hs in slow]
    if count is not None:
        assert len(fast) == count


@pytest.mark.parametrize("bricks, seed", PLANTED + [([3, 3, 3, 3], 12)], ids=str)
def test_planted_sum_is_found(bricks, seed):
    """The search returns the planted sum, and every sum it returns passes
    agl_membership; at [3, 3, 3, 3] (12 bits) the unpruned product of 4,096
    sums took seconds."""
    hs, tables = planted_tables(bricks, seed)
    found = find_hidden_sums(tables, bricks)
    assert hs in found
    assert all(agl_membership(t, s) for s in found for t in tables)


def reference_brick_test(table, widths, i, s):
    """find_hidden_sums' brick test for the sum s on brick i, from the
    lemma: with T(c, rest) the coordinates under s of brick i of the table
    at the state of s's element c on brick i and rest on the other bricks,
    T(c + e_k, rest) + T(c, rest) = T(e_k, 0) + T(0, 0) everywhere."""
    off, low = sum(widths[:i]), (1 << s.width) - 1

    def T(c, rest):
        return s.coords(table[rest | s.element(c) << off] >> off & low)

    rests = [x for x in range(1 << sum(widths)) if not x >> off & low]
    return all(
        T(c ^ 1 << k, rest) ^ T(c, rest) == T(1 << k, 0) ^ T(0, 0)
        for rest in rests
        for c in range(1 << s.width)
        for k in range(s.width)
    )


def brick_test_cases():
    """(round table, brick widths): the bundled, inversion and identity
    tables and seeded permutations at 6 bits, in every split into bricks
    the search takes there, seeded permutations at 7 and 8 bits, and
    planted tables on both sides of 8 bits, also with two entries
    swapped where the last brick is all ones, which only a test of every
    setting of the other bricks sees."""
    six = [builtin_toy_spec().core_table(), inverse_brick_spec().core_table(), list(range(64))]
    six += seeded_permutations(6, 3, 606)
    for widths in ([3, 3], [2, 4], [4, 2], [1, 2, 3], [3, 2, 1]):
        for table in six:
            yield table, widths
    for table in seeded_permutations(7, 2, 707):
        yield table, [3, 4]
        yield table, [4, 3]
    for table in seeded_permutations(8, 2, 808):
        yield table, [4, 4]
    for bricks, seed in [([4, 4], 44), ([3, 3, 3], 333), ([4, 3, 3], 433)]:
        table = planted_tables(bricks, seed)[1][0]
        yield table, bricks
        top = (1 << sum(bricks)) - (1 << sum(bricks[:-1]))
        swapped = list(table)
        swapped[top], swapped[top + 1] = table[top + 1], table[top]
        yield swapped, bricks
    yield seeded_permutations(9, 1, 909)[0], [3, 3, 3]


def test_brick_test_matches_lemma():
    """The list scan keeps exactly the sums that pass the lemma's test,
    read off the tables one point at a time, on both sides of 8 bits."""
    verdicts = set()
    for table, widths in brick_test_cases():
        survivors = _brick_survivors([table], widths)
        for i, w in enumerate(widths):
            for s in translation_compatible_sums(w):
                verdict = s in survivors[i]
                assert verdict == reference_brick_test(table, widths, i, s), (widths, i)
                verdicts.add((sum(widths) > 8, verdict))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def several_tables_cases():
    """(id, round tables, brick widths): at 6 and at 9 bits, tables that
    keep the same sums, seeded permutations, and planted tables of two
    sums, where a candidate passes for one table and fails for the other."""
    spec = builtin_toy_spec()
    yield "builtin-6", [spec.core_table(), spec.encrypt_table(5)], [3, 3]
    yield "permutations-6", seeded_permutations(6, 2, 612), [2, 4]
    yield "two-planted-6", [planted_tables([2, 4], seed)[1][0] for seed in (24, 31)], [2, 4]
    yield "permutations-9", seeded_permutations(9, 2, 939), [3, 3, 3]
    yield "one-planted-9", planted_tables([3, 3, 3], 333, 2)[1], [3, 3, 3]
    yield "two-planted-9", [planted_tables([3, 3, 3], seed)[1][0] for seed in (333, 334)], [3, 3, 3]


@pytest.mark.parametrize(
    "tables, widths",
    [case[1:] for case in several_tables_cases()],
    ids=[case[0] for case in several_tables_cases()],
)
def test_brick_test_of_several_tables(tables, widths):
    """Each table is projected onto a brick on its own; a sum survives
    exactly when the lemma's test holds for every table."""
    survivors = _brick_survivors(tables, widths)
    for i, w in enumerate(widths):
        for s in translation_compatible_sums(w):
            expected = all(reference_brick_test(t, widths, i, s) for t in tables)
            assert (s in survivors[i]) == expected, (widths, i)


@pytest.mark.parametrize("widths", [[3, 3], [2, 4], [4, 2], [1, 2, 3]], ids=str)
def test_rejected_bricks_never_pass_membership(widths):
    """Exhaustive at 6 bits: no product containing a rejected candidate
    passes agl_membership, and every brick of every sum the search finds
    passes the brick test.  On the bundled cipher one candidate per brick
    survives, so the search builds one product sum instead of 64."""
    spec = builtin_toy_spec()
    tables = [spec.core_table(), inverse_brick_spec().core_table(), list(range(64))]
    tables += seeded_permutations(6, 3, 606)
    rejected = 0
    for table in tables:
        survivors = _brick_survivors([table], widths)
        kept = {product_sum(list(c))._key() for c in itertools.product(*survivors)}
        for combo in itertools.product(*(translation_compatible_sums(w) for w in widths)):
            passes = all(s in survivors[i] for i, s in enumerate(combo))
            rejected += not passes
            if agl_membership(table, product_sum(list(combo))):
                assert passes, combo
        assert all(hs._key() in kept for hs in find_hidden_sums([table], widths))
    assert rejected
    if widths == [3, 3]:
        assert [len(s) for s in _brick_survivors([spec.core_table()], widths)] == [1, 1]


def annihilator_cases():
    """The bricks' sums of each sum the annihilator oracle takes: every sum
    of translation_compatible_sums at widths 1 to 4 alone, and every
    product at [3, 3] and at [2, 3]."""
    for w in range(1, MAX_BRICK_WIDTH + 1):
        yield from ([s] for s in translation_compatible_sums(w))
    for widths in ([3, 3], [2, 3]):
        yield from map(list, itertools.product(*map(translation_compatible_sums, widths)))


def test_annihilator_directions_pass_the_pair_test():
    """For three seeded affine maps of each sum, every nonzero a in the
    annihilator U of a brick's sum, placed on that brick's bits, passes
    the unit-pair test, so the pre-test accepts the map and the search
    finds the sum."""
    rng = random.Random(4141)
    tested = 0
    for parts in annihilator_cases():
        hs, widths = product_sum(parts), [s.width for s in parts]
        for _ in range(3):
            table = hs.affine_function(random_invertible(hs.width, rng), rng.randrange(1 << hs.width))
            inverse = sorted(range(len(table)), key=table.__getitem__)
            preimages, off = _unit_pair_preimages(inverse), 0
            for s in parts:
                u = compute_U(s)
                directions = [a for a in range(1, 1 << s.width) if a in u]
                assert all(_direction_passes(table, preimages, a << off) for a in directions)
                off += s.width
            assert hs in find_hidden_sums([table], widths)
            tested += 1
    assert tested == 3 * (1 + 1 + 8 + 106 + 64 + 8)


def reference_find_hidden_sums(round_generators, brick_widths):
    """The search without the annihilator pre-test: every product of the
    brick survivors, tested with agl_membership."""
    results = []
    for combo in itertools.product(*_brick_survivors(round_generators, brick_widths)):
        hs = product_sum(list(combo))
        if all(agl_membership(t, hs) for t in round_generators):
            results.append(hs)
    results.sort(key=HiddenSum._key)
    return results


def pretest_cases():
    """(id, round tables, brick widths): seeded permutations at [3], [4],
    [2, 3], [3, 3] and [4, 4], planted tables, the several-table cases,
    the identity at [4], and the bundled and inversion cores."""
    for widths, count in (([3], 20), ([4], 20), ([2, 3], 20), ([3, 3], 20), ([4, 4], 8)):
        for k, table in enumerate(seeded_permutations(sum(widths), count, 4100 + sum(widths))):
            yield f"permutation-{widths}-{k}", [table], widths
    for bricks, seed in PLANTED + [([4, 4], 44)]:
        yield f"planted-{bricks}", planted_tables(bricks, seed)[1], bricks
    yield from several_tables_cases()
    yield "identity-4", [list(range(16))], [4]
    yield "bundled", [builtin_toy_spec().core_table()], [3, 3]
    yield "inversion", [inverse_brick_spec().core_table()], [3, 3]


def test_pretest_agrees_with_the_unfiltered_search(monkeypatch):
    """The search with the annihilator pre-test returns the sums of the
    search without it, in the same order; some cases are rejected by the
    pre-test and some reach the brick pruning."""
    reached = []

    def counted(tables, widths):
        reached.append(widths)
        return _brick_survivors(tables, widths)

    monkeypatch.setattr(hidden_sum, "_brick_survivors", counted)
    verdicts = {True: 0, False: 0}
    for name, tables, widths in pretest_cases():
        reached.clear()
        fast = find_hidden_sums(tables, widths)
        slow = reference_find_hidden_sums(tables, widths)
        assert [hs._key() for hs in fast] == [hs._key() for hs in slow], name
        if name == "identity-4":
            assert len(fast) == 106
        verdicts[bool(reached)] += 1
    assert verdicts[True] and verdicts[False]


def reference_mismatch(hs, f, matrix, t, points):
    """The first of the points where coords(f(v)) is not coords(v)*M + t,
    read off one doubling table of c*M + t."""
    image = matrix.affine_table(t)
    coords = hs._by_element
    for v in points:
        if coords[f(v)] != image[coords[v]]:
            return v
    return None


def test_spot_check_matches_doubling_table():
    """On seeded random M, t and maps f that are v*M + t in coordinates
    except at a few corrupted points, the per-point spot check finds the
    same first mismatch as the doubling table; and agl_membership, which
    keeps the table, agrees with the spot check over all points."""
    rng = random.Random(1616)
    pool = toy_search_sums()[::7] + sums(3) + sums(4)[::9]
    found, verdicts = 0, set()
    for k in range(600):
        hs = pool[k % len(pool)]
        n = 1 << hs.width
        matrix = BinMatrix([rng.randrange(n) for _ in range(hs.width)])
        # every other M invertible, so that f is often a permutation
        while k % 2 and not matrix.is_invertible():
            matrix = BinMatrix([rng.randrange(n) for _ in range(hs.width)])
        t = rng.randrange(n)
        table = hs.affine_function(matrix, t)
        for _ in range(rng.randrange(3)):
            if k % 4 == 1:  # a swap keeps a permutation one
                a, b = rng.sample(range(n), 2)
                table[a], table[b] = table[b], table[a]
            else:
                table[rng.randrange(n)] = rng.randrange(n)
        f = table.__getitem__
        for points in (range(n), rng.sample(range(n), 3)):
            first = hs.mismatch(f, matrix, t, points)
            assert first == reference_mismatch(hs, f, matrix, t, points)
            found += first is not None
        if sorted(table) == list(range(n)):
            verdict = agl_membership(table, hs)
            assert verdict == (hs.mismatch(f, *hs.read_affine(f), range(n)) is None)
            verdicts.add(verdict)
    # both outcomes occur, for the spot check and for membership
    assert 0 < found < 1200 and verdicts == {True, False}
