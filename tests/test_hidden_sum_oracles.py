"""Oracles for the fast hidden-sum paths.

The structure-constant enumerator is compared with the generator-chain
search it replaced, and the brickwise product tables with the product
built from the embedded affine maps.  Both references are the former
library code, kept here unchanged.
"""

import itertools
from functools import lru_cache

import pytest

from hiddensums.gf2 import BinMatrix
from hiddensums.hidden_sum import (
    MAX_BRICK_WIDTH,
    AffineMap,
    HiddenSum,
    RegularGroup,
    enumerate_regular_groups,
    product_sum,
)


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
    pool = [tuple(g.table()) for g in pool_maps]
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


def reference_product_sum(parts):
    """Brick-parallel sum acting on the concatenation of the parts."""
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
            embed([p.group.elements[vi] for p, vi in zip(parts, parts_of_v)])
        )
    generators = []
    for i, p in enumerate(parts):
        for g in p.group.generators:
            pieces = [
                g if j == i else AffineMap.identity(widths[j])
                for j in range(len(parts))
            ]
            generators.append(embed(pieces))
    return HiddenSum(RegularGroup(total, generators, elements))


def sums(width):
    return [HiddenSum(g) for g in enumerate_regular_groups(width)]


@pytest.mark.parametrize("width, count", [(1, 1), (2, 1), (3, 8), (4, 106)])
def test_enumeration_matches_generator_chains(width, count):
    fast = enumerate_regular_groups(width)
    slow = reference_enumerate_regular_groups(width)
    assert len(fast) == len(slow) == count
    for f, s in zip(fast, slow):
        assert f.encode() == s.encode()
        assert [g.encode() for g in f.generators] == [g.encode() for g in s.generators]


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
        slow = reference_product_sum(list(parts))
        n = 1 << fast.width
        assert fast.width == slow.width
        assert fast.op_table() == slow.op_table()
        assert [fast.neg(x) for x in range(n)] == [slow.neg(x) for x in range(n)]
        assert fast.group.encode() == slow.group.encode()
        assert [g.encode() for g in fast.group.generators] == [
            g.encode() for g in slow.group.generators
        ]
        tested += 1
    assert tested == 64 + 2 * 16 + 8
