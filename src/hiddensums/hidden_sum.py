"""Alternative group structures on (F_2)^d induced by regular affine actions.

An abelian group of affine permutations that acts regularly on the space
induces a second sum on it: x # y is "translate x by the element that
moves 0 to y".  This module builds such groups from generators, exposes
the induced sum together with its linear parts, the subspace where it
agrees with XOR, and the associated nilpotent ring product, and decides
membership of arbitrary permutations in the affine group of the new sum.
A bounded search enumerates all such sums compatible with a given set of
round functions.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

from .gf2 import BinMatrix, Subspace, vec_from_str, vec_to_str


class NotAbelianError(ValueError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"generators do not commute: {pair[0]!r} vs {pair[1]!r}")


class NotRegularError(ValueError):
    pass


class ClosureOverflowError(ValueError):
    pass


class NotElementaryAbelianError(ValueError):
    pass


class BasisError(ValueError):
    pass


class AffineMap:
    """x |-> x*matrix + translation in the row-vector convention."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix: BinMatrix, translation: int):
        if translation < 0 or translation >> matrix.size:
            raise ValueError("translation does not fit the matrix width")
        self.matrix = matrix
        self.translation = translation

    @classmethod
    def identity(cls, width: int) -> AffineMap:
        return cls(BinMatrix.identity(width), 0)

    @property
    def width(self) -> int:
        return self.matrix.size

    def apply(self, x: int) -> int:
        return self.matrix.apply(x) ^ self.translation

    def then(self, other: AffineMap) -> AffineMap:
        """Composition: apply self first, then other."""
        return AffineMap(
            self.matrix @ other.matrix,
            other.matrix.apply(self.translation) ^ other.translation,
        )

    def is_involution(self) -> bool:
        """M*M = I and t*M = t, the conditions for self.then(self) to be
        the identity."""
        m, t = self.matrix, self.translation
        square = [m.apply(r) for r in m.rows]
        return m.apply(t) == t and square == [1 << i for i in range(self.width)]

    def encode(self) -> tuple:
        return (self.matrix.rows, self.translation)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AffineMap) and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())

    def __repr__(self) -> str:
        return f"AffineMap(matrix={self.matrix!r}, translation={self.translation})"


def xor_translation_table(width: int, t: int) -> list[int]:
    return [x ^ t for x in range(1 << width)]


class RegularGroup:
    """An abelian group of affine maps acting regularly on (F_2)^width.

    elements[v] is the unique group element sending 0 to v.  The plain
    constructor trusts its input; RegularGroup.build closes a generator
    set and verifies everything.
    """

    __slots__ = ("width", "generators", "elements")

    def __init__(
        self,
        width: int,
        generators: Sequence[AffineMap],
        elements: Sequence[AffineMap],
    ):
        if len(elements) != 1 << width:
            raise NotRegularError(
                f"need {1 << width} elements, got {len(elements)}"
            )
        self.width = width
        self.generators = tuple(generators)
        self.elements = tuple(elements)

    @classmethod
    def build(cls, generators: Sequence[AffineMap]) -> RegularGroup:
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
        by_image: dict[int, AffineMap] = {}
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

    def encode(self) -> tuple:
        return tuple(e.encode() for e in self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegularGroup) and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())


class HiddenSum:
    """The group operation on (F_2)^d induced by a regular group action.

    A sum is its coordinate tables plus a basis: _by_coeff[c] combines
    the basis vectors selected by c, _by_element inverts it, and x # y is
    the element whose coordinates are the XOR of theirs (an isomorphism).
    A map is affine for the sum exactly when it is XOR-affine in
    coordinates, which read_affine and mismatch test.  Scope is limited
    to sums where every element is an involution, so -x = x;
    construction fails loudly on anything else.
    """

    __slots__ = ("width", "basis", "_by_coeff", "_by_element", "_rebased")

    def __init__(self, group: RegularGroup):
        # commuting involutions generate an elementary abelian group;
        # keep each generator whose translation is not yet reached
        by_coeff, basis = [0], []
        for g in group.generators:
            if not g.is_involution():
                raise NotElementaryAbelianError(
                    f"generator moving 0 to {g.translation} is not an involution"
                )
            if g.translation not in by_coeff:
                basis.append(g.translation)
                by_coeff += [g.apply(x) for x in by_coeff]
        if len(basis) != group.width:
            raise NotRegularError("generators do not generate the group")
        self._adopt(by_coeff, basis, NotRegularError("the action is not free"))

    def _adopt(
        self, by_coeff: list[int], basis: Sequence[int], error: ValueError
    ) -> HiddenSum:
        """Take by_coeff as the coordinate table of the basis; the error if
        it is not a permutation of the space."""
        by_element = [-1] * len(by_coeff)
        for c, x in enumerate(by_coeff):
            by_element[x] = c
        if -1 in by_element:
            raise error
        self.width = len(basis)
        self.basis = tuple(basis)
        self._by_coeff = by_coeff
        self._by_element = by_element
        self._rebased: dict[tuple[int, ...], CoordinateMap] = {}
        return self

    def in_basis(self, basis: Sequence[int]) -> CoordinateMap:
        """This sum with its coordinates taken in the basis, built on the
        first call per basis and kept on the sum.  A basis that does not
        generate the sum freely raises BasisError on every call and is
        never kept."""
        key = tuple(basis)
        cm = self._rebased.get(key)
        if cm is None:
            cm = self._rebased[key] = CoordinateMap(self, key)
        return cm

    def op(self, x: int, y: int) -> int:
        return self._by_coeff[self._by_element[x] ^ self._by_element[y]]

    def coords(self, x: int) -> int:
        return self._by_element[x]

    def element(self, coeffs: int) -> int:
        return self._by_coeff[coeffs]

    def read_affine(self, f: Callable[[int], int]) -> tuple[BinMatrix, int]:
        """M and t of f in coordinates, from f(0) and then f(b_i): the only
        candidates if f is affine for the sum."""
        t = self._by_element[f(0)]
        return BinMatrix([self._by_element[f(b)] ^ t for b in self.basis]), t

    def affine_function(self, matrix: BinMatrix, t: int) -> list[int]:
        """The map with coords(f(v)) = coords(v)*M + t, as a table over v."""
        image, element = matrix.affine_table(t), self._by_coeff
        return [element[image[c]] for c in self._by_element]

    def mismatch(
        self, f: Callable[[int], int], matrix: BinMatrix, t: int, points: Iterable[int]
    ) -> int | None:
        """The first of the points where coords(f(v)) is not coords(v)*M + t,
        one matrix product per point."""
        coords = self._by_element
        for v in points:
            if coords[f(v)] != matrix.apply(coords[v]) ^ t:
                return v
        return None

    def generators(self) -> tuple[AffineMap, ...]:
        """The elements moving 0 to the basis vectors."""
        return tuple(AffineMap(kappa(self, b), b) for b in self.basis)

    def _key(self) -> tuple[int, tuple[int, ...]]:
        """e_i # e_j for every pair of unit vectors, j outermost.

        Each value is the structure constant e_i*e_j plus e_i + e_j, and
        the ring product is bilinear, so two sums are equal exactly when
        their keys are.  Keys also order sums as their op tables (rows
        indexed by y, entries x # y) would: the first unit pair where two
        sums differ is the first entry where their tables differ."""
        units = [1 << i for i in range(self.width)]
        return self.width, tuple(self.op(x, y) for y in units for x in units)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HiddenSum) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"HiddenSum(width={self.width})"


class CoordinateMap(HiddenSum):
    """The hidden sum hs, with its coordinates taken in another basis.

    The op is hs's; coords and element change with the basis, which must
    be ints of the space that generate the sum freely (BasisError
    otherwise).  hs.in_basis(basis) builds one per basis and keeps it on hs.
    """

    def __init__(self, hs: HiddenSum, basis: Sequence[int]):
        if len(basis) != hs.width:
            raise BasisError(f"need exactly {hs.width} basis vectors")
        for b in basis:
            if not isinstance(b, int) or b < 0 or b >> hs.width:
                raise BasisError(f"basis vector {b!r} is not in the {hs.width}-bit space")
        # x # b is an XOR in the sum's own coordinates, read back through them
        coords, element = hs._by_element, hs._by_coeff
        by_coeff = [0]
        for b in basis:
            k = coords[b]
            by_coeff += [element[coords[x] ^ k] for x in by_coeff]
        self._adopt(
            by_coeff, basis, BasisError("vectors do not freely generate the hidden sum")
        )


def kappa(hs: HiddenSum, y: int) -> BinMatrix:
    """Linear part of the translation that moves 0 to y: row i is
    e_i # y + y."""
    return BinMatrix([hs.op(1 << i, y) ^ y for i in range(hs.width)])


class KappaCheck(namedtuple("KappaCheck", "ok witness", defaults=(None,))):
    """True exactly when ok is; witness is the first pair (x, y) that fails."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def check_kappa_homomorphism(hs: HiddenSum) -> KappaCheck:
    """Exhaustively verify that the linear parts compose along the sum,
    kappa(x # y) = kappa(x) * kappa(y).  At x = y this also checks that
    each is its own inverse, since y # y = 0 and kappa(0) = I."""
    n = 1 << hs.width
    mats = [kappa(hs, y) for y in range(n)]
    for x in range(n):
        for y in range(n):
            if mats[hs.op(x, y)] != mats[x] @ mats[y]:
                return KappaCheck(False, (x, y))
    return KappaCheck(True)


def compute_U(hs: HiddenSum) -> Subspace:
    """The subspace of y where the hidden translation is a pure XOR
    translation, i.e. x # y = x + y for all x.  Never trivial."""
    ident = BinMatrix.identity(hs.width)
    members = [y for y in range(1 << hs.width) if kappa(hs, y) == ident]
    space = Subspace(members, hs.width)
    if len(space) != len(members):
        raise RuntimeError("agreement set is not a subspace; group table corrupt")
    if len(members) < 2:
        raise RuntimeError("hidden sum with trivial agreement subspace")
    return space


def ring_product(hs: HiddenSum, x: int, y: int) -> int:
    """Product of the nilpotent ring carried by the hidden sum:
    x*y = x + y + (x # y)."""
    return x ^ y ^ hs.op(x, y)


class RingReport(
    namedtuple("RingReport", "commutative associative distributive nilpotent nilpotency_index")
):
    """One flag per ring axiom, and the nilpotency index (None if not nilpotent)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.commutative and self.associative and self.distributive and self.nilpotent


def check_ring_axioms(hs: HiddenSum) -> RingReport:
    """Exhaustive check of the ring axioms and nilpotency (iterated
    products of the whole space reach {0})."""
    n = 1 << hs.width
    prod = [[ring_product(hs, x, y) for y in range(n)] for x in range(n)]
    commutative = all(prod[x][y] == prod[y][x] for x in range(n) for y in range(n))
    associative = all(
        prod[prod[x][y]][z] == prod[x][prod[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    distributive = all(
        prod[x][y ^ z] == prod[x][y] ^ prod[x][z]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    level = set(range(n))
    index = 1
    nilpotent = False
    while index <= hs.width + 1:
        if level == {0}:
            nilpotent = True
            break
        level = {prod[x][s] for x in range(n) for s in level}
        index += 1
    return RingReport(
        commutative, associative, distributive, nilpotent, index if nilpotent else None
    )


def check_uV_subgroup(hs: HiddenSum, u: int) -> bool:
    """Whether u*V is closed under both XOR and the hidden sum."""
    n = 1 << hs.width
    uv = {ring_product(hs, u, v) for v in range(n)}
    return all(
        a ^ b in uv and hs.op(a, b) in uv for a in uv for b in uv
    )


def agl_membership(g_table: Sequence[int], hs: HiddenSum) -> bool:
    """Whether the permutation is affine for the hidden sum: in the sum's
    coordinates it must be v |-> v*M + t at all 2^d points, read off one
    table of c*M + t built by doubling."""
    n = 1 << hs.width
    if len(g_table) != n or set(g_table) != set(range(n)):
        raise ValueError("membership test requires a bijective table on the space")
    matrix, t = hs.read_affine(g_table.__getitem__)
    image, coords = matrix.affine_table(t), hs._by_element
    return all(coords[y] == image[c] for c, y in zip(coords, g_table))


def product_sum(parts: Sequence[HiddenSum]) -> HiddenSum:
    """Brick-parallel sum acting on the concatenation of the parts.

    (x # y) is taken brick by brick, so the element with coefficients c
    sets the parts' elements for the pieces of c side by side, and the
    basis is the parts' bases, shifted into place."""
    by_coeff, basis, off = [0], [], 0
    for p in parts:
        # coefficients (and elements) = low bits from the parts so far | this part's bits
        by_coeff = [(h << off) | lo for h in p._by_coeff for lo in by_coeff]
        basis += [b << off for b in p.basis]
        off += p.width
    return HiddenSum.__new__(HiddenSum)._adopt(
        by_coeff, basis, NotRegularError("the action is not free")
    )


# ---------------------------------------------------------------------------
# Enumeration and search
# ---------------------------------------------------------------------------

MAX_BRICK_WIDTH = 4
# the ring axioms are checked on all 8^width triples
MAX_VERIFY_WIDTH = 8


@lru_cache(maxsize=None, typed=True)
def enumerate_regular_groups(width: int) -> tuple[RegularGroup, ...]:
    """All regular groups of affine involutions on (F_2)^width.

    These groups correspond one to one with the commutative, associative
    products on (F_2)^width with x*x = 0, through x # y = x + y + x*y
    (Caranti, Dalla Volta & Sala, "Abelian regular subgroups of the affine
    group and radical rings"; Calderini & Sala, "Elementary abelian regular
    subgroups as hidden sums for cryptographic trapdoors").  The products
    are found by backtracking over the structure constants e_i*e_j, i < j,
    pruned as soon as a basis triple breaks associativity.  Column tables
    hold u*e_k for every u, kept current one XOR per entry as constants
    are set, so a triple's terms (e_a*e_b)*e_c are single lookups.  Before
    any entry is filled, a value v for e_i*e_j is dropped if the tables
    already decide that v*e_i or v*e_j is not 0, as the triples (i, i, j)
    and (i, j, j) demand; of the rest, the triples that contain both i
    and j, which reject most candidates, are tested first.  The element
    sending 0 to y is x |-> x(I + delta_y) + y, where row i of delta_y is
    e_i*y.  Generators are chosen greedily, each the smallest element (by
    AffineMap.encode) not yet generated.  Returned in a canonical order
    and cached by value and type, so 3.0 or True never reads the entry of
    3 or 1.
    """
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ValueError(f"brick width {width!r} is not a positive int")
    if width > MAX_BRICK_WIDTH:
        raise ValueError(
            f"regular-group enumeration is exhaustive only up to width {MAX_BRICK_WIDTH}"
        )
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
        elements = [
            AffineMap(BinMatrix([(1 << i) ^ col[i][y] for i in range(width)]), y)
            for y in range(n)
        ]
        span, generators = {0}, []
        for g in sorted(elements, key=AffineMap.encode):
            if g.translation not in span:
                generators.append(g)
                span |= {g.apply(x) for x in span}
        groups.append(RegularGroup(width, generators, elements))
    return tuple(sorted(groups, key=RegularGroup.encode))


def triple_products_vanish(hs: HiddenSum) -> bool:
    """Whether every XOR translation is affine for the sum, read off its
    ring as x*y*a = 0 for all x, y and a.

    Proof: translation by a is affine exactly when
    g(x) = (x + a) # a = x + x*a (using a*a = 0) is additive for #, and
    expanding with x # y = x + y + x*y in the commutative, associative
    ring of characteristic 2 gives g(x # y) = g(x) # g(y) + x*y*a.  The
    triple product is trilinear, so basis triples e_i*e_j*e_k decide it;
    as e_i*e_i = 0 and the product commutes, the pairs i < j suffice.
    """
    units = [1 << i for i in range(hs.width)]
    return not any(
        ring_product(hs, ring_product(hs, a, b), c)
        for a, b in itertools.combinations(units, 2)
        for c in units
    )


@lru_cache(maxsize=None, typed=True)
def translation_compatible_sums(width: int) -> tuple[HiddenSum, ...]:
    """Hidden sums on one brick for which all XOR translations are affine,
    by triple_products_vanish.  At widths up to 4 every enumerated sum has
    vanishing triple products, so all pass; wider bricks can fail, which
    is why the filter stays.
    """
    sums = (HiddenSum(group) for group in enumerate_regular_groups(width))
    return tuple(hs for hs in sums if triple_products_vanish(hs))


def find_hidden_sums(
    round_generators: Sequence[Sequence[int]], brick_widths: Sequence[int]
) -> list[HiddenSum]:
    """All brick-parallel hidden sums for which the given round functions
    and every XOR translation are affine.

    Per-brick candidates come from the exhaustive enumeration above,
    pre-filtered by translation membership brick by brick (translations
    act brickwise, so this is equivalent to the full-width test).  The
    supplied generators are then tested at full width, and survivors get
    a final full-width translation re-check.
    """
    if not brick_widths:
        raise ValueError("need at least one brick")
    for w in brick_widths:
        if isinstance(w, bool) or not isinstance(w, int) or not 1 <= w <= MAX_BRICK_WIDTH:
            raise ValueError(f"brick width {w!r} is outside 1..{MAX_BRICK_WIDTH}")
    total = sum(brick_widths)
    n = 1 << total
    for table in round_generators:
        if len(table) != n or len(set(table)) != n:
            raise ValueError("round generators must be bijective tables on the space")
    per_brick = [translation_compatible_sums(w) for w in brick_widths]
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


# ---------------------------------------------------------------------------
# Group spec files and verification reports
# ---------------------------------------------------------------------------


def parse_group_spec(text: str) -> list[AffineMap]:
    """Parse the generator file format: width on the first line, then one
    'matrix-rows-concatenated|translation' line per generator."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    try:
        width = int(lines[0])
    except (IndexError, ValueError) as exc:
        raise ValueError("first line must be the width") from exc
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    gens = []
    for ln in lines[1:]:
        try:
            mat_part, trans_part = ln.split("|")
        except ValueError as exc:
            raise ValueError(f"generator line {ln!r} lacks the '|' separator") from exc
        if len(mat_part) != width * width or len(trans_part) != width:
            raise ValueError(f"generator line {ln!r} has wrong field lengths")
        rows = [
            vec_from_str(mat_part[i * width : (i + 1) * width]) for i in range(width)
        ]
        gens.append(AffineMap(BinMatrix(rows), vec_from_str(trans_part)))
    if not gens:
        raise ValueError("no generators in group spec")
    return gens


def dump_group_spec(generators: Sequence[AffineMap]) -> str:
    width = generators[0].width
    lines = [str(width)]
    for g in generators:
        mat = "".join(vec_to_str(r, width) for r in g.matrix.rows)
        lines.append(f"{mat}|{vec_to_str(g.translation, width)}")
    return "\n".join(lines) + "\n"


def hidden_sum_report(generators: Sequence[AffineMap]) -> dict:
    """Build and fully verify a hidden sum, reporting each check."""
    width = generators[0].width
    if width > MAX_VERIFY_WIDTH:
        raise ValueError(f"width {width} exceeds {MAX_VERIFY_WIDTH}, the verification limit")
    report: dict = {
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
        return report
    except (NotRegularError, ClosureOverflowError):
        report["regular"] = False
        report["elementary_abelian"] = None
        return report
    try:
        hs = HiddenSum(group)
    except NotElementaryAbelianError:
        report["elementary_abelian"] = False
        return report
    report["kappa_homomorphism"] = bool(check_kappa_homomorphism(hs))
    u = compute_U(hs)
    report["U_basis"] = [vec_to_str(b, hs.width) for b in u.basis]
    ring = check_ring_axioms(hs)
    report["ring_axioms"] = ring.ok
    report["nilpotency_index"] = ring.nilpotency_index
    return report
