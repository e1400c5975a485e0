"""Alternative group structures on (F_2)^d induced by regular affine actions.

An abelian group of affine permutations that acts regularly on the space
induces a second sum on it: x # y is "translate x by the element that
moves 0 to y".  A regular abelian group is fixed by its generators, so
this module builds the sum from them alone and never closes the group.
It exposes the induced sum together with its linear parts, the subspace
where it agrees with XOR, and the associated nilpotent ring product, and
decides membership of arbitrary permutations in the affine group of the
new sum.  Each generator is read as one table, which both shows that it
is an involution and doubles the sum's coordinate table.  Membership is
asked of the map's conjugate in the sum's coordinates, one list lookup per
point at every width, and compared with the XOR-affine table that
read_affine, the attack's fit, gives.  The sums on one brick of up to
MAX_BRICK_WIDTH bits come from the orbits of a few representative
products under GL(width, 2); the walk over an orbit lists each product's
structure constants, each regular group's canonical generators are read
off those, and the sum is built from the generators alone.  A
search over their brick-parallel products finds all sums compatible with
a given set of round functions, after a test on each brick alone, one
list scan at every width, has pruned that brick's candidates.  Before
any of that, a round is rejected outright when some brick has no
direction a that could lie in the annihilator of a sum making it affine:
every such a turns rho(rho^-1(y) + a) into an XOR-affine map of y, which
a test on the pairs of unit vectors reads off rho and its inverse alone.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

from .gf2 import BinMatrix, Subspace, first_outside, read_digits, vec_from_str, vec_to_str


class NotRegularError(ValueError):
    pass


class NotElementaryAbelianError(ValueError):
    pass


class BasisError(ValueError):
    pass


class AffineMap:
    """x |-> x*matrix + translation in the row-vector convention."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix: BinMatrix, translation: int):
        try:
            if translation >> matrix.size:  # negative, or wider than the matrix
                raise ValueError("translation does not fit the matrix width")
        except TypeError:  # a float, str, None, ...; bools pass
            raise ValueError(f"translation {translation!r} is not an int") from None
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


def _common_width(generators: Sequence[AffineMap]) -> int:
    if not generators:
        raise ValueError("need at least one generator")
    width = generators[0].width
    if any(g.width != width for g in generators):
        raise ValueError("generators have mixed widths")
    return width


def _off_the_space(n: int) -> ValueError:
    """The error for a table that does not map the n points into themselves."""
    return ValueError(f"conjugate requires a table of {n} values in 0..{n - 1}")


class HiddenSum:
    """The group operation on (F_2)^d induced by a regular group action.

    A sum is its coordinate tables plus a basis: _by_coeff[c] combines
    the basis vectors selected by c, _by_element inverts it, and x # y is
    the element whose coordinates are the XOR of theirs (an isomorphism).
    A map is affine for the sum exactly when its conjugate, the map in
    coordinates, is XOR-affine, which read_affine and mismatch also test.
    Scope is limited to sums where every element is an involution, so
    -x = x; construction fails loudly on anything else: each generator's
    table, x*M + t at every x, must send each of its entries back to its
    index.  The coordinate table doubles through those same tables.  The
    tables and the basis are all a sum holds, and nothing is added later.
    """

    __slots__ = ("width", "basis", "_by_coeff", "_by_element")

    def __init__(self, generators: Sequence[AffineMap]):
        """The sum of the group the affine generators span.  That they
        commute is trusted, not checked (hidden_sum_report checks it):
        closing or pairing them would cost more than the sum itself.
        ValueError if there are none or their widths are mixed."""
        width = _common_width(generators)
        identity = list(range(1 << width))
        # commuting involutions generate an elementary abelian group;
        # keep each generator whose translation is not yet reached
        by_coeff, basis = [0], []
        for g in generators:
            table = g.matrix.affine_table(g.translation)
            if [table[y] for y in table] != identity:
                raise NotElementaryAbelianError(
                    f"generator moving 0 to {g.translation} is not an involution"
                )
            if g.translation not in by_coeff:
                basis.append(g.translation)
                by_coeff += [table[x] for x in by_coeff]
        if len(basis) != width:
            raise NotRegularError("generators do not generate the group")
        self._adopt(by_coeff, basis)

    def _adopt(self, by_coeff: list[int], basis: Sequence[int]) -> HiddenSum:
        """Take by_coeff as the coordinate table of the basis;
        NotRegularError if it is not a permutation of the space."""
        by_element = [-1] * len(by_coeff)
        for c, x in enumerate(by_coeff):
            by_element[x] = c
        if -1 in by_element:
            raise NotRegularError("the action is not free")
        self.width = len(basis)
        self.basis = tuple(basis)
        self._by_coeff = by_coeff
        self._by_element = by_element
        return self

    def op(self, x: int, y: int) -> int:
        return self._by_coeff[self._by_element[x] ^ self._by_element[y]]

    def coords(self, x: int) -> int:
        return self._by_element[x]

    def element(self, coeffs: int) -> int:
        return self._by_coeff[coeffs]

    def conjugate(self, table: Sequence[int]) -> list[int]:
        """C o g o C^-1 for the map g with the given table, C = coords: entry
        c is coords(g(element(c))).  The sum is XOR in coordinates, so g is
        affine for it exactly when the conjugate G is XOR-affine, Im D_a g
        (D_a g(x) = g(x # a) # g(x)) is element(Im D_{C(a)} G), and a set is
        a coset of the sum exactly when its coordinates are an XOR coset.

        ValueError unless the table has 2^d int entries in 0..2^d - 1, as
        gf2.first_outside checks before any lookup: a negative entry would
        wrap."""
        n = len(self._by_coeff)
        coords = self._by_element
        try:  # len fails on a table that is no sequence, such as an iterator
            if len(table) == n and first_outside(table, self.width) is None:
                return [coords[table[x]] for x in self._by_coeff]
        except TypeError:
            pass
        raise _off_the_space(n)

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
    otherwise).  It is the sum of the elements moving 0 to the basis
    vectors, as generators() gives them for hs's own basis.
    """

    def __init__(self, hs: HiddenSum, basis: Sequence[int]):
        if len(basis) != hs.width:
            raise BasisError(f"need exactly {hs.width} basis vectors")
        bad = first_outside(basis, hs.width)
        if bad is not None:
            raise BasisError(f"basis vector {basis[bad]!r} is not in the {hs.width}-bit space")
        try:
            super().__init__([AffineMap(kappa(hs, b), b) for b in basis])
        except NotRegularError:
            raise BasisError("vectors do not freely generate the hidden sum") from None


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


_NOT_BIJECTIVE = "membership test requires a bijective table on the space"


def agl_membership(g_table: Sequence[int], hs: HiddenSum) -> bool:
    """Whether the permutation is affine for the hidden sum: whether its
    conjugate G is XOR-affine, that is, G is the table of c*M + t for the
    M and t that read_affine, the attack's fit, reads off g at 0 and at
    the basis.  ValueError unless the table is a permutation of the
    space."""
    try:
        conj = hs.conjugate(g_table)
    except ValueError:
        raise ValueError(_NOT_BIJECTIVE) from None
    if len(set(conj)) != len(conj):
        raise ValueError(_NOT_BIJECTIVE)
    matrix, t = hs.read_affine(g_table.__getitem__)
    return conj == matrix.affine_table(t)


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
    return HiddenSum.__new__(HiddenSum)._adopt(by_coeff, basis)


# ---------------------------------------------------------------------------
# Enumeration and search
# ---------------------------------------------------------------------------

MAX_BRICK_WIDTH = 4
# translation_compatible_sums keeps every sum by a lemma that holds below width 7
assert MAX_BRICK_WIDTH <= 6
# the ring axioms are checked on all 8^width triples
MAX_VERIFY_WIDTH = 8

# One product from each GL(width, 2)-orbit, as its nonzero constants
# {(i, j): e_i*e_j}, i < j: XOR, and from width 3 on e_1*e_2 = e_width.
ORBIT_REPRESENTATIVES = {1: ({},), 2: ({},), 3: ({}, {(0, 1): 0b100}), 4: ({}, {(0, 1): 0b1000})}


def gl_generators(width: int) -> tuple[tuple[list[int], list[int]], ...]:
    """Generators of GL(width, 2) as the images of the unit vectors under A
    and, written out, under A^-1: swap e_1 and e_2, shift e_i to e_(i+1)
    cyclically, and the transvection e_1 -> e_1 + e_2 (at width 1, where
    there is no e_2, all three are the identity).  The orbit walk moves a
    product's constants with A's images and A^-1's table."""
    units = [1 << i for i in range(width)]
    swap = units[1::-1] + units[2:]
    shift, unshift = units[1:] + units[:1], units[-1:] + units[:-1]
    transvection = [sum(units[:2])] + units[1:]
    return (swap, swap), (shift, unshift), (transvection, transvection)


def _pair_slots(width: int) -> list[list[int]]:
    """slot[i][j], for i != j, is the position of e_i*e_j among a product's
    constants, the pairs i < j in the order of combinations; slot[i][i] is
    the padding slot past them, read as 0 since e_i*e_i = 0."""
    pad = width * (width - 1) // 2
    slot = [[pad] * width for _ in range(width)]
    for p, (i, j) in enumerate(itertools.combinations(range(width), 2)):
        slot[i][j] = slot[j][i] = p
    return slot


@lru_cache(maxsize=None)
def _orbit_walk(width: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The orbit under GL(width, 2) of each of ORBIT_REPRESENTATIVES[width],
    every product as its constants e_i*e_j for the pairs i < j in the order
    of combinations.

    A acts by x *' y = A^-1(Ax * Ay), again a commutative, associative
    product with x*x = 0, and each orbit is closed breadth first under
    gl_generators.  A move reads e_i *' e_j off the old constants, as
    Ae_i * Ae_j is the sum of e_a*e_b over the bits a of Ae_i and b of
    Ae_j: one or two terms, since only e_1 goes to two bits, and a term
    with a = b is the padding slot."""
    pairs = list(itertools.combinations(range(width), 2))
    slot = _pair_slots(width)
    moves = []
    for images, inverse_images in gl_generators(width):
        inverse = BinMatrix(inverse_images).affine_table()
        bits = [[k for k in range(width) if v >> k & 1] for v in images]
        terms = [[slot[a][b] for a in bits[i] for b in bits[j]] for i, j in pairs]
        # a one-term sum takes the padding slot as its second term
        moves.append((inverse, [(t + [len(pairs)])[:2] for t in terms]))
    orbits = []
    for representative in ORBIT_REPRESENTATIVES[width]:
        orbit = [tuple(representative.get(pair, 0) for pair in pairs)]
        seen = set(orbit)
        for constants in orbit:  # new products join the list behind the loop
            padded = constants + (0,)
            for inverse, terms in moves:
                new = tuple([inverse[padded[a] ^ padded[b]] for a, b in terms])
                if new not in seen:
                    seen.add(new)
                    orbit.append(new)
        orbits.append(tuple(orbit))
    return tuple(orbits)


def enumerate_regular_groups(width: int) -> tuple[tuple[AffineMap, ...], ...]:
    """All regular groups of affine involutions on (F_2)^width.

    These groups correspond one to one with the commutative, associative
    products on (F_2)^width with x*x = 0, through x # y = x + y + x*y
    (Caranti, Dalla Volta & Sala, "Abelian regular subgroups of the affine
    group and radical rings"; Calderini & Sala, "Elementary abelian regular
    subgroups as hidden sums for cryptographic trapdoors"), and the
    products are those of _orbit_walk, each read off its constants.  The
    list is complete: the tests compare it at every width with a
    backtracking over the structure constants and with a search over
    generator chains of affine involutions.  Each group is returned as its
    generators, chosen greedily, each the smallest element (by matrix
    rows, then translation) not yet generated.  The groups come in a
    canonical order, that of their element rows.  Nothing is cached here
    but the orbits: the one caller, translation_compatible_sums, keeps its
    sums per width.
    """
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ValueError(f"brick width {width!r} is not a positive int")
    if width > MAX_BRICK_WIDTH:
        raise ValueError(
            f"regular-group enumeration is exhaustive only up to width {MAX_BRICK_WIDTH}"
        )
    slot = _pair_slots(width)
    # a linear part is packed into one int, row 0 highest, so that packed
    # ints order as their row tuples do
    shifts = [width * (width - 1 - i) for i in range(width)]
    identity, low = sum(1 << i << s for i, s in enumerate(shifts)), (1 << width) - 1
    groups = []
    for orbit in _orbit_walk(width):
        for constants in orbit:
            padded = constants + (0,)
            # the element sending 0 to y is x |-> x + y + x*y, whose linear
            # part has row i e_i + e_i*y, so y + e_j adds e_i*e_j to row i
            rows = [identity]
            for slots in slot:  # slot[j] holds e_i*e_j for each row i
                step = 0
                for s, t in zip(slots, shifts):
                    step |= padded[s] << t
                rows += [r ^ step for r in rows]
            reached, generators = {0}, []
            for y in sorted(range(len(rows)), key=rows.__getitem__):
                if y not in reached:
                    matrix = BinMatrix([rows[y] >> s & low for s in shifts])
                    generators.append(AffineMap(matrix, y))
                    if len(generators) == width:  # every element is reached
                        break
                    table = matrix.affine_table(y)
                    reached |= {table[x] for x in reached}
            groups.append((rows, tuple(generators)))
    groups.sort(key=lambda group: group[0])
    return tuple(generators for _, generators in groups)


@lru_cache(maxsize=None, typed=True)
def translation_compatible_sums(width: int) -> tuple[HiddenSum, ...]:
    """Hidden sums on one brick for which all XOR translations are affine:
    every enumerated sum, since MAX_BRICK_WIDTH <= 6.

    Translation by a is affine exactly when g(x) = (x + a) # a = x + x*a
    (using a*a = 0) is additive for #, and expanding with
    x # y = x + y + x*y in the commutative, associative ring of
    characteristic 2 gives g(x # y) = g(x) # g(y) + x*y*a.  So all
    translations are affine exactly when every triple product x*y*a is 0.

    No sum of width below 7 has a triple product a*b*c that is not 0, as
    then a, b, c, ab, ac, bc and abc would be linearly independent.  Take
    a relation among them: every product with a repeated factor is 0
    (x*x = 0), so multiplying it by bc, ac and ab leaves the coefficients
    of a, b and c times abc, and then multiplying by c, b and a leaves
    those of ab, ac and bc times abc.  All six are 0, and so is the last.
    """
    return tuple(HiddenSum(g) for g in enumerate_regular_groups(width))


def _brick_passes(projected: Sequence[int], d: int, off: int, s: HiddenSum) -> bool:
    """The brick test of find_hidden_sums for the sum s on the brick at bits
    off.. of a d-bit table, given as the brick's bits of each entry: for
    each setting of the other bits, the row T(c) over the brick's
    coordinates c must be its own T(0) doubled out by the steps
    T(e_k) + T(0) read off the first row."""
    coords = s._by_element
    placed = [e << off for e in s._by_coeff]
    steps = None
    for high in range(0, 1 << d, 1 << (off + s.width)):
        for x in range(high, high + (1 << off)):
            row = [coords[projected[x | p]] for p in placed]
            if steps is None:
                steps = [row[1 << k] ^ row[0] for k in range(s.width)]
            affine = [row[0]]
            for step in steps:
                affine += [y ^ step for y in affine]
            if row != affine:
                return False
    return True


def _brick_survivors(
    tables: Sequence[Sequence[int]], brick_widths: Sequence[int]
) -> list[list[HiddenSum]]:
    """For each brick, the sums of translation_compatible_sums(width) that
    pass find_hidden_sums' brick test (_brick_passes) for every table, in
    their order.  The tables must be permutations of the space; each is
    projected onto a brick's bits once, for all of that brick's sums, and
    the test runs on the canonical sums themselves."""
    d = sum(brick_widths)
    survivors, off = [], 0
    for w in brick_widths:
        low = (1 << w) - 1
        projected = [[y >> off & low for y in t] for t in tables]
        survivors.append(
            [
                s
                for s in translation_compatible_sums(w)
                if all(_brick_passes(p, d, off, s) for p in projected)
            ]
        )
        off += w
    return survivors


def _unit_pair_preimages(inverse: Sequence[int]) -> tuple[int, list[tuple[int, int, int]]]:
    """rho^-1(0), for the permutation rho whose inverse has the given table,
    and for each pair of unit vectors e_i, e_j, i < j, the preimages of
    e_i, e_j and e_i + e_j."""
    units = [1 << i for i in range(len(inverse).bit_length() - 1)]
    pairs = itertools.combinations(units, 2)
    return inverse[0], [(inverse[u], inverse[v], inverse[u | v]) for u, v in pairs]


def _direction_passes(
    table: Sequence[int], preimages: tuple[int, list[tuple[int, int, int]]], a: int
) -> bool:
    """Whether h(y) = rho(rho^-1(y) + a) has h(0) + h(e_i) + h(e_j) +
    h(e_i + e_j) = 0 for every pair of unit vectors, as it has when a is in
    the annihilator of a sum that makes rho affine (see find_hidden_sums);
    the preimages are _unit_pair_preimages of rho^-1."""
    zero, pairs = preimages
    h0 = table[zero ^ a]
    for p, q, r in pairs:
        if table[p ^ a] ^ table[q ^ a] ^ table[r ^ a] != h0:
            return False
    return True


def find_hidden_sums(
    round_generators: Iterable[Sequence[int]], brick_widths: Sequence[int]
) -> list[HiddenSum]:
    """All brick-parallel hidden sums for which the given round functions
    and every XOR translation are affine, ordered by _key.

    Per-brick candidates come from translation_compatible_sums, so every
    XOR translation, which acts on one brick at a time, is affine for
    each of their products; only the supplied generators are tested.

    An exact pre-test comes first, before any orbit is walked or sum
    built.  A sum s_i on one brick is x # y = x + y + x*y for a nilpotent
    product, so it has a nonzero annihilator U_i (all of the brick when
    s_i is XOR).  For a in U_i, placed on brick i's bits, x # a = x + a in
    s.  So if rho is affine for s, with linear part L, then
    rho(x + a) = rho(x) # c with c = L(a), and
    g_a(y) = rho(rho^-1(y) + a) + y = c + y*c is XOR-affine in y: in
    particular g_a(0) + g_a(e_i) + g_a(e_j) + g_a(e_i + e_j) = 0 for every
    pair of unit vectors i < j (the y terms cancel, so _direction_passes
    reads rho(rho^-1(y) + a) alone).  A brick passes when some nonzero a
    on its bits meets this, and the first such a ends its test.  If some
    brick of some table passes no direction, no product of brick sums
    makes that table affine, and the search returns [] at once.  The pair
    test is weaker than affinity of g_a, but it is implied by it, so the
    pre-test rejects only rounds that the search below would find no sum
    for.  It reads rho^-1, which the bijectivity check builds for each
    table in the one pass that refuses a table off the space, and costs at
    most k (2^w - 1) d(d - 1)/2 triples of lookups, where a test of
    affinity would scan 2^d points per direction; a table that passes goes
    on to the search unchanged, with the same results, order and objects.
    It rejects 994 of 1,000 seeded 4-bit permutations at [4], and the
    inversion bricks.

    Otherwise each brick's candidates are first pruned by a test on that
    brick alone.  If a round table rho is affine for s = s_1 x ... x s_k,
    it is c*M + t in coordinates, so with the input fixed on every brick
    but brick i, brick i's output coordinates are affine in its input
    coordinates with linear part M_ii.  That is, with E_i and C_i the
    element and coordinate tables of s_i, the table
    T_i(c_i, x_rest) = C_i(rho(E_i(c_i) || x_rest)_i) has
    T_i(c + e_k, x_rest) + T_i(c, x_rest) = T_i(e_k, 0) + T_i(0, 0) for
    every c, every x_rest and every unit vector e_k of brick i, which
    depends on s_i alone.  The test is necessary, not sufficient: every
    product of the survivors is still built and tested with agl_membership
    at full width, so the results, their order and their bases (from the
    same part objects) are those of the unpruned product.  On the bundled
    cipher one candidate per brick survives, so one product sum is built
    instead of 64.  The brick test runs on the canonical sums of
    translation_compatible_sums, so a round that passes the pre-test
    builds every sum of each of its brick widths once, and a round that
    the pre-test rejects builds none.
    """
    if not brick_widths:
        raise ValueError("need at least one brick")
    for w in brick_widths:
        if isinstance(w, bool) or not isinstance(w, int) or not 1 <= w <= MAX_BRICK_WIDTH:
            raise ValueError(f"brick width {w!r} is outside 1..{MAX_BRICK_WIDTH}")
    round_generators = list(round_generators)  # read four times below
    d = sum(brick_widths)
    n = 1 << d
    inverses = []
    for table in round_generators:
        inverse = [-1] * n
        try:
            # a float, even 3.0, an entry past the space and a negative one,
            # which would wrap, fail first_outside; len fails on an iterator
            if len(table) == n and first_outside(table, d) is None:
                for x, y in enumerate(table):
                    inverse[y] = x
        except TypeError:
            pass
        if -1 in inverse:
            raise ValueError("round generators must be bijective tables on the space")
        inverses.append(inverse)
    for table, inverse in zip(round_generators, inverses):
        preimages, off = _unit_pair_preimages(inverse), 0
        for w in brick_widths:
            if not any(_direction_passes(table, preimages, a << off) for a in range(1, 1 << w)):
                return []
            off += w
    results = []
    for combo in itertools.product(*_brick_survivors(round_generators, brick_widths)):
        hs = product_sum(list(combo))
        if all(agl_membership(t, hs) for t in round_generators):
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
        width = read_digits(lines[0], 10)
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


def _spec_line(g: AffineMap) -> str:
    mat = "".join(vec_to_str(r, g.width) for r in g.matrix.rows)
    return f"{mat}|{vec_to_str(g.translation, g.width)}"


def dump_group_spec(generators: Sequence[AffineMap]) -> str:
    lines = [str(generators[0].width)] + [_spec_line(g) for g in generators]
    return "\n".join(lines) + "\n"


def hidden_sum_report(generators: Sequence[AffineMap]) -> dict:
    """Build and fully verify a hidden sum, reporting each check.

    Every generator must be in AGL(d, 2), so one with a singular matrix is
    refused (ValueError) before any check.  The group the generators span
    is abelian when they commute pairwise, and then regular exactly when
    the orbit of 0 is the whole space (a transitive abelian group acts
    freely), so it is never closed.
    """
    width = _common_width(generators)
    if width > MAX_VERIFY_WIDTH:
        raise ValueError(f"width {width} exceeds {MAX_VERIFY_WIDTH}, the verification limit")
    for i, g in enumerate(generators, start=1):
        if not g.matrix.is_invertible():
            raise ValueError(
                f"generator {i} ({_spec_line(g)}) has a singular matrix, "
                f"so it is not in AGL({width}, 2)"
            )
    report: dict = {
        "abelian": True,
        "regular": True,
        "elementary_abelian": True,
        "kappa_homomorphism": None,
        "U_basis": None,
        "ring_axioms": None,
        "nilpotency_index": None,
    }
    if any(g.then(h) != h.then(g) for g, h in itertools.combinations(generators, 2)):
        report["abelian"] = False
        report["regular"] = None
        report["elementary_abelian"] = None
        return report
    orbit, frontier = {0}, [0]
    while frontier:
        frontier = {g.apply(x) for x in frontier for g in generators} - orbit
        orbit |= frontier
    if len(orbit) != 1 << width:
        report["regular"] = False
        report["elementary_abelian"] = None
        return report
    try:
        hs = HiddenSum(generators)
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
