"""Exact linear algebra over GF(2) and field arithmetic in GF(2^m).

Bit vectors are plain Python ints: bit i holds coordinate i+1, so the
vector (1,0,0) is 0b001 = 1 and (0,1,1) is 0b110 = 6.  Matrices act on
the right of row vectors, x |-> x*M, and row i of a matrix is itself an
int in the same encoding.

Field elements of GF(2^m) are ints with the "ascending" encoding: bit i
is the coefficient of a^i, where a is a root of the modulus polynomial.
The modulus is an int too (bit i = coefficient of x^i), e.g. 0b1011 is
x^3 + x + 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache


def dot(a: int, b: int) -> int:
    """Scalar product of two bit vectors over F_2 (parity of a & b)."""
    return (a & b).bit_count() & 1


def vec_to_str(v: int, width: int) -> str:
    """Render a vector as '0'/'1' characters in coordinate order."""
    return "".join("1" if (v >> i) & 1 else "0" for i in range(width))


def vec_from_str(s: str) -> int:
    """Parse a '0'/'1' coordinate string (inverse of vec_to_str)."""
    v = 0
    for i, c in enumerate(s):
        if c == "1":
            v |= 1 << i
        elif c != "0":
            raise ValueError(f"invalid bit character {c!r}")
    return v


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix is singular: rank {rank} < {size}")


class BinMatrix:
    """A square matrix over F_2, stored as one int per row.

    Invertibility and the inverse are computed on demand by Gaussian
    elimination and cached; instances are immutable.
    """

    __slots__ = ("rows", "size", "_rank", "_inverse")

    def __init__(self, rows: Sequence[int]):
        size = len(rows)
        mask = (1 << size) - 1
        for r in rows:
            if r < 0 or r > mask:
                raise ValueError(f"row 0b{r:b} does not fit in width {size}")
        self.rows: tuple[int, ...] = tuple(rows)
        self.size = size
        self._rank: int | None = None
        self._inverse: BinMatrix | None = None

    @classmethod
    def identity(cls, size: int) -> BinMatrix:
        return cls([1 << i for i in range(size)])

    @classmethod
    def from_text(cls, text: str) -> BinMatrix:
        """Parse the one-row-per-line '0'/'1' matrix format."""
        rows = [vec_from_str(line.strip()) for line in text.strip().splitlines()]
        widths = {len(line.strip()) for line in text.strip().splitlines()}
        if widths != {len(rows)}:
            raise ValueError("matrix text is not square")
        return cls(rows)

    def apply(self, x: int) -> int:
        """Row vector times matrix: XOR of the rows selected by x's bits."""
        if x < 0 or x >> self.size:
            raise ValueError(f"vector 0b{x:b} does not fit in width {self.size}")
        out = 0
        rows = self.rows
        while x:
            i = (x & -x).bit_length() - 1
            out ^= rows[i]
            x &= x - 1
        return out

    def affine_table(self, t: int = 0) -> list[int]:
        """[x*M + t for every x], by doubling: the entries for x with bit i
        set are those without it, each XORed with row i."""
        table = [t]
        for r in self.rows:
            table += [y ^ r for y in table]
        return table

    def __matmul__(self, other: BinMatrix) -> BinMatrix:
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
        return BinMatrix([other.apply(r) for r in self.rows])

    def _eliminate(self) -> tuple[int, list[int]]:
        """Gauss-Jordan on [self | I]; returns (rank, reduced augmented rows)."""
        n = self.size
        aug = [self.rows[i] | (1 << (n + i)) for i in range(n)]
        rank = 0
        for col in range(n):
            bit = 1 << col
            for r in range(rank, n):
                if aug[r] & bit:
                    break
            else:
                continue
            pivot = aug[r]
            aug[r] = aug[rank]
            # clearing the column also clears the pivot row, restored after
            aug = [a ^ pivot if a & bit else a for a in aug]
            aug[rank] = pivot
            rank += 1
        return rank, aug

    def rank(self) -> int:
        if self._rank is None:
            self._rank, _ = self._eliminate()
        return self._rank

    def is_invertible(self) -> bool:
        return self.rank() == self.size

    def inverse(self) -> BinMatrix:
        if self._inverse is None:
            rank, aug = self._eliminate()
            self._rank = rank
            if rank != self.size:
                raise SingularMatrixError(rank, self.size)
            n = self.size
            mask = (1 << n) - 1
            # After Gauss-Jordan the left block is I, so row i of the right
            # block is row i of the inverse.
            self._inverse = BinMatrix([(aug[i] >> n) & mask for i in range(n)])
            self._inverse._inverse = self
        return self._inverse

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BinMatrix({list(self.rows)!r})"


# ---------------------------------------------------------------------------
# Subspaces and cosets of (F_2)^d
# ---------------------------------------------------------------------------


def span_basis(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the F_2-span of the given vectors.

    Basis rows are returned with strictly decreasing leading bits, and each
    leading bit occurs in exactly one row, so equal spans give equal tuples.
    Rows are kept by the bit length of their leading bit.  Once those
    lengths are 1, ..., L, the span holds every vector of at most L bits:
    such vectors are skipped, and if no longer one comes, the basis is the
    unit vectors below 2^L.
    """
    rows: dict[int, int] = {}  # bit length of the leading bit -> row
    top = 0  # the longest bit length in rows
    full = 0  # the span holds every vector of at most this many bits
    for v in vectors:
        if not v >> full:
            continue
        while v:
            length = v.bit_length()
            row = rows.get(length)
            if row is None:
                rows[length] = v
                if length > top:
                    top = length
                if len(rows) == top:
                    full = top
                break
            v ^= row
    if full == top:
        return tuple(1 << i for i in range(top - 1, -1, -1))
    basis = [rows[length] for length in sorted(rows, reverse=True)]
    # back-substitute to reduced form
    for i in range(len(basis)):
        for j in range(i):
            if basis[j] ^ basis[i] < basis[j]:
                basis[j] ^= basis[i]
    return tuple(basis)


def span_reduce(basis: Sequence[int], v: int) -> int:
    """Minimal representative of v modulo the span of an echelon basis."""
    for b in basis:
        if v ^ b < v:
            v ^= b
    return v


class Subspace:
    """A linear subspace of (F_2)^width, canonicalized by its echelon basis."""

    __slots__ = ("basis", "width")

    def __init__(self, vectors: Iterable[int], width: int):
        self.basis = span_basis(vectors)
        self.width = width

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << self.dim

    def __contains__(self, v: int) -> bool:
        return not span_reduce(self.basis, v)

    @classmethod
    def _from_echelon(cls, basis: tuple[int, ...], width: int) -> Subspace:
        """A subspace whose reduced echelon basis is already known."""
        s = cls.__new__(cls)
        s.basis = basis
        s.width = width
        return s

    def orthogonal_complement(self) -> Subspace:
        """All v with dot(v, b) = 0 for every basis vector b; computed once
        per (basis, width) and shared (see _orthogonal_complement)."""
        return _orthogonal_complement(self.basis, self.width)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.width == other.width
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.width, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={list(self.basis)})"


@lru_cache(maxsize=1024)
def _orthogonal_complement(basis: tuple[int, ...], width: int) -> Subspace:
    """The complement read off a reduced echelon basis: one vector per
    non-pivot coordinate j, e_j plus the pivots (leading bits) of the rows
    that have bit j set.  The zero space and the whole space are each
    other's complement."""
    if not basis:
        return Subspace._from_echelon(tuple(1 << j for j in reversed(range(width))), width)
    if len(basis) == width == basis[0].bit_length():
        return Subspace._from_echelon((), width)
    pivots = [1 << (b.bit_length() - 1) for b in basis]
    taken = sum(pivots)
    perp = [
        e | sum(p for b, p in zip(basis, pivots) if b & e)
        for e in (1 << j for j in range(width))
        if not e & taken
    ]
    return Subspace(perp, width)


class AffineSubspace:
    """A coset base + W of a linear subspace W, stored in canonical form.

    The stored base point is the minimal element of the coset, so two
    AffineSubspace values compare equal exactly when they are the same
    point set.
    """

    __slots__ = ("base", "space")

    def __init__(self, base: int, space: Subspace):
        self.space = space
        self.base = span_reduce(space.basis, base)

    @property
    def dim(self) -> int:
        return self.space.dim

    def __len__(self) -> int:
        return len(self.space)

    def __contains__(self, v: int) -> bool:
        return (v ^ self.base) in self.space

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineSubspace)
            and self.base == other.base
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((self.base, self.space))

    def __repr__(self) -> str:
        return f"AffineSubspace(base={self.base}, dim={self.dim})"


# ---------------------------------------------------------------------------
# GF(2^m)
# ---------------------------------------------------------------------------


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    db = _poly_degree(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


class FieldSpec:
    """GF(2^m) described by its extension degree and modulus polynomial.

    The modulus must be a non-negative int, irreducible of degree exactly
    m; this is verified at construction by Ben-Or's test, in time
    polynomial in m: a reducible p has an irreducible factor of some degree
    i <= m // 2, which divides both p and x^(2^i) - x, so p is irreducible
    iff all those gcds are 1.
    """

    __slots__ = ("m", "modulus", "_exp_log")

    def __init__(self, m: int, modulus: int):
        if m < 1:
            raise ValueError("extension degree must be positive")
        if modulus < 0:
            # a negative int is no polynomial, and Ben-Or's loop would not end
            raise ValueError(f"modulus {modulus} must be non-negative")
        if _poly_degree(modulus) != m:
            raise ValueError(f"modulus 0b{modulus:b} does not have degree {m}")
        h = 0b10  # x^(2^i) mod modulus
        for _ in range(m // 2):
            # squaring over F_2 spreads the bits: read the binary digits in base 4
            h = _poly_mod(int(f"{h:b}", 4), modulus)
            g, r = modulus, h ^ 0b10
            while r > 1:  # Euclid until coprime (r = 1) or g = gcd (r = 0)
                g, r = r, _poly_mod(g, r)
            if r == 0:
                raise ValueError(
                    f"modulus 0b{modulus:b} is divisible by 0b{g:b}, not irreducible"
                )
        self.m = m
        self.modulus = modulus
        self._exp_log: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def exp_log(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Exp and log tables of a multiplicative generator g, built on first
        use: exp[i] = g^i for 0 <= i < 2^m - 1, and g^log[x] = x for x != 0
        (log[0] is 0 and means nothing).  The generator is the smallest
        element of order 2^m - 1; x itself need not be one (for the modulus
        0x11B, x has order 51)."""
        if self._exp_log is None:
            for g in range(1, 1 << self.m):
                exp = [1]
                while (y := gf_mul(exp[-1], g, self)) != 1:
                    exp.append(y)
                if len(exp) == (1 << self.m) - 1:
                    break
            log = [0] * (1 << self.m)
            for i, y in enumerate(exp):
                log[y] = i
            self._exp_log = (tuple(exp), tuple(log))
        return self._exp_log

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"FieldSpec(m={self.m}, modulus=0b{self.modulus:b})"


def gf_mul(a: int, b: int, fs: FieldSpec) -> int:
    """Carry-less product of a and b, reduced by the field modulus."""
    top = 1 << fs.m
    if a < 0 or a >= top or b < 0 or b >= top:
        raise ValueError(f"operands must be {fs.m}-bit field elements")
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & top:
            a ^= fs.modulus
        b >>= 1
    return r


def gf_pow(a: int, k: int, fs: FieldSpec) -> int:
    """a^k by square-and-multiply; a^0 = 1 for every a, including 0."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    r = 1
    base = a
    while k:
        if k & 1:
            r = gf_mul(r, base, fs)
        base = gf_mul(base, base, fs)
        k >>= 1
    return r
