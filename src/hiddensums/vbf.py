"""Vectorial Boolean functions and their differential properties.

A function (F_2)^m -> (F_2)^n is held as a full lookup table, which keeps
every test below exact: differential uniformity, APN and weakly-APN,
derivative images and their coset structure (crooked / anti-crooked),
component spaces, and extended-affine transforms.

Derivatives can be taken with respect to the standard XOR sum or any
group-operation handle (see gf2.XorSum and hidden_sum.HiddenSum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import (
    AffineSubspace,
    BinMatrix,
    FieldSpec,
    Subspace,
    field_to_vec,
    gf_mul,
    span_basis,
)

# Tables are exhaustive over 2^m inputs; refuse wider functions outright.
TABLE_LIMIT_BITS = 16

CROOKED = "crooked"
ANTI_CROOKED = "anti_crooked"


class VBF:
    """A vectorial Boolean function as a lookup table over all 2^m inputs."""

    __slots__ = ("m", "n", "table", "_is_permutation")

    def __init__(self, m: int, n: int, table: Sequence[int]):
        if m > TABLE_LIMIT_BITS:
            raise ValueError(f"input width {m} exceeds table limit {TABLE_LIMIT_BITS}")
        if len(table) != 1 << m:
            raise ValueError(f"table must have exactly {1 << m} entries")
        mask = (1 << n) - 1
        for y in table:
            if y < 0 or y > mask:
                raise ValueError(f"table value 0b{y:b} does not fit in width {n}")
        self.m = m
        self.n = n
        self.table: tuple[int, ...] = tuple(table)
        self._is_permutation: bool | None = None

    def __call__(self, x: int) -> int:
        return self.table[x]

    @property
    def is_permutation(self) -> bool:
        if self._is_permutation is None:
            self._is_permutation = self.m == self.n and len(set(self.table)) == len(self.table)
        return self._is_permutation

    @classmethod
    def identity(cls, m: int) -> VBF:
        return cls(m, m, list(range(1 << m)))

    @classmethod
    def _tabulate(cls, fs: FieldSpec, basis: BinMatrix | None, values) -> VBF:
        """Tabulate a map GF(2^m) -> GF(2^m), the table limit checked first.

        values() returns the map's values at 0, 1, ..., 2^m - 1 in the
        ascending field encoding.  The optional basis matrix maps field
        elements to coordinate vectors; None means the ascending encoding is
        used directly."""
        if fs.m > TABLE_LIMIT_BITS:
            raise ValueError(f"input width {fs.m} exceeds table limit {TABLE_LIMIT_BITS}")
        table = values()
        if basis is not None:
            to_field = basis.inverse()
            table = [basis.apply(table[to_field.apply(v)]) for v in range(1 << fs.m)]
        return cls(fs.m, fs.m, table)

    @classmethod
    def from_power(cls, d: int, fs: FieldSpec, basis: BinMatrix | None = None) -> VBF:
        """The power map x^d (d >= 0) on GF(2^m), read off the field's exp/log
        tables: x^d = exp[log(x) * d mod (2^m - 1)] for x != 0, and 0^d is 1
        for d = 0 and 0 otherwise."""
        if d < 0:
            raise ValueError("exponent must be non-negative")

        def values() -> list[int]:
            exp, log = fs.exp_log()
            order = len(exp)
            return [0**d] + [exp[log[x] * d % order] for x in range(1, 1 << fs.m)]

        return cls._tabulate(fs, basis, values)

    @classmethod
    def from_univariate(
        cls, coeffs: Sequence[int], fs: FieldSpec, basis: BinMatrix | None = None
    ) -> VBF:
        """Tabulate a univariate polynomial over GF(2^m) by Horner's rule;
        coeffs[i] is the coefficient of x^i."""
        if any(c < 0 or c >> fs.m for c in coeffs):
            raise ValueError("coefficients must be field elements")

        def horner(x: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = gf_mul(acc, x, fs) ^ c
            return acc

        return cls._tabulate(fs, basis, lambda: [horner(x) for x in range(1 << fs.m)])

    def inverse(self) -> VBF:
        if not self.is_permutation:
            raise ValueError("only permutations can be inverted")
        inv = [0] * len(self.table)
        for x, y in enumerate(self.table):
            inv[y] = x
        return VBF(self.m, self.n, inv)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VBF)
            and self.m == other.m
            and self.n == other.n
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.table))

    def __repr__(self) -> str:
        return f"VBF(m={self.m}, n={self.n})"


@dataclass(frozen=True)
class DerivativeImage:
    """Image of the derivative of f in one nonzero direction."""

    direction: int
    image: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.image)


def derivative_image(f: VBF, a: int, sum_op=None) -> DerivativeImage:
    """Im of x |-> f(x # a) "minus" f(x) under the given sum (default XOR)."""
    if a == 0:
        raise ValueError("derivative direction must be nonzero")
    table = f.table
    if sum_op is None or getattr(sum_op, "is_xor", False):
        image = {table[x ^ a] ^ table[x] for x in range(1 << f.m)}
    else:
        if f.m != f.n:
            raise ValueError("custom sums require m = n")
        op = sum_op.op  # every element is its own negative
        image = {op(table[op(x, a)], table[x]) for x in range(1 << f.m)}
    return DerivativeImage(a, frozenset(image))


@dataclass(frozen=True)
class DiffSpectrum:
    """Maximum differential count delta, one witness pair attaining it, and
    (optionally) the full count table as {a: {b: count}}."""

    delta: int
    witness: tuple[int, int]
    counts: dict[int, dict[int, int]] | None = None


def diff_uniformity(f: VBF, keep_counts: bool = False) -> DiffSpectrum:
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


def is_apn(f: VBF) -> bool:
    """Differential uniformity 2, decided from image sizes: D_a f takes each
    value an even number of times (at x and at x + a), so delta = 2 exactly
    when every derivative image has 2^(m-1) points."""
    if f.m != f.n:
        raise ValueError("APN is defined for m = n")
    half = 1 << f.m >> 1
    return f.m > 0 and all(derivative_image(f, a).size == half for a in range(1, 1 << f.m))


def is_weakly_apn(f: VBF) -> bool:
    """Every nonzero direction's derivative image has more than 2^(m-2) points."""
    if f.m != f.n:
        raise ValueError("weak APN is defined for m = n")
    return all(
        4 * derivative_image(f, a).size > 1 << f.m for a in range(1, 1 << f.m)
    )


# ---------------------------------------------------------------------------
# Cosets of derivative images
# ---------------------------------------------------------------------------


def is_coset(points: Iterable[int], sum_op=None) -> bool:
    """Whether a finite point set is a coset of a subgroup under the sum.

    The set is translated so that its lexicographically smallest element
    moves to the identity; a coset is exactly a translate that contains 0
    and is closed under the sum.  A subgroup of an elementary abelian
    2-group has 2^k points, so a set of any other size is rejected first.
    For XOR the closure test reduces to a rank computation; other sums are
    checked pairwise.
    """
    pts = set(points)
    if not pts:
        raise ValueError("empty set has no coset structure")
    if len(pts) & (len(pts) - 1):
        return False
    base = min(pts)
    if sum_op is None or getattr(sum_op, "is_xor", False):
        shifted = [p ^ base for p in pts]
        return len(pts) == 1 << len(span_basis(shifted))
    shifted = {sum_op.op(p, base) for p in pts}
    return all(sum_op.op(u, v) in shifted for u in shifted for v in shifted)


def affine_hull(points: Iterable[int], width: int) -> AffineSubspace:
    """Smallest XOR-coset containing the points: a base point plus the span
    of the differences to it."""
    pts = list(points)
    if not pts:
        raise ValueError("empty set has no affine hull")
    base = pts[0]
    return AffineSubspace(base, Subspace((p ^ base for p in pts), width))


@dataclass(frozen=True)
class ACVerdict:
    """Outcome of an anti-crookedness test.

    When the function fails, witness names a direction whose derivative
    image is a coset.
    """

    value: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.value


def _require_vbf_permutation(f: VBF) -> None:
    if f.m != f.n:
        raise ValueError("crookedness tests require m = n")
    if not f.is_permutation:
        raise ValueError("crookedness tests require a permutation")


def is_coset_free(f: VBF, sum_op=None) -> ACVerdict:
    """True iff no nonzero direction's derivative image is a coset.

    Defined for any function; the anti-crooked label additionally demands
    a permutation (see is_anti_crooked).
    """
    for a in range(1, 1 << f.m):
        if is_coset(derivative_image(f, a, sum_op).image, sum_op):
            return ACVerdict(False, a)
    return ACVerdict(True, None)


def is_anti_crooked(f: VBF, sum_op=None) -> ACVerdict:
    """Anti-crooked: a permutation none of whose derivative images is a coset."""
    _require_vbf_permutation(f)
    return is_coset_free(f, sum_op)


def is_crooked(f: VBF, sum_op=None) -> bool:
    """True iff every nonzero direction's derivative image is a coset."""
    _require_vbf_permutation(f)
    return all(
        is_coset(derivative_image(f, a, sum_op).image, sum_op)
        for a in range(1, 1 << f.m)
    )


def power_ac_dichotomy(d: int, fs: FieldSpec, basis: BinMatrix | None = None) -> str:
    """Classify the power map x^d as crooked or anti-crooked.

    For power maps a single direction decides: if one derivative image is a
    coset then all of them are.  The direction tested is the field element 1.
    """
    if basis is None:
        basis = BinMatrix.identity(fs.m)
    f = VBF.from_power(d, fs, basis)
    a = field_to_vec(1, basis)
    coset = is_coset(derivative_image(f, a).image)
    return CROOKED if coset else ANTI_CROOKED


# ---------------------------------------------------------------------------
# Component spaces and the flatness measure
# ---------------------------------------------------------------------------


def component_space(f: VBF, a: int) -> Subspace:
    """The space of v for which x |-> dot(D_a f(x), v) is constant: the
    complement of the span of the image's differences to its smallest point."""
    if a == 0:
        raise ValueError("direction must be nonzero")
    img = sorted(derivative_image(f, a).image)
    return Subspace((w ^ img[0] for w in img[1:]), f.n).orthogonal_complement()


def n_hat(f: VBF) -> int:
    """2^t - 1 where t is the largest component-space dimension over all
    nonzero directions; 0 means no derivative image lies in a proper
    affine subspace."""
    t = max(component_space(f, a).dim for a in range(1, 1 << f.m))
    return (1 << t) - 1


# ---------------------------------------------------------------------------
# Extended-affine transforms
# ---------------------------------------------------------------------------


def ea_transform(f: VBF, outer, inner, added) -> VBF:
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


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def dump_sbox(f: VBF) -> str:
    """Text form: header 'm=<int> n=<int>', then 2^m hex outputs, input
    index ascending."""
    digits = max(1, (f.n + 3) // 4)
    lines = [f"m={f.m} n={f.n}"]
    lines += [format(y, f"0{digits}x") for y in f.table]
    return "\n".join(lines) + "\n"


def load_sbox(text: str) -> VBF:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty s-box file")
    header = lines[0].split()
    try:
        m = int(header[0].removeprefix("m="))
        n = int(header[1].removeprefix("n="))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"line 1: bad s-box header {lines[0]!r}") from exc
    if m < 1:
        raise ValueError(f"line 1: input width m={m} must be positive")
    table = []
    for lineno, tok in enumerate(lines[1:], start=2):
        try:
            table.append(int(tok, 16))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {tok!r} is not a hex value") from exc
    return VBF(m, n, table)
