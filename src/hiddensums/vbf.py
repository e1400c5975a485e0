"""Vectorial Boolean functions and their differential properties.

A function (F_2)^m -> (F_2)^n is held as a full lookup table, which keeps
every test below exact: differential uniformity, APN and weakly-APN,
derivative images and their coset structure (crooked / anti-crooked),
component spaces, and extended-affine transforms.

Every sum here is XOR, and a derivative image is the frozenset of its
values.  A question about a hidden sum # is asked of the map's conjugate
in the sum's coordinates (hidden_sum.HiddenSum.conjugate), where # is
XOR, so this module knows nothing of hidden sums.  Maps built from
GF(2^m) are tabulated in the field's ascending encoding (gf2), so a field
element is its own coordinate vector, and from_power returns one shared
object per exponent and field.

Table entries must be ints (bools pass) of n bits; a float or any other
entry is refused with ValueError.  A function with m, n <= gf2.BYTE_BITS
= 8 is checked by gf2.table_bytes and kept as bytes: D_a f at all 2^m
points is one translate of the points x + a (gf2._shifted, 2^m bytes
objects per m, built on first use), and its distinct values two more, in
ascending order.  Wider functions are scanned point by point.  Only the
derivative kernels, _derivative and _derivative_values, tell the two
apart.

Each function keeps, per direction a, the size of Im D_a f and, once it
is read, the image's affine hull.  A direction is sized from the distinct
values of the derivative translated by c = D_a f(0); they are kept until
the hull is first read, then spanned (the hull is c plus their span) and
dropped.  The APN tests read the sizes only, and the image is a coset
when its size is 2^k and equals its hull's (the smallest coset that holds
it), so no other size needs a span.  Most images span (F_2)^n: their
span stops at the n-th independent value, and their hulls are one shared
object per width n.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import index

from .gf2 import BYTE_BITS, BYTE_ONES, BYTE_VALUES, table_bytes
from .gf2 import AffineSubspace, FieldSpec, Subspace, gf_mul, read_digits, span_basis
from .gf2 import _orthogonal_complement, _shifted

# Tables are exhaustive over 2^m inputs; refuse wider functions outright.
TABLE_LIMIT_BITS = 16

CROOKED = "crooked"
ANTI_CROOKED = "anti_crooked"


def check_table_width(m: int) -> None:
    """ValueError if a table over 2^m inputs would pass the table limit."""
    if m > TABLE_LIMIT_BITS:
        raise ValueError(f"input width {m} exceeds table limit {TABLE_LIMIT_BITS}")


class VBF:
    """A vectorial Boolean function as a lookup table over all 2^m inputs."""

    __slots__ = ("m", "n", "table", "_is_permutation", "_derivatives", "_bytes")

    def __init__(self, m: int, n: int, table: Sequence[int]):
        if type(m) is not int or type(n) is not int or m < 0 or n < 0:
            for width, name in ((m, "input width m"), (n, "output width n")):
                if isinstance(width, bool) or not isinstance(width, int) or width < 0:
                    raise ValueError(f"{name} must be a non-negative int, got {width!r}")
        check_table_width(m)
        if len(table) != 1 << m:
            raise ValueError(f"table must have exactly {1 << m} entries")
        table = tuple(table)
        packed = table_bytes(table, n) if m <= BYTE_BITS and n <= BYTE_BITS else None
        # (table padded to a 256-byte translate table, table packed as one
        # big-endian int) when m, n <= 8, else None
        self._bytes: tuple[bytes, int] | None = None
        if packed is not None:
            self._bytes = (packed.ljust(256, b"\0"), int.from_bytes(packed, "big"))
        else:  # a wider table, or a refused one, entry by entry
            for y in table:
                try:
                    v = index(y)
                except TypeError:
                    raise ValueError(f"table value {y!r} is not an int") from None
                if v < 0 or v >> n:
                    raise ValueError(f"table value 0b{v:b} does not fit in width {n}")
        self.m = m
        self.n = n
        self.table: tuple[int, ...] = table
        self._is_permutation: bool | None = None
        # direction a -> (|Im D_a f|, affine hull of Im D_a f), or before the
        # hull is read (|Im D_a f|, distinct values, c) (see _memo)
        self._derivatives: dict[int, tuple] = {}

    @property
    def is_permutation(self) -> bool:
        if self._is_permutation is None:
            self._is_permutation = self.m == self.n and len(set(self.table)) == len(self.table)
        return self._is_permutation

    @classmethod
    def identity(cls, m: int) -> VBF:
        return cls(m, m, list(range(1 << m)))

    @classmethod
    @lru_cache(maxsize=256)
    def from_power(cls, d: int, fs: FieldSpec) -> VBF:
        """The power map x^d (d >= 0) on GF(2^m), read off the field's exp/log
        tables: x^d = exp[log(x) * d mod (2^m - 1)] for x != 0, and 0^d is 1
        for d = 0 and 0 otherwise.  The last 256 maps built are kept, one
        object per (exponent, field), so sweeps over x^d share its
        derivative memo."""
        if d < 0:
            raise ValueError("exponent must be non-negative")
        check_table_width(fs.m)
        exp, log = fs.exp_log()
        order = len(exp)
        return cls(fs.m, fs.m, [0**d] + [exp[log[x] * d % order] for x in range(1, 1 << fs.m)])

    @classmethod
    def from_univariate(cls, coeffs: Sequence[int], fs: FieldSpec) -> VBF:
        """Tabulate a univariate polynomial over GF(2^m) by Horner's rule;
        coeffs[i] is the coefficient of x^i."""
        if any(c < 0 or c >> fs.m for c in coeffs):
            raise ValueError("coefficients must be field elements")
        check_table_width(fs.m)

        def horner(x: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = gf_mul(acc, x, fs) ^ c
            return acc

        return cls(fs.m, fs.m, [horner(x) for x in range(1 << fs.m)])

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


# Kept out of the kernels below: a comprehension there would make cells of
# their arguments and slow every byte-sized call.
def _scan(f: VBF, a: int, c: int) -> list[int]:
    """D_a f(x) + c for x = 0, ..., 2^m - 1, point by point."""
    table = f.table
    return [table[x ^ a] ^ table[x] ^ c for x in range(1 << f.m)]


def _scan_values(f: VBF, a: int, c: int) -> set[int]:
    """The values of D_a f(x) + c at one point of each pair {x, x + a}, the
    one whose bit at a's leading position is clear: D_a f(x) = D_a f(x + a)."""
    table = f.table
    top = 1 << a.bit_length() >> 1
    return {
        table[x ^ a] ^ table[x] ^ c
        for lo in range(0, 1 << f.m, top << 1)
        for x in range(lo, lo + top)
    }


def _derivative(f: VBF, a: int, c: int = 0) -> Sequence[int]:
    """D_a f(x) + c for x = 0, ..., 2^m - 1, for 0 <= a < 2^m and c < 2^n.
    For m, n <= 8 it is one bytes object: the points x + a, read from
    gf2._shifted, are translated through the table to f(x + a), and one
    int XOR adds f(x) and c to every byte."""
    if f._bytes is None:
        return _scan(f, a, c)
    translate, packed = f._bytes
    shifted = _shifted(f.m)[a].translate(translate)
    return (int.from_bytes(shifted, "big") ^ packed ^ c * BYTE_ONES[f.m]).to_bytes(1 << f.m, "big")


def _derivative_values(f: VBF, a: int, c: int = 0) -> bytes | set[int]:
    """The distinct values of D_a f(x) + c, for c < 2^n.  For m, n <= 8
    they are bytes in ascending order: deleting the derivative's bytes from
    0, ..., 2^n - 1 leaves the values it misses, and deleting those leaves
    the values it takes (two bytes.translate calls).  Wider ones: a set."""
    if f._bytes is None:
        return _scan_values(f, a, c)
    values = BYTE_VALUES[f.n]
    return values.translate(None, values.translate(None, _derivative(f, a, c)))


def _check_direction(f: VBF, a: int) -> None:
    if isinstance(a, bool) or not isinstance(a, int):
        raise ValueError(f"derivative direction must be an int, got {a!r}")
    if not 0 < a < 1 << f.m:
        raise ValueError(f"derivative direction must be in 1..{(1 << f.m) - 1}, got {a}")


def derivative_image(f: VBF, a: int) -> frozenset[int]:
    """Im D_a f, the values of x |-> f(x + a) + f(x).

    The direction must be an int with 0 < a < 2^m; the values are those
    of _derivative_values."""
    _check_direction(f, a)
    return frozenset(_derivative_values(f, a))


class DiffSpectrum(namedtuple("DiffSpectrum", "delta witness counts", defaults=(None,))):
    """Maximum differential count delta, one witness pair attaining it, and
    (optionally) the full count table as {a: {b: count}}."""

    __slots__ = ()


def diff_uniformity(f: VBF, keep_counts: bool = False) -> DiffSpectrum:
    """Exact differential uniformity over all nonzero a and all b.  The
    witness is the first direction attaining delta with its smallest b; a
    direction's smallest b is sought only when its top count beats delta."""
    delta = 0
    witness = (0, 0)
    all_counts: dict[int, dict[int, int]] = {}
    for a in range(1, 1 << f.m):
        counts = Counter(_derivative(f, a))
        top = max(counts.values())
        if top > delta:
            delta = top
            witness = (a, min(b for b, c in counts.items() if c == top))
        if keep_counts:
            all_counts[a] = dict(counts)
    return DiffSpectrum(delta, witness, all_counts if keep_counts else None)


def _memo(f: VBF, a: int, check: bool = False) -> tuple:
    """f's entry for direction a, made on a miss (checking a if asked; the
    sweeps over 1..2^m - 1 need not): (size, distinct values, c) until the
    hull is read.  Past the byte limit the hull is spanned at once, as a
    set of values kept per direction would cost 2^(2m-1) ints."""
    entry = f._derivatives.get(a)
    # a float or bool equal to a stored direction would hit its entry
    if entry is None or type(a) is not int:
        if check:
            _check_direction(f, a)
        c = f.table[a] ^ f.table[0]
        values = _derivative_values(f, a, c)
        entry = f._derivatives[a] = (len(values), values, c)
        if f._bytes is None:
            entry = _spanned(f, a, entry)
    return entry


def _spanned(f: VBF, a: int, entry: tuple) -> tuple[int, AffineSubspace]:
    """The entry as (size, hull), its kept values spanned on first read."""
    if len(entry) == 2:
        return entry
    size, values, c = entry
    basis = span_basis(values, f.n)  # n-bit values: the table's, and c < 2^n
    whole = len(basis) == f.n  # n independent n-bit values span (F_2)^n
    hull = _whole_hull(f.n) if whole else AffineSubspace(c, Subspace._from_echelon(basis, f.n))
    entry = f._derivatives[a] = (size, hull)
    return entry


def derivative_shape(f: VBF, a: int) -> tuple[int, AffineSubspace]:
    """(|Im D_a f|, affine hull of Im D_a f), kept on f per direction.  The
    hull is spanned on its first read, such as this one, from the values
    kept since the direction was sized (_memo); a hull that is all of
    (F_2)^n is one object per width n (_whole_hull)."""
    return _spanned(f, a, _memo(f, a, True))


@lru_cache(maxsize=None)
def _whole_hull(n: int) -> AffineSubspace:
    """(F_2)^n as a coset, one object per width, on the whole space that
    gf2 shares as the complement of {0}: the hull of every derivative
    image that spans n dimensions."""
    return AffineSubspace(0, _orthogonal_complement((), n))


def _is_coset(f: VBF, a: int, entry: tuple) -> bool:
    size = entry[0]  # a coset has 2^k points; only then is the hull read
    return not size & (size - 1) and size == len(_spanned(f, a, entry)[1])


def derivative_is_coset(f: VBF, a: int) -> bool:
    """Whether Im D_a f is an XOR coset: the hull is the smallest coset
    containing the image, so the image is one exactly when it fills it."""
    return _is_coset(f, a, _memo(f, a, True))


def is_apn(f: VBF) -> bool:
    """Differential uniformity 2, decided from image sizes: D_a f takes each
    value an even number of times (at x and at x + a), so delta = 2 exactly
    when every derivative image has 2^(m-1) points."""
    if f.m != f.n:
        raise ValueError("APN is defined for m = n")
    half = 1 << f.m >> 1
    return f.m > 0 and all(_memo(f, a)[0] == half for a in range(1, 1 << f.m))


def is_weakly_apn(f: VBF) -> bool:
    """Every nonzero direction's derivative image has more than 2^(m-2) points."""
    if f.m != f.n:
        raise ValueError("weak APN is defined for m = n")
    return all(4 * _memo(f, a)[0] > 1 << f.m for a in range(1, 1 << f.m))


# ---------------------------------------------------------------------------
# Cosets of derivative images
# ---------------------------------------------------------------------------


def is_coset(points: Iterable[int]) -> bool:
    """Whether a finite point set is an XOR coset of a subspace.

    The set is translated so that its smallest element moves to 0; a coset
    is exactly a translate that contains 0 and is closed under XOR, which
    holds when its 2^k points span a space of dimension k.  A set of any
    other size is rejected first.
    """
    pts = set(points)
    if not pts:
        raise ValueError("empty set has no coset structure")
    if len(pts) & (len(pts) - 1):
        return False
    base = min(pts)
    return len(pts) == 1 << len(span_basis([p ^ base for p in pts]))


def affine_hull(points: Iterable[int], width: int) -> AffineSubspace:
    """Smallest XOR-coset containing the points: a base point plus the span
    of the differences to it."""
    pts = list(points)
    if not pts:
        raise ValueError("empty set has no affine hull")
    base = pts[0]
    return AffineSubspace(base, Subspace([p ^ base for p in pts], width))


class ACVerdict(namedtuple("ACVerdict", "value witness", defaults=(None,))):
    """Outcome of an anti-crookedness test, true exactly when value is.

    When the function fails, witness names a direction whose derivative
    image is a coset.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.value


def _require_vbf_permutation(f: VBF) -> None:
    if f.m != f.n:
        raise ValueError("crookedness tests require m = n")
    if not f.is_permutation:
        raise ValueError("crookedness tests require a permutation")


def is_coset_free(f: VBF) -> ACVerdict:
    """True iff no nonzero direction's derivative image is a coset.

    Defined for any function; the anti-crooked label additionally demands
    a permutation (see is_anti_crooked).
    """
    for a in range(1, 1 << f.m):
        if _is_coset(f, a, _memo(f, a)):
            return ACVerdict(False, a)
    return ACVerdict(True, None)


def is_anti_crooked(f: VBF) -> ACVerdict:
    """Anti-crooked: a permutation none of whose derivative images is a coset."""
    _require_vbf_permutation(f)
    return is_coset_free(f)


def is_crooked(f: VBF) -> bool:
    """True iff every nonzero direction's derivative image is a coset."""
    _require_vbf_permutation(f)
    return all(_is_coset(f, a, _memo(f, a)) for a in range(1, 1 << f.m))


def power_ac_dichotomy(d: int, fs: FieldSpec) -> str:
    """Classify the power map x^d as crooked or anti-crooked.

    For power maps a single direction decides: if one derivative image is a
    coset then all of them are.  The direction tested is the field element 1.
    """
    return CROOKED if derivative_is_coset(VBF.from_power(d, fs), 1) else ANTI_CROOKED


# ---------------------------------------------------------------------------
# Component spaces and the flatness measure
# ---------------------------------------------------------------------------


def derivative_hull(f: VBF, a: int) -> AffineSubspace:
    """The affine hull of Im D_a f, read from f's memo."""
    return derivative_shape(f, a)[1]


def component_space(f: VBF, a: int) -> Subspace:
    """The space of v for which x |-> dot(D_a f(x), v) is constant: the
    orthogonal complement of the space of the derivative image's hull."""
    return derivative_hull(f, a).space.orthogonal_complement()


def n_hat(f: VBF) -> int:
    """2^t - 1 where t is the largest component-space dimension over all
    nonzero directions; 0 means no derivative image lies in a proper
    affine subspace."""
    t = max((component_space(f, a).dim for a in range(1, 1 << f.m)), default=0)
    return (1 << t) - 1


# ---------------------------------------------------------------------------
# Extended-affine transforms
# ---------------------------------------------------------------------------


def ea_transform(f: VBF, outer, inner, added) -> VBF:
    """g1(f(g2(x))) + g3(x) for affine g1 (invertible, on outputs), g2
    (invertible, on inputs) and arbitrary affine g3, read off the three
    maps' tables.  g3 acts on the m input bits, so for m > n its outputs
    must fit in n bits."""
    for g, what, width in ((outer, "outer", f.n), (inner, "inner", f.m), (added, "added", f.m)):
        if g.width != width:
            raise ValueError(f"{what} affine map has width {g.width}, the function needs {width}")
    for g, what in ((outer, "outer"), (inner, "inner")):
        if not g.matrix.is_invertible():
            raise ValueError(f"{what} affine map must be invertible")
    g1, g2, g3 = (g.matrix.affine_table(g.translation) for g in (outer, inner, added))
    if f.m > f.n and max(g3) >> f.n:
        raise ValueError(f"added affine map has outputs outside the function's {f.n} output bits")
    table = f.table
    return VBF(f.m, f.n, [g1[table[y]] ^ z for y, z in zip(g2, g3)])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_sbox(text: str) -> VBF:
    """A header "m=<m> n=<n>" in decimal, then one hex entry per line;
    blank lines are skipped, and errors name the line of the text, or the
    expected and actual number of entries."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty s-box file")
    lineno, header = lines[0]
    try:
        m_token, n_token = header.split()
        m = read_digits(m_token.removeprefix("m="), 10)
        n = read_digits(n_token.removeprefix("n="), 10)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad s-box header {header!r}") from exc
    if m < 1:
        raise ValueError(f"line {lineno}: input width m={m} must be positive")
    if m > TABLE_LIMIT_BITS:  # before the entry count reads 1 << m
        raise ValueError(f"line {lineno}: input width m={m} exceeds table limit {TABLE_LIMIT_BITS}")
    if n < 1:
        raise ValueError(f"line {lineno}: output width n={n} must be positive")
    table = []
    for lineno, tok in lines[1:]:
        try:
            table.append(read_digits(tok, 16))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {tok!r} is not a hex value (digits 0-9, a-f)") from exc
        if tok.startswith("-"):
            raise ValueError(f"line {lineno}: table value {tok!r} is negative")
        if table[-1] >> n:
            raise ValueError(f"line {lineno}: table value {tok!r} does not fit in n={n} bits")
    if len(table) != 1 << m:
        raise ValueError(f"expected {1 << m} table entries for m={m}, got {len(table)}")
    return VBF(m, n, table)
