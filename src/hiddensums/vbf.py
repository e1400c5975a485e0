"""Vectorial Boolean functions and their differential properties.

A function (F_2)^m -> (F_2)^n is held as a full lookup table, which keeps
every test below exact: differential uniformity, APN and weakly-APN,
derivative images and their coset structure (crooked / anti-crooked),
component spaces, and extended-affine transforms.

Derivatives can be taken with respect to the standard XOR sum (the
default) or any hidden sum (hidden_sum.HiddenSum); a derivative image is
the frozenset of its values.  Maps built from GF(2^m) are tabulated in
the field's ascending encoding (gf2), so a field element is its own
coordinate vector, and from_power returns one shared object per exponent
and field.

Under XOR, a function with m, n <= 8 takes D_a f at all 2^m points as
one bytes object with C-level steps (one translate per direction), which
derivative images and the differential spectrum share; wider functions
visit the points one by one.

Under XOR each function keeps, per direction a, the size of Im D_a f and
its affine hull, built once from one image that is then dropped.  The APN
tests read the sizes, the component space reads the hull, and the image
is a coset exactly when its size equals its hull's, since the hull is the
smallest coset that contains it.  For m, n <= 8 the entry is read off the
derivative's bytes translated by c = D_a f(0): the set of those bytes has
the image's size and spans the hull's space, and the hull is c plus that
space.  Wider functions build the image and its hull.  Other sums rebuild
the image each time.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .gf2 import AffineSubspace, FieldSpec, Subspace, gf_mul, span_basis

# Tables are exhaustive over 2^m inputs; refuse wider functions outright.
TABLE_LIMIT_BITS = 16

# bytes.translate maps every byte through a 256-entry table, so a function
# with m, n <= 8 has its derivatives taken as whole bytes objects.
BYTE_BITS = 8
# per m <= 8: the points 0, ..., 2^m - 1 as one big-endian int of 2^m bytes,
# and the int with a 1 in each of those bytes, so IDENT ^ a * ONES lists x + a
_IDENT = [int.from_bytes(bytes(range(1 << m)), "big") for m in range(BYTE_BITS + 1)]
_ONES = [int.from_bytes(bytes([1]) * (1 << m), "big") for m in range(BYTE_BITS + 1)]

CROOKED = "crooked"
ANTI_CROOKED = "anti_crooked"


class VBF:
    """A vectorial Boolean function as a lookup table over all 2^m inputs."""

    __slots__ = ("m", "n", "table", "_is_permutation", "_derivatives", "_bytes")

    def __init__(self, m: int, n: int, table: Sequence[int]):
        if m > TABLE_LIMIT_BITS:
            raise ValueError(f"input width {m} exceeds table limit {TABLE_LIMIT_BITS}")
        if len(table) != 1 << m:
            raise ValueError(f"table must have exactly {1 << m} entries")
        table = tuple(table)
        mask = (1 << n) - 1
        if min(table) < 0 or max(table) > mask:
            y = next(y for y in table if y < 0 or y > mask)
            raise ValueError(f"table value 0b{y:b} does not fit in width {n}")
        self.m = m
        self.n = n
        self.table: tuple[int, ...] = table
        self._is_permutation: bool | None = None
        # direction a -> (|Im D_a f|, affine hull of Im D_a f) under XOR
        self._derivatives: dict[int, tuple[int, AffineSubspace]] = {}
        # (table padded to a 256-byte translate table, table packed as one
        # big-endian int), made on first use when m, n <= 8
        self._bytes: tuple[bytes, int] | None = None

    @property
    def is_permutation(self) -> bool:
        if self._is_permutation is None:
            self._is_permutation = self.m == self.n and len(set(self.table)) == len(self.table)
        return self._is_permutation

    @classmethod
    def identity(cls, m: int) -> VBF:
        return cls(m, m, list(range(1 << m)))

    @classmethod
    def _tabulate(cls, fs: FieldSpec, values) -> VBF:
        """Tabulate a map GF(2^m) -> GF(2^m), the table limit checked first.

        values() returns the map's values at 0, 1, ..., 2^m - 1 in the
        ascending field encoding."""
        if fs.m > TABLE_LIMIT_BITS:
            raise ValueError(f"input width {fs.m} exceeds table limit {TABLE_LIMIT_BITS}")
        return cls(fs.m, fs.m, values())

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

        def values() -> list[int]:
            exp, log = fs.exp_log()
            order = len(exp)
            return [0**d] + [exp[log[x] * d % order] for x in range(1, 1 << fs.m)]

        return cls._tabulate(fs, values)

    @classmethod
    def from_univariate(cls, coeffs: Sequence[int], fs: FieldSpec) -> VBF:
        """Tabulate a univariate polynomial over GF(2^m) by Horner's rule;
        coeffs[i] is the coefficient of x^i."""
        if any(c < 0 or c >> fs.m for c in coeffs):
            raise ValueError("coefficients must be field elements")

        def horner(x: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = gf_mul(acc, x, fs) ^ c
            return acc

        return cls._tabulate(fs, lambda: [horner(x) for x in range(1 << fs.m)])

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


def _derivative_bytes(f: VBF, a: int, c: int = 0) -> bytes:
    """D_a f(x) + c for x = 0, ..., 2^m - 1 as one bytes object, for
    m, n <= 8 and c < 2^n: the points x + a are translated through the
    table to f(x + a), and one int XOR adds f(x) and c to every byte."""
    if f._bytes is None:
        packed = bytes(f.table)
        f._bytes = (packed + bytes(256 - len(packed)), int.from_bytes(packed, "big"))
    translate, packed = f._bytes
    size, ones = 1 << f.m, _ONES[f.m]
    shifted = (_IDENT[f.m] ^ a * ones).to_bytes(size, "big").translate(translate)
    return (int.from_bytes(shifted, "big") ^ packed ^ c * ones).to_bytes(size, "big")


def _check_direction(f: VBF, a: int) -> None:
    if isinstance(a, bool) or not isinstance(a, int):
        raise ValueError(f"derivative direction must be an int, got {a!r}")
    if not 0 < a < 1 << f.m:
        raise ValueError(f"derivative direction must be in 1..{(1 << f.m) - 1}, got {a}")


def derivative_image(f: VBF, a: int, sum_op=None) -> frozenset[int]:
    """Im of x |-> f(x # a) "minus" f(x) under the given sum (default XOR).

    The direction must be an int with 0 < a < 2^m.  Under XOR, a function
    with m, n <= 8 takes all 2^m values at once as bytes (see
    _derivative_bytes); a wider one visits only one point of each pair
    {x, x + a}, the one whose bit at a's leading position is clear, since
    D_a f(x) = D_a f(x + a)."""
    _check_direction(f, a)
    table = f.table
    if sum_op is None:
        if f.m <= BYTE_BITS and f.n <= BYTE_BITS:
            return frozenset(_derivative_bytes(f, a))
        top = 1 << a.bit_length() >> 1
        image = {
            table[x ^ a] ^ table[x]
            for lo in range(0, 1 << f.m, top << 1)
            for x in range(lo, lo + top)
        }
    else:
        if f.m != f.n:
            raise ValueError("custom sums require m = n")
        op = sum_op.op  # every element is its own negative
        image = {op(table[op(x, a)], table[x]) for x in range(1 << f.m)}
    return frozenset(image)


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
    table = f.table
    small = f.m <= BYTE_BITS and f.n <= BYTE_BITS
    for a in range(1, 1 << f.m):
        if small:
            counts = Counter(_derivative_bytes(f, a))
        else:
            counts = Counter([table[x ^ a] ^ table[x] for x in range(1 << f.m)])
        top = max(counts.values())
        if top > delta:
            delta = top
            witness = (a, min(b for b, c in counts.items() if c == top))
        if keep_counts:
            all_counts[a] = dict(counts)
    return DiffSpectrum(delta, witness, all_counts if keep_counts else None)


def derivative_shape(f: VBF, a: int) -> tuple[int, AffineSubspace]:
    """(|Im D_a f|, affine hull of Im D_a f) under XOR, kept on f per
    direction: the image is built once and only these two are stored.

    For m, n <= 8 the image is read as bytes translated by c = D_a f(0),
    so that it contains 0: the set of those bytes has the image's size
    and spans the hull's space, and the hull is c plus that space."""
    shape = f._derivatives.get(a)
    # a float or bool equal to a stored direction would hit its entry
    if shape is None or type(a) is not int:
        if f.m <= BYTE_BITS and f.n <= BYTE_BITS:
            _check_direction(f, a)
            c = f.table[a] ^ f.table[0]
            points = set(_derivative_bytes(f, a, c))
            shape = (len(points), AffineSubspace(c, Subspace(points, f.n)))
        else:
            image = derivative_image(f, a)
            shape = (len(image), affine_hull(image, f.n))
        f._derivatives[a] = shape
    return shape


def derivative_is_coset(f: VBF, a: int) -> bool:
    """Whether Im D_a f is an XOR coset: the hull is the smallest coset
    containing the image, so the image is one exactly when it fills it."""
    size, hull = derivative_shape(f, a)
    return size == len(hull)


def is_apn(f: VBF) -> bool:
    """Differential uniformity 2, decided from image sizes: D_a f takes each
    value an even number of times (at x and at x + a), so delta = 2 exactly
    when every derivative image has 2^(m-1) points."""
    if f.m != f.n:
        raise ValueError("APN is defined for m = n")
    half = 1 << f.m >> 1
    return f.m > 0 and all(derivative_shape(f, a)[0] == half for a in range(1, 1 << f.m))


def is_weakly_apn(f: VBF) -> bool:
    """Every nonzero direction's derivative image has more than 2^(m-2) points."""
    if f.m != f.n:
        raise ValueError("weak APN is defined for m = n")
    return all(4 * derivative_shape(f, a)[0] > 1 << f.m for a in range(1, 1 << f.m))


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
    if sum_op is None:
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
    return AffineSubspace(base, Subspace([p ^ base for p in pts], width))


class ACVerdict(namedtuple("ACVerdict", "value witness", defaults=(None,))):
    """Outcome of an anti-crookedness test, true exactly when value is.

    When the function fails, witness names a direction whose derivative
    image is a coset.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.value


def _image_is_coset(f: VBF, a: int, sum_op) -> bool:
    if sum_op is None:
        return derivative_is_coset(f, a)
    return is_coset(derivative_image(f, a, sum_op), sum_op)


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
        if _image_is_coset(f, a, sum_op):
            return ACVerdict(False, a)
    return ACVerdict(True, None)


def is_anti_crooked(f: VBF, sum_op=None) -> ACVerdict:
    """Anti-crooked: a permutation none of whose derivative images is a coset."""
    _require_vbf_permutation(f)
    return is_coset_free(f, sum_op)


def is_crooked(f: VBF, sum_op=None) -> bool:
    """True iff every nonzero direction's derivative image is a coset."""
    _require_vbf_permutation(f)
    return all(_image_is_coset(f, a, sum_op) for a in range(1, 1 << f.m))


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
    """The affine hull of Im D_a f under XOR, read from f's memo."""
    return derivative_shape(f, a)[1]


def component_space(f: VBF, a: int) -> Subspace:
    """The space of v for which x |-> dot(D_a f(x), v) is constant: the
    orthogonal complement of the space of the derivative image's hull."""
    return derivative_hull(f, a).space.orthogonal_complement()


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


def read_digits(token: str, base: int) -> int:
    """int(token, base) for an optional "-" and ASCII digits only: int()
    alone also takes "+", "0x", "_" and non-ASCII digits."""
    if not token.isascii() or token.removeprefix("-").lower().strip("0123456789abcdef"[:base]):
        raise ValueError(f"{token!r} is not a base-{base} number")
    return int(token, base)


def load_sbox(text: str) -> VBF:
    """A header "m=<m> n=<n>" in decimal, then one hex entry per line;
    blank lines are skipped, and errors name the line of the text."""
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
    return VBF(m, n, table)
