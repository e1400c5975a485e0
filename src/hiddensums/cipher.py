"""A small substitution-permutation cipher whose key action hides a sum.

The engine is generic: n parallel S-box bricks that fix 0, an invertible
mixing matrix, round keys XORed in after the mixing layer, and a
pluggable key schedule that must be surjective in at least one round;
that is checked for states of up to 8 bits only, as a check of a 16-bit
state would call the schedule 2^16 times per round.
A spec keeps the keyless round (bricks, then mixing) as a table, its
inverse only above gf2.BYTE_BITS = 8 bits, and runs narrower states as bytes.

The bundled 6-bit instance uses two identical 3-bit bricks given by a
polynomial over GF(2^3), tabulated in the field's ascending encoding, and
a fixed mixing matrix.  Its round functions are all affine for the
brick-parallel hidden sum built from TOY_GROUP_SPEC, which is what the
reconstruction attack exploits.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from .gf2 import BYTE_BITS, BYTE_VALUES, BinMatrix, FieldSpec, first_outside, read_digits
from .hidden_sum import HiddenSum, parse_group_spec, product_sum
from .vbf import TABLE_LIMIT_BITS, VBF

KeySchedule = Callable[[int, int], int]

MAX_ROUNDS = 1000


class WidthKeySchedule:
    """A built-in key schedule on width-bit keys.  Besides ks(k, h) it gives
    a key's whole round-key sequence in one call, round_keys(k, rounds).
    Both refuse with ValueError a key that is not an int in 0..2^width - 1,
    and a round index or count that is not an int or a negative count
    (bools pass)."""

    def __init__(self, width: int):
        if isinstance(width, bool) or not isinstance(width, int) or width < 1:
            raise ValueError(f"key schedule width {width!r} is not a positive int")
        self.width = width

    def _check_key(self, k: int, h: int, what: str = "index") -> int:
        """2^width, once k is known to be a key of that width and h an int,
        the round index or, if what is "count", a round count >= 0."""
        if not isinstance(k, int):
            raise ValueError(f"session key {k!r} is not an int")
        n = 1 << self.width
        if not 0 <= k < n:
            raise ValueError(f"session key {k} is outside the key space 0..{n - 1}")
        if not isinstance(h, int):
            raise ValueError(f"round {what} {h!r} is not an int")
        if h < 0 and what == "count":
            raise ValueError(f"round count {h} is negative")
        return n


class RotatingKeySchedule(WidthKeySchedule):
    """Round key = session key rotated left by the round index, so the
    sequence repeats after width rounds."""

    def __init__(self, width: int):
        super().__init__(width)
        self._shifts = range(width - 1, -1, -1)

    def __call__(self, k: int, h: int) -> int:
        n = self._check_key(k, h)
        w = self.width
        r = h % w
        return ((k << r) | (k >> (w - r))) & (n - 1)

    def round_keys(self, k: int, rounds: int) -> tuple[int, ...]:
        n = self._check_key(k, rounds, "count")
        w = self.width
        # k rotated left by h is bits w - h .. 2w - h - 1 of k | k << w;
        # only the rotations the rounds reach are made, then tiled
        both = k | (k << w)
        cycle = tuple([(both >> s) & (n - 1) for s in self._shifts[:rounds]])
        if rounds <= w:
            return cycle
        q, r = divmod(rounds, w)
        return cycle * q + cycle[:r]


class PermutedKeySchedule(WidthKeySchedule):
    """Round key = seeded random permutation of the key space, one
    permutation per round index.  The permutations of rounds 1..MAX_ROUNDS
    are drawn on first use and kept; other indices are drawn per call."""

    def __init__(self, width: int, seed: int):
        super().__init__(width)
        self.seed = seed
        # perm_1, perm_2, ... laid end to end, so perm_h[k] is at
        # (h - 1) * 2^width + k and a key's round keys are one strided slice
        self._drawn: list[int] = []

    def _permutation(self, h: int) -> list[int]:
        import random  # here, so that importing the package leaves it out
        rng = random.Random(self.seed * 1_000_003 + h)
        p = list(range(1 << self.width))
        rng.shuffle(p)
        return p

    def _draw(self, rounds: int) -> list[int]:
        drawn, n = self._drawn, 1 << self.width
        for h in range(len(drawn) // n + 1, rounds + 1):
            drawn += self._permutation(h)
        return drawn

    def __call__(self, k: int, h: int) -> int:
        n = self._check_key(k, h)
        if not 1 <= h <= MAX_ROUNDS:
            return self._permutation(h)[k]
        return self._draw(h)[(h - 1) * n + k]

    def round_keys(self, k: int, rounds: int) -> tuple[int, ...]:
        n = self._check_key(k, rounds, "count")
        kept = min(rounds, MAX_ROUNDS)
        later = [self._permutation(h)[k] for h in range(MAX_ROUNDS + 1, rounds + 1)]
        return tuple(self._draw(kept)[k : kept * n : n] + later)


def rotating_key_schedule(width: int) -> RotatingKeySchedule:
    """Round key = session key rotated left by the round index."""
    return RotatingKeySchedule(width)


def permuted_key_schedule(width: int, seed: int) -> PermutedKeySchedule:
    """Round key = seeded random permutation of the key space, one
    permutation per round index."""
    return PermutedKeySchedule(width, seed)


def block_outside_state(x: int, d: int) -> ValueError:
    """The error for a block that is not a d-bit state: one that is not an
    int (bools pass), or one outside 0..2^d - 1."""
    if not isinstance(x, int):
        return ValueError(f"block {x!r} is not an int")
    return ValueError(f"block {x} is outside the state space 0..{(1 << d) - 1}")


class CipherSpec:
    """Bricks, mixing layer, round count and key schedule of one cipher.

    A key schedule must be a pure function of (k, h): the spec may compute
    a key's round keys once and reuse them for later blocks of that key.
    Session keys, round keys and blocks outside 0..2^d - 1 are refused
    with ValueError, as are those that are not ints (bools pass).
    A built-in schedule gives a key's d-bit round keys by construction, in
    one round_keys(k, rounds) call, so they are not checked again; any other
    callable is called once per round, and its keys are checked.  For d <= 8
    the schedule must be surjective in at least one round, else ValueError;
    wider schedules are not checked for it.
    For d <= 8 the spec also holds each key's whole encryption function as
    a byte table, built by translating the identity through one fused
    round table per round; decryption reads that same table, finding the
    block's position in it.  Each key's table is built on its first use
    and kept, so a table costs one translation per round once per key,
    and the spec holds at most 2^d tables of 2^d bytes: 4 KiB at d = 6,
    64 KiB at d = 8.  Wider states run the rounds block by block and keep
    only the last key's round keys, so their memory does not grow with
    the keys.
    """

    def __init__(
        self,
        bricks: Sequence[VBF],
        mixing: BinMatrix,
        rounds: int,
        key_schedule: KeySchedule | None = None,
    ):
        if not bricks:
            raise ValueError("need at least one brick")
        m = bricks[0].m
        for b in bricks:
            if b.m != m or b.n != m:
                raise ValueError("bricks must all act on the same width")
            if not b.is_permutation:
                raise ValueError("bricks must be permutations")
            if b.table[0] != 0:
                raise ValueError("bricks must fix 0")
        d = m * len(bricks)
        if d > TABLE_LIMIT_BITS:
            raise ValueError("the lookup-table engine handles at most 16 state bits")
        if mixing.size != d:
            raise ValueError(f"mixing matrix must be {d}x{d}")
        if not mixing.is_invertible():
            raise ValueError("mixing matrix must be invertible")
        if isinstance(rounds, bool) or not isinstance(rounds, int) or not 1 <= rounds <= MAX_ROUNDS:
            raise ValueError(f"round count must be in 1..{MAX_ROUNDS}, got {rounds!r}")
        if isinstance(key_schedule, WidthKeySchedule) and key_schedule.width != d:
            raise ValueError(
                f"key schedule width {key_schedule.width} differs from the state width {d}"
            )
        self.bricks = tuple(bricks)
        self.d = d
        self.mixing = mixing
        self.rounds = rounds
        self.key_schedule = key_schedule or rotating_key_schedule(d)
        # (key, round keys) of the last key whose round keys were asked
        self._memo: tuple[int | None, tuple[int, ...]] = (None, ())
        # for d <= 8, every key's encryption table, which decryption also
        # reads: at most 2^d tables of 2^d bytes; wider states keep none
        self._tables: dict[int, bytes] = {}
        self._fused: list[bytes] | None = None
        # The brick layer, built brick by brick: the entries for x < 2^(i*m)
        # are extended by brick i acting on the next m bits of x.
        layer = [0]
        for i, b in enumerate(bricks):
            layer = [y | (z << (i * m)) for z in b.table for y in layer]
        mix = mixing.affine_table()
        self._round = [mix[y] for y in layer]
        if d <= BYTE_BITS:
            self._check_schedule_surjective()
        else:  # the inverse round table, which only block-by-block decrypt reads
            self._round_inv = [0] * (1 << d)
            for x, y in enumerate(self._round):
                self._round_inv[y] = x

    def _check_schedule_surjective(self) -> None:
        n = 1 << self.d
        for h in range(1, self.rounds + 1):
            if len({self.key_schedule(k, h) for k in range(n)}) == n:
                return
        raise ValueError("key schedule is not surjective in any round")

    def round_keys(self, k: int) -> tuple[int, ...]:
        """(ks(k, 1), ..., ks(k, rounds)), kept for the last key asked only,
        so memory does not grow with the keys."""
        # a float would read the memo of the int it equals
        if not isinstance(k, int) or self._memo[0] != k:
            self._memo = (k, self._schedule(k))
        return self._memo[1]

    def _entry(self, k: int) -> bytes:
        """k's encryption table, for d <= 8: built on k's first use and kept
        with every other key's, at most 2^d tables of 2^d bytes.  A key that
        is refused, or whose schedule is, leaves no table."""
        # a float would read the table of the int it equals
        table = self._tables.get(k) if isinstance(k, int) else None
        if table is None:
            table = self._tables[k] = self._encryption_table(self._schedule(k))
        return table

    def _schedule(self, k: int) -> tuple[int, ...]:
        """k's round keys: a built-in schedule checks k and is trusted."""
        ks, rounds = self.key_schedule, self.rounds
        if type(ks) in (RotatingKeySchedule, PermutedKeySchedule):
            return ks.round_keys(k, rounds)
        n = 1 << self.d
        if not isinstance(k, int):
            raise ValueError(f"session key {k!r} is not an int")
        if not 0 <= k < n:
            # a schedule would wrap or shift such a key onto another one
            raise ValueError(f"session key {k} is outside the key space 0..{n - 1}")
        keys = tuple([ks(k, h) for h in range(1, rounds + 1)])
        bad = first_outside(keys, self.d)
        if bad is not None:
            raise ValueError(
                f"key schedule gives round key {keys[bad]!r} in round {bad + 1}, outside 0..{n - 1}"
            )
        return keys

    def _encryption_table(self, keys: tuple[int, ...]) -> bytes:
        """E_k as bytes, for d <= 8: each round translates the table through
        that round's fused table core[x] ^ rk."""
        fused = self._fused
        if fused is None:
            core, pad = self._round, bytes(256 - len(self._round))
            fused = [bytes([y ^ rk for y in core]) + pad for rk in range(len(core))]
            self._fused = fused
        enc = BYTE_VALUES[self.d]
        for rk in keys:
            enc = enc.translate(fused[rk])
        return enc

    def encrypt(self, k: int, x: int) -> int:
        if self.d <= BYTE_BITS:
            # bools and floats equal an int key, so only an int takes the hit
            table = self._tables.get(k) if type(k) is int else None
            if table is None:
                table = self._entry(k)
            try:  # a block that is no int fails the compare or the lookup
                if x >= 0:
                    return table[x]
            except (TypeError, IndexError):
                pass
            raise block_outside_state(x, self.d)
        if not (isinstance(x, int) and 0 <= x < 1 << self.d):
            raise block_outside_state(x, self.d)
        core = self._round
        for rk in self.round_keys(k):
            x = core[x] ^ rk
        return x

    def decrypt(self, k: int, y: int) -> int:
        if self.d <= BYTE_BITS:
            table = self._tables.get(k) if type(k) is int else None
            if table is None:
                table = self._entry(k)
            try:  # the compare keeps find from taking bytes as a subsequence
                if y >= 0 and (x := table.find(y)) >= 0:
                    return x
            except (TypeError, ValueError):  # find refuses values past a byte
                pass
            raise block_outside_state(y, self.d)
        if not (isinstance(y, int) and 0 <= y < 1 << self.d):
            raise block_outside_state(y, self.d)
        core_inv = self._round_inv
        for rk in reversed(self.round_keys(k)):
            y = core_inv[y ^ rk]
        return y

    def core_table(self) -> list[int]:
        """The keyless round function (bricks then mixing) as a table."""
        return list(self._round)

    def encrypt_table(self, k: int) -> list[int]:
        if self.d <= BYTE_BITS:
            return list(self._entry(k))
        return [self.encrypt(k, x) for x in range(1 << self.d)]


# ---------------------------------------------------------------------------
# The bundled 6-bit instance
# ---------------------------------------------------------------------------

TOY_FIELD = FieldSpec(3, 0b1011)

# S-box polynomial over GF(2^3), coefficients by ascending degree, with the
# field generator encoded as 0b010.
TOY_SBOX_COEFFS = (0, 2, 2, 7, 4, 2, 7)

TOY_MIXING_TEXT = """\
011010
010000
111010
010111
000010
010110
"""

# Generators of the regular group behind the hidden sum, one brick wide.
TOY_GROUP_SPEC = """\
3
100010011|100
100010001|010
110010001|001
"""

@lru_cache(maxsize=None)
def toy_mixing() -> BinMatrix:
    return BinMatrix.from_text(TOY_MIXING_TEXT)


@lru_cache(maxsize=None)
def toy_brick_sum() -> HiddenSum:
    return HiddenSum(parse_group_spec(TOY_GROUP_SPEC))


@lru_cache(maxsize=None)
def toy_state_sum() -> HiddenSum:
    one = toy_brick_sum()
    return product_sum([one, one])


def toy_coordinate_basis() -> tuple[int, ...]:
    """The bundled state sum's own basis, the unit vectors."""
    return toy_state_sum().basis


def toy_brick_coords(x: int) -> int:
    """Closed-form coefficients of a 3-bit vector for the bundled brick sum:
    c1 = x1, c3 = x3, c2 = x1*x3 + x2."""
    c0 = x & 1
    c2 = (x >> 2) & 1
    c1 = ((x >> 1) & 1) ^ (c0 & c2)
    return c0 | (c1 << 1) | (c2 << 2)


@lru_cache(maxsize=None)
def toy_brick() -> VBF:
    return VBF.from_univariate(TOY_SBOX_COEFFS, TOY_FIELD)


def builtin_toy_spec(rounds: int = 20, key_schedule: KeySchedule | None = None) -> CipherSpec:
    """The bundled instance: two identical bricks, the fixed mixing layer,
    rotation schedule unless overridden."""
    brick = toy_brick()
    return CipherSpec([brick, brick], toy_mixing(), rounds, key_schedule)


def inverse_brick_spec() -> CipherSpec:
    """Same cipher with both bricks replaced by the patched field inversion;
    no hidden sum survives this choice.  At m = 3 that brick is x^6, which
    is APN and crooked, not anti-crooked (is_anti_crooked returns witness
    1): it is criterion 4's counterexample (README "Known red checks")."""
    brick = VBF.from_power((1 << TOY_FIELD.m) - 2, TOY_FIELD)
    return CipherSpec([brick, brick], toy_mixing(), 20)


# ---------------------------------------------------------------------------
# Cipher config documents
# ---------------------------------------------------------------------------


def config_int(value, field: str, base: int = 10) -> int:
    """An integer field of a JSON config: an integer, or a string in the
    base read by gf2.read_digits.  Booleans and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"field {field!r} has the wrong type: {value!r} is not an integer")
    if isinstance(value, str):
        try:
            return read_digits(value, base)
        except ValueError:
            pass
    elif isinstance(value, int) or value.is_integer():
        return int(value)
    raise ValueError(f"field {field!r} must be an integer, got {value!r}")


def load_cipher_config(config: dict, base_dir: str = ".") -> CipherSpec:
    """Build a CipherSpec from a config document.

    Shape: { "bricks": [<s-box file>...], "mixing": <matrix file> | [<int row>...],
    "rounds": <int>, "schedule": "rotate" | {"kind": "permute", "seed": n} }.
    File references are resolved relative to base_dir; bricks may also be
    the literal string "builtin".
    """
    import os.path

    from .vbf import load_sbox

    def _read(name: str) -> str:
        return open(os.path.join(base_dir, name)).read()

    if not isinstance(config, dict):
        raise ValueError("cipher config must be a JSON object")
    if not isinstance(config.get("bricks", []), list):
        raise ValueError("cipher config field 'bricks' must be a list")
    try:
        bricks = [
            toy_brick() if ref == "builtin" else load_sbox(_read(ref))
            for ref in config["bricks"]
        ]
        mixing = config["mixing"]
        if isinstance(mixing, str):
            mixing = BinMatrix.from_text(_read(mixing))
        elif isinstance(mixing, list):
            mixing = BinMatrix([config_int(row, "mixing") for row in mixing])
        else:
            raise ValueError(f"cipher config field 'mixing' has the wrong type: {mixing!r}")
        rounds = config_int(config.get("rounds", 20), "rounds")
        schedule_cfg = config.get("schedule", "rotate")
    except KeyError as exc:
        raise ValueError(f"cipher config missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"cipher config field has the wrong type: {exc}") from exc
    if not bricks:
        raise ValueError("cipher config needs at least one brick")
    d = bricks[0].m * len(bricks)
    if schedule_cfg == "rotate":
        schedule = rotating_key_schedule(d)
    elif isinstance(schedule_cfg, dict) and schedule_cfg.get("kind") == "permute":
        schedule = permuted_key_schedule(d, config_int(schedule_cfg.get("seed", 0), "seed"))
    else:
        raise ValueError(f"unknown schedule {schedule_cfg!r}")
    return CipherSpec(bricks, mixing, rounds, schedule)
