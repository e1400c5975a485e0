"""A small substitution-permutation cipher whose key action hides a sum.

The engine is generic: n parallel S-box bricks that fix 0, an invertible
mixing matrix, round keys XORed in after the mixing layer, and a
pluggable key schedule that must be surjective in at least one round.
A spec keeps the keyless round (bricks, then mixing) as one table per
direction.

The bundled 6-bit instance uses two identical 3-bit bricks given by a
polynomial over GF(2^3), tabulated in the field's ascending encoding, and
a fixed mixing matrix.  Its round functions are all affine for the
brick-parallel hidden sum built from TOY_GROUP_SPEC, which is what the
reconstruction attack exploits.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from .gf2 import BinMatrix, FieldSpec
from .hidden_sum import HiddenSum, RegularGroup, parse_group_spec, product_sum
from .vbf import VBF

KeySchedule = Callable[[int, int], int]

MAX_ROUNDS = 1000


class WidthKeySchedule:
    """A built-in key schedule on width-bit keys.  Besides ks(k, h) it gives
    a key's whole round-key sequence in one call, round_keys(k, rounds).
    Both refuse a key outside 0..2^width - 1."""

    def __init__(self, width: int):
        if isinstance(width, bool) or not isinstance(width, int) or width < 1:
            raise ValueError(f"key schedule width {width!r} is not a positive int")
        self.width = width

    def _check_key(self, k: int) -> int:
        """2^width, once k is known to be a key of that width."""
        n = 1 << self.width
        if not 0 <= k < n:
            raise ValueError(f"session key {k} is outside the key space 0..{n - 1}")
        return n


class RotatingKeySchedule(WidthKeySchedule):
    """Round key = session key rotated left by the round index, so the
    sequence repeats after width rounds."""

    def __init__(self, width: int):
        super().__init__(width)
        self._shifts = range(width - 1, -1, -1)

    def __call__(self, k: int, h: int) -> int:
        n = self._check_key(k)
        w = self.width
        r = h % w
        return ((k << r) | (k >> (w - r))) & (n - 1) if r else k

    def round_keys(self, k: int, rounds: int) -> tuple[int, ...]:
        n = self._check_key(k)
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
        n = self._check_key(k)
        if not 1 <= h <= MAX_ROUNDS:
            return self._permutation(h)[k]
        return self._draw(h)[(h - 1) * n + k]

    def round_keys(self, k: int, rounds: int) -> tuple[int, ...]:
        n = self._check_key(k)
        return tuple(self._draw(rounds)[k : rounds * n : n])


def rotating_key_schedule(width: int) -> RotatingKeySchedule:
    """Round key = session key rotated left by the round index."""
    return RotatingKeySchedule(width)


def permuted_key_schedule(width: int, seed: int) -> PermutedKeySchedule:
    """Round key = seeded random permutation of the key space, one
    permutation per round index."""
    return PermutedKeySchedule(width, seed)


def block_outside_state(x: int, d: int) -> ValueError:
    """The error for a block that is not a d-bit state."""
    return ValueError(f"block {x} is outside the state space 0..{(1 << d) - 1}")


# bytes.translate maps every byte through a 256-entry table, so a state of
# at most 8 bits can be carried through the rounds as one bytes object.
BYTE_STATE_BITS = 8
IDENTITY = bytes(range(256))


class CipherSpec:
    """Bricks, mixing layer, round count and key schedule of one cipher.

    A key schedule must be a pure function of (k, h): the spec computes a
    key's round keys once and reuses them for every block of that key.
    Session keys, round keys and blocks outside 0..2^d - 1 are refused
    with ValueError.
    A schedule with a round_keys(k, rounds) method gives the whole sequence
    in one call; a bare callable is called once per round.
    For d <= 8 the spec also holds the key's whole encryption function as
    a byte table, built by translating the identity through one fused
    round table per round, and its decryption table, inverted from it on
    first use.  When the round keys repeat every d rounds, as the
    rotation's do, one period's table is raised to the power rounds // d
    by repeated squaring, so a table costs O(d + log rounds)
    translations.  Wider states run the rounds block by block.  Either
    way only the last key's round keys and tables are held, so memory
    does not grow with the number of keys used.
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
        if d > 16:
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
        self.m = m
        self.n = len(bricks)
        self.d = d
        self.mixing = mixing
        self.rounds = rounds
        self.key_schedule = key_schedule or rotating_key_schedule(d)
        # (key, round keys, encryption table, decryption table or None) of
        # the last key; the tables are bytes for d <= 8 and empty otherwise
        self._memo: tuple[int | None, tuple[int, ...], bytes, bytes | None] = (None, (), b"", None)
        self._fused: list[bytes] | None = None
        # The brick layer, built brick by brick: the entries for x < 2^(i*m)
        # are extended by brick i acting on the next m bits of x.
        layer = [0]
        for i, b in enumerate(bricks):
            layer = [y | (z << (i * m)) for z in b.table for y in layer]
        mix = mixing.affine_table()
        self._round = [mix[y] for y in layer]
        self._round_inv = [0] * (1 << d)
        for x, y in enumerate(self._round):
            self._round_inv[y] = x
        if d <= 8:
            self._check_schedule_surjective()

    def _check_schedule_surjective(self) -> None:
        n = 1 << self.d
        for h in range(1, self.rounds + 1):
            if len({self.key_schedule(k, h) for k in range(n)}) == n:
                return
        raise ValueError("key schedule is not surjective in any round")

    def round_keys(self, k: int) -> tuple[int, ...]:
        """(ks(k, 1), ..., ks(k, rounds)), kept for the last key asked."""
        return self._entry(k)[1]

    def _entry(self, k: int) -> tuple[int, tuple[int, ...], bytes, bytes | None]:
        """The memo for k, made in place of the last key's if k is new."""
        memo = self._memo
        if memo[0] != k:
            keys, p = self._schedule(k)
            enc = self._encryption_table(keys, p) if self.d <= BYTE_STATE_BITS else b""
            memo = self._memo = (k, keys, enc, None)
        return memo

    def _schedule(self, k: int) -> tuple[tuple[int, ...], int]:
        """k's round keys, every one range-checked, and d if they repeat
        every d rounds, else 0."""
        n, d, rounds = 1 << self.d, self.d, self.rounds
        if not 0 <= k < n:
            # a schedule would wrap or shift such a key onto another one
            raise ValueError(f"session key {k} is outside the key space 0..{n - 1}")
        ks = self.key_schedule
        sequence = getattr(ks, "round_keys", None)
        if sequence is not None:
            keys = tuple(sequence(k, rounds))
        else:
            keys = tuple(ks(k, h) for h in range(1, rounds + 1))
        p = d if d < rounds and keys[d] == keys[0] and keys[d:] == keys[:-d] else 0
        # a periodic sequence is in range exactly when its first cycle is
        cycle = keys[:p] if p else keys
        # for d <= 8 the keys are packed as bytes and the in-range ones
        # deleted in C; min/max decide the rest, and the keys bytes refuses
        # (a float, or one outside 0..255), as they always have
        try:
            in_range = d <= BYTE_STATE_BITS and not bytes(cycle).translate(None, IDENTITY[:n])
        except (TypeError, ValueError):
            in_range = False
        if not in_range and (min(cycle) < 0 or max(cycle) >= n):
            h, rk = next((h, rk) for h, rk in enumerate(keys, 1) if not 0 <= rk < n)
            raise ValueError(
                f"key schedule gives round key {rk} in round {h}, outside 0..{n - 1}"
            )
        return keys, p

    def _encryption_table(self, keys: tuple[int, ...], p: int) -> bytes:
        """E_k as bytes, for d <= 8: each round translates the table through
        that round's fused table core[x] ^ rk.  When the keys repeat every
        p > 0 rounds, E_k is the table of the first rounds mod p round keys
        after P^(rounds // p), where P is one period's table."""
        fused = self._fused
        if fused is None:
            core, pad = self._round, bytes(256 - len(self._round))
            fused = [bytes([y ^ rk for y in core]) + pad for rk in range(len(core))]
            self._fused = fused
        enc = IDENTITY[: 1 << self.d]
        if p:
            # P as a whole 256-entry translate table: the fused pads send
            # the bytes past 2^d to 0, which no state reaches
            power = IDENTITY
            for rk in keys[:p]:
                power = power.translate(fused[rk])
            q, r = divmod(self.rounds, p)
            while True:
                if q & 1:
                    enc = enc.translate(power)
                q >>= 1
                if not q:
                    break
                power = power.translate(power)
            keys = keys[:r]
        for rk in keys:
            enc = enc.translate(fused[rk])
        return enc

    def _decryption_table(self, k: int) -> bytes:
        k, keys, enc, dec = self._entry(k)
        if dec is None:
            dec = bytes.maketrans(enc, IDENTITY[: len(enc)])[: len(enc)]
            self._memo = (k, keys, enc, dec)
        return dec

    def encrypt(self, k: int, x: int) -> int:
        if self.d <= BYTE_STATE_BITS:
            cached_k, _, table, _ = self._memo
            if cached_k != k:
                table = self._entry(k)[2]
            if x >= 0:
                try:
                    return table[x]
                except IndexError:
                    pass
            raise block_outside_state(x, self.d)
        if not 0 <= x < 1 << self.d:
            raise block_outside_state(x, self.d)
        core = self._round
        for rk in self.round_keys(k):
            x = core[x] ^ rk
        return x

    def decrypt(self, k: int, y: int) -> int:
        if self.d <= BYTE_STATE_BITS:
            cached_k, _, _, table = self._memo
            if cached_k != k or table is None:
                table = self._decryption_table(k)
            if y >= 0:
                try:
                    return table[y]
                except IndexError:
                    pass
            raise block_outside_state(y, self.d)
        if not 0 <= y < 1 << self.d:
            raise block_outside_state(y, self.d)
        core_inv = self._round_inv
        for rk in reversed(self.round_keys(k)):
            y = core_inv[y ^ rk]
        return y

    def core_table(self) -> list[int]:
        """The keyless round function (bricks then mixing) as a table."""
        return list(self._round)

    def encrypt_table(self, k: int) -> list[int]:
        if self.d <= BYTE_STATE_BITS:
            return list(self._entry(k)[2])
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
    return HiddenSum(RegularGroup.build(parse_group_spec(TOY_GROUP_SPEC)))


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


def inverse_brick_spec(rounds: int = 20, key_schedule: KeySchedule | None = None) -> CipherSpec:
    """Same cipher with both bricks replaced by the patched field inversion
    (an anti-crooked permutation); no hidden sum survives this choice."""
    brick = VBF.from_power((1 << TOY_FIELD.m) - 2, TOY_FIELD)
    return CipherSpec([brick, brick], toy_mixing(), rounds, key_schedule)


# ---------------------------------------------------------------------------
# Cipher config documents
# ---------------------------------------------------------------------------


def config_int(value, field: str) -> int:
    """An integer field of a JSON config: an integer or a decimal string.
    Booleans and fractional numbers are refused rather than rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"field {field!r} has the wrong type: {value!r} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}") from None


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
