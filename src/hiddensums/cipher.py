"""A small substitution-permutation cipher whose key action hides a sum.

The engine is generic: n parallel S-box bricks that fix 0, an invertible
mixing matrix, round keys XORed in after the mixing layer, and a
pluggable key schedule that must be surjective in at least one round.

The bundled 6-bit instance uses two identical 3-bit bricks given by a
polynomial over GF(2^3) and a fixed mixing matrix.  Its round functions
are all affine for the brick-parallel hidden sum built from
TOY_GROUP_SPEC, which is what the reconstruction attack exploits.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Sequence

from .gf2 import BinMatrix, FieldSpec
from .hidden_sum import HiddenSum, RegularGroup, parse_group_spec, product_sum
from .vbf import VBF

KeySchedule = Callable[[int, int], int]


def rotating_key_schedule(width: int) -> KeySchedule:
    """Round key = session key rotated left by the round index."""

    def schedule(k: int, h: int) -> int:
        r = h % width
        mask = (1 << width) - 1
        return ((k << r) | (k >> (width - r))) & mask if r else k

    return schedule


def permuted_key_schedule(width: int, seed: int) -> KeySchedule:
    """Round key = seeded random permutation of the key space, one
    permutation per round index."""
    n = 1 << width

    @lru_cache(maxsize=None)
    def perm(h: int) -> tuple[int, ...]:
        rng = random.Random(seed * 1_000_003 + h)
        p = list(range(n))
        rng.shuffle(p)
        return tuple(p)

    def schedule(k: int, h: int) -> int:
        return perm(h)[k]

    return schedule


class CipherSpec:
    """Bricks, mixing layer, round count and key schedule of one cipher.

    A key schedule must be a pure function of (k, h): the spec computes a
    key's round keys once and reuses them for every block of that key.  It
    holds only the last key's round keys, so memory does not grow with the
    number of keys used.
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
        if rounds < 1 or rounds > 1000:
            raise ValueError("round count must be in 1..1000")
        self.bricks = tuple(bricks)
        self.m = m
        self.n = len(bricks)
        self.d = d
        self.mixing = mixing
        self.rounds = rounds
        self.key_schedule = key_schedule or rotating_key_schedule(d)
        self._round_keys: tuple[int | None, tuple[int, ...]] = (None, ())
        self._sbox_state = self._layer_table([b.table for b in bricks])
        self._mix_state = [mixing.apply(x) for x in range(1 << d)]
        sbox_inv = self._layer_table([b.inverse().table for b in bricks])
        mix_inv = mixing.inverse()
        # One table per round direction: mixing after bricks, and its inverse.
        self._round = [self._mix_state[y] for y in self._sbox_state]
        self._round_inv = [sbox_inv[mix_inv.apply(y)] for y in range(1 << d)]
        if d <= 8:
            self._check_schedule_surjective()

    def _layer_table(self, tables: Sequence[Sequence[int]]) -> list[int]:
        m, d = self.m, self.m * len(tables)
        mask = (1 << m) - 1
        out = []
        for x in range(1 << d):
            y = 0
            for i, t in enumerate(tables):
                y |= t[(x >> (i * m)) & mask] << (i * m)
            out.append(y)
        return out

    def _check_schedule_surjective(self) -> None:
        n = 1 << self.d
        for h in range(1, self.rounds + 1):
            if len({self.key_schedule(k, h) for k in range(n)}) == n:
                return
        raise ValueError("key schedule is not surjective in any round")

    def apply_bricks(self, x: int) -> int:
        return self._sbox_state[x]

    def apply_mixing(self, x: int) -> int:
        return self._mix_state[x]

    def round_function(self, x: int, round_key: int) -> int:
        return self._mix_state[self._sbox_state[x]] ^ round_key

    def round_keys(self, k: int) -> tuple[int, ...]:
        """(ks(k, 1), ..., ks(k, rounds)), kept for the last key asked."""
        cached_k, keys = self._round_keys
        if cached_k != k:
            ks = self.key_schedule
            keys = tuple(ks(k, h) for h in range(1, self.rounds + 1))
            self._round_keys = (k, keys)
        return keys

    def encrypt(self, k: int, x: int) -> int:
        core = self._round
        for rk in self.round_keys(k):
            x = core[x] ^ rk
        return x

    def decrypt(self, k: int, y: int) -> int:
        core_inv = self._round_inv
        for rk in reversed(self.round_keys(k)):
            y = core_inv[y ^ rk]
        return y

    def core_table(self) -> list[int]:
        """The keyless round function (bricks then mixing) as a table."""
        return list(self._round)

    def encrypt_table(self, k: int) -> list[int]:
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

# Field-to-coordinate bridge for the bricks, pinned by the calibration search
# in tests/test_cipher.py (TestCalibration).
TOY_SBOX_BASIS = BinMatrix.identity(3)


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
    """Unit vectors; they generate the bundled state sum freely."""
    return tuple(1 << i for i in range(6))


def toy_brick_coords(x: int) -> int:
    """Closed-form coefficients of a 3-bit vector for the bundled brick sum:
    c1 = x1, c3 = x3, c2 = x1*x3 + x2."""
    c0 = x & 1
    c2 = (x >> 2) & 1
    c1 = ((x >> 1) & 1) ^ (c0 & c2)
    return c0 | (c1 << 1) | (c2 << 2)


@lru_cache(maxsize=None)
def toy_brick() -> VBF:
    return VBF.from_univariate(TOY_SBOX_COEFFS, TOY_FIELD, TOY_SBOX_BASIS)


def builtin_toy_spec(rounds: int = 20, key_schedule: KeySchedule | None = None) -> CipherSpec:
    """The bundled instance: two identical bricks, the fixed mixing layer,
    rotation schedule unless overridden."""
    brick = toy_brick()
    return CipherSpec([brick, brick], toy_mixing(), rounds, key_schedule)


def inverse_brick_spec(rounds: int = 20, key_schedule: KeySchedule | None = None) -> CipherSpec:
    """Same cipher with both bricks replaced by the patched field inversion
    (an anti-crooked permutation); no hidden sum survives this choice."""
    brick = VBF.from_power((1 << TOY_FIELD.m) - 2, TOY_FIELD, TOY_SBOX_BASIS)
    return CipherSpec([brick, brick], toy_mixing(), rounds, key_schedule)


# ---------------------------------------------------------------------------
# Cipher config documents
# ---------------------------------------------------------------------------


def load_cipher_config(config: dict, base_dir: str = ".") -> CipherSpec:
    """Build a CipherSpec from a config document.

    Shape: { "bricks": [<s-box file>...], "mixing": <matrix file>,
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
        mixing = BinMatrix.from_text(_read(config["mixing"])) if isinstance(
            config["mixing"], str
        ) else BinMatrix(config["mixing"])
        rounds = int(config.get("rounds", 20))
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
        schedule = permuted_key_schedule(d, int(schedule_cfg.get("seed", 0)))
    else:
        raise ValueError(f"unknown schedule {schedule_cfg!r}")
    return CipherSpec(bricks, mixing, rounds, schedule)
