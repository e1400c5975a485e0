"""Pinned function corpus for the property sweeps.

Per width m in 3..6: every power permutation x^d (gcd(d, 2^m - 1) = 1),
the bundled cipher brick at m = 3, and 50 seeded random permutations.
The random permutations fix 0; the affine-hull identity
hull(Im(D_a f)) = f(a) + V_a-perp presumes f(0) = 0 (derivatives are
blind to constants while f(a) is not), and every function the sweeps
target is normalized that way.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from .cipher import toy_brick
from .gf2 import FieldSpec
from .vbf import VBF

# One irreducible modulus per extension degree; m = 3 and m = 6 match the
# bundled instance and the x^38 / x^5 example pair.
FIELD_MODULI = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1011011,
    7: 0b10000011,
    8: 0b100011011,
}

RANDOM_PERMS_PER_WIDTH = 50
RANDOM_SEED_BASE = 20_240_000


@lru_cache(maxsize=None)
def field_spec(m: int) -> FieldSpec:
    return FieldSpec(m, FIELD_MODULI[m])


def power_permutation_exponents(m: int) -> list[int]:
    top = (1 << m) - 1
    return [d for d in range(1, top) if math.gcd(d, top) == 1]


def random_permutation_fixing_zero(m: int, seed: int) -> VBF:
    rng = random.Random(seed)
    tail = list(range(1, 1 << m))
    rng.shuffle(tail)
    return VBF(m, m, [0] + tail)


@lru_cache(maxsize=None)
def pinned_corpus(m: int) -> tuple[tuple[str, VBF], ...]:
    """The reproducible test corpus for one width."""
    fs = field_spec(m)
    entries = [
        (f"x^{d} over GF(2^{m})", VBF.from_power(d, fs))
        for d in power_permutation_exponents(m)
    ]
    brick = toy_brick()
    if m == brick.m:
        entries.append(("cipher brick", brick))
    for i in range(RANDOM_PERMS_PER_WIDTH):
        seed = RANDOM_SEED_BASE + 100 * m + i
        entries.append((f"random permutation #{i} (m={m})", random_permutation_fixing_zero(m, seed)))
    return tuple(entries)
