"""Cipher engine and bundled instance tests."""

import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from functools import lru_cache

import pytest

from hiddensums.attack import decryption_oracle, encryption_oracle
from hiddensums.cipher import (
    TOY_FIELD,
    TOY_SBOX_COEFFS,
    CipherSpec,
    builtin_toy_spec,
    inverse_brick_spec,
    load_cipher_config,
    permuted_key_schedule,
    rotating_key_schedule,
    toy_brick,
    toy_coordinate_basis,
    toy_mixing,
    toy_state_sum,
)
from hiddensums.gf2 import BinMatrix, FieldSpec
from hiddensums.hidden_sum import agl_membership, xor_translation_table
from hiddensums.vbf import VBF, derivative_image, diff_uniformity, is_anti_crooked, is_coset


class TestKeySchedules:
    def test_rotation_identity_rounds(self):
        schedule = rotating_key_schedule(6)
        for k in range(64):
            assert schedule(k, 0) == k
            assert schedule(k, 6) == k

    def test_rotation_moves_unit_vector(self):
        schedule = rotating_key_schedule(6)
        assert schedule(0b000001, 1) == 0b000010
        assert schedule(0b100000, 1) == 0b000001

    def test_rotation_surjective_every_round(self):
        schedule = rotating_key_schedule(6)
        for h in range(1, 8):
            assert {schedule(k, h) for k in range(64)} == set(range(64))

    def test_permuted_schedule_surjective_and_deterministic(self):
        a = permuted_key_schedule(6, 99)
        b = permuted_key_schedule(6, 99)
        for h in (1, 2, 20):
            values = [a(k, h) for k in range(64)]
            assert sorted(values) == list(range(64))
            assert values == [b(k, h) for k in range(64)]

    def test_non_surjective_schedule_rejected(self):
        with pytest.raises(ValueError):
            builtin_toy_spec(key_schedule=lambda k, h: 0)

    def test_non_surjective_schedule_rejected_at_8_bits(self):
        # two x^14 bricks (inversion) over GF(2^4), identity mixing
        brick = VBF.from_power(14, FieldSpec(4, 0b10011))
        with pytest.raises(ValueError, match="^key schedule is not surjective in any round$"):
            CipherSpec([brick, brick], BinMatrix.identity(8), 3, lambda k, h: 0)

    def test_surjectivity_not_checked_above_8_bits(self):
        # the check would cost 2^d schedule calls per round
        spec = CipherSpec([toy_brick()] * 3, nine_bit_spec(1).mixing, 3, lambda k, h: 0)
        assert spec.round_keys(5) == (0, 0, 0)

    @pytest.mark.parametrize("width", [0, -1, True, 2.0, "6", None])
    def test_width_not_a_positive_int_refused(self, width):
        message = rf"key schedule width {re.escape(repr(width))} is not a positive int"
        for make in (rotating_key_schedule, lambda w: permuted_key_schedule(w, 1)):
            with pytest.raises(ValueError, match=message):
                make(width)

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    @pytest.mark.parametrize("key", [-1, 64])
    def test_key_outside_the_key_space_refused(self, schedule, key):
        ks = SCHEDULES[schedule]()
        for call in (lambda: ks.round_keys(key, 7), lambda: ks(key, 3)):
            with pytest.raises(ValueError, match=rf"session key {key} is outside the key space 0\.\.63"):
                call()

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    @pytest.mark.parametrize("key", [3.0, "3", None])
    def test_key_not_an_int_refused(self, schedule, key):
        ks = SCHEDULES[schedule]()
        message = f"^session key {re.escape(repr(key))} is not an int$"
        for call in (lambda: ks(key, 1), lambda: ks(key, 1000), lambda: ks.round_keys(key, 4)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    @pytest.mark.parametrize("h", [2.0, 2.5, "2", None])
    def test_round_index_not_an_int_refused(self, schedule, h):
        ks = SCHEDULES[schedule]()
        with pytest.raises(ValueError, match=f"^round index {re.escape(repr(h))} is not an int$"):
            ks(5, h)

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    @pytest.mark.parametrize("rounds", [3.0, "3", None])
    def test_round_count_not_an_int_refused(self, schedule, rounds):
        ks = SCHEDULES[schedule]()
        with pytest.raises(ValueError, match=f"^round count {re.escape(repr(rounds))} is not an int$"):
            ks.round_keys(5, rounds)

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    @pytest.mark.parametrize("rounds", [-1, -7])
    def test_negative_round_count_refused(self, schedule, rounds):
        # unchecked, the rotation gave 5 keys for -1, and the permuted
        # schedule 2 after an earlier 3-round draw
        ks = SCHEDULES[schedule]()
        assert len(ks.round_keys(5, 3)) == 3
        with pytest.raises(ValueError, match=f"^round count {rounds} is negative$"):
            ks.round_keys(5, rounds)

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    def test_bools_and_zero_rounds_pass(self, schedule):
        ks = SCHEDULES[schedule]()
        assert ks(True, True) == ks(1, 1)
        assert ks.round_keys(True, 3) == ks.round_keys(1, 3)
        assert ks.round_keys(5, True) == ks.round_keys(5, 1) == (ks(5, 1),)
        assert ks.round_keys(5, False) == ks.round_keys(5, 0) == ()


class TestSpecValidation:
    def test_brick_must_fix_zero(self):
        shifted = VBF(3, 3, [x ^ 1 for x in range(8)])
        with pytest.raises(ValueError):
            CipherSpec([shifted, shifted], toy_mixing(), 4)

    def test_brick_must_be_permutation(self):
        const = VBF(3, 3, [0] * 8)
        with pytest.raises(ValueError):
            CipherSpec([const, const], toy_mixing(), 4)

    def test_mixing_size_checked(self):
        b = toy_brick()
        with pytest.raises(ValueError):
            CipherSpec([b, b], BinMatrix.identity(5), 4)

    def test_mixing_invertibility_checked(self):
        b = toy_brick()
        singular = BinMatrix([1] * 6)
        with pytest.raises(ValueError):
            CipherSpec([b, b], singular, 4)

    def test_round_count_bounds(self):
        b = toy_brick()
        with pytest.raises(ValueError):
            CipherSpec([b, b], toy_mixing(), 0)
        with pytest.raises(ValueError):
            CipherSpec([b, b], toy_mixing(), 1001)

    def test_no_bricks_refused(self):
        with pytest.raises(ValueError, match="^need at least one brick$"):
            CipherSpec([], BinMatrix.identity(6), 4)

    def test_mixed_brick_widths_refused(self):
        with pytest.raises(ValueError, match="^bricks must all act on the same width$"):
            CipherSpec([toy_brick(), VBF.identity(2)], BinMatrix.identity(5), 4)

    def test_more_than_16_state_bits_refused(self):
        with pytest.raises(
            ValueError, match="^the lookup-table engine handles at most 16 state bits$"
        ):
            CipherSpec([toy_brick()] * 6, BinMatrix.identity(18), 4)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"schedule": "bogus"}, "^unknown schedule 'bogus'$"),
            ({"bricks": []}, "^cipher config needs at least one brick$"),
        ],
    )
    def test_config_refused(self, field, message):
        config = {"bricks": ["builtin", "builtin"], "mixing": list(toy_mixing().rows)}
        assert load_cipher_config(config).encrypt_table(3) == builtin_toy_spec().encrypt_table(3)
        with pytest.raises(ValueError, match=message):
            load_cipher_config({**config, **field})

    @pytest.mark.parametrize("rounds", [True, False, 2.0, 2.5, "2", None])
    def test_round_count_not_an_int_refused(self, rounds):
        with pytest.raises(ValueError, match=r"round count must be in 1\.\.1000"):
            builtin_toy_spec(rounds)

    @pytest.mark.parametrize(
        "schedule", [lambda: rotating_key_schedule(7), lambda: permuted_key_schedule(5, 1)]
    )
    def test_builtin_schedule_of_another_width_refused(self, schedule):
        ks = schedule()
        with pytest.raises(
            ValueError, match=rf"key schedule width {ks.width} differs from the state width 6"
        ):
            builtin_toy_spec(20, ks)


def brick_layer(bricks, x: int) -> int:
    """The brick layer at x: brick i on the i-th m-bit slice."""
    m = bricks[0].m
    mask = (1 << m) - 1
    return sum(b.table[(x >> (i * m)) & mask] << (i * m) for i, b in enumerate(bricks))


def reference_round(spec: CipherSpec, x: int, round_key: int) -> int:
    """One round from the spec's bricks and mixing matrix, layer by layer."""
    return spec.mixing.apply(brick_layer(spec.bricks, x)) ^ round_key


class TestBuiltinInstance:
    def test_brick_profile(self):
        brick = toy_brick()
        assert brick.is_permutation
        assert brick.table[0] == 0
        assert diff_uniformity(brick).delta == 4
        verdict = is_anti_crooked(brick)
        assert not verdict.value
        assert is_coset(derivative_image(brick, verdict.witness))

    def test_mixing_invertible(self):
        assert toy_mixing().is_invertible()

    def test_bricks_applied_in_parallel(self):
        spec = builtin_toy_spec()
        brick = toy_brick()
        assert spec.bricks == (brick, brick)
        assert brick_layer(spec.bricks, 0) == 0
        x = 0b000100  # (alpha^2 in the low brick, 0 in the high brick)
        assert brick_layer(spec.bricks, x) == brick.table[0b100]
        core = spec.core_table()
        for x in range(64):
            expected = brick.table[x & 7] | (brick.table[x >> 3] << 3)
            assert brick_layer(spec.bricks, x) == expected
            assert core[x] == toy_mixing().apply(expected)

    def test_mixing_row_action(self):
        spec = builtin_toy_spec()
        assert spec.mixing == toy_mixing()
        assert spec.mixing.apply(0b000001) == 0b010110  # first matrix row
        core = spec.core_table()
        # the block the bricks send to e_1 leaves the round as that row
        x = next(x for x in range(64) if brick_layer(spec.bricks, x) == 0b000001)
        assert core[x] == 0b010110
        for x in range(64):
            assert core[x] == spec.mixing.apply(brick_layer(spec.bricks, x))

    def test_round_functions_bijective(self):
        spec = builtin_toy_spec()
        for key in (0, 0b010101):
            table = [reference_round(spec, x, key) for x in range(64)]
            assert sorted(table) == list(range(64))


class TestEncryptDecrypt:
    @pytest.mark.parametrize("rounds", [1, 2, 20, 100])
    def test_round_trip_exhaustive(self, rounds):
        spec = builtin_toy_spec(rounds)
        for k in (0, 1, 42, 63):
            for x in range(64):
                assert spec.decrypt(k, spec.encrypt(k, x)) == x

    def test_single_keyless_round_is_core(self):
        spec = builtin_toy_spec(rounds=1)
        core = spec.core_table()
        for x in range(64):
            assert spec.encrypt(0, x) == core[x]  # rotation schedule: key 0 stays 0

    def test_multi_round_is_composition_of_single_rounds(self):
        rounds = 5
        spec = builtin_toy_spec(rounds)
        k = 0b110010
        for x in range(64):
            y = x
            for h in range(1, rounds + 1):
                y = reference_round(spec, y, spec.key_schedule(k, h))
            assert spec.encrypt(k, x) == y

    def test_core_table_is_a_copy(self):
        spec = builtin_toy_spec(3)
        before = spec.encrypt_table(5)
        table = spec.core_table()
        table[:] = [0] * len(table)
        assert spec.core_table() != table
        assert spec.encrypt_table(5) == before

    def test_encrypt_table_is_permutation(self):
        spec = builtin_toy_spec()
        for k in (3, 17):
            assert sorted(spec.encrypt_table(k)) == list(range(64))


def reference_encrypt(spec: CipherSpec, k: int, x: int) -> int:
    """The per-round schedule loop that round_keys replaced: ks(k, h) is
    called for every block and round, and each round is computed from the
    bricks and the mixing matrix."""
    for h in range(1, spec.rounds + 1):
        x = reference_round(spec, x, spec.key_schedule(k, h))
    return x


@lru_cache(maxsize=None)
def inverse_layers(spec: CipherSpec) -> tuple[list[int], list[int]]:
    """The brick layer of the inverse bricks and the inverse mixing, as
    tables."""
    inverse_bricks = [b.inverse() for b in spec.bricks]
    mix_inv = spec.mixing.inverse()
    states = range(1 << spec.d)
    return [brick_layer(inverse_bricks, y) for y in states], [mix_inv.apply(y) for y in states]


def reference_decrypt(spec: CipherSpec, k: int, y: int) -> int:
    """The matching per-round decryption loop, one layer at a time."""
    sbox_inv, mix_inv = inverse_layers(spec)
    for h in range(spec.rounds, 0, -1):
        y = sbox_inv[mix_inv[y ^ spec.key_schedule(k, h)]]
    return y


SCHEDULES = {
    "rotating": lambda: rotating_key_schedule(6),
    "permuted": lambda: permuted_key_schedule(6, 99),
}


class TestRoundKeys:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("rounds", [1, 6, 7, 100])
    def test_matches_reference_exhaustive(self, rounds, schedule):
        # 6 is the rotation period, 7 wraps past it
        spec = builtin_toy_spec(rounds, SCHEDULES[schedule]())
        for k in range(64):
            for x in range(64):
                assert spec.encrypt(k, x) == reference_encrypt(spec, k, x)
                assert spec.decrypt(k, x) == reference_decrypt(spec, k, x)

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_matches_reference_1000_rounds(self, schedule):
        spec = builtin_toy_spec(1000, SCHEDULES[schedule]())
        blocks = random.Random(1000).sample(range(64), 8)
        for k in range(64):
            for x in blocks:
                assert spec.encrypt(k, x) == reference_encrypt(spec, k, x)
                assert spec.decrypt(k, x) == reference_decrypt(spec, k, x)

    @pytest.mark.parametrize("d", [6, 9])
    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    def test_built_in_schedules_give_d_bit_ints(self, schedule, d):
        """A spec returns a built-in schedule's round keys unchecked, so
        every key's sequence must be a tuple of d-bit ints by construction;
        6 is the rotation period at d = 6, and 7 wraps past it."""
        ks = rotating_key_schedule(d) if schedule == "rotating" else permuted_key_schedule(d, 99)
        for rounds in (1, 6, 7, 100):
            for k in range(1 << d):
                keys = ks.round_keys(k, rounds)
                assert type(keys) is tuple and len(keys) == rounds
                assert all(type(rk) is int and 0 <= rk < 1 << d for rk in keys)

    def test_schedule_that_is_not_built_in_is_called_per_round_and_checked(self):
        """A round_keys method makes no schedule a built-in one: the spec
        calls the schedule once per round and checks every key."""

        class Foreign:
            def __init__(self):
                self.calls = []

            def __call__(self, k: int, h: int) -> int:
                self.calls.append((k, h))
                return late_overflow_schedule(k, h)

            def round_keys(self, k: int, rounds: int) -> tuple[int, ...]:
                raise AssertionError("the spec reads a foreign sequence")

        ks = Foreign()
        spec = builtin_toy_spec(3, ks)
        ks.calls.clear()
        with pytest.raises(ValueError, match=r"^key schedule gives round key 67 in round 2, outside 0\.\.63$"):
            spec.round_keys(3)
        assert ks.calls == [(3, 1), (3, 2), (3, 3)]

    def test_round_keys_are_the_schedule(self):
        for rounds in (1, 7, 1000):
            spec = builtin_toy_spec(rounds, permuted_key_schedule(6, 99))
            for k in (0, 5, 63):
                keys = spec.round_keys(k)
                assert len(keys) == spec.rounds
                assert list(keys) == [spec.key_schedule(k, h) for h in range(1, rounds + 1)]

    def test_interleaved_keys_and_directions(self):
        spec = builtin_toy_spec(7)
        k1, k2 = 0b101100, 0b010011
        for x in range(64):
            assert spec.encrypt(k1, x) == reference_encrypt(spec, k1, x)
            assert spec.encrypt(k2, x) == reference_encrypt(spec, k2, x)
            assert spec.decrypt(k1, x) == reference_decrypt(spec, k1, x)
            assert spec.encrypt(k1, x) == reference_encrypt(spec, k1, x)

    def test_two_specs_side_by_side(self):
        rot = builtin_toy_spec(7, rotating_key_schedule(6))
        perm = builtin_toy_spec(7, permuted_key_schedule(6, 99))
        for k in (3, 3, 40, 3):
            for x in range(64):
                assert rot.encrypt(k, x) == reference_encrypt(rot, k, x)
                assert perm.encrypt(k, x) == reference_encrypt(perm, k, x)
                assert perm.decrypt(k, x) == reference_decrypt(perm, k, x)
                assert rot.decrypt(k, x) == reference_decrypt(rot, k, x)

    def test_schedule_called_rounds_times_per_key(self):
        calls = []
        inner = permuted_key_schedule(6, 99)

        def counting(k, h):
            calls.append((k, h))
            return inner(k, h)

        rounds = 20
        spec = builtin_toy_spec(rounds, counting)
        calls.clear()  # construction checks surjectivity through the schedule
        for k in (9, 33, 63):
            for x in range(64):
                assert spec.decrypt(k, spec.encrypt(k, x)) == x
            spec.encrypt_table(k)
        assert len(calls) == 3 * rounds
        assert sorted(set(calls)) == [(k, h) for k in (9, 33, 63) for h in range(1, rounds + 1)]

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("rounds", [1, 7, 1000])
    def test_decrypt_before_encrypt(self, rounds, schedule):
        # a key's first use is a decryption: it builds the encryption table
        spec = builtin_toy_spec(rounds, SCHEDULES[schedule]())
        blocks = random.Random(rounds).sample(range(64), 8)
        for k in (0, 17, 63):
            assert spec.decrypt(k, blocks[0]) == reference_decrypt(spec, k, blocks[0])
            for x in blocks:
                assert spec.encrypt(k, x) == reference_encrypt(spec, k, x)
                assert spec.decrypt(k, x) == reference_decrypt(spec, k, x)

    def test_construction_calls_schedule_only_for_surjectivity(self):
        calls = []
        inner = permuted_key_schedule(6, 99)

        def counting(k, h):
            calls.append((k, h))
            return inner(k, h)

        builtin_toy_spec(1000, counting)
        # round 1 of a permuted schedule is already surjective
        assert calls == [(k, 1) for k in range(64)]


def reference_rotation(width: int, k: int, h: int) -> int:
    """The rotating schedule as one formula per round."""
    r = h % width
    return ((k << r) | (k >> (width - r))) & ((1 << width) - 1) if r else k


@lru_cache(maxsize=None)
def reference_permutation(seed: int, h: int) -> tuple[int, ...]:
    """Round h's permutation of the 6-bit key space, drawn as the permuted
    schedule draws it."""
    rng = random.Random(seed * 1_000_003 + h)
    p = list(range(64))
    rng.shuffle(p)
    return tuple(p)


REFERENCE_SCHEDULES = {
    "rotating": lambda k, h: reference_rotation(6, k, h),
    "permuted": lambda k, h: reference_permutation(99, h)[k],
}

SEQUENCE_ROUNDS = [1, 2, 5, 6, 7, 12, 13, 1000]


class TestRoundKeySequences:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("rounds", SEQUENCE_ROUNDS)
    def test_one_call_equals_per_round_calls(self, rounds, schedule):
        ks, reference = SCHEDULES[schedule](), REFERENCE_SCHEDULES[schedule]
        for k in range(64):
            keys = ks.round_keys(k, rounds)
            assert type(keys) is tuple
            assert list(keys) == [ks(k, h) for h in range(1, rounds + 1)]
            assert list(keys) == [reference(k, h) for h in range(1, rounds + 1)]

    def test_permuted_draw_order_does_not_matter(self):
        # a long sequence first, a late round first, or round by round
        by_sequence, by_late_round = permuted_key_schedule(6, 99), permuted_key_schedule(6, 99)
        assert by_late_round(5, 1000) == reference_permutation(99, 1000)[5]
        for k in (0, 5, 63):
            assert list(by_sequence.round_keys(k, 1000)) == [
                by_late_round(k, h) for h in range(1, 1001)
            ]

    def test_permuted_sequence_keeps_only_the_spec_rounds(self):
        # rounds past MAX_ROUNDS are drawn per call, in a sequence too
        ks = permuted_key_schedule(6, 99)
        keys = ks.round_keys(0, 3000)
        assert len(ks._drawn) == 1000 * 64
        assert list(keys) == [ks(0, h) for h in range(1, 3001)]
        assert list(keys) == [reference_permutation(99, h)[0] for h in range(1, 3001)]
        assert len(ks._drawn) == 1000 * 64

    def test_permuted_rounds_outside_the_spec_range_still_drawn(self):
        ks = permuted_key_schedule(6, 99)
        for h in (0, -3, 1001, 5000):
            assert [ks(k, h) for k in range(64)] == list(reference_permutation(99, h))


def loop_encryption_table(spec: CipherSpec, k: int) -> bytes:
    """E_k round by round: the identity translated through each round's
    fused table core[x] ^ ks(k, h), one translation per round."""
    n = 1 << spec.d
    core, pad = spec.core_table(), bytes(256 - n)
    fused = [bytes([y ^ rk for y in core]) + pad for rk in range(n)]
    enc = bytes(range(n))
    for h in range(1, spec.rounds + 1):
        enc = enc.translate(fused[spec.key_schedule(k, h)])
    return enc


SQUARING_ROUNDS = [1, 5, 6, 7, 12, 13, 17, 100, 1000]

# bare callables whose round keys repeat with another period than d = 6,
# or not at all, next to the rotation itself
PERIODIC_SCHEDULES = {
    "rotation": lambda: lambda k, h: reference_rotation(6, k, h),
    "period 3": lambda: lambda k, h: reference_rotation(6, k, 2 * h),
    "period 4": lambda: lambda k, h: reference_rotation(6, k, h % 4),
    "period 12": lambda: lambda k, h: reference_rotation(6, k, h) ^ (h % 12 // 6),
    "aperiodic": lambda: permuted_key_schedule(6, 99).__call__,
}


class TestSquaredTables:
    @pytest.mark.parametrize("rounds", SQUARING_ROUNDS)
    def test_rotation_table_equals_round_by_round(self, rounds):
        spec = builtin_toy_spec(rounds)
        for k in range(64):
            assert bytes(spec.encrypt_table(k)) == loop_encryption_table(spec, k)

    @pytest.mark.parametrize("schedule", sorted(PERIODIC_SCHEDULES))
    @pytest.mark.parametrize("rounds", [7, 13, 1000])
    def test_any_schedule_gives_the_exact_table(self, rounds, schedule):
        spec = builtin_toy_spec(rounds, PERIODIC_SCHEDULES[schedule]())
        for k in range(64):
            assert bytes(spec.encrypt_table(k)) == loop_encryption_table(spec, k)
            assert spec.decrypt(k, spec.encrypt(k, 5)) == 5

    def test_range_check_on_a_periodic_sequence(self):
        # in range for one cycle, so the whole periodic sequence is
        spec = builtin_toy_spec(1000, lambda k, h: k + 64 * (h % 3 == 2))
        with pytest.raises(ValueError, match="round key 69 in round 2"):
            spec.encrypt(5, 0)

    def test_range_check_when_the_period_breaks_late(self):
        # periodic with 6 up to round 900, so every round is checked
        spec = builtin_toy_spec(1000, lambda k, h: k + 64 if h == 900 else k)
        with pytest.raises(ValueError, match="round key 69 in round 900"):
            spec.encrypt(5, 0)


# sha256 of the 64 encryption tables, key 0 first, as the round-by-round
# engine gave them
GOLDEN_TABLE_DIGESTS = {
    ("rotating", 1): "cdad5660973bde3cf63850bbf421884c2ad2557e9e11cc6cb11f7f538073973c",
    ("rotating", 20): "36cb32fc3b10a67c9eefac8c9a76865208eab34631448722e95df68c888e70d2",
    ("rotating", 1000): "a1bd9eed4d14bffe1ca8a5fc71e79f97e3bc0ae8e67706732cc5738b7e02e04c",
    ("permuted 99", 1): "0d8fb2072ece1af16cc7e34950e6de93cd82a96430558b55ae81c35454147506",
    ("permuted 99", 20): "5c62fe627a629af9c70b1205a3e848d2f93bb8613ba67a7e5804958a9134576f",
    ("permuted 99", 1000): "ef8465ce366a0ade355dc72b4a38546260b5ba39182a259b7392747c570ca5b6",
    ("permuted 3", 1): "6bd5c282c76a7d63518b70c0b3627f694a16703263ac1726368efc47b22b2a02",
    ("permuted 3", 20): "2feecf2f52627a64da8d1f218db03a1e798aa27da260f37e83e3c488bd6aceb2",
    ("permuted 3", 1000): "502c0d525212f6350048d165dbb5c36d019991eecb09a7da633dcaf3f6c6c79d",
}

GOLDEN_SCHEDULES = {
    "rotating": lambda: None,
    "permuted 99": lambda: permuted_key_schedule(6, 99),
    "permuted 3": lambda: permuted_key_schedule(6, 3),
}


@pytest.mark.parametrize("schedule, rounds", sorted(GOLDEN_TABLE_DIGESTS))
def test_golden_encryption_tables(schedule, rounds):
    spec = builtin_toy_spec(rounds, GOLDEN_SCHEDULES[schedule]())
    tables = b"".join(bytes(spec.encrypt_table(k)) for k in range(64))
    assert hashlib.sha256(tables).hexdigest() == GOLDEN_TABLE_DIGESTS[schedule, rounds]


def session_key_calls(spec: CipherSpec, k: int) -> tuple:
    """Every entry point that takes a session key, the oracles included."""
    return (
        lambda: spec.encrypt(k, 0),
        lambda: spec.decrypt(k, 0),
        lambda: spec.encrypt_table(k),
        lambda: spec.round_keys(k),
        lambda: encryption_oracle(spec, k).query(0),
        lambda: decryption_oracle(spec, k).query(0),
    )


def late_overflow_schedule(k: int, h: int) -> int:
    """Surjective in round 1, then leaves the 6-bit key space in round 2."""
    return k + 64 if h == 2 else k


class IndexOnly:
    """A value, such as a round key, that converts to its int but is no int."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"I({self.value})"


def index_only_in_round_2(k: int, h: int):
    return IndexOnly(k) if h == 2 else k


class TestOutOfRange:
    @pytest.mark.parametrize("bits", [6, 9])
    def test_round_key_that_only_converts_refused(self, bits):
        """A round key with __index__ but no int is refused in a byte-table
        state and in a wider one alike, by every entry point that takes a
        session key."""
        if bits == 6:
            spec = builtin_toy_spec(3, index_only_in_round_2)
        else:
            spec = CipherSpec([toy_brick()] * 3, nine_bit_spec(1).mixing, 3, index_only_in_round_2)
        message = rf"^key schedule gives round key I\(1\) in round 2, outside 0\.\.{(1 << bits) - 1}$"
        for call in session_key_calls(spec, 1):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("rounds", [2, 3])
    def test_round_key_outside_state_refused(self, rounds):
        spec = builtin_toy_spec(rounds, late_overflow_schedule)
        for call in (
            lambda: spec.encrypt(3, 5),
            lambda: spec.decrypt(3, 5),
            lambda: spec.encrypt_table(3),
            lambda: spec.round_keys(3),
        ):
            with pytest.raises(ValueError, match="round key 67 in round 2"):
                call()

    def test_negative_round_key_refused(self):
        spec = builtin_toy_spec(5, lambda k, h: -1 if h == 4 else k)
        with pytest.raises(ValueError, match="round key -1 in round 4"):
            spec.encrypt(0, 0)

    @pytest.mark.parametrize("periodic", [False, True], ids=["aperiodic", "periodic"])
    @pytest.mark.parametrize(
        "value, error, message",
        [
            (3.0, ValueError, "round key 3.0 in round 4, outside 0..63"),
            (2.5, ValueError, "round key 2.5 in round 4, outside 0..63"),
            (99.0, ValueError, "round key 99.0 in round 4, outside 0..63"),
            (-1.0, ValueError, "round key -1.0 in round 4, outside 0..63"),
            (-1, ValueError, "round key -1 in round 4, outside 0..63"),
            (64, ValueError, "round key 64 in round 4, outside 0..63"),
            (255, ValueError, "round key 255 in round 4, outside 0..63"),
            (256, ValueError, "round key 256 in round 4, outside 0..63"),
            (300, ValueError, "round key 300 in round 4, outside 0..63"),
            ("5", ValueError, "round key '5' in round 4, outside 0..63"),
            (None, ValueError, "round key None in round 4, outside 0..63"),
        ],
    )
    def test_round_key_check_outcome_per_value(self, value, error, message, periodic):
        """Every odd round key, a float equal to an int, a string and None
        included, is named by its repr with its first round, whether it
        lies in or beyond a byte, and whether or not the keys repeat every
        6 rounds."""
        if periodic:
            spec = builtin_toy_spec(12, lambda k, h: value if h % 6 == 4 else k)
        else:
            spec = builtin_toy_spec(12, lambda k, h: value if h == 4 else k)
        with pytest.raises(error, match=re.escape(message)):
            spec.encrypt(5, 7)
        with pytest.raises(error, match=re.escape(message)):
            spec.round_keys(5)

    def test_float_in_a_later_cycle_refused(self):
        # 3.0 == 3, so the keys compare equal to a sequence of period 6
        spec = builtin_toy_spec(12, lambda k, h: 3.0 if h == 10 else 3 if h == 4 else k)
        for call in session_key_calls(spec, 5):
            with pytest.raises(ValueError, match=r"^key schedule gives round key 3\.0 in round 10, outside 0\.\.63$"):
                call()

    @pytest.mark.parametrize("periodic", [False, True], ids=["aperiodic", "periodic"])
    @pytest.mark.parametrize("value", [0, 63, True])
    def test_round_key_check_accepts_range_ends(self, value, periodic):
        if periodic:
            spec = builtin_toy_spec(12, lambda k, h: value if h % 6 == 4 else k)
        else:
            spec = builtin_toy_spec(12, lambda k, h: value if h == 4 else k)
        assert spec.round_keys(5)[3] is value
        assert [spec.encrypt(5, x) for x in range(64)] == [
            reference_encrypt(spec, 5, x) for x in range(64)
        ]

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "after_key_3"])
    def test_float_session_key_refused(self, fresh):
        """3.0 equals the memo's key 3 but is no key: refused by every entry
        point, fresh or right after key 3, and key 3 stays usable."""
        spec = builtin_toy_spec(20)
        before = builtin_toy_spec(20).encrypt_table(3)
        if not fresh:
            assert spec.encrypt(3, 1) == before[1]
        for call in session_key_calls(spec, 3.0):
            with pytest.raises(ValueError, match=r"^session key 3\.0 is not an int$"):
                call()
        assert spec.encrypt_table(3) == before
        assert [spec.decrypt(3, y) for y in before] == list(range(64))

    def test_bool_session_key_is_key_one(self):
        spec = builtin_toy_spec(20)
        table = builtin_toy_spec(20).encrypt_table(1)
        assert spec.round_keys(True) == spec.round_keys(1)
        assert spec.encrypt_table(True) == table
        assert [spec.encrypt(True, x) for x in range(64)] == table
        assert [spec.decrypt(True, y) for y in table] == list(range(64))
        assert [spec.encrypt(1, x) for x in range(64)] == table

    def test_refused_key_leaves_last_key_usable(self):
        spec = builtin_toy_spec(2, lambda k, h: k + 64 if (h, k) == (2, 9) else k)
        before = spec.encrypt_table(8)
        with pytest.raises(ValueError):
            spec.encrypt(9, 0)
        assert spec.encrypt_table(8) == before
        assert [spec.decrypt(8, y) for y in before] == list(range(64))

    @pytest.mark.parametrize("schedule", ["rotating", "permuted"])
    @pytest.mark.parametrize("key", [-1, 64, 69])
    def test_session_key_outside_key_space_refused(self, schedule, key):
        # unchecked, -1 and 63 share a permuted schedule's round keys, and
        # 64 and 1 a rotating one's
        ks = rotating_key_schedule(6) if schedule == "rotating" else permuted_key_schedule(6, 3)
        spec = builtin_toy_spec(5, ks)
        before = spec.encrypt_table(63)
        for call in session_key_calls(spec, key):
            with pytest.raises(ValueError, match=rf"session key {key} is outside the key space 0\.\.63"):
                call()
        assert spec.encrypt_table(63) == before

    # decryption finds the block in the byte table, whose search refuses
    # values past a byte
    @pytest.mark.parametrize("block", [-1, 64, 69, 256, 300, 2**70])
    def test_block_outside_state_refused(self, block):
        spec = builtin_toy_spec(7)
        for call in (spec.encrypt, spec.decrypt):
            with pytest.raises(ValueError, match=r"outside the state space 0\.\.63"):
                call(3, block)

    # bytes are no block, though the byte table's search would take them
    @pytest.mark.parametrize("block", [2.0, "2", None, b"\x05", bytearray(b"\x05")])
    def test_block_not_an_int_refused(self, block):
        spec = builtin_toy_spec(7)
        for call in (spec.encrypt, spec.decrypt):
            with pytest.raises(ValueError, match=f"^block {re.escape(repr(block))} is not an int$"):
                call(3, block)

    def test_bool_block_is_block_one(self):
        spec = builtin_toy_spec(7)
        assert spec.encrypt(3, True) == spec.encrypt(3, 1)
        assert spec.decrypt(3, True) == spec.decrypt(3, 1)


@lru_cache(maxsize=None)
def nine_bit_spec(rounds: int) -> CipherSpec:
    """Three bundled bricks and a seeded invertible 9x9 mixing: a state too
    wide for the byte tables, so blocks run through the rounds one by one."""
    rng = random.Random(9)
    while True:
        mixing = BinMatrix([rng.randrange(1 << 9) for _ in range(9)])
        if mixing.is_invertible():
            break
    brick = toy_brick()
    return CipherSpec([brick, brick, brick], mixing, rounds)


class TestWideState:
    @pytest.mark.parametrize("rounds", [1, 7])
    def test_matches_reference_exhaustive(self, rounds):
        spec = nine_bit_spec(rounds)
        assert spec.d == 9
        for k in (0, 1, 300, 511):
            for x in range(512):
                assert spec.encrypt(k, x) == reference_encrypt(spec, k, x)
                assert spec.decrypt(k, x) == reference_decrypt(spec, k, x)

    def test_matches_reference_100_rounds(self):
        spec = nine_bit_spec(100)
        blocks = random.Random(100).sample(range(512), 16)
        for k in (5, 257):
            table = spec.encrypt_table(k)
            for x in blocks:
                assert table[x] == spec.encrypt(k, x) == reference_encrypt(spec, k, x)
                assert spec.decrypt(k, x) == reference_decrypt(spec, k, x)

    @pytest.mark.parametrize("block", [-1, 512, 517])
    def test_block_outside_state_refused(self, block):
        spec = nine_bit_spec(7)
        for call in (spec.encrypt, spec.decrypt):
            with pytest.raises(ValueError, match=r"outside the state space 0\.\.511"):
                call(3, block)

    @pytest.mark.parametrize("block", [2.0, "2", None, b"\x05", bytearray(b"\x05")])
    def test_block_not_an_int_refused(self, block):
        spec = nine_bit_spec(7)
        for call in (spec.encrypt, spec.decrypt):
            with pytest.raises(ValueError, match=f"^block {re.escape(repr(block))} is not an int$"):
                call(3, block)

    def test_bool_block_is_block_one(self):
        spec = nine_bit_spec(7)
        assert spec.encrypt(3, True) == spec.encrypt(3, 1)
        assert spec.decrypt(3, True) == spec.decrypt(3, 1)

    @pytest.mark.parametrize("key", [-1, 512, 517])
    def test_session_key_outside_key_space_refused(self, key):
        spec = nine_bit_spec(7)
        for call in session_key_calls(spec, key):
            with pytest.raises(ValueError, match=rf"session key {key} is outside the key space 0\.\.511"):
                call()

    def test_round_key_outside_state_refused(self):
        brick = toy_brick()
        spec = CipherSpec(
            [brick] * 3, nine_bit_spec(1).mixing, 3, lambda k, h: k + 512 if h == 2 else k
        )
        for call in (spec.encrypt, spec.decrypt):
            with pytest.raises(ValueError, match="round key 515 in round 2"):
                call(3, 5)

    @pytest.mark.parametrize("value", [3.0, 2.5])
    def test_float_round_key_refused(self, value):
        brick = toy_brick()
        spec = CipherSpec(
            [brick] * 3, nine_bit_spec(1).mixing, 3, lambda k, h: value if h == 2 else k
        )
        for call in session_key_calls(spec, 5):
            with pytest.raises(ValueError, match=rf"^key schedule gives round key {value} in round 2, outside 0\.\.511$"):
                call()

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "after_key_3"])
    def test_float_session_key_refused(self, fresh):
        spec = nine_bit_spec(7)
        before = spec.encrypt_table(3)
        if fresh:
            spec = CipherSpec(spec.bricks, spec.mixing, 7)
        for call in session_key_calls(spec, 3.0):
            with pytest.raises(ValueError, match=r"^session key 3\.0 is not an int$"):
                call()
        assert spec.encrypt_table(3) == before
        assert [spec.encrypt(True, x) for x in range(512)] == spec.encrypt_table(1)


@pytest.fixture
def table_builds(monkeypatch) -> list:
    """The round keys of every encryption table a spec builds, in order."""
    builds = []
    build = CipherSpec._encryption_table

    def counting(spec, keys):
        builds.append(keys)
        return build(spec, keys)

    monkeypatch.setattr(CipherSpec, "_encryption_table", counting)
    return builds


def offset_schedule(k: int, h: int) -> int:
    """A bare callable, a bijection of the 6-bit keys in every round."""
    return (5 * k + h) % 64


class TestKeptTables:
    """A byte spec keeps every key's encryption table: each is built once,
    a refused key leaves none, and there are at most 2^d of them."""

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_alternating_keys_build_each_table_once(self, schedule, table_builds):
        spec = builtin_toy_spec(1000, SCHEDULES[schedule]())
        blocks = random.Random(42).sample(range(64), 32)
        outputs, expected = [], []
        for x in blocks:  # 128 calls, the key changing at every call
            for k in (5, 6):
                outputs.append(spec.encrypt(k, x))
                expected.append(reference_encrypt(spec, k, x))
            for k in (5, 6):
                outputs.append(spec.decrypt(k, x))
                expected.append(reference_decrypt(spec, k, x))
        assert len(outputs) == 128
        assert outputs == expected
        assert len(table_builds) == 2

    @pytest.mark.parametrize("schedule", ["rotating", "permuted", "bare"])
    @pytest.mark.parametrize("rounds", [7, 1000])
    def test_round_keys_after_a_kept_table(self, schedule, rounds):
        ks = offset_schedule if schedule == "bare" else SCHEDULES[schedule]()
        spec = builtin_toy_spec(rounds, ks)
        for k in (5, 40):
            spec.encrypt(k, 1)
        spec.round_keys(40)
        for k in (5, 40, 5):
            spec.decrypt(k, 2)  # a hit: k's table is kept
            spec.encrypt(45 - k, 3)
            assert list(spec.round_keys(k)) == [ks(k, h) for h in range(1, rounds + 1)]

    @pytest.mark.parametrize("schedule, rounds", sorted(GOLDEN_TABLE_DIGESTS))
    def test_golden_tables_in_interleaved_key_order(self, schedule, rounds):
        spec = builtin_toy_spec(rounds, GOLDEN_SCHEDULES[schedule]())
        interleaved = [k for i in range(32) for k in (i, 63 - i)]
        first = {k: bytes(spec.encrypt_table(k)) for k in interleaved}
        for tables in (first, {k: bytes(spec.encrypt_table(k)) for k in range(64)}):
            digest = hashlib.sha256(b"".join(tables[k] for k in range(64))).hexdigest()
            assert digest == GOLDEN_TABLE_DIGESTS[schedule, rounds]

    def test_refused_key_is_never_kept(self, table_builds):
        spec = builtin_toy_spec(2, lambda k, h: k + 64 if (h, k) == (2, 9) else k)
        before = spec.encrypt_table(8)
        for call in session_key_calls(spec, 9) * 2:
            with pytest.raises(ValueError, match="round key 73 in round 2"):
                call()
        assert sorted(spec._tables) == [8]
        assert len(table_builds) == 1
        assert spec.encrypt_table(8) == before

    def test_keys_equal_to_a_kept_one(self, table_builds):
        """3.0 and "3" are refused after key 3's table is kept; True reads
        key 1's table and builds none."""
        spec = builtin_toy_spec(1000)
        tables = {k: spec.encrypt_table(k) for k in (3, 1)}
        for key in (3.0, "3"):
            for call in session_key_calls(spec, key):
                with pytest.raises(ValueError, match=f"^session key {re.escape(repr(key))} is not an int$"):
                    call()
        assert spec.encrypt_table(True) == tables[1]
        assert [spec.encrypt(True, x) for x in range(64)] == tables[1]
        assert [spec.decrypt(True, y) for y in tables[1]] == list(range(64))
        assert spec.encrypt_table(3) == tables[3]
        assert sorted(spec._tables) == [1, 3]
        assert len(table_builds) == 2

    def test_at_most_one_table_per_key_at_8_bits(self, table_builds):
        brick = VBF.from_power(14, FieldSpec(4, 0b10011))
        spec = CipherSpec([brick, brick], BinMatrix.identity(8), 20)
        first = [spec.encrypt_table(k) for k in range(256)]
        assert len(spec._tables) == 256
        assert all(len(table) == 256 for table in spec._tables.values())
        assert [spec.encrypt_table(k) for k in range(256)] == first
        assert [spec.encrypt(k, 7) for k in range(256)] == [t[7] for t in first]
        assert len(spec._tables) == 256
        assert len(table_builds) == 256

    def test_no_tables_above_8_bits(self, table_builds):
        brick = toy_brick()
        spec = CipherSpec([brick] * 3, BinMatrix.identity(9), 7)
        for k in (0, 5, 511):
            table = spec.encrypt_table(k)
            assert [spec.decrypt(k, y) for y in table] == list(range(512))
        assert spec._tables == {}
        assert table_builds == []


ROUND_TABLE_SPECS = {
    "bundled": lambda: builtin_toy_spec(1),
    "inversion": inverse_brick_spec,
    "nine_bit": lambda: nine_bit_spec(1),
}


class TestRoundTables:
    """The round tables against the layered computation they replaced:
    forward, mixing after the bricks; inverse, the inverse bricks after
    the inverse mixing."""

    @pytest.mark.parametrize("name", sorted(ROUND_TABLE_SPECS))
    def test_core_table_is_mixing_after_bricks(self, name):
        spec = ROUND_TABLE_SPECS[name]()
        assert spec.core_table() == [reference_round(spec, x, 0) for x in range(1 << spec.d)]

    @pytest.mark.parametrize("name", sorted(ROUND_TABLE_SPECS))
    def test_inverse_round_table_matches_layered_inverse(self, name):
        """A wide state decrypts through its inverse round table; a byte
        state keeps none, and decrypts every block of every key as the
        layered inverse does."""
        spec = ROUND_TABLE_SPECS[name]()
        sbox_inv, mix_inv = inverse_layers(spec)
        layered = [sbox_inv[mix_inv[y]] for y in range(1 << spec.d)]
        if spec.d > 8:
            assert spec._round_inv == layered
            return
        assert not hasattr(spec, "_round_inv")
        for k in range(1 << spec.d):
            keys = [spec.key_schedule(k, h) for h in range(spec.rounds, 0, -1)]
            for y in range(1 << spec.d):
                x = y
                for rk in keys:
                    x = layered[x ^ rk]
                assert spec.decrypt(k, y) == x, (k, y)


class TestHiddenSumCompatibility:
    def test_coordinate_basis_is_the_state_sums_own(self):
        assert toy_coordinate_basis() == toy_state_sum().basis == (1, 2, 4, 8, 16, 32)

    def test_all_round_generators_affine(self):
        state = toy_state_sum()
        spec = builtin_toy_spec()
        assert agl_membership(spec.core_table(), state)
        for key in range(64):
            assert agl_membership(xor_translation_table(6, key or 1), state)

    def test_encryptions_affine_for_random_keys(self):
        state = toy_state_sum()
        for rounds in (1, 20):
            spec = builtin_toy_spec(rounds)
            for k in (0, 9, 33, 63):
                assert agl_membership(spec.encrypt_table(k), state)

    def test_inverse_brick_spec_profile(self):
        spec = inverse_brick_spec()
        brick = spec.bricks[0]
        assert brick.is_permutation and brick.table[0] == 0
        for x in range(64):
            assert spec.decrypt(5, spec.encrypt(5, x)) == x
        # its rounds escape the bundled sum
        assert not agl_membership(spec.core_table(), toy_state_sum())


@dataclass(frozen=True)
class Calibration:
    basis: BinMatrix
    transpose_mixing: bool


def calibrate_toy_instance() -> list[Calibration]:
    """Search every invertible 3x3 bridge basis B and both mixing
    conventions for the combinations under which the keyless round
    function is affine for the bundled hidden sum.

    The bridge maps field elements to coordinates: the brick tabulated in
    the ascending field encoding, t, becomes v |-> B(t[B^-1 v]).  The
    unit XOR translations are checked once up front (they do not depend on
    the bridge).  This search pinned the identity bridge, the ascending
    encoding the bricks are tabulated in; it is kept as a regression
    facility.
    """
    state_sum = toy_state_sum()
    for i in range(6):
        if not agl_membership(xor_translation_table(6, 1 << i), state_sum):
            raise RuntimeError("bundled hidden sum rejects an XOR translation")
    mix_row = toy_mixing()
    # the same rows read as columns: bit i of row j becomes bit j of row i
    mix_col = BinMatrix(
        [sum(((r >> i) & 1) << j for j, r in enumerate(mix_row.rows)) for i in range(6)]
    )
    field_table = VBF.from_univariate(TOY_SBOX_COEFFS, TOY_FIELD).table
    hits = []
    for rows in itertools.product(range(8), repeat=3):
        basis = BinMatrix(rows)
        if not basis.is_invertible():
            continue
        to_field = basis.inverse()
        brick = VBF(3, 3, [basis.apply(field_table[to_field.apply(v)]) for v in range(8)])
        if brick.table[0] != 0 or not brick.is_permutation:
            continue
        for mixing, transpose in ((mix_row, False), (mix_col, True)):
            state = []
            for x in range(64):
                y = brick.table[x & 0b111] | (brick.table[x >> 3] << 3)
                state.append(mixing.apply(y))
            if agl_membership(state, state_sum):
                hits.append(Calibration(basis, transpose))
    return hits


class TestCalibration:
    def test_pinned_bridge_is_a_hit(self):
        hits = calibrate_toy_instance()
        assert any(c.basis == BinMatrix.identity(3) and not c.transpose_mixing for c in hits)

    def test_hits_frozen(self):
        # derived once by the full 168 x 2 search: 24 bases, all with the
        # row-vector mixing convention
        hits = calibrate_toy_instance()
        assert len(hits) == 24
        assert all(not c.transpose_mixing for c in hits)
