"""Reconstruction attack tests: query accounting, correctness, failure modes."""

import random
import re
from functools import partial

import pytest

from hiddensums.attack import (
    SPOT_CHECKS,
    AffineRepr,
    ConsistencyFailureError,
    InverseMismatchError,
    Oracle,
    decryption_oracle,
    encryption_oracle,
    reconstruct_cp,
    reconstruct_cpcc,
    spot_check_blocks,
    verify_global_deduction,
)
from hiddensums.cipher import (
    CipherSpec,
    builtin_toy_spec,
    permuted_key_schedule,
    rotating_key_schedule,
    toy_brick_sum,
    toy_coordinate_basis,
    toy_state_sum,
)
from hiddensums.gf2 import BinMatrix
from hiddensums.hidden_sum import AffineMap, BasisError, HiddenSum, product_sum
from hiddensums.vbf import VBF


def identity_oracle():
    return Oracle(lambda x: x, "encrypt")


class TestOracle:
    def test_counters_separate(self):
        o = identity_oracle()
        o.query(3)
        o.query(4)
        o.query_verification(5)
        assert o.query_count == 2
        assert o.verification_count == 1
        assert o.log == [("encrypt", 3, 3), ("encrypt", 4, 4)]

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            Oracle(lambda x: x, "sideways")


class TestReconstructCp:
    def test_identity_oracle(self):
        repr_, transcript = reconstruct_cp(
            identity_oracle(), toy_state_sum(), toy_coordinate_basis()
        )
        assert repr_.matrix == BinMatrix.identity(6)
        assert repr_.t_coords == 0
        assert transcript.encryption_count == 7
        assert transcript.decryption_count == 0

    def test_translation_oracle(self):
        oracle = Oracle(lambda x: x ^ 0b000001, "encrypt")
        repr_, _ = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        for v in range(64):
            assert repr_.apply(v) == v ^ 0b000001

    def test_toy_cipher_full_verification(self):
        spec = builtin_toy_spec(rounds=20)
        for key in (0, 13, 63):
            oracle = encryption_oracle(spec, key)
            repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
            assert transcript.encryption_count == 7
            for v in range(64):
                assert repr_.apply(v) == spec.encrypt(key, v)
                assert repr_.apply_inverse(spec.encrypt(key, v)) == v

    def test_query_log_shapes(self):
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 7)
        _, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        assert len(transcript.queries) == 7
        assert [q[1] for q in transcript.queries] == [0, 1, 2, 4, 8, 16, 32]
        assert all(direction == "encrypt" for direction, _, _ in transcript.queries)

    def test_spot_checks_use_verification_counter(self):
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 7)
        reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        assert oracle.query_count == 7
        assert oracle.verification_count == SPOT_CHECKS == 3

    def test_non_affine_oracle_detected_with_full_checks(self):
        # the default spot checks catch a shuffled table; a full comparison
        # with the oracle is verify_global_deduction's
        rng = random.Random(5)
        table = list(range(64))
        rng.shuffle(table)
        oracle = Oracle(lambda x: table[x], "encrypt")
        with pytest.raises(ConsistencyFailureError):
            reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())

    @pytest.mark.parametrize("cipher_oracle", [False, True], ids=["table", "cipher"])
    def test_basis_vector_outside_the_state_refused(self, cipher_oracle):
        # refused before any query: a table oracle would answer block -32
        # through negative indexing
        table = list(range(64))
        if cipher_oracle:
            oracle = encryption_oracle(builtin_toy_spec(), 7)
        else:
            oracle = Oracle(lambda x: table[x], "encrypt")
        with pytest.raises(BasisError, match="basis vector -32 "):
            reconstruct_cp(oracle, toy_state_sum(), (1, 2, 4, 8, 16, -32))
        assert oracle.query_count == 0
        assert oracle.log == []

    @pytest.mark.parametrize("rounds", [1, 5, 20, 100])
    def test_seven_queries_any_round_count(self, rounds):
        spec = builtin_toy_spec(rounds)
        oracle = encryption_oracle(spec, 42)
        _, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        assert transcript.encryption_count == 7

    def test_seven_queries_any_schedule(self):
        for schedule in (None, permuted_key_schedule(6, 4)):
            spec = builtin_toy_spec(20, schedule)
            oracle = encryption_oracle(spec, 21)
            repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
            assert transcript.encryption_count == 7
            report = verify_global_deduction(repr_, oracle, transcript)
            assert report.mismatches == 0

    def test_repeated_recoveries_each_count_their_spot_checks(self):
        # the spot-check blocks are drawn once per seed; the queries are not
        spec = builtin_toy_spec()
        for seed in (0, 0, 11, 11):
            oracle = encryption_oracle(spec, 7)
            reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis(), seed)
            assert oracle.query_count == 7
            assert oracle.verification_count == SPOT_CHECKS


class TestSpotCheckBlocks:
    def test_equal_to_a_fresh_draw_for_every_seed(self):
        for seed in range(100):
            expected = random.Random(seed).sample(range(64), SPOT_CHECKS)
            assert list(spot_check_blocks(seed, 64)) == expected
            assert spot_check_blocks(seed, 64) is spot_check_blocks(seed, 64)

    def test_small_space_checks_every_block(self):
        assert sorted(spot_check_blocks(4, 2)) == [0, 1]

    def test_recovery_checks_the_drawn_blocks(self):
        spec = builtin_toy_spec()
        seen = []
        oracle = encryption_oracle(spec, 5)
        func = oracle.func
        oracle.func = lambda x: seen.append(x) or func(x)
        reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis(), seed=23)
        assert seen[7:] == list(spot_check_blocks(23, 64))


def identity_except(block: int, output: int, direction: str = "encrypt") -> Oracle:
    """The identity, except that one block gives the output."""
    return Oracle(lambda x: output if x == block else x, direction)


class IndexOnly:
    """An output that equals its int and converts to it, but is no int."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        return other == self.value

    __hash__ = None


def named(output, block: int) -> str:
    """The start of the refusal of an output for a block, as a pattern."""
    return re.escape(f"output {output!r} for block {block} ")


def recover(mode: str, enc: Oracle, dec: Oracle | None = None):
    state, basis = toy_state_sum(), toy_coordinate_basis()
    if mode == "cp":
        return reconstruct_cp(enc, state, basis)
    return reconstruct_cpcc(enc, dec or Oracle(lambda y: y, "decrypt"), state, basis)


class TestOutputsOutsideTheState:
    """An oracle output outside 0..63, or one that is not an int, is
    refused by its repr, naming the block, before a coordinate table can
    miss it, fail on it or (if negative) wrap it."""

    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    def test_every_output_too_large(self, mode):
        with pytest.raises(ConsistencyFailureError, match=r"output 64 for block 0 .*0\.\.63"):
            recover(mode, Oracle(lambda x: x + 64, "encrypt"))

    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    @pytest.mark.parametrize("output", [64, 1000, -1, -64, 3.0, None, "3"])
    @pytest.mark.parametrize("block", [0, 1, 32])
    def test_one_queried_block(self, mode, output, block):
        with pytest.raises(ConsistencyFailureError, match=named(output, block)):
            recover(mode, identity_except(block, output))

    @pytest.mark.parametrize("output", [64, -1, 3.0, None, "3"])
    @pytest.mark.parametrize("block", [0, 8])
    def test_decryption_side(self, output, block):
        dec = identity_except(block, output, "decrypt")
        with pytest.raises(ConsistencyFailureError, match=named(output, block)):
            recover("cpcc", identity_oracle(), dec)

    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    @pytest.mark.parametrize("output", [64, -1, 3.0, None, "3"])
    def test_spot_checked_block(self, mode, output):
        # a block that none of the attack queries (0 and the unit vectors) asks
        block = next(v for v in spot_check_blocks(0, 64) if v & (v - 1))
        with pytest.raises(ConsistencyFailureError, match=named(output, block)):
            recover(mode, identity_except(block, output))

    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    def test_bool_output_passes(self, mode):
        repr_, _ = recover(mode, identity_except(1, True))
        assert repr_.forward_table() == list(range(64))

    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    def test_negative_outputs_do_not_wrap(self, mode):
        # coords[y - 64] is coords[y]: read through the wrap, this oracle
        # looks like the identity on every query and spot check
        with pytest.raises(ConsistencyFailureError, match=r"output -64 for block 0 "):
            recover(mode, Oracle(lambda x: x - 64, "encrypt"))


class TestReconstructCpcc:
    def test_identity_oracles(self):
        enc, dec = identity_oracle(), Oracle(lambda x: x, "decrypt")
        repr_, transcript = reconstruct_cpcc(
            enc, dec, toy_state_sum(), toy_coordinate_basis()
        )
        assert repr_.matrix == BinMatrix.identity(6)
        assert repr_.matrix_inv == BinMatrix.identity(6)
        assert (transcript.encryption_count, transcript.decryption_count) == (7, 7)

    def test_toy_cipher(self):
        spec = builtin_toy_spec()
        enc = encryption_oracle(spec, 42)
        dec = decryption_oracle(spec, 42)
        repr_, transcript = reconstruct_cpcc(enc, dec, toy_state_sum(), toy_coordinate_basis())
        assert (transcript.encryption_count, transcript.decryption_count) == (7, 7)
        assert repr_.matrix @ repr_.matrix_inv == BinMatrix.identity(6)
        for v in range(64):
            assert repr_.apply_inverse(repr_.apply(v)) == v

    def test_mismatched_keys_detected(self):
        spec = builtin_toy_spec()
        enc = encryption_oracle(spec, 42)
        dec = decryption_oracle(spec, 43)
        with pytest.raises(InverseMismatchError):
            reconstruct_cpcc(enc, dec, toy_state_sum(), toy_coordinate_basis())


class TestBasisOfTheRecovery:
    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    def test_own_basis_holds_the_sum_itself(self, mode):
        spec = builtin_toy_spec()
        repr_, _ = recover(mode, encryption_oracle(spec, 42), decryption_oracle(spec, 42))
        assert repr_.coord_map is toy_state_sum()

    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    def test_reversed_basis(self, mode):
        spec, state = builtin_toy_spec(), toy_state_sum()
        basis = state.basis[::-1]
        enc, dec = encryption_oracle(spec, 42), decryption_oracle(spec, 42)
        if mode == "cp":
            repr_, transcript = reconstruct_cp(enc, state, basis)
        else:
            repr_, transcript = reconstruct_cpcc(enc, dec, state, basis)
            assert [x for _, x, _ in dec.log] == [0, 32, 16, 8, 4, 2, 1]
        assert [x for _, x, _ in enc.log] == [0, 32, 16, 8, 4, 2, 1]
        assert repr_.coord_map.basis == basis
        assert repr_.coord_map == state and repr_.coord_map is not state
        assert verify_global_deduction(repr_, enc, transcript).mismatches == 0


class TestGlobalDeduction:
    def test_zero_mismatches_for_real_cipher(self):
        spec = builtin_toy_spec()
        rng = random.Random(0)
        for key in rng.sample(range(64), 10):
            oracle = encryption_oracle(spec, key)
            repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
            report = verify_global_deduction(repr_, oracle, transcript)
            assert report.verified_blocks == 64
            assert report.mismatches == 0
            assert report.enc_queries == 7
            assert report.dec_queries == 0
            assert report.ok

    def test_identity_oracle(self):
        repr_, transcript = reconstruct_cp(
            identity_oracle(), toy_state_sum(), toy_coordinate_basis()
        )
        report = verify_global_deduction(repr_, identity_oracle(), transcript)
        assert report.mismatches == 0

    def test_corrupted_repr_detected(self):
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 9)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        report = verify_global_deduction(corrupted(repr_), oracle, transcript)
        assert report.mismatches >= 1
        assert not report.ok

    def test_verification_queries_not_counted_as_attack(self):
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 30)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        verify_global_deduction(repr_, oracle, transcript)
        assert oracle.query_count == 7
        assert oracle.verification_count == 64 + 3  # full sweep plus spot checks

    def test_adds_one_verification_query_per_block(self):
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 30)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        log = list(oracle.log)
        for sweep in (1, 2):
            report = verify_global_deduction(repr_, oracle, transcript)
            assert report.verified_blocks == 64
            assert oracle.verification_count == SPOT_CHECKS + 64 * sweep
            assert oracle.query_count == 7
            assert oracle.log == log

    def test_one_corrupted_table_entry_is_one_mismatch(self):
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 17)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        table = repr_.forward_table()
        table[45] ^= 0b100
        report = verify_global_deduction(repr_, oracle, transcript)
        assert report.mismatches == 1
        assert not report.ok

    @pytest.mark.parametrize("sequence", [list, tuple, bytes])
    @pytest.mark.parametrize("flip, expected", [(0, 0), (0b1, 64), (0b100000, 64)])
    def test_mismatches_counted_whatever_the_codebook_sequence(self, sequence, flip, expected):
        """A codebook need not be a list: an equal one of another type has
        no mismatch, and a differing one is counted block by block."""
        spec = builtin_toy_spec()
        oracle = encryption_oracle(spec, 17)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        table = spec.encrypt_table(17)
        flipped = Oracle(oracle.func, "encrypt", lambda: sequence(y ^ flip for y in table))
        report = verify_global_deduction(repr_, flipped, transcript)
        assert (report.verified_blocks, report.mismatches) == (64, expected)

    @pytest.mark.parametrize("output", [64, -1, -64])
    def test_output_outside_the_state_is_a_mismatch(self, output):
        repr_, transcript = reconstruct_cp(
            identity_oracle(), toy_state_sum(), toy_coordinate_basis()
        )
        report = verify_global_deduction(repr_, identity_except(63, output), transcript)
        assert report.verified_blocks == 64
        assert report.mismatches == 1

    @pytest.mark.parametrize("d", [6, 9])
    @pytest.mark.parametrize(
        "convert", [float, str, IndexOnly], ids=["float", "str", "index_only"]
    )
    def test_output_that_is_no_int_is_a_mismatch(self, convert, d):
        """An oracle answering float(x), str(x) or an object that only
        converts to x for every block x matches the identity on no block,
        though 3.0 equals 3; one such answer among ints is one mismatch.
        The verdict is the same at every width."""
        xor = HiddenSum([AffineMap(BinMatrix.identity(d), 1 << i) for i in range(d)])
        repr_, transcript = reconstruct_cp(identity_oracle(), xor, xor.basis)
        assert verify_global_deduction(repr_, identity_oracle(), transcript).ok
        report = verify_global_deduction(repr_, Oracle(convert, "encrypt"), transcript)
        assert (report.verified_blocks, report.mismatches) == (1 << d, 1 << d)
        one = verify_global_deduction(repr_, identity_except(5, convert(5)), transcript)
        assert one.mismatches == 1

    def test_bool_output_is_its_int(self):
        repr_, transcript = reconstruct_cp(
            identity_oracle(), toy_state_sum(), toy_coordinate_basis()
        )
        oracle = Oracle(lambda x: bool(x) if x < 2 else x, "encrypt")
        assert verify_global_deduction(repr_, oracle, transcript).mismatches == 0


def reference_apply(repr_: AffineRepr, v: int) -> int:
    """The per-block body the lookup table replaced: coordinates, M, t."""
    cm = repr_.coord_map
    return cm.element(repr_.matrix.apply(cm.coords(v)) ^ repr_.t_coords)


def reference_apply_inverse(repr_: AffineRepr, w: int) -> int:
    cm = repr_.coord_map
    return cm.element(repr_.matrix_inv.apply(cm.coords(w) ^ repr_.t_coords))


SCHEDULES = {
    "rotating": lambda: rotating_key_schedule(6),
    "permuted": lambda: permuted_key_schedule(6, 99),
}


def corrupted(repr_: AffineRepr) -> AffineRepr:
    """The recovery with one bit of its matrix flipped."""
    flipped = BinMatrix([repr_.matrix.rows[0] ^ 1] + list(repr_.matrix.rows[1:]))
    return AffineRepr(flipped, repr_.t_coords, repr_.matrix_inv, repr_.coord_map)


def assert_codebook_verifies_as_per_block(spec, key, state, basis):
    """A spec-backed oracle and a bare per-block oracle over the same key
    give equal recoveries, reports and counts, for the recovery and for
    it corrupted."""
    by_codebook = encryption_oracle(spec, key)
    per_block = Oracle(partial(spec.encrypt, key), "encrypt")
    assert by_codebook.codebook is not None and per_block.codebook is None
    recoveries = [reconstruct_cp(o, state, basis) for o in (by_codebook, per_block)]
    assert recoveries[0][0].forward_table() == recoveries[1][0].forward_table()
    mismatches = []
    for change in (lambda r: r, corrupted):
        reports = [
            verify_global_deduction(change(repr_), oracle, transcript)
            for oracle, (repr_, transcript) in zip((by_codebook, per_block), recoveries)
        ]
        assert reports[0] == reports[1], (key, reports)
        assert by_codebook.verification_count == per_block.verification_count
        assert by_codebook.query_count == per_block.query_count == len(basis) + 1
        mismatches.append(reports[0].mismatches)
    return mismatches


def nine_bit_xor_spec(rounds: int):
    """Identity bricks under a seeded invertible 9x9 mixing: XOR-affine,
    and too wide for byte tables, so encrypt_table runs block by block."""
    rng = random.Random(9)
    while True:
        mixing = BinMatrix([rng.randrange(1 << 9) for _ in range(9)])
        if mixing.is_invertible():
            break
    brick = VBF.identity(3)
    return CipherSpec([brick, brick, brick], mixing, rounds)


class TestCodebookVerification:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("rounds", [1, 20, 100])
    def test_equal_to_per_block_every_key(self, rounds, schedule):
        spec = builtin_toy_spec(rounds, SCHEDULES[schedule]())
        for key in range(64):
            ok, bad = assert_codebook_verifies_as_per_block(
                spec, key, toy_state_sum(), toy_coordinate_basis()
            )
            assert ok == 0 and bad > 0

    def test_equal_to_per_block_on_a_wide_state(self):
        spec = nine_bit_xor_spec(5)
        assert spec.d == 9
        xor = HiddenSum([AffineMap(BinMatrix.identity(9), 1 << i) for i in range(9)])
        basis = tuple(1 << i for i in range(9))
        for key in (0, 300, 511):
            ok, bad = assert_codebook_verifies_as_per_block(spec, key, xor, basis)
            assert ok == 0 and bad > 0

    def test_one_encrypt_table_call_per_verification(self):
        spec = builtin_toy_spec(20)
        calls = {"encrypt": 0, "encrypt_table": 0}

        def counted(name):
            method = getattr(spec, name)

            def call(*args):
                calls[name] += 1
                return method(*args)

            return call

        spec.encrypt, spec.encrypt_table = counted("encrypt"), counted("encrypt_table")
        oracle = encryption_oracle(spec, 5)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        assert calls == {"encrypt": 7 + SPOT_CHECKS, "encrypt_table": 0}
        report = verify_global_deduction(repr_, oracle, transcript)
        assert calls == {"encrypt": 7 + SPOT_CHECKS, "encrypt_table": 1}
        assert report.ok and report.verified_blocks == 64
        assert oracle.verification_count == SPOT_CHECKS + 64

    def test_codebook_of_another_size_is_asked_block_by_block(self):
        """A 6-bit recovery checked against a 9-bit spec reads blocks
        0..63 one by one, as a bare oracle does."""
        spec = nine_bit_xor_spec(1)
        repr_, transcript = reconstruct_cp(
            identity_oracle(), toy_state_sum(), toy_coordinate_basis()
        )
        reports = [
            verify_global_deduction(repr_, oracle, transcript)
            for oracle in (encryption_oracle(spec, 3), Oracle(partial(spec.encrypt, 3), "encrypt"))
        ]
        assert reports[0] == reports[1] and reports[0].verified_blocks == 64


class TestLookupTables:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("rounds", [1, 1000])
    @pytest.mark.parametrize("mode", ["cp", "cpcc"])
    def test_tables_match_reference_every_key(self, mode, rounds, schedule):
        spec = builtin_toy_spec(rounds, SCHEDULES[schedule]())
        state, basis = toy_state_sum(), toy_coordinate_basis()
        for key in range(64):
            enc = encryption_oracle(spec, key)
            if mode == "cp":
                repr_, _ = reconstruct_cp(enc, state, basis)
            else:
                repr_, _ = reconstruct_cpcc(enc, decryption_oracle(spec, key), state, basis)
            for v in range(64):
                assert repr_.apply(v) == reference_apply(repr_, v) == spec.encrypt(key, v)
                assert repr_.apply_inverse(v) == reference_apply_inverse(repr_, v)
                assert repr_.apply_inverse(v) == spec.decrypt(key, v)

    @pytest.mark.parametrize("block", [-1, -2, 64, 69])
    def test_block_outside_state_refused(self, block):
        repr_, _ = reconstruct_cp(
            encryption_oracle(builtin_toy_spec(), 3), toy_state_sum(), toy_coordinate_basis()
        )
        for call in (repr_.apply, repr_.apply_inverse):
            with pytest.raises(ValueError, match=r"outside the state space 0\.\.63"):
                call(block)

    @pytest.mark.parametrize("block", [2.0, "2", None])
    @pytest.mark.parametrize("bricks", [2, 3], ids=["d6", "d9"])
    def test_block_not_an_int_refused(self, bricks, block):
        hs = product_sum([toy_brick_sum()] * bricks)
        identity = BinMatrix.identity(hs.width)
        repr_ = AffineRepr(identity, 5, identity, hs)
        for call in (repr_.apply, repr_.apply_inverse):
            with pytest.raises(ValueError, match=f"^block {re.escape(repr(block))} is not an int$"):
                call(block)
            assert call(True) == call(1)

    def test_corrupted_inverse_detected(self):
        repr_, _ = reconstruct_cp(
            encryption_oracle(builtin_toy_spec(), 9), toy_state_sum(), toy_coordinate_basis()
        )
        inv = repr_.matrix_inv
        flipped = BinMatrix([inv.rows[0] ^ 1] + list(inv.rows[1:]))
        bad = AffineRepr(repr_.matrix, repr_.t_coords, flipped, repr_.coord_map)
        assert any(bad.apply_inverse(repr_.apply(v)) != v for v in range(64))


class TestCoordinateLinearityTransfer:
    """Affinity for the hidden sum is the same thing as XOR-affinity of the
    coordinate conjugate; the attack rests on this equivalence."""

    @staticmethod
    def _xor_affine(table):
        shift = table[0]
        h = [y ^ shift for y in table]
        return all(h[x ^ y] == h[x] ^ h[y] for x in range(64) for y in range(64))

    def _conjugate(self, table):
        from hiddensums.hidden_sum import CoordinateMap

        cm = CoordinateMap(toy_state_sum(), toy_coordinate_basis())
        return [cm.coords(table[cm.element(c)]) for c in range(64)]

    def test_cipher_transfers(self):
        from hiddensums.hidden_sum import agl_membership

        spec = builtin_toy_spec()
        for key in (0, 29):
            table = spec.encrypt_table(key)
            assert agl_membership(table, toy_state_sum())
            assert self._xor_affine(self._conjugate(table))

    def test_non_member_transfers(self):
        from hiddensums.hidden_sum import agl_membership

        table = list(range(64))
        table[1], table[2] = table[2], table[1]
        assert not agl_membership(table, toy_state_sum())
        assert not self._xor_affine(self._conjugate(table))
