"""Vectorial Boolean function property tests.

Frozen expected values were derived by exhaustive computation; where a
cheap independent oracle exists (explicit polynomial evaluation, direct
pair counting) the test recomputes it inline.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hiddensums.cipher import toy_brick_sum
from hiddensums.gf2 import BinMatrix, FieldSpec, gf_mul, gf_pow
from hiddensums.hidden_sum import AffineMap
from hiddensums.vbf import (
    ANTI_CROOKED,
    CROOKED,
    VBF,
    affine_hull,
    component_space,
    derivative_hull,
    derivative_image,
    derivative_shape,
    diff_uniformity,
    ea_transform,
    is_anti_crooked,
    is_apn,
    is_coset,
    is_coset_free,
    is_crooked,
    is_weakly_apn,
    load_sbox,
    n_hat,
    power_ac_dichotomy,
)

F8 = FieldSpec(3, 0b1011)
F16 = FieldSpec(4, 0b10011)
F64 = FieldSpec(6, 0b1011011)

BRICK_COEFFS = (0, 2, 2, 7, 4, 2, 7)


def brick() -> VBF:
    return VBF.from_univariate(BRICK_COEFFS, F8)


class TestConstruction:
    def test_power_one_is_identity(self):
        assert VBF.from_power(1, F8) == VBF.identity(3)

    def test_patched_inversion_is_permutation(self):
        f = VBF.from_power(6, F8)
        assert f.is_permutation
        assert f.table[0] == 0
        for x in range(1, 8):
            assert gf_mul(x, f.table[x], F8) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            VBF.from_power(-1, F8)

    def test_huge_exponent(self):
        # x^(2^3) = x on GF(8), so x^(2^64) = x^(2^(64 mod 3)) = x^2
        assert VBF.from_power(1 << 64, F8) == VBF.from_power(2, F8)

    def test_univariate_x_is_identity(self):
        assert VBF.from_univariate([0, 1], F8) == VBF.identity(3)

    def test_constant_polynomial(self):
        f = VBF.from_univariate([5], F8)
        assert set(f.table) == {5}
        assert not f.is_permutation

    def test_univariate_against_explicit_horner_oracle(self):
        f = brick()
        for x in range(8):
            acc = 0
            for d, c in enumerate(BRICK_COEFFS):
                acc ^= gf_mul(c, gf_pow(x, d, F8), F8)
            assert f.table[x] == acc

    def test_brick_table_frozen(self):
        assert brick().table == (0, 6, 3, 7, 4, 1, 5, 2)
        assert brick().is_permutation

    def test_table_validation(self):
        with pytest.raises(ValueError):
            VBF(2, 2, [0, 1, 2])
        with pytest.raises(ValueError):
            VBF(2, 2, [0, 1, 2, 4])

    def test_inverse_round_trip(self):
        f = brick()
        assert f.inverse().inverse() == f
        g = f.inverse()
        assert all(g.table[f.table[x]] == x for x in range(8))

    def test_inverse_requires_permutation(self):
        with pytest.raises(ValueError):
            VBF.from_univariate([5], F8).inverse()

    def test_power_inverse_pair_in_f64(self):
        # 5 * 38 = 1 mod 63
        assert VBF.from_power(5, F64).inverse() == VBF.from_power(38, F64)


class TestDerivativeImage:
    def test_identity_direction(self):
        f = VBF.identity(4)
        for a in range(1, 16):
            assert derivative_image(f, a) == {a}

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            derivative_image(VBF.identity(3), 0)

    @pytest.mark.parametrize("a", [-1, -3, -8, 0, 8, 9, 1 << 20])
    def test_direction_out_of_range_rejected(self, a):
        for fn in (derivative_image, component_space, derivative_hull):
            with pytest.raises(ValueError, match="1..7"):
                fn(brick(), a)
        with pytest.raises(ValueError, match="1..7"):
            derivative_image(brick(), a, toy_brick_sum())

    def test_direction_range_ends_accepted(self):
        f = VBF(3, 2, [x & 3 for x in range(8)])
        assert derivative_image(f, 1) == {1}
        assert derivative_image(f, 7) == {3}
        assert len(derivative_image(brick(), 7, toy_brick_sum())) >= 1
        g = VBF(1, 1, [0, 1])
        assert derivative_image(g, 1) == {1}
        with pytest.raises(ValueError, match="1..1"):
            derivative_image(g, 2)

    @pytest.mark.parametrize("a", [True, False, 1.0, 3.0, 2.5, "1", None])
    def test_direction_not_an_int_rejected(self, a):
        f = brick()
        with pytest.raises(ValueError, match="must be an int"):
            derivative_image(f, a)
        with pytest.raises(ValueError, match="must be an int"):
            derivative_image(f, a, toy_brick_sum())
        # with direction 1 (equal to True and 1.0) memoised or not
        for memoised in (False, True):
            if memoised:
                derivative_shape(f, 1)
            with pytest.raises(ValueError, match="must be an int"):
                derivative_shape(f, a)
            with pytest.raises(ValueError, match="must be an int"):
                component_space(f, a)
        assert all(type(key) is int for key in f._derivatives)

    def test_brick_dimension_one_directions(self):
        # derived exhaustively: exactly these directions give 2-point images
        dims = {}
        for a in range(1, 8):
            image = derivative_image(brick(), a)
            dims[a] = (len(image), affine_hull(image, 3).dim)
        assert {a for a, (s, _) in dims.items() if s == 2} == {2, 5, 7}
        assert all(d == 1 for a, (s, d) in dims.items() if s == 2)

    def test_x5_at_sixth_power_direction(self):
        f = VBF.from_power(5, F64)
        e6 = gf_pow(2, 6, F64)
        assert e6 == 0b011011
        image = derivative_image(f, e6)
        assert len(image) == 16
        assert affine_hull(image, 6).dim == 4

    def test_pairing_invariant(self):
        f = brick()
        for a in range(1, 8):
            for x in range(8):
                assert f.table[x ^ a] ^ f.table[x] == f.table[(x ^ a) ^ a] ^ f.table[x ^ a]


class TestDiffUniformity:
    def test_brick_delta(self):
        assert diff_uniformity(brick()).delta == 4

    def test_gold_cube_is_apn(self):
        f = VBF.from_power(3, F8)
        assert diff_uniformity(f).delta == 2
        assert is_apn(f)

    def test_identity_delta_is_full(self):
        assert diff_uniformity(VBF.identity(3)).delta == 8

    def test_witness_attains_delta(self):
        f = brick()
        spectrum = diff_uniformity(f)
        a, b = spectrum.witness
        count = sum(1 for x in range(8) if f.table[x ^ a] ^ f.table[x] == b)
        assert count == spectrum.delta

    def test_counts_sum_per_direction(self):
        spectrum = diff_uniformity(brick(), keep_counts=True)
        for a, row in spectrum.counts.items():
            assert sum(row.values()) == 8

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_delta_even_on_random_tables(self, m, data):
        table = data.draw(
            st.lists(st.integers(0, (1 << m) - 1), min_size=1 << m, max_size=1 << m)
        )
        f = VBF(m, m, table)
        spectrum = diff_uniformity(f, keep_counts=True)
        assert spectrum.delta % 2 == 0
        for row in spectrum.counts.values():
            assert all(c % 2 == 0 for c in row.values())

    def test_image_size_bound(self):
        # |Im(D_a f)| >= 2^m / delta
        for f in (brick(), VBF.from_power(3, F8), VBF.from_power(6, F8)):
            delta = diff_uniformity(f).delta
            for a in range(1, 8):
                assert len(derivative_image(f, a)) >= 8 // delta


class TestWeaklyApn:
    def test_apn_implies_weakly(self):
        f = VBF.from_power(3, F8)
        assert is_apn(f) and is_weakly_apn(f)

    def test_apn_implies_weakly_across_corpus(self):
        from hiddensums.corpus import pinned_corpus

        apn_seen = 0
        for m in range(3, 7):
            for label, f in pinned_corpus(m):
                if is_apn(f):
                    apn_seen += 1
                    assert is_weakly_apn(f), label
        assert apn_seen > 0

    def test_identity_neither(self):
        f = VBF.identity(3)
        assert not is_apn(f)
        assert not is_weakly_apn(f)

    def test_brick_not_weakly(self):
        # derived: the 2-point images are not strictly above 2^(m-2) = 2
        assert not is_weakly_apn(brick())

    def test_patched_inversion_even_width(self):
        f = VBF.from_power(14, F16)
        assert is_weakly_apn(f) and not is_apn(f)


class TestCosets:
    def test_singleton_is_coset(self):
        assert is_coset({0b101})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_coset(set())

    def test_xor_shortcut_matches_pairwise_closure(self):
        # the rank test must agree with the literal closure criterion; any
        # sum passed as sum_op exercises the pairwise branch
        class PlainXor:
            @staticmethod
            def op(x, y):
                return x ^ y

            @staticmethod
            def neg(x):
                return x

        rng = random.Random(11)
        for _ in range(200):
            size = rng.randint(1, 8)
            points = set(rng.sample(range(16), size))
            shifted = {p ^ min(points) for p in points}
            pairwise = all(u ^ v in shifted for u in shifted for v in shifted)
            assert is_coset(points) == pairwise
            assert is_coset(points, PlainXor()) == pairwise

    def test_affine_hull_minimal(self):
        points = {0b0011, 0b0101, 0b1001}
        hull = affine_hull(points, 4)
        assert all(p in hull for p in points)
        assert hull.dim == 2

    def test_hull_of_subspace_is_itself(self):
        points = {0b000, 0b011, 0b101, 0b110}
        hull = affine_hull(points, 3)
        assert {v for v in range(8) if v in hull} == points


class TestCrookedness:
    def test_brick_not_anti_crooked_with_witness(self):
        verdict = is_anti_crooked(brick())
        assert not verdict.value
        assert verdict.witness is not None
        assert is_coset(derivative_image(brick(), verdict.witness))

    def test_brick_is_crooked(self):
        # derived: all seven images happen to be cosets
        assert is_crooked(brick())

    def test_identity_not_anti_crooked(self):
        assert not is_anti_crooked(VBF.identity(3)).value

    def test_gold_cube_crooked(self):
        assert is_crooked(VBF.from_power(3, F8))

    def test_x38_anti_crooked_x5_not(self):
        assert is_anti_crooked(VBF.from_power(38, F64)).value
        assert not is_anti_crooked(VBF.from_power(5, F64)).value

    def test_x5_is_crooked(self):
        # derived: one coset image forces all directions (power map)
        assert is_crooked(VBF.from_power(5, F64))

    def test_x49_not_permutation_but_coset_free(self):
        f = VBF.from_power(49, F64)
        assert not f.is_permutation
        assert is_coset_free(f).value
        with pytest.raises(ValueError):
            is_anti_crooked(f)

    def test_non_square_rejected(self):
        f = VBF(3, 2, [x & 3 for x in range(8)])
        with pytest.raises(ValueError):
            is_anti_crooked(f)


class TestPowerDichotomy:
    def test_gold_m5(self):
        fs = FieldSpec(5, 0b100101)
        assert power_ac_dichotomy(3, fs) == CROOKED

    def test_patched_inversion_m4(self):
        assert power_ac_dichotomy(14, F16) == ANTI_CROOKED

    def test_x49_m6(self):
        assert power_ac_dichotomy(49, F64) == ANTI_CROOKED

    def test_single_direction_constant_across_directions(self):
        # images of a power map are cosets for all directions or none
        for d in (3, 5, 6):
            f = VBF.from_power(d, F8)
            verdicts = {is_coset(derivative_image(f, a)) for a in range(1, 8)}
            assert len(verdicts) == 1

    def test_coset_verdict_constant_for_all_power_maps(self):
        # holds for every exponent, permutation or not, up to width 6
        moduli = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1011011}
        for m, modulus in moduli.items():
            fs = FieldSpec(m, modulus)
            for d in range(1, (1 << m) - 1):
                f = VBF.from_power(d, fs)
                verdicts = {
                    is_coset(derivative_image(f, a)) for a in range(1, 1 << m)
                }
                assert len(verdicts) == 1, f"x^{d} over GF(2^{m}) mixes verdicts"


class TestComponentSpace:
    def test_identity_full_space(self):
        f = VBF.identity(3)
        for a in range(1, 8):
            assert component_space(f, a).dim == 3
        assert n_hat(f) == 7

    def test_brick_values(self):
        # derived: dim V_a = 2 exactly at the 2-point-image directions
        dims = {a: component_space(brick(), a).dim for a in range(1, 8)}
        assert dims == {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1, 7: 2}
        assert n_hat(brick()) == 3

    def test_zero_nhat_implies_coset_free(self):
        for f in (VBF.from_power(14, F16), VBF.from_power(38, F64)):
            assert n_hat(f) == 0
            assert is_coset_free(f).value

    def test_hull_equals_value_plus_complement(self):
        from hiddensums.gf2 import AffineSubspace

        for f in (brick(), VBF.from_power(3, F8), VBF.from_power(6, F8)):
            for a in range(1, 8):
                hull = affine_hull(derivative_image(f, a), 3)
                va = component_space(f, a)
                assert hull == AffineSubspace(f.table[a], va.orthogonal_complement())


class TestEaTransform:
    def test_identity_transform(self):
        f = brick()
        ident = AffineMap.identity(3)
        zero = AffineMap(BinMatrix([0, 0, 0]), 0)
        assert ea_transform(f, ident, ident, zero) == f

    def test_singular_outer_rejected(self):
        f = brick()
        singular = AffineMap(BinMatrix([1, 1, 4]), 0)
        ident = AffineMap.identity(3)
        zero = AffineMap(BinMatrix([0, 0, 0]), 0)
        with pytest.raises(ValueError):
            ea_transform(f, singular, ident, zero)
        with pytest.raises(ValueError):
            ea_transform(f, ident, singular, zero)

    @pytest.mark.parametrize("slot", ["outer", "inner", "added"])
    def test_map_of_wrong_width_rejected(self, slot):
        f = VBF.identity(3)
        maps = {"outer": AffineMap.identity(3), "inner": AffineMap.identity(3),
                "added": AffineMap.identity(3)}
        maps[slot] = AffineMap(BinMatrix([8, 4, 2, 1]), 0)  # reversal of 4 bits
        with pytest.raises(ValueError, match=f"{slot} affine map has width 4, the function needs 3"):
            ea_transform(f, maps["outer"], maps["inner"], maps["added"])

    def test_off_square_widths_checked_per_side(self):
        f = VBF(3, 2, [x & 3 for x in range(8)])
        i2, i3 = AffineMap.identity(2), AffineMap.identity(3)
        assert ea_transform(f, i2, i3, AffineMap(BinMatrix([0, 0, 0]), 0)) == f
        with pytest.raises(ValueError, match="outer affine map has width 3, the function needs 2"):
            ea_transform(f, i3, i3, i3)
        with pytest.raises(ValueError, match="inner affine map has width 2, the function needs 3"):
            ea_transform(f, i2, i2, i3)
        # added maps inputs to outputs, so it must be m wide (m x m matrix)
        with pytest.raises(ValueError, match="added affine map has width 2, the function needs 3"):
            ea_transform(f, i2, i3, i2)

    def test_added_map_leaving_the_output_bits_rejected(self):
        f = VBF(3, 2, [x & 3 for x in range(8)])
        i2, i3 = AffineMap.identity(2), AffineMap.identity(3)
        for added in (i3, AffineMap(BinMatrix([0, 0, 0]), 4)):
            with pytest.raises(ValueError, match="added affine map has outputs outside"):
                ea_transform(f, i2, i3, added)
        # outputs inside the 2 output bits are added as before
        for added in (AffineMap(BinMatrix([0, 0, 0]), 3), AffineMap(BinMatrix([1, 2, 3]), 1)):
            g = ea_transform(f, i2, i3, added)
            assert max(added.apply(x) for x in range(8)) < 4
            assert g.table == tuple(f.table[x] ^ added.apply(x) for x in range(8))

    def test_transform_table(self):
        f = VBF.identity(3)
        outer = AffineMap(BinMatrix([2, 1, 4]), 1)
        inner = AffineMap(BinMatrix([4, 2, 1]), 3)
        added = AffineMap(BinMatrix([0, 7, 0]), 2)
        g = ea_transform(f, outer, inner, added)
        for x in range(8):
            assert g.table[x] == outer.apply(inner.apply(x)) ^ added.apply(x)

    def test_coset_freedom_preserved(self):
        rng = random.Random(3)
        f = VBF.from_power(14, F16)

        def rand_affine(invertible):
            while True:
                m = BinMatrix([rng.randrange(16) for _ in range(4)])
                if not invertible or m.is_invertible():
                    return AffineMap(m, rng.randrange(16))

        for _ in range(20):
            g = ea_transform(f, rand_affine(True), rand_affine(True), rand_affine(False))
            assert is_coset_free(g).value

    def test_ccz_counterexample(self):
        # inversion breaks the property: x^38 is coset-free, x^5 is not
        f = VBF.from_power(38, F64)
        assert is_coset_free(f).value
        assert not is_coset_free(f.inverse()).value


class TestSboxFiles:
    def test_header_parsed(self):
        text = "m=2 n=3\n0\n7\n3\n5\n"
        f = load_sbox(text)
        assert (f.m, f.n) == (2, 3)
        assert f.table == (0, 7, 3, 5)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_sbox("width 3\n0\n1\n")

    @pytest.mark.parametrize("header", ["m=3 n=3 junk", "m=3", "m=3 n=3 m=4"])
    def test_header_of_other_than_two_tokens_rejected(self, header):
        with pytest.raises(ValueError, match="line 1: bad s-box header"):
            load_sbox(header + "\n" + "0\n" * 8)

    @pytest.mark.parametrize("entry", ["+1", "0x2", "0X2", "1_1", "\u0661", "\uff21", "1 1", "-", "1.0"])
    def test_entry_of_other_than_ascii_hex_digits_rejected(self, entry):
        # int(entry, 16) reads the first five as 1, 2, 2, 17 and 1
        with pytest.raises(ValueError, match=re.escape(f"line 3: {entry!r} is not a hex value")):
            load_sbox(f"m=2 n=2\n0\n{entry}\n2\n3\n")

    @pytest.mark.parametrize(
        "header", ["m=+2 n=2", "m=2 n=+2", "m=\u0662 n=2", "m=2_0 n=2", "m= n=2", "m=0x2 n=2"]
    )
    def test_header_count_of_other_than_ascii_decimal_digits_rejected(self, header):
        with pytest.raises(ValueError, match="line 1: bad s-box header"):
            load_sbox(header + "\n" + "0\n" * 4)

    @pytest.mark.parametrize("entry", ["-1", "-0", "-a"])
    def test_negative_entry_named_as_negative(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"line 4: table value {entry!r} is negative")):
            load_sbox(f"m=2 n=2\n0\n1\n{entry}\n3\n")

    def test_errors_name_the_line_of_the_text(self):
        with pytest.raises(ValueError, match="line 2: bad s-box header"):
            load_sbox("\nm=2 n=x\n0\n1\n2\n3\n")
        with pytest.raises(ValueError, match="line 6: 'zz' is not a hex value"):
            load_sbox("m=2 n=2\n0\n\n1\n2\nzz\n")

    def test_hex_digits_of_either_case_accepted(self):
        f = load_sbox("m=2 n=4\n0\nA\nf\n0F\n")
        assert f.table == (0, 10, 15, 15)
