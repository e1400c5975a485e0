"""Linear algebra and field arithmetic tests.

Expected values marked with paper-independent oracles are recomputed in
the test body (repeated multiplication, explicit matrix squaring) before
being compared against the faster implementation path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hiddensums.gf2 import (
    AffineSubspace,
    BinMatrix,
    FieldSpec,
    SingularMatrixError,
    Subspace,
    dot,
    gf_mul,
    gf_pow,
    read_digits,
    span_basis,
    vec_from_str,
    vec_to_str,
)

F8 = FieldSpec(3, 0b1011)
F64 = FieldSpec(6, 0b1011011)

TAU1_MATRIX = BinMatrix.from_text("100\n010\n011")
TAU3_MATRIX = BinMatrix.from_text("110\n010\n001")

MIXING_TEXT = "011010\n010000\n111010\n010111\n000010\n010110"


class TestVectors:
    def test_str_round_trip(self):
        assert vec_to_str(0b1101, 4) == "1011"
        assert vec_from_str("1011") == 0b1101
        for v in range(16):
            assert vec_from_str(vec_to_str(v, 4)) == v

    def test_bad_bit_character(self):
        with pytest.raises(ValueError):
            vec_from_str("10x")

    def test_dot(self):
        assert dot(0b101, 0b100) == 1
        assert dot(0b101, 0b111) == 0
        assert dot(0, 0b111) == 0


class TestBinMatrix:
    def test_identity_apply(self):
        ident = BinMatrix.identity(5)
        for x in range(32):
            assert ident.apply(x) == x

    def test_row_convention_on_generator_matrix(self):
        # row i of the matrix is the image of the i-th unit vector
        assert TAU1_MATRIX.apply(0b001) == 0b001
        assert TAU1_MATRIX.apply(0b100) == 0b110

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            TAU1_MATRIX.apply(0b1000)

    @pytest.mark.parametrize("rows", [[1.0, 2], [1.5, 2], ["1", 2], [None, 1]])
    def test_non_int_row_refused_at_construction(self, rows):
        with pytest.raises(ValueError, match="is not an int"):
            BinMatrix(rows)

    def test_bool_rows_pass(self):
        m = BinMatrix([True, 2])
        assert m.rank() == 2 and m.apply(0b11) == 3 and m.inverse() == BinMatrix([1, 2])
        assert BinMatrix([False, True]).rank() == 1

    def test_text_not_square(self):
        with pytest.raises(ValueError):
            BinMatrix.from_text("10\n01\n11")

    def test_row_wider_than_the_size_refused(self):
        with pytest.raises(ValueError, match="^row 0b1000 does not fit in width 3$"):
            BinMatrix([8, 1, 2])

    def test_product_of_different_sizes_refused(self):
        with pytest.raises(ValueError, match="^matrix size mismatch$"):
            BinMatrix.identity(2) @ BinMatrix.identity(3)

    def test_involution_is_its_own_inverse(self):
        # oracle first: squaring really gives the identity
        assert TAU3_MATRIX @ TAU3_MATRIX == BinMatrix.identity(3)
        assert TAU3_MATRIX.inverse() == TAU3_MATRIX

    def test_mixing_matrix_inverse(self):
        m = BinMatrix.from_text(MIXING_TEXT)
        assert m @ m.inverse() == BinMatrix.identity(6)
        assert m.inverse() @ m == BinMatrix.identity(6)

    def test_singular_matrix_reports_rank(self):
        m = BinMatrix([0b011, 0b011, 0b100])
        assert not m.is_invertible()
        with pytest.raises(SingularMatrixError) as err:
            m.inverse()
        assert err.value.rank == 2

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=6, max_size=6), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_inverse_round_trip(self, rows, x):
        m = BinMatrix(rows)
        if not m.is_invertible():
            return
        assert m.inverse().apply(m.apply(x)) == x

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=6, max_size=6), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_affine_table_is_apply_plus_t(self, rows, t):
        m = BinMatrix(rows)
        assert m.affine_table(t) == [m.apply(x) ^ t for x in range(64)]

    def test_inverse_round_trip_width_eight_all_vectors(self):
        import random

        rng = random.Random(2)
        found = 0
        while found < 10:
            m = BinMatrix([rng.randrange(256) for _ in range(8)])
            if not m.is_invertible():
                continue
            found += 1
            inv = m.inverse()
            for x in range(256):
                assert inv.apply(m.apply(x)) == x


class TestSpans:
    def test_span_basis_canonical(self):
        assert span_basis([0b011, 0b101, 0b110]) == span_basis([0b110, 0b011])
        assert span_basis([]) == ()
        assert span_basis([0]) == ()

    # [3, -3] cycled through the row of 3 forever, and [1, 2, 4, -1]
    # follows a full span, which skips every vector it already holds
    @pytest.mark.parametrize(
        "vectors", [[-1], [-2, 1], [-3], [-64], [3, -3], [1, 2, 4, -1]], ids=str
    )
    def test_negative_vector_refused(self, vectors):
        negative = min(vectors)
        with pytest.raises(ValueError, match=rf"vector {negative} is negative"):
            span_basis(vectors)
        with pytest.raises(ValueError, match=rf"vector {negative} is negative"):
            Subspace(vectors, 3)

    def test_subspace_elements(self):
        s = Subspace([0b011, 0b101], 3)
        assert s.dim == 2
        assert [v for v in range(8) if v in s] == [0b000, 0b011, 0b101, 0b110]
        assert 0b110 in s
        assert 0b111 not in s

    def test_orthogonal_complement(self):
        s = Subspace([0b011, 0b101], 3)
        perp = s.orthogonal_complement()
        assert perp.dim == 1
        points = [(u, v) for u in range(8) for v in range(8) if u in s and v in perp]
        assert len(points) == len(s) * len(perp)
        assert all(dot(u, v) == 0 for u, v in points)

    def test_affine_subspace_equality_is_set_equality(self):
        a = AffineSubspace(0b001, Subspace([0b110], 3))
        b = AffineSubspace(0b111, Subspace([0b110], 3))
        assert a == b
        assert [v for v in range(8) if v in a] == [v for v in range(8) if v in b]
        assert a != AffineSubspace(0b010, Subspace([0b110], 3))


class TestFieldSpec:
    def test_known_irreducibles_accepted(self):
        for m, modulus in ((3, 0b1011), (4, 0b10011), (6, 0b1011011), (8, 0b100011011)):
            FieldSpec(m, modulus)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(3, 0b1001)  # (x+1)(x^2+x+1)
        with pytest.raises(ValueError):
            FieldSpec(4, 0b10101)  # (x^2+x+1)^2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(4, 0b1011)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="^extension degree must be positive$"):
            FieldSpec(0, 1)

    @pytest.mark.parametrize("modulus", [-1, -8, -11])
    def test_negative_modulus_rejected(self, modulus):
        # -8 and -11 have the bit length of a degree-3 polynomial
        with pytest.raises(ValueError, match=rf"modulus {modulus} must be non-negative"):
            FieldSpec(3, modulus)


class TestFieldArithmetic:
    def test_generator_cube(self):
        # a^3 = a + 1 in GF(8) with modulus x^3 + x + 1
        assert gf_mul(0b010, 0b100, F8) == 0b011

    def test_sixth_power_in_f64(self):
        # e^6 = e^4 + e^3 + e + 1 under the bundled modulus
        e5 = gf_pow(0b000010, 5, F64)
        assert gf_mul(0b000010, e5, F64) == 0b011011

    def test_multiplicative_identity(self):
        for a in range(8):
            assert gf_mul(a, 1, F8) == a

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            gf_mul(0b1000, 1, F8)

    def test_pow_matches_repeated_mul(self):
        for a in range(8):
            acc = 1
            for k in range(10):
                assert gf_pow(a, k, F8) == acc
                acc = gf_mul(acc, a, F8)

    def test_pow_of_zero(self):
        assert gf_pow(0, 6, F8) == 0
        assert gf_pow(0, 0, F8) == 1
        assert gf_pow(5, 0, F8) == 1

    def test_fifth_power_of_generator(self):
        assert gf_pow(0b010, 5, F8) == 0b111

    def test_ring_axioms_exhaustive_small(self):
        n = 8
        for a in range(n):
            for b in range(n):
                assert gf_mul(a, b, F8) == gf_mul(b, a, F8)
                for c in range(n):
                    assert gf_mul(gf_mul(a, b, F8), c, F8) == gf_mul(a, gf_mul(b, c, F8), F8)
                    assert gf_mul(a, b ^ c, F8) == gf_mul(a, b, F8) ^ gf_mul(a, c, F8)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_ring_axioms_random_larger_field(self, a, b, c):
        fs = FieldSpec(8, 0b100011011)
        assert gf_mul(a, b, fs) == gf_mul(b, a, fs)
        assert gf_mul(gf_mul(a, b, fs), c, fs) == gf_mul(a, gf_mul(b, c, fs), fs)
        assert gf_mul(a, b ^ c, fs) == gf_mul(a, b, fs) ^ gf_mul(a, c, fs)

    @pytest.mark.parametrize("m,modulus", [(4, 0b10011), (5, 0b100101), (6, 0b1011011)])
    def test_ring_axioms_exhaustive_via_table(self, m, modulus):
        fs = FieldSpec(m, modulus)
        n = 1 << m
        table = [[gf_mul(a, b, fs) for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                assert table[a][b] == table[b][a]
        for a in range(n):
            ta = table[a]
            for b in range(n):
                tab = table[ta[b]]
                tb = table[b]
                for c in range(n):
                    assert tab[c] == ta[tb[c]]
                    assert ta[b ^ c] == ta[b] ^ ta[c]

    def test_nonzero_elements_form_group(self):
        # every nonzero element has order dividing 7 (so 2^3 - 1)
        for a in range(1, 8):
            assert gf_pow(a, 7, F8) == 1


@pytest.mark.parametrize("token", ["", "-", "+1", "1_0", " 1", "0x1", "\u0661", "12a"])
def test_read_digits_refuses_all_but_sign_and_ascii_digits(token):
    """The empty string and a lone sign too, which int() would have refused
    with its own message."""
    with pytest.raises(ValueError, match=r"is not a base-10 number"):
        read_digits(token, 10)


def test_read_digits_reads_sign_and_digits():
    assert [read_digits(t, 10) for t in ("0", "-0", "49", "-1000")] == [0, 0, 49, -1000]
    assert (read_digits("-1000", 2), read_digits("Ff", 16)) == (-8, 255)
