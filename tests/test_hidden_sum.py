"""Regular group actions, hidden sums, and the search.

The bundled generator triple (see cipher.TOY_GROUP_SPEC) is the main
fixture; its derived values (the agreement subspace {0, e2}, the ring
product e1*e3 = e2, nilpotency index 3) were computed exhaustively and
frozen here.
"""

import hashlib
import itertools
import random
import re
import time
import tracemalloc

import pytest
from test_hidden_sum_oracles import reference_is_involution

from hiddensums.cipher import (
    TOY_GROUP_SPEC,
    builtin_toy_spec,
    inverse_brick_spec,
    toy_brick_coords,
    toy_brick_sum,
    toy_coordinate_basis,
    toy_state_sum,
)
from hiddensums.gf2 import BinMatrix
from hiddensums.hidden_sum import (
    AffineMap,
    BasisError,
    CoordinateMap,
    HiddenSum,
    NotElementaryAbelianError,
    NotRegularError,
    agl_membership,
    check_kappa_homomorphism,
    check_ring_axioms,
    check_uV_subgroup,
    compute_U,
    dump_group_spec,
    enumerate_regular_groups,
    find_hidden_sums,
    gl_generators,
    hidden_sum_report,
    kappa,
    parse_group_spec,
    product_sum,
    ring_product,
    translation_compatible_sums,
    xor_translation_table,
)
from hiddensums.hidden_sum import (
    _brick_survivors,
    _direction_passes,
    _orbit_walk,
    _unit_pair_preimages,
)


def toy_generators():
    return parse_group_spec(TOY_GROUP_SPEC)


def xor_sum(width):
    """The sum of the XOR translations: XOR itself."""
    return HiddenSum([AffineMap(BinMatrix.identity(width), 1 << i) for i in range(width)])


def composed_elements(generators):
    """The element with coefficients c for each c: the generators c
    selects, composed."""
    elements = []
    for c in range(1 << len(generators)):
        e = AffineMap.identity(generators[0].width)
        for i, g in enumerate(generators):
            if c >> i & 1:
                e = e.then(g)
        elements.append(e)
    return elements


class TestAffineMap:
    def test_apply_and_compose(self):
        g = AffineMap(BinMatrix([0b001, 0b010, 0b110]), 0b100)
        h = AffineMap.identity(3)
        assert g.then(h) == g
        assert h.then(g) == g
        x = 0b011
        assert g.then(g).apply(x) == g.apply(g.apply(x))

    def test_translation_wider_than_the_matrix_refused(self):
        with pytest.raises(ValueError, match="^translation does not fit the matrix width$"):
            AffineMap(BinMatrix.identity(3), 8)

    @pytest.mark.parametrize("translation", [2.0, "1", None])
    def test_translation_not_an_int_refused(self, translation):
        message = f"^translation {re.escape(repr(translation))} is not an int$"
        with pytest.raises(ValueError, match=message):
            AffineMap(BinMatrix.identity(3), translation)

    def test_negative_translation_refused_and_bool_passes(self):
        with pytest.raises(ValueError, match="^translation does not fit the matrix width$"):
            AffineMap(BinMatrix.identity(3), -1)
        assert AffineMap(BinMatrix.identity(3), True).apply(0) == 1

    def test_translation_fixture(self):
        t = AffineMap(BinMatrix.identity(4), 0b1001)
        assert t.apply(0) == 0b1001
        assert reference_is_involution(t)


class TestBuildGroup:
    def test_translation_group_is_xor(self):
        hs = xor_sum(3)
        for x in range(8):
            for y in range(8):
                assert hs.op(x, y) == x ^ y

    def test_build_is_deterministic(self):
        first, second = HiddenSum(toy_generators()), HiddenSum(toy_generators())
        assert first == second and first.basis == second.basis
        assert first._by_coeff == second._by_coeff

    def test_toy_generators_build_order_eight(self):
        elements = composed_elements(toy_generators())
        assert sorted(e.apply(0) for e in elements) == list(range(8))
        assert all(e.then(e) == AffineMap.identity(3) for e in elements)
        hs = HiddenSum(toy_generators())
        for c, e in enumerate(elements):
            assert e.apply(0) == hs.element(c)

    def test_single_generator_not_regular(self):
        with pytest.raises(NotRegularError):
            HiddenSum([toy_generators()[0]])
        assert hidden_sum_report([toy_generators()[0]])["regular"] is False

    def test_non_commuting_generators(self):
        # tau_1 and a matrix map that moves its fixed space do not commute
        g = toy_generators()[0]
        h = AffineMap(BinMatrix([0b010, 0b001, 0b100]), 0b010)
        assert g.then(h) != h.then(g)
        report = hidden_sum_report([g, h])
        assert (report["abelian"], report["regular"], report["elementary_abelian"]) == (
            False, None, None,
        )

    def test_non_commuting_involutions_not_free(self):
        # the translation by e_1 and x |-> x*M + e_2 with e_1*M = e_1 + e_2:
        # both are involutions, but they do not commute
        t = AffineMap(BinMatrix([1, 2]), 1)
        g = AffineMap(BinMatrix([3, 2]), 2)
        assert t.then(g) != g.then(t)
        with pytest.raises(NotRegularError, match="^the action is not free$"):
            HiddenSum([t, g])

    def test_closure_overflow(self):
        # four independent commuting involutions: their group has 16 > 2^3
        # maps, and the orbit of 0 stays in the span of e1 and e2
        gens = [
            AffineMap(BinMatrix([1, 2, 5]), 1),
            AffineMap(BinMatrix([1, 2, 4]), 1),
            AffineMap(BinMatrix([1, 2, 4]), 2),
            AffineMap(BinMatrix([1, 2, 6]), 1),
        ]
        assert len(set(composed_elements(gens))) == 16
        with pytest.raises(NotRegularError):
            HiddenSum(gens)
        report = hidden_sum_report(gens)
        assert (report["abelian"], report["regular"], report["elementary_abelian"]) == (
            True, False, None,
        )

    def test_order_four_elements_rejected_by_hidden_sum(self):
        # sigma_y(x) = x + y + x*y over the ring spanned by t, t^2, t^3
        # with t^4 = 0 gives a regular group with elements of order 4
        def ring_mul(x, y):
            out = 0
            for i in range(3):
                if not (x >> i) & 1:
                    continue
                for j in range(3):
                    if not (y >> j) & 1:
                        continue
                    k = i + j + 2
                    if k <= 3:
                        out ^= 1 << (k - 1)
            return out

        def sigma(y):
            rows = [(1 << i) ^ ring_mul(1 << i, y) for i in range(3)]
            return AffineMap(BinMatrix(rows), y)

        gens = [sigma(0b001), sigma(0b100)]
        with pytest.raises(NotElementaryAbelianError):
            HiddenSum(gens)
        report = hidden_sum_report(gens)
        assert (report["abelian"], report["regular"], report["elementary_abelian"]) == (
            True, True, False,
        )

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([], "need at least one generator"),
            ([AffineMap.identity(3), AffineMap.identity(2)], "mixed widths"),
        ],
        ids=["none", "mixed"],
    )
    def test_no_or_mixed_generators_refused(self, gens, message):
        for build in (HiddenSum, hidden_sum_report):
            with pytest.raises(ValueError, match=message):
                build(gens)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("1\n0|1\n", r"generator 1 \(0\|1\)"),  # the constant map x -> 1
            ("2\n1001|01\n1100|10\n", r"generator 2 \(1100\|10\)"),
        ],
        ids=["constant", "one-singular"],
    )
    def test_singular_generator_refused_by_report(self, spec, named):
        """A map with a singular matrix is not in AGL(d, 2), so the report
        refuses it before asking whether the generators commute."""
        gens = parse_group_spec(spec)
        with pytest.raises(ValueError, match=named + " has a singular matrix.*AGL"):
            hidden_sum_report(gens)


class TestHiddenOp:
    def test_zero_is_identity(self):
        hs = toy_brick_sum()
        for y in range(8):
            assert hs.op(0, y) == y
            assert hs.op(y, 0) == y

    def test_unit_vector_sum(self):
        # e1 combined with e3 lands on (1,1,1)
        assert toy_brick_sum().op(0b001, 0b100) == 0b111

    def test_involution(self):
        hs = toy_brick_sum()
        for x in range(8):
            assert hs.op(x, x) == 0
            # -x = x: adding x twice undoes it
            assert all(hs.op(hs.op(y, x), x) == y for y in range(8))

    def test_abelian_group_axioms_exhaustive(self):
        hs = toy_brick_sum()
        for x in range(8):
            for y in range(8):
                assert hs.op(x, y) == hs.op(y, x)
                for z in range(8):
                    assert hs.op(hs.op(x, y), z) == hs.op(x, hs.op(y, z))

    def test_state_sum_group_axioms_exhaustive(self):
        hs = toy_state_sum()
        sigma = [[hs.op(x, y) for y in range(64)] for x in range(64)]
        for x in range(64):
            for y in range(64):
                assert sigma[x][y] == sigma[y][x]
                row = sigma[sigma[x][y]]
                sx = sigma[x]
                for z in range(64):
                    assert row[z] == sx[sigma[y][z]]


class TestKappa:
    def test_kappa_at_zero_is_identity(self):
        assert kappa(toy_brick_sum(), 0) == BinMatrix.identity(3)

    def test_generators_from_basis(self):
        hs = toy_brick_sum()
        assert hs.basis == tuple(g.translation for g in toy_generators())
        assert hs.generators() == tuple(toy_generators())
        assert HiddenSum(hs.generators()).basis == hs.basis

    def test_kappa_at_units(self):
        hs = toy_brick_sum()
        gens = toy_generators()
        assert kappa(hs, 0b010) == BinMatrix.identity(3)
        assert kappa(hs, 0b001) == gens[0].matrix
        assert kappa(hs, 0b100) == gens[2].matrix

    def test_linear_part_plus_offset(self):
        hs = toy_brick_sum()
        for y in range(8):
            for x in range(8):
                assert hs.op(x, y) == kappa(hs, y).apply(x) ^ y

    def test_homomorphism_translation_group(self):
        assert check_kappa_homomorphism(xor_sum(3))

    def test_homomorphism_toy(self):
        assert check_kappa_homomorphism(toy_brick_sum())

    def test_corrupted_table_detected_with_witness(self):
        hs = toy_brick_sum()
        elements = [AffineMap(kappa(hs, y), y) for y in range(8)]
        tau1_matrix = toy_generators()[0].matrix
        # give the pure translation by e2 a wrong (but involutive) matrix
        elements[0b010] = AffineMap(tau1_matrix, 0b010)
        table = [[e.apply(x) for x in range(8)] for e in elements]

        class Corrupted:
            # width and op are all that kappa and the check read
            width = 3

            def op(self, x, y):
                return table[y][x]

        check = check_kappa_homomorphism(Corrupted())
        assert not check.ok
        assert check.witness is not None


class TestU:
    def test_translation_group_full_space(self):
        u = compute_U(xor_sum(3))
        assert len(u) == 8

    def test_toy_agreement_subspace(self):
        u = compute_U(toy_brick_sum())
        assert 0b010 in u
        assert [v for v in range(8) if v in u] == [0, 0b010]
        assert len(u) >= 2


class TestRing:
    def test_zero_annihilates(self):
        hs = toy_brick_sum()
        for x in range(8):
            assert ring_product(hs, x, 0) == 0
            assert ring_product(hs, 0, x) == 0

    def test_unit_product(self):
        assert ring_product(toy_brick_sum(), 0b001, 0b100) == 0b010

    def test_axioms_and_nilpotency(self):
        report = check_ring_axioms(toy_brick_sum())
        assert report.ok
        assert report.nilpotency_index == 3

    def test_translation_ring_is_trivial(self):
        report = check_ring_axioms(xor_sum(3))
        assert report.ok
        assert report.nilpotency_index == 2

    def test_uv_subgroup(self):
        hs = toy_brick_sum()
        assert check_uV_subgroup(hs, 0)
        for u in range(8):
            assert check_uV_subgroup(hs, u)


class TestMembership:
    def test_identity_always_member(self):
        for hs in (toy_brick_sum(), toy_state_sum()):
            assert agl_membership(list(range(1 << hs.width)), hs)

    def test_xor_translations_member_of_state_sum(self):
        state = toy_state_sum()
        for i in range(6):
            assert agl_membership(xor_translation_table(6, 1 << i), state)

    def test_core_round_member(self):
        state = toy_state_sum()
        assert agl_membership(builtin_toy_spec().core_table(), state)

    def test_transposition_not_member(self):
        state = toy_state_sum()
        table = list(range(64))
        table[1], table[2] = table[2], table[1]
        assert not agl_membership(table, state)

    def test_non_bijective_rejected(self):
        with pytest.raises(ValueError):
            agl_membership([0] * 64, toy_state_sum())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            agl_membership(list(range(1, 65)), toy_state_sum())

    def test_float_entries_rejected(self):
        # 3.0 == 3, so the table passes the bijectivity compare
        table = [float(x) for x in range(8)]
        with pytest.raises(ValueError, match="bijective table"):
            agl_membership(table, toy_brick_sum())
        with pytest.raises(ValueError, match="bijective table"):
            find_hidden_sums([table], [3])


    @pytest.mark.parametrize("bricks", [2, 3], ids=["d6", "d9"])
    def test_membership_fills_in_no_state(self, bricks):
        """Every slot of a sum is set at construction, and conjugates and
        membership tests, repeated, rebind none of them."""
        hs = product_sum([toy_brick_sum()] * bricks)
        before = {name: getattr(hs, name) for name in HiddenSum.__slots__}
        values = {name: list(v) if isinstance(v, list) else v for name, v in before.items()}
        identity = list(range(1 << hs.width))
        for _ in range(2):
            assert list(hs.conjugate(identity)) == identity
            assert agl_membership(identity, hs)
        for name, value in before.items():
            assert getattr(hs, name) is value
            assert value == values[name]


class TestProductSum:
    def test_two_translation_groups(self):
        xor3 = xor_sum(3)
        prod = product_sum([xor3, xor3])
        assert prod.width == 6
        for x in range(64):
            for y in range(64):
                assert prod.op(x, y) == x ^ y

    def test_state_sum_acts_brickwise(self):
        one = toy_brick_sum()
        state = toy_state_sum()
        for x in range(64):
            for y in range(64):
                lo = one.op(x & 7, y & 7)
                hi = one.op(x >> 3, y >> 3)
                assert state.op(x, y) == lo | (hi << 3)

    def test_widths_add(self):
        assert product_sum([toy_brick_sum()] * 2).width == 6

    def test_three_bricks_act_brickwise_on_all_pairs(self):
        one = toy_brick_sum()
        prod = product_sum([one] * 3)
        assert prod.width == 9
        rows = [[one.op(x, y) for x in range(8)] for y in range(8)]
        for x in range(512):
            for y in range(512):
                expected = 0
                for off in (0, 3, 6):
                    expected |= rows[(y >> off) & 7][(x >> off) & 7] << off
                assert prod.op(x, y) == expected

    def test_twelve_bits_in_milliseconds_and_kilobytes(self):
        one = toy_brick_sum()
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            product_sum([one] * 4)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.1
        tracemalloc.start()
        try:
            hs = product_sum([one] * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert hs.width == 12
        cm = CoordinateMap(hs, hs.basis)  # free: must not raise
        assert [cm.coords(b) for b in hs.basis] == [1 << i for i in range(12)]
        assert all(
            agl_membership(xor_translation_table(12, 1 << i), hs) for i in range(12)
        )


class TestCoordinates:
    def test_zero(self):
        cm = CoordinateMap(toy_brick_sum(), (1, 2, 4))
        assert cm.coords(0) == 0

    def test_closed_form_matches(self):
        cm = CoordinateMap(toy_brick_sum(), (1, 2, 4))
        for x in range(8):
            assert cm.coords(x) == toy_brick_coords(x)

    def test_named_example(self):
        assert CoordinateMap(toy_brick_sum(), (1, 2, 4)).coords(0b101) == 0b111
        assert CoordinateMap(toy_brick_sum(), (1, 2, 4)).coords(0b010) == 0b010

    def test_isomorphism_onto_xor(self):
        hs = toy_brick_sum()
        cm = CoordinateMap(hs, (1, 2, 4))
        for x in range(8):
            for y in range(8):
                assert cm.coords(hs.op(x, y)) == cm.coords(x) ^ cm.coords(y)

    def test_element_inverts_coords(self):
        cm = CoordinateMap(toy_state_sum(), toy_coordinate_basis())
        for x in range(64):
            assert cm.element(cm.coords(x)) == x

    def test_dependent_basis_rejected(self):
        with pytest.raises(BasisError):
            CoordinateMap(toy_brick_sum(), (1, 2, 3))  # 3 = 1 # 2

    def test_wrong_count_rejected(self):
        with pytest.raises(BasisError):
            CoordinateMap(toy_brick_sum(), (1, 2))

    @pytest.mark.parametrize("bad", [-32, 64, 32.0])
    def test_vector_outside_the_space_rejected(self, bad):
        # negative indexing would read -32 as 32 and keep it in the basis
        with pytest.raises(BasisError, match=f"basis vector {bad!r} is not in the 6-bit space"):
            CoordinateMap(toy_state_sum(), (1, 2, 4, 8, 16, bad))

    def test_reversed_basis(self):
        hs = toy_brick_sum()
        cm = CoordinateMap(hs, (4, 2, 1))
        assert cm.basis == (4, 2, 1)
        assert cm == hs
        assert [cm.coords(b) for b in (4, 2, 1)] == [1, 2, 4]
        assert [cm.coords(x) for x in range(8)] != [hs.coords(x) for x in range(8)]
        for x in range(8):
            for y in range(8):
                assert cm.coords(hs.op(x, y)) == cm.coords(x) ^ cm.coords(y)

    @pytest.mark.parametrize("basis", [(1, 2, 3), (1, 2), (1, 2, 4, 0), (1, 2, -4), (1, 0, 4)])
    def test_bad_basis_rejected(self, basis):
        hs = toy_brick_sum()
        for _ in range(2):
            with pytest.raises(BasisError):
                CoordinateMap(hs, basis)
        assert CoordinateMap(hs, (1, 2, 4)).basis == (1, 2, 4)


class TestEnumeration:
    def test_width_three_count_frozen(self):
        groups = enumerate_regular_groups(3)
        assert len(groups) == 8

    def test_translation_group_included(self):
        groups = enumerate_regular_groups(3)
        assert any(HiddenSum(g) == xor_sum(3) for g in groups)

    def test_toy_group_included(self):
        groups = enumerate_regular_groups(3)
        assert any(HiddenSum(g) == toy_brick_sum() for g in groups)

    @pytest.mark.parametrize("width", [3.0, True, "3"])
    def test_width_not_an_int_refused(self, width):
        # even once the int of the same value is cached
        for search in (enumerate_regular_groups, translation_compatible_sums):
            search(int(width))
            with pytest.raises(ValueError, match=f"brick width {width!r} is not a positive int"):
                search(width)

    def test_all_groups_verify(self):
        for g in enumerate_regular_groups(3):
            report = hidden_sum_report(g)
            assert all(v is True for k, v in report.items() if k not in ("U_basis", "nilpotency_index"))
            assert HiddenSum(g).basis == tuple(h.translation for h in g)

    def test_all_enumerated_sums_satisfy_the_algebra(self):
        for g in enumerate_regular_groups(3):
            hs = HiddenSum(g)
            assert check_kappa_homomorphism(hs)
            u = compute_U(hs)
            assert len(u) >= 2
            ident = BinMatrix.identity(3)
            for y in range(8):
                k = kappa(hs, y)
                assert k @ k == ident  # linear parts square to the identity
            assert check_ring_axioms(hs).ok

    def test_width_four_count_frozen(self):
        groups = enumerate_regular_groups(4)
        assert len(groups) == 106
        for g in groups:
            assert all(a.then(b) == b.then(a) for a in g for b in g)
            HiddenSum(g)  # all involution groups, must construct

    @pytest.mark.parametrize("width", [3, 4])
    def test_translation_filter_keeps_vanishing_triple_products(self, width):
        # translation by a is affine for # exactly when x*y*a = 0 for all
        # x, y; the triple product is trilinear, so basis vectors suffice
        units = [1 << i for i in range(width)]

        def triple_products_vanish(hs):
            return all(
                ring_product(hs, ring_product(hs, a, b), c) == 0
                for a in units
                for b in units
                for c in units
            )

        sums = [HiddenSum(g) for g in enumerate_regular_groups(width)]
        kept = translation_compatible_sums(width)
        assert kept == tuple(hs for hs in sums if triple_products_vanish(hs))
        assert len(kept) == len(sums)  # no width-3 or width-4 sum is filtered

    def test_width_cap(self):
        with pytest.raises(ValueError):
            enumerate_regular_groups(5)

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_refused(self, width):
        with pytest.raises(ValueError, match=f"brick width {width} "):
            enumerate_regular_groups(width)

    def test_width_one(self):
        groups = enumerate_regular_groups(1)
        assert len(groups) == 1


def product_constants(hs):
    """e_i*e_j = e_i + e_j + (e_i # e_j) for the pairs i < j in the order
    of combinations, as _orbit_walk tracks a product."""
    units = [1 << i for i in range(hs.width)]
    return tuple(a ^ b ^ hs.op(a, b) for i, a in enumerate(units) for b in units[i + 1 :])


def closure_order(width):
    """The order of the group the matrices of gl_generators generate,
    closed breadth first; each matrix is its tuple of rows."""
    tables = [BinMatrix(images).affine_table() for images, _ in gl_generators(width)]
    identity = tuple(1 << i for i in range(width))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = {tuple(t[r] for r in m) for m in frontier for t in tables} - seen
        seen |= frontier
    return len(seen)


class TestOrbits:
    def test_orbit_sizes_frozen(self):
        sizes = {w: [len(orbit) for orbit in _orbit_walk(w)] for w in range(1, 5)}
        assert sizes == {1: [1], 2: [1], 3: [1, 7], 4: [1, 105]}

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_orbits_partition_the_enumerated_sums(self, width):
        orbits = [[product_constants(hs) for hs in orbit] for orbit in _orbit_walk(width)]
        assert sum(len(orbit) for orbit in orbits) == len(enumerate_regular_groups(width))
        for g in enumerate_regular_groups(width):
            constants = product_constants(HiddenSum(g))
            assert sum(orbit.count(constants) for orbit in orbits) == 1

    @pytest.mark.parametrize("width, order", [(1, 1), (2, 6), (3, 168), (4, 20160)])
    def test_generators_generate_gl(self, width, order):
        assert closure_order(width) == order

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_written_inverses_invert(self, width):
        for images, inverse_images in gl_generators(width):
            product = BinMatrix(images) @ BinMatrix(inverse_images)
            assert product == BinMatrix.identity(width)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_walk_yields_every_sum_once(self, width):
        """The walk's products, one sum each, are the enumerated sums."""
        candidates = [hs for orbit in _orbit_walk(width) for hs in orbit]
        assert len(set(candidates)) == len(candidates)
        assert set(candidates) == set(translation_compatible_sums(width))
        n = 1 << width
        for hs in candidates:
            assert sorted(hs._by_coeff) == list(range(n))
            assert [hs._by_element[e] for e in hs._by_coeff] == list(range(n))
            assert hs.basis == tuple(hs._by_coeff[1 << i] for i in range(width))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_walk_sums_are_their_products(self, width):
        """Each walk sum's op is x + y + x*y for a bilinear product: the
        one its unit pairs give (product_constants), summed bit by bit."""
        pairs = list(itertools.combinations(range(width), 2))
        for hs in (hs for orbit in _orbit_walk(width) for hs in orbit):
            constants = product_constants(hs)
            value = dict(zip(pairs, constants))
            for x in range(1 << width):
                for y in range(1 << width):
                    product = 0
                    for i in range(width):
                        for j in range(width):
                            if i != j and x >> i & 1 and y >> j & 1:
                                product ^= value[min(i, j), max(i, j)]
                    assert hs.op(x, y) == x ^ y ^ product, (constants, x, y)

    def test_walk_takes_a_free_basis_where_units_are_not(self):
        """(7, 7, 7) at width 3 has e_1 # e_3 = e_2, so its unit vectors
        generate only four elements; the walk's basis for it is free."""
        walk = {product_constants(hs): hs for orbit in _orbit_walk(3) for hs in orbit}
        hs = walk[7, 7, 7]
        assert hs.op(0b001, 0b100) == 0b010
        assert hs.basis != (1, 2, 4)
        assert sorted(hs._by_coeff) == list(range(8))

    def test_enumeration_output_frozen(self):
        # sha256 of the concatenated group specs in canonical order, taken
        # from the structure-constant backtracking the orbits replaced
        digests = {
            1: "ad8e0fcfd7d4f22b12189b097c2f1762ad27b7916c6ce558178994cb7f391f3c",
            2: "36e39cb08fa61360fd04141116579cca18f4d3a05a49e40ea5ec0e390133912e",
            3: "cb9a0e7c51522b6565cb312f706bd235b1429d0a2654eb03d8f3019e1c9f56cb",
            4: "7d883f8afb80ff1c293fc8d73ee46e1710b3c31aa7332e23e01f60f7677eee64",
        }
        for width, digest in digests.items():
            text = "".join(dump_group_spec(g) for g in enumerate_regular_groups(width))
            assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSearch:
    def test_builtin_cipher_yields_state_sum(self):
        found = find_hidden_sums([builtin_toy_spec().core_table()], [3, 3])
        assert len(found) == 1
        assert found[0] == toy_state_sum()

    def test_inversion_bricks_yield_nothing(self):
        found = find_hidden_sums([inverse_brick_spec().core_table()], [3, 3])
        assert found == []

    @pytest.mark.parametrize("spec", [builtin_toy_spec, inverse_brick_spec], ids=["bundled", "inversion"])
    def test_iterator_of_generators_gives_the_lists_result(self, spec):
        # the generators are read more than once, so an iterator must not run dry
        table = spec().core_table()
        assert find_hidden_sums(iter([table]), [3, 3]) == find_hidden_sums([table], [3, 3])

    def test_pretest_rejected_round_builds_no_group(self):
        """A round that the annihilator pre-test rejects asks for no
        enumerated sum; the bundled cipher's asks for width 3 alone."""
        table = list(range(16))
        random.Random(4).shuffle(table)
        translation_compatible_sums.cache_clear()
        assert find_hidden_sums([table], [4]) == []
        assert find_hidden_sums([inverse_brick_spec().core_table()], [3, 3]) == []
        assert translation_compatible_sums.cache_info().currsize == 0
        assert len(find_hidden_sums([builtin_toy_spec().core_table()], [3, 3])) == 1
        filled = translation_compatible_sums.cache_info()
        assert filled.currsize == 1
        translation_compatible_sums(3)
        assert translation_compatible_sums.cache_info().misses == filled.misses

    def test_pretest_passing_round_without_candidates_finds_none(self):
        """A 4-bit permutation that passes the pre-test (direction 11 alone)
        but keeps no brick candidate: the search finds no sum, as an
        exhaustive membership check over all 106 width-4 sums does."""
        table = list(range(16))
        random.Random(44215).shuffle(table)
        preimages = _unit_pair_preimages(sorted(range(16), key=table.__getitem__))
        assert [a for a in range(1, 16) if _direction_passes(table, preimages, a)] == [11]
        assert _brick_survivors([table], [4]) == [[]]
        sums = translation_compatible_sums(4)
        assert len(sums) == 106
        assert find_hidden_sums([table], [4]) == [s for s in sums if agl_membership(table, s)] == []

    @staticmethod
    def passing_directions(table):
        """The nonzero a on each 3-bit brick, shifted back to 1..7, that pass
        the annihilator pre-test's unit-pair test."""
        inverse = sorted(range(64), key=table.__getitem__)
        preimages = _unit_pair_preimages(inverse)
        return [
            {a for a in range(1, 8) if _direction_passes(table, preimages, a << off)}
            for off in (0, 3)
        ]

    def test_inversion_core_passes_no_direction(self):
        """So no brick-parallel sum makes the inversion round affine."""
        assert self.passing_directions(inverse_brick_spec().core_table()) == [set(), set()]

    def test_bundled_core_passes_three_directions(self):
        """The brick sum's annihilator is {0, 2}: 2 passes, and so do 5 and 7."""
        assert self.passing_directions(builtin_toy_spec().core_table()) == [{2, 5, 7}] * 2

    def test_rejected_search_walks_no_orbit(self):
        """A round whose brick passes no direction is rejected before any
        orbit is walked or any sum enumerated."""
        table = list(range(16))
        random.Random(4).shuffle(table)
        _orbit_walk.cache_clear()
        translation_compatible_sums.cache_clear()
        assert find_hidden_sums([table], [4]) == []
        # the same permutation on the high brick of [4, 4], the identity on
        # the low one: the low brick passes, and the high brick is rejected
        # on its own bits
        layered = [table[x >> 4] << 4 | x & 15 for x in range(256)]
        assert find_hidden_sums([layered], [4, 4]) == []
        assert _orbit_walk.cache_info().currsize == 0
        assert translation_compatible_sums.cache_info().currsize == 0

    def test_identity_generator_degenerate(self):
        found = find_hidden_sums([list(range(64))], [3, 3])
        per_brick = translation_compatible_sums(3)
        assert len(found) == len(per_brick) ** 2

    def test_deterministic(self):
        gens = [builtin_toy_spec().core_table()]
        first = find_hidden_sums(gens, [3, 3])
        second = find_hidden_sums(gens, [3, 3])
        tables = [
            [[s.op(x, y) for x in range(64)] for y in range(64)] for s in first + second
        ]
        assert tables[: len(first)] == tables[len(first) :]

    def test_non_bijective_generator_rejected(self):
        with pytest.raises(ValueError):
            find_hidden_sums([[0] * 64], [3, 3])

    @pytest.mark.parametrize(
        "table",
        [
            list(range(1, 65)),
            [x - 1 for x in range(64)],
            [float(x) for x in range(64)],
            list(range(63)),
            [0, 0] + list(range(2, 64)),
            list(range(63)) + [-1],
            [None] * 64,
            iter(range(64)),
        ],
        ids=["shifted-up", "shifted-down", "floats", "short", "duplicate", "wrapping", "none", "iterator"],
    )
    def test_generator_off_the_space_refused_up_front(self, table):
        # each is refused before any membership test, with the search's message
        with pytest.raises(ValueError, match="^round generators must be bijective tables on the space$"):
            find_hidden_sums([builtin_toy_spec().core_table(), table], [3, 3])

    @pytest.mark.parametrize(
        "widths, bad",
        [([3, -3, 6], -3), ([3, 0, 3], 0), ([1, 5], 5), ([3.0, 3.0], 3.0), ([True, 2, 3], True)],
    )
    def test_brick_width_outside_range_refused(self, widths, bad):
        # each list adds up to 6 bits, so the bijective table fits it
        with pytest.raises(ValueError, match=f"brick width {bad} is outside 1..4"):
            find_hidden_sums([builtin_toy_spec().core_table()], widths)

    def test_no_bricks_refused(self):
        with pytest.raises(ValueError, match="at least one brick"):
            find_hidden_sums([[0]], [])


class TestGroupSpecFiles:
    def test_round_trip(self):
        gens = toy_generators()
        assert parse_group_spec(dump_group_spec(gens)) == gens

    def test_bad_width_line(self):
        with pytest.raises(ValueError):
            parse_group_spec("abc\n100010001|010")

    @pytest.mark.parametrize("width", ["+3", "\u0663", "3_0"])
    def test_width_in_ascii_digits_only(self, width):
        # int() takes all three, and reads U+0663 (Arabic-Indic three) as 3
        with pytest.raises(ValueError, match="first line must be the width"):
            parse_group_spec(f"{width}\n100010011|100\n")

    def test_missing_separator(self):
        with pytest.raises(ValueError):
            parse_group_spec("3\n100010001010")

    def test_width_line_alone_refused(self):
        with pytest.raises(ValueError, match="^no generators in group spec$"):
            parse_group_spec("3\n")

    def test_wrong_field_lengths(self):
        with pytest.raises(ValueError):
            parse_group_spec("3\n1000|010")


class TestReport:
    def test_toy_report(self):
        report = hidden_sum_report(toy_generators())
        assert report["abelian"] and report["regular"] and report["elementary_abelian"]
        assert report["kappa_homomorphism"] is True
        assert report["U_basis"] == ["010"]
        assert report["ring_axioms"] is True
        assert report["nilpotency_index"] == 3

    def test_not_abelian_report(self):
        g = toy_generators()[0]
        h = AffineMap(BinMatrix([0b010, 0b001, 0b100]), 0b010)
        report = hidden_sum_report([g, h])
        assert report["abelian"] is False

    def test_not_regular_report(self):
        report = hidden_sum_report([toy_generators()[0]])
        assert report["regular"] is False
