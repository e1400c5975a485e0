"""Acceptance battery: one test per verification criterion.

Every check is exact (GF(2) arithmetic, zero tolerance) and prints one
PASS line; run with -s to see them.  The canonical command-line entry
point for the same battery is `hiddensums reproduce`.

Known red checks
----------------
Criterion 4 asserts that the patched inversion x^(2^m - 2) has no coset
derivative image for every m in 3..8.  That is false at m = 3: the
exponent 6 = 2^2 + 2^1 is of Gold type, so x^6 over GF(2^3) is crooked
(every derivative image is a coset), and an exhaustive scan of all 5040
zero-fixing permutations of (F_2)^3 shows no anti-crooked permutation
exists on 3 bits at all.  The check is kept as stated rather than
weakened, so it fails, and criterion 15 (the battery exits clean)
fails with it.  Widths 4 through 8 all hold.
"""

import re
from pathlib import Path

import pytest

from hiddensums import cipher, corpus, reproduce, vbf
from hiddensums.attack import encryption_oracle, reconstruct_cp, verify_global_deduction
from hiddensums.cipher import (
    builtin_toy_spec,
    toy_brick,
    toy_coordinate_basis,
    toy_state_sum,
)
from hiddensums.cli import main
from hiddensums.gf2 import AffineSubspace
from hiddensums.hidden_sum import HiddenSum
from hiddensums.vbf import diff_uniformity

CHECKS = {num: (title, fn) for num, title, fn in reproduce.CRITERIA}
# The 14 battery lines the benchmark also holds the package to, read only.
GOLDEN_BATTERY = Path(__file__).resolve().parents[1] / "perfbench" / "golden_battery.txt"


@pytest.mark.parametrize("num", sorted(CHECKS))
def test_criterion(num):
    title, fn = CHECKS[num]
    detail = fn()  # raises CheckFailure with a diagnostic on failure
    print(f"PASS [{num:2d}] {title}: {detail}")


def test_battery_lines_match_golden():
    """Every detail line, criterion 4's FAIL line included, byte for byte."""
    lines = []
    reproduce.run(out=lines.append)
    assert lines == GOLDEN_BATTERY.read_text().splitlines()
    assert len(lines) == len(CHECKS)


@pytest.mark.parametrize(
    "criteria",
    [[], (), [1, 99], [1.0], [True], [2, 13.0]],
    ids=["list", "tuple", "unknown", "float", "bool", "int-and-float"],
)
def test_subset_refused_before_any_check(criteria):
    """An empty subset once ran the whole battery, and 1.0 or True ran
    criterion 1; each is refused, as an unknown number is, at the call and
    naming the valid range."""
    with pytest.raises(ValueError, match="valid: 1-14"):
        reproduce.results(criteria)
    lines = []
    with pytest.raises(ValueError, match="valid: 1-14"):
        reproduce.run(criteria, out=lines.append)
    assert lines == []


def test_criterion_11_refuses_swapped_coordinates(monkeypatch):
    """Two swapped coordinate entries still make tables additive for their
    own op, but criterion 11 computes # from the group's elements."""
    state = toy_state_sum()
    by_coeff = [state.element(c) for c in range(64)]
    by_coeff[5], by_coeff[6] = by_coeff[6], by_coeff[5]
    swapped = HiddenSum.__new__(HiddenSum)._adopt(by_coeff, state.basis)
    assert swapped != state
    assert all(
        swapped.coords(swapped.op(x, y)) == swapped.coords(x) ^ swapped.coords(y)
        for x in range(64)
        for y in range(64)
    )
    monkeypatch.setattr(cipher, "toy_state_sum", lambda: swapped)
    with pytest.raises(reproduce.CheckFailure, match="coordinates not additive"):
        reproduce.check_coordinate_isomorphism()


def test_criterion_8_refuses_a_wrong_hull_base(monkeypatch):
    """A memo entry whose coset has the right space but another base."""
    label, f, a = next(
        (label, f, a)
        for label, f in corpus.pinned_corpus(3)
        for a in range(1, 8)
        if vbf.derivative_hull(f, a).dim < 3
    )
    size, hull = vbf.derivative_shape(f, a)
    off = next(v for v in range(1, 8) if v not in hull.space)
    wrong = AffineSubspace(hull.base ^ off, hull.space)
    assert wrong.space == hull.space and wrong != hull
    monkeypatch.setitem(f._derivatives, a, (size, wrong))
    with pytest.raises(reproduce.CheckFailure, match=f"^{re.escape(label)}, direction {a}: "):
        reproduce.check_affine_hull_proposition()


def verdicts(f: vbf.VBF) -> tuple:
    coset_free = vbf.is_coset_free(f)
    return (
        vbf.is_apn(f),
        vbf.is_weakly_apn(f),
        vbf.is_crooked(f),
        (coset_free.value, coset_free.witness),
        vbf.n_hat(f),
        tuple(vbf.derivative_hull(f, a) for a in range(1, 1 << f.m)),
    )


def test_battery_repeats_in_one_interpreter():
    """A second run after the tests have swept the shared power maps in
    another order gives the same lines, and each shared map's verdicts
    equal those of a new object with its table: no memo goes stale."""
    first = [result.line() for result in reproduce.results()]
    for m in range(3, 7):
        fs = corpus.field_spec(m)
        for d in corpus.power_permutation_exponents(m):
            shared = vbf.VBF.from_power(d, fs)
            for a in reversed(range(1, 1 << m)):
                vbf.component_space(shared, a)
            assert verdicts(shared) == verdicts(vbf.VBF(m, m, shared.table)), (m, d)
            assert vbf.VBF.from_power(d, fs) is shared
    second = [result.line() for result in reproduce.results()]
    assert first == second == GOLDEN_BATTERY.read_text().splitlines()


class TestHeadlineNumbers:
    """Independent spot checks of the claims the battery summarizes."""

    def test_brick_delta_exact(self):
        assert diff_uniformity(toy_brick()).delta == 4

    def test_attack_costs_seven_queries(self):
        spec = builtin_toy_spec(rounds=100)
        oracle = encryption_oracle(spec, 55)
        repr_, transcript = reconstruct_cp(oracle, toy_state_sum(), toy_coordinate_basis())
        assert transcript.encryption_count == 7
        assert transcript.decryption_count == 0
        report = verify_global_deduction(repr_, oracle, transcript)
        assert report.verified_blocks == 64
        assert report.mismatches == 0


def test_criterion_15_reproduce_exits_clean(capsys):
    """The battery, run end to end through the CLI, exits 0."""
    code = main(["reproduce"])
    out = capsys.readouterr().out
    assert out.count("PASS") + out.count("FAIL") == len(CHECKS)
    assert code == 0, "reproduce reported failures:\n" + out
