"""End-to-end verification battery.

Each check re-derives one headline claim about the bundled artifacts by
exhaustive computation: the brick's differential profile, the coset
structure of the power-map examples, the hidden-sum algebra, affinity of
the cipher's round functions, the 7-query reconstruction, and the
search falsification.  run() prints one PASS/FAIL line per check and
returns False if any check fails; results() yields each check's verdict,
detail and elapsed time.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from time import perf_counter

from . import attack, cipher, corpus, hidden_sum, vbf
from .gf2 import AffineSubspace, BinMatrix


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _random_affine_map(width: int, rng: random.Random, invertible: bool = True) -> hidden_sum.AffineMap:
    while True:
        m = BinMatrix([rng.randrange(1 << width) for _ in range(width)])
        if not invertible or m.is_invertible():
            return hidden_sum.AffineMap(m, rng.randrange(1 << width))


def check_brick_uniformity() -> str:
    spectrum = vbf.diff_uniformity(cipher.toy_brick(), keep_counts=True)
    _require(spectrum.delta == 4, f"expected delta 4, got {spectrum.delta}")
    for a, row in spectrum.counts.items():
        total = sum(row.values())
        _require(total == 8, f"direction {a}: counts sum to {total}, not 2^m")
    return "brick delta = 4, exhaustive difference table"


def check_brick_not_anti_crooked() -> str:
    brick = cipher.toy_brick()
    verdict = vbf.is_anti_crooked(brick)
    _require(not verdict.value, "brick unexpectedly anti-crooked")
    witness_image = vbf.derivative_image(brick, verdict.witness)
    _require(vbf.is_coset(witness_image), "reported witness image is not a coset")
    line_dirs = [
        a
        for a in range(1, 8)
        if vbf.derivative_shape(brick, a)[0] == 2
        and vbf.derivative_is_coset(brick, a)
        and vbf.derivative_hull(brick, a).dim == 1
    ]
    _require(bool(line_dirs), "no direction with a 2-point coset image")
    return f"brick not AC; dimension-1 coset images in directions {line_dirs}"


def check_inverse_pair_f64() -> str:
    from .gf2 import gf_pow

    fs = corpus.field_spec(6)
    f49 = vbf.VBF.from_power(49, fs)
    _require(vbf.is_coset_free(f49).value, "x^49 has a coset derivative image")
    f5 = vbf.VBF.from_power(5, fs)
    _require(
        vbf.is_anti_crooked(f5.inverse()).value, "the inverse of x^5 is not anti-crooked"
    )
    verdict = vbf.is_anti_crooked(f5)
    _require(not verdict.value, "x^5 unexpectedly anti-crooked")
    e6 = gf_pow(2, 6, fs)
    _require(e6 == 0b011011, "generator power disagrees with the pinned modulus")
    image = vbf.derivative_image(f5, e6)
    _require(len(image) == 16, f"|Im| at e^6 is {len(image)}, expected 16")
    _require(vbf.is_coset(image), "Im at e^6 is not a coset")
    hull = vbf.affine_hull(image, 6)
    _require(hull.dim == 4, f"hull dimension {hull.dim}, expected 4")
    return "x^49: all 63 images non-coset; x^5: dimension-4 coset image at e^6"


def check_patched_inversion_ac() -> str:
    failures = []
    for m in range(3, 9):
        fs = corpus.field_spec(m)
        d = (1 << m) - 2
        f = vbf.VBF.from_power(d, fs)
        if not vbf.is_anti_crooked(f).value:
            failures.append(f"x^{d} over GF(2^{m})")
    _require(
        not failures,
        "not anti-crooked: "
        + ", ".join(failures)
        + " (at m=3 the exponent 6 = 2^2 + 2^1 is of Gold type, so every "
        "derivative image is a coset; no anti-crooked permutation exists "
        "on 3 bits at all)",
    )
    return "patched inversion anti-crooked for m in 3..8, exhaustive"


def check_gold_crooked_apn() -> str:
    import math

    checked = []
    for m in (3, 5):
        fs = corpus.field_spec(m)
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                continue
            d = (1 << k) + 1
            if d >= (1 << m) - 1:
                continue
            f = vbf.VBF.from_power(d, fs)
            _require(vbf.is_apn(f), f"x^{d} over GF(2^{m}) not APN")
            _require(vbf.is_crooked(f), f"x^{d} over GF(2^{m}) not crooked")
            checked.append((m, d))
    _require(bool(checked), "no exponents of the 2^k + 1 family checked")
    return f"2^k+1 exponents APN and crooked: {checked}"


def check_power_dichotomy_agreement() -> str:
    count = 0
    for m in range(3, 7):
        fs = corpus.field_spec(m)
        for d in corpus.power_permutation_exponents(m):
            f = vbf.VBF.from_power(d, fs)
            crooked = vbf.is_crooked(f)
            anti = vbf.is_anti_crooked(f).value
            _require(
                crooked != anti,
                f"x^{d} over GF(2^{m}) is neither or both: crooked={crooked} anti={anti}",
            )
            shortcut = vbf.power_ac_dichotomy(d, fs)
            expected = vbf.CROOKED if crooked else vbf.ANTI_CROOKED
            _require(
                shortcut == expected,
                f"x^{d} over GF(2^{m}): single-direction test says {shortcut}, "
                f"exhaustive says {expected}",
            )
            count += 1
    return f"single-direction classification matches exhaustive on {count} power permutations"


def check_weakly_apn_non_coset() -> str:
    qualifying = 0
    for m in range(3, 7):
        for label, f in corpus.pinned_corpus(m):
            if vbf.is_apn(f) or not vbf.is_weakly_apn(f):
                continue
            qualifying += 1
            has_non_coset = any(
                not vbf.derivative_is_coset(f, a) for a in range(1, 1 << m)
            )
            _require(has_non_coset, f"{label}: weakly-APN, not APN, yet all images are cosets")
    _require(qualifying > 0, "corpus contains no weakly-APN-but-not-APN function")
    return f"{qualifying} weakly-APN-not-APN functions, each with a non-coset image"


def check_affine_hull_proposition() -> str:
    checked = 0
    for m in range(3, 7):
        for label, f in corpus.pinned_corpus(m):
            for a in range(1, 1 << m):
                hull = vbf.derivative_hull(f, a)
                va = vbf.component_space(f, a)
                expected = AffineSubspace(f.table[a], va.orthogonal_complement())
                _require(
                    hull == expected,
                    f"{label}, direction {a}: hull differs from f(a) + "
                    "orthogonal complement of the component space",
                )
                checked += 1
    return f"hull identity verified on {checked} (function, direction) pairs"


# One known-AC and one known-not-AC reference per width; no anti-crooked
# permutation exists on 3 bits, so both m=3 references are negatives.
def _ea_references(m: int) -> list[vbf.VBF]:
    fs = corpus.field_spec(m)
    if m == 3:
        return [cipher.toy_brick(), vbf.VBF.from_power(3, fs)]
    if m == 4:
        return [vbf.VBF.from_power(14, fs), vbf.VBF.identity(4)]
    if m == 5:
        return [vbf.VBF.from_power(30, fs), vbf.VBF.from_power(3, fs)]
    return [vbf.VBF.from_power(62, fs), vbf.VBF.from_power(5, fs)]


def check_ea_invariance() -> str:
    # The transform of a permutation need not be a permutation (the added
    # affine part can break bijectivity), so the verdict compared here is
    # the underlying coset-free property.
    transforms = 0
    for m in range(3, 7):
        refs = [(f, vbf.is_coset_free(f).value) for f in _ea_references(m)]
        rng = random.Random(1000 + m)
        for _ in range(25):
            outer = _random_affine_map(m, rng)
            inner = _random_affine_map(m, rng)
            added = _random_affine_map(m, rng, invertible=False)
            transforms += 1
            for f, verdict in refs:
                g = vbf.ea_transform(f, outer, inner, added)
                _require(
                    vbf.is_coset_free(g).value == verdict,
                    f"EA transform changed the verdict of a width-{m} reference",
                )
    return f"{transforms} seeded EA transforms preserve the verdict on 8 references"


def check_group_algebra() -> str:
    hs = cipher.toy_brick_sum()
    group = hidden_sum.RegularGroup.build(hs.generators())
    _require(len(group.elements) == 8, "group order is not 8")
    _require(
        all(e.then(e) == hidden_sum.AffineMap.identity(3) for e in group.elements),
        "an element is not an involution",
    )
    for y in range(8):
        for x in range(8):
            _require(
                hs.op(x, y) == group.elements[y].apply(x) == hidden_sum.kappa(hs, y).apply(x) ^ y,
                "translation does not split into linear part plus offset",
            )
    _require(bool(hidden_sum.check_kappa_homomorphism(hs)), "linear parts do not compose")
    u = hidden_sum.compute_U(hs)
    _require(0b010 in u, "agreement subspace misses the second unit vector")
    _require(len(u) >= 2, "agreement subspace trivial")
    ring = hidden_sum.check_ring_axioms(hs)
    _require(ring.ok, f"ring axioms fail: {ring}")
    _require(ring.nilpotency_index <= 3, "nilpotency index exceeds the width")
    for uu in range(8):
        _require(hidden_sum.check_uV_subgroup(hs, uu), f"u*V not a subgroup for u={uu}")
    return f"order-8 involution group; U basis {list(u.basis)}; nilpotency index {ring.nilpotency_index}"


def check_coordinate_isomorphism() -> str:
    brick_sum = cipher.toy_brick_sum()
    cm3 = hidden_sum.CoordinateMap(brick_sum, (1, 2, 4))
    for x in range(8):
        _require(
            cm3.coords(x) == cipher.toy_brick_coords(x),
            f"closed form differs from generic coordinates at {x}",
        )
    state = cipher.toy_state_sum()
    cm6 = hidden_sum.CoordinateMap(state, cipher.toy_coordinate_basis())
    for x in range(64):
        for y in range(64):
            _require(
                cm6.coords(state.op(x, y)) == cm6.coords(x) ^ cm6.coords(y),
                f"coordinates not additive at ({x}, {y})",
            )
    return "closed form matches on 8 elements; coordinates additive on all 4096 pairs"


def check_round_functions_affine() -> str:
    state = cipher.toy_state_sum()
    for i in range(6):
        _require(
            hidden_sum.agl_membership(hidden_sum.xor_translation_table(6, 1 << i), state),
            f"XOR translation by unit vector {i} is not affine for the hidden sum",
        )
    core = cipher.builtin_toy_spec().core_table()
    _require(hidden_sum.agl_membership(core, state), "keyless round function not affine")
    rng = random.Random(7)
    keys = rng.sample(range(64), 10)
    for rounds in (1, 20, 100):
        spec = cipher.builtin_toy_spec(rounds)
        for k in keys:
            _require(
                hidden_sum.agl_membership(spec.encrypt_table(k), state),
                f"encryption (key {k}, {rounds} rounds) not affine",
            )
    return "6 translations, the core round, and 30 encryption functions are all affine"


def check_attack() -> str:
    state = cipher.toy_state_sum()
    basis = cipher.toy_coordinate_basis()
    schedules: list[tuple[str, cipher.KeySchedule | None]] = [
        ("rotation", None),
        ("seeded permutation", cipher.permuted_key_schedule(6, 99)),
    ]
    runs = 0
    for rounds in (1, 20, 100):
        for name, schedule in schedules:
            spec = cipher.builtin_toy_spec(rounds, schedule)
            for key in range(64):
                oracle = attack.encryption_oracle(spec, key)
                repr_, transcript = attack.reconstruct_cp(oracle, state, basis)
                _require(
                    transcript.encryption_count == 7 and transcript.decryption_count == 0,
                    f"{name}, {rounds} rounds, key {key}: "
                    f"{transcript.encryption_count} encryption queries, expected 7",
                )
                report = attack.verify_global_deduction(repr_, oracle, transcript)
                _require(
                    report.mismatches == 0,
                    f"{name}, {rounds} rounds, key {key}: {report.mismatches} mismatches",
                )
                runs += 1
    for name, schedule in schedules:
        spec = cipher.builtin_toy_spec(20, schedule)
        for key in range(64):
            enc = attack.encryption_oracle(spec, key)
            dec = attack.decryption_oracle(spec, key)
            repr_, transcript = attack.reconstruct_cpcc(enc, dec, state, basis)
            _require(
                transcript.encryption_count == 7 and transcript.decryption_count == 7,
                f"cpcc key {key}: {transcript.encryption_count}+{transcript.decryption_count} queries",
            )
            _require(
                repr_.matrix @ repr_.matrix_inv == BinMatrix.identity(6),
                f"cpcc key {key}: decryption-derived inverse is wrong",
            )
            runs += 1
    return f"{runs} reconstructions: 7 queries each, zero mismatches, inverses consistent"


def check_search_falsification() -> str:
    toy = cipher.builtin_toy_spec()
    found = hidden_sum.find_hidden_sums([toy.core_table()], [b.m for b in toy.bricks])
    _require(bool(found), "search found no hidden sum for the bundled cipher")
    _require(
        any(s == cipher.toy_state_sum() for s in found),
        "bundled hidden sum missing from the search results",
    )
    swapped = cipher.inverse_brick_spec()
    found_inv = hidden_sum.find_hidden_sums([swapped.core_table()], [b.m for b in swapped.bricks])
    _require(
        not found_inv,
        f"inversion-brick cipher admits {len(found_inv)} hidden sums, expected none",
    )
    return f"bundled cipher: {len(found)} sum(s) incl. the trapdoor; inversion bricks: none"


CRITERIA: tuple[tuple[int, str, Callable[[], str]], ...] = (
    (1, "brick differential uniformity", check_brick_uniformity),
    (2, "brick coset witness", check_brick_not_anti_crooked),
    (3, "x^49 / x^5 coset structure", check_inverse_pair_f64),
    (4, "patched inversion anti-crooked, m=3..8", check_patched_inversion_ac),
    (5, "2^k+1 exponents APN and crooked", check_gold_crooked_apn),
    (6, "power dichotomy vs exhaustive", check_power_dichotomy_agreement),
    (7, "weakly-APN non-coset witness", check_weakly_apn_non_coset),
    (8, "affine hull identity", check_affine_hull_proposition),
    (9, "EA invariance of the verdict", check_ea_invariance),
    (10, "hidden-sum group algebra", check_group_algebra),
    (11, "coordinate isomorphism", check_coordinate_isomorphism),
    (12, "round functions affine for the hidden sum", check_round_functions_affine),
    (13, "7-query reconstruction attack", check_attack),
    (14, "hidden-sum search falsification", check_search_falsification),
)


class CriterionResult(namedtuple("CriterionResult", "criterion title verdict detail elapsed_s")):
    """One check's outcome: verdict PASS or FAIL, its detail line, and its
    wall time in seconds."""

    __slots__ = ()

    def line(self) -> str:
        return f"{self.verdict} [{self.criterion:2d}] {self.title}: {self.detail}"


def _evaluate(num: int, title: str, fn: Callable[[], str]) -> CriterionResult:
    start = perf_counter()
    try:
        verdict, detail = "PASS", fn()
    except CheckFailure as exc:
        verdict, detail = "FAIL", str(exc)
    return CriterionResult(num, title, verdict, detail, perf_counter() - start)


def results(criteria: Sequence[int] | None = None) -> Iterator[CriterionResult]:
    """The battery (or a subset), each check run as its result is taken.
    Unknown criterion numbers raise ValueError at the call, before any
    check runs."""
    known = [num for num, _, _ in CRITERIA]
    unknown = sorted(set(criteria or ()) - set(known))
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; valid: {known[0]}-{known[-1]}")
    wanted = set(criteria or known)
    return (_evaluate(num, title, fn) for num, title, fn in CRITERIA if num in wanted)


def run(criteria: Sequence[int] | None = None, out: Callable[[str], None] = print) -> bool:
    """Run the battery (or a subset); one line per check; True iff all pass.
    Unknown criterion numbers raise ValueError before any check runs."""
    all_ok = True
    for result in results(criteria):
        out(result.line())
        all_ok = all_ok and result.verdict == "PASS"
    return all_ok
