"""One pass of each workload, and the checks that judge its outputs.

A pass times only calls into the package's public entry points, records
each as a span, and returns the outputs.  The checks run afterwards, off
the clock, and return a list of failure messages; each check function
returns (checks attempted, failure messages).  A Tracer, when given, is
installed only around the timed calls, so the per-layer numbers describe
exactly the work the end-to-end numbers time.

The battery and search passes run in a fresh interpreter (child.py), as
the command line does; attack passes run in the client.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

GOLDEN_BATTERY = Path(__file__).with_name("golden_battery.txt")

# The identity 4-bit table is affine for every translation-compatible
# width-4 sum; the seed commit finds 106 of them.
WIDTH4_SUMS = 106
SEARCH_WIDTH = 4


@contextmanager
def installed(tracer):
    """Install the tracer, if there is one, around a block."""
    if tracer:
        tracer.install()
    try:
        yield
    finally:
        if tracer:
            tracer.uninstall()


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def battery_pass(spans, tracer=None) -> list[str]:
    from hiddensums import reproduce

    lines, stamps = [], []

    def out(line: str) -> None:
        stamps.append(perf_counter())
        lines.append(line)

    with installed(tracer):
        start = perf_counter()
        reproduce.run(out=out)
        end = perf_counter()
    run_id = spans.add("reproduce.run", start, end)
    prev = start
    for i, stamp in enumerate(stamps):
        spans.add(f"c{i + 1:02d}", prev, stamp, run_id)
        prev = stamp
    return lines


def check_battery(lines: list[str], golden: list[str]) -> tuple[int, list[str]]:
    """Byte-for-byte comparison with the golden lines, one check per line."""
    failures = []
    for i in range(max(len(lines), len(golden))):
        got = lines[i] if i < len(lines) else "<missing>"
        want = golden[i] if i < len(golden) else "<missing>"
        if got != want:
            failures.append(f"battery line {i + 1}: {got!r} != golden {want!r}")
    return max(len(lines), len(golden)), failures


def golden_lines() -> list[str]:
    return GOLDEN_BATTERY.read_text().splitlines()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def seeded_permutation(seed: int, width: int = SEARCH_WIDTH) -> list[int]:
    table = list(range(1 << width))
    random.Random(seed).shuffle(table)
    return table


def search_pass(spans, seed: int, tracer=None) -> dict:
    """Both 6-bit brick sets at d = 6, then a cold width-4 search on a
    seeded permutation (cold because the pass runs in a fresh interpreter
    and pays enumerate_regular_groups(4))."""
    from hiddensums import cipher, hidden_sum

    jobs = (
        ("bundled_d6", [cipher.builtin_toy_spec().core_table()], [3, 3]),
        ("inversion_d6", [cipher.inverse_brick_spec().core_table()], [3, 3]),
        ("width4_cold", [seeded_permutation(seed)], [SEARCH_WIDTH]),
    )
    found = {}
    with installed(tracer):
        for name, tables, widths in jobs:
            start = perf_counter()
            found[name] = hidden_sum.find_hidden_sums(tables, widths)
            spans.add(f"find_hidden_sums.{name}", start, perf_counter())
    return found


def is_affine_for(table, hs) -> bool:
    """Exhaustive affinity of a permutation for a sum, from its op alone:
    h(x) = g(x) # -g(0) must be additive on all pairs."""
    n = len(table)
    minus_g0 = next(b for b in range(n) if hs.op(table[0], b) == 0)
    h = [hs.op(g, minus_g0) for g in table]
    return all(h[hs.op(x, y)] == hs.op(h[x], h[y]) for x in range(n) for y in range(n))


def op_key(hs, width: int) -> tuple[int, ...]:
    """A sum's whole operation table, read through op only."""
    n = 1 << width
    return tuple(hs.op(x, y) for x in range(n) for y in range(n))


def check_search(found: dict, identity_sums: list, seed: int, trapdoor) -> tuple[int, list[str]]:
    """found: the pass's results; identity_sums: find_hidden_sums on the
    identity width-4 table; trapdoor: the bundled state sum."""
    failures = []
    bundled = found["bundled_d6"]
    if len(bundled) != 1 or op_key(bundled[0], 6) != op_key(trapdoor, 6):
        failures.append(f"bundled bricks: {len(bundled)} sums, expected exactly the trapdoor")
    if found["inversion_d6"]:
        failures.append(f"inversion bricks: {len(found['inversion_d6'])} sums, expected none")
    identity_keys = {op_key(s, SEARCH_WIDTH) for s in identity_sums}
    if len(identity_sums) != WIDTH4_SUMS or len(identity_keys) != WIDTH4_SUMS:
        failures.append(
            f"identity table: {len(identity_sums)} sums ({len(identity_keys)} distinct), "
            f"expected {WIDTH4_SUMS}"
        )
    # Every width-4 result must be affine for t by the harness's own test,
    # and together they must be exactly the identity sums that admit t.
    table = seeded_permutation(seed)
    got = found["width4_cold"]
    expected = {op_key(s, SEARCH_WIDTH) for s in identity_sums if is_affine_for(table, s)}
    not_affine = sum(1 for s in got if not is_affine_for(table, s))
    if not_affine or len(got) != len(expected) or {op_key(s, SEARCH_WIDTH) for s in got} != expected:
        failures.append(
            f"width-4 search: {len(got)} sums ({not_affine} not affine), "
            f"expected the {len(expected)} identity-table sums that admit t"
        )
    return 4, failures


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

CP_QUERIES = 7
BLOCKS = range(64)


class AttackInputs:
    """What every attack pass of one run shares: the hidden sum and basis,
    one cipher per key schedule at the given round count, the seeded key
    order, and the reference encryption tables the checks compare against."""

    def __init__(self, seed: int, rounds: int):
        from hiddensums import cipher

        self.state = cipher.toy_state_sum()
        self.basis = cipher.toy_coordinate_basis()
        schedules = (("rotation", None), ("permuted", cipher.permuted_key_schedule(6, seed)))
        self.specs = [
            (name, cipher.builtin_toy_spec(rounds, schedule)) for name, schedule in schedules
        ]
        self.rounds = rounds
        self.keys = list(range(64))
        random.Random(seed).shuffle(self.keys)
        self.reference = {
            (name, key): spec.encrypt_table(key) for name, spec in self.specs for key in self.keys
        }


def attack_pass(spans, inputs: AttackInputs, tracer=None) -> list[dict]:
    """For every (schedule, key): reconstruct_cp, reconstruct_cpcc, and the
    keyless use of the cp result on all 64 blocks in both directions."""
    from hiddensums import attack

    records = []
    with installed(tracer):
        for name, spec in inputs.specs:
            for key in inputs.keys:
                enc = attack.encryption_oracle(spec, key)
                start = perf_counter()
                cp = attack.reconstruct_cp(enc, inputs.state, inputs.basis)
                spans.add("reconstruct_cp", start, perf_counter())
                start = perf_counter()
                forward = [cp[0].apply(v) for v in BLOCKS]
                back = [cp[0].apply_inverse(w) for w in forward]
                spans.add("keyless", start, perf_counter())
                cc_enc = attack.encryption_oracle(spec, key)
                cc_dec = attack.decryption_oracle(spec, key)
                start = perf_counter()
                cpcc = attack.reconstruct_cpcc(cc_enc, cc_dec, inputs.state, inputs.basis)
                spans.add("reconstruct_cpcc", start, perf_counter())
                records.append(
                    {
                        "case": (name, key),
                        "cp": cp,
                        "cp_oracles": [enc],
                        "keyless": (forward, back),
                        "cpcc": cpcc,
                        "cpcc_oracles": [cc_enc, cc_dec],
                    }
                )
    return records


def check_queries(transcript, oracles, enc: int, dec: int) -> bool:
    """Exact attack-phase query counts, from the transcript and the oracles."""
    return (
        transcript.encryption_count == enc
        and transcript.decryption_count == dec
        and len(transcript.queries) == enc + dec
        and sum(o.query_count for o in oracles) == enc + dec
    )


def check_attack(records: list[dict], inputs: AttackInputs) -> tuple[int, list[str]]:
    from hiddensums import attack

    attempted, failures = 0, []
    for rec in records:
        table = inputs.reference[rec["case"]]
        repr_, transcript = rec["cp"]
        cc_repr, cc_transcript = rec["cpcc"]
        forward, back = rec["keyless"]
        reference = attack.Oracle(table.__getitem__, "encrypt")
        checks = (
            ("cp query count", check_queries(transcript, rec["cp_oracles"], CP_QUERIES, 0)),
            (
                "cpcc query count",
                check_queries(cc_transcript, rec["cpcc_oracles"], CP_QUERIES, CP_QUERIES),
            ),
            (
                "mismatch with the cipher",
                attack.verify_global_deduction(repr_, reference, transcript).mismatches == 0
                and forward == table,
            ),
            ("apply_inverse(apply(v)) round trip", back == list(BLOCKS)),
            (
                "cpcc result differs from cp",
                cc_repr.matrix == repr_.matrix
                and cc_repr.t_coords == repr_.t_coords
                and cc_repr.matrix_inv == repr_.matrix_inv,
            ),
        )
        attempted += len(checks)
        name, key = rec["case"]
        failures += [
            f"{what}: {inputs.rounds} rounds, {name} schedule, key {key}"
            for what, ok in checks
            if not ok
        ]
    return attempted, failures


def oracle_counts(records: list[dict]) -> dict:
    """Attack-phase and spot-check queries of one pass, read from the oracles."""
    oracles = [o for rec in records for o in rec["cp_oracles"] + rec["cpcc_oracles"]]
    return {
        "attack.oracle.queries": sum(o.query_count for o in oracles),
        "attack.oracle.verification_queries": sum(o.verification_count for o in oracles),
    }
