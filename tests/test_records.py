"""The result records keep one contract: field order and defaults,
truthiness and ok where they define them, a repr that names each field,
read-only fields, and the keys of reproduce --json rows.  All but
AttackTranscript are named tuples, so they also unpack and compare equal
to a tuple of their fields; AttackTranscript is a frozen dataclass, which
dataclasses.replace can edit."""

import dataclasses

import pytest

from hiddensums import cli, reproduce
from hiddensums.attack import (
    AttackTranscript,
    DeductionReport,
    encryption_oracle,
    reconstruct_cp,
    verify_global_deduction,
)
from hiddensums.cipher import builtin_toy_spec, toy_brick, toy_coordinate_basis, toy_state_sum
from hiddensums.hidden_sum import (
    KappaCheck,
    RingReport,
    check_kappa_homomorphism,
    check_ring_axioms,
)
from hiddensums.reproduce import CriterionResult
from hiddensums.vbf import ACVerdict, DiffSpectrum, diff_uniformity, is_coset_free

# record -> (fields in order, defaults, an instance, its repr)
RECORDS = {
    DiffSpectrum: (
        ("delta", "witness", "counts"),
        {"counts": None},
        DiffSpectrum(4, (1, 1)),
        "DiffSpectrum(delta=4, witness=(1, 1), counts=None)",
    ),
    ACVerdict: (
        ("value", "witness"),
        {"witness": None},
        ACVerdict(False, 3),
        "ACVerdict(value=False, witness=3)",
    ),
    KappaCheck: (
        ("ok", "witness"),
        {"witness": None},
        KappaCheck(False, (1, 2)),
        "KappaCheck(ok=False, witness=(1, 2))",
    ),
    RingReport: (
        ("commutative", "associative", "distributive", "nilpotent", "nilpotency_index"),
        {},
        RingReport(True, True, True, True, 3),
        "RingReport(commutative=True, associative=True, distributive=True,"
        " nilpotent=True, nilpotency_index=3)",
    ),
    AttackTranscript: (
        ("queries", "encryption_count", "decryption_count"),
        {},
        AttackTranscript((("encrypt", 0, 5),), 1, 0),
        "AttackTranscript(queries=(('encrypt', 0, 5),), encryption_count=1, decryption_count=0)",
    ),
    DeductionReport: (
        ("verified_blocks", "mismatches", "enc_queries", "dec_queries"),
        {},
        DeductionReport(64, 0, 7, 0),
        "DeductionReport(verified_blocks=64, mismatches=0, enc_queries=7, dec_queries=0)",
    ),
    CriterionResult: (
        ("criterion", "title", "verdict", "detail", "elapsed_s"),
        {},
        CriterionResult(1, "brick", "PASS", "delta = 4", 0.5),
        "CriterionResult(criterion=1, title='brick', verdict='PASS', detail='delta = 4',"
        " elapsed_s=0.5)",
    ),
}
IDS = [record.__name__ for record in RECORDS]
NAMED_TUPLES = [record for record in RECORDS if record is not AttackTranscript]


def fields_and_defaults(record) -> tuple[tuple[str, ...], dict]:
    if dataclasses.is_dataclass(record):
        fields = dataclasses.fields(record)
        defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
        return tuple(f.name for f in fields), defaults
    return record._fields, record._field_defaults


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_and_defaults(record):
    fields, defaults, _, _ = RECORDS[record]
    assert fields_and_defaults(record) == (fields, defaults)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_names_each_field(record):
    _, _, instance, text = RECORDS[record]
    assert repr(instance) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_read_only_and_no_attribute_can_be_added(record):
    fields, _, instance, _ = RECORDS[record]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
    with pytest.raises(AttributeError):
        instance.extra = None


@pytest.mark.parametrize("record", NAMED_TUPLES, ids=lambda record: record.__name__)
def test_unpacks_and_equals_the_tuple_of_its_fields(record):
    fields, _, instance, _ = RECORDS[record]
    assert instance == tuple(getattr(instance, name) for name in fields)
    *values, last = instance
    assert last == getattr(instance, fields[-1])
    assert len(values) == len(fields) - 1


def test_transcript_is_edited_with_dataclasses_replace():
    transcript = AttackTranscript((("encrypt", 0, 5),), 1, 0)
    edited = dataclasses.replace(transcript, encryption_count=8)
    assert edited == AttackTranscript(transcript.queries, 8, 0)
    assert transcript.encryption_count == 1


@pytest.mark.parametrize("record", [ACVerdict, KappaCheck], ids=["ACVerdict", "KappaCheck"])
def test_truthiness_follows_the_flag(record):
    assert record(True)
    assert not record(False)
    assert not record(False, 1)
    assert record(True).witness is None


@pytest.mark.parametrize("failing", range(4))
def test_ring_report_ok_needs_every_axiom(failing):
    flags = [True] * 4
    assert RingReport(*flags, 3).ok
    flags[failing] = False
    assert not RingReport(*flags, None).ok
    assert RingReport(*flags, None)  # a report is true whatever it says; read ok


def test_deduction_report_ok_iff_no_mismatch():
    assert DeductionReport(64, 0, 7, 0).ok
    assert not DeductionReport(64, 1, 7, 0).ok


def test_records_from_the_checks():
    """The records the package builds carry the values the checks find."""
    brick = toy_brick()
    delta, witness, counts = diff_uniformity(brick)
    assert (delta, counts) == (4, None)
    assert diff_uniformity(brick, keep_counts=True)[:2] == (delta, witness)
    free = is_coset_free(brick)
    assert not free and free.witness is not None
    hs = toy_state_sum()
    assert check_kappa_homomorphism(hs) == (True, None)
    assert check_ring_axioms(hs) == (True, True, True, True, 3)
    spec = builtin_toy_spec()
    enc = encryption_oracle(spec, 0x3F)
    repr_, transcript = reconstruct_cp(enc, hs, toy_coordinate_basis())
    assert transcript.encryption_count == len(transcript.queries) == 7
    report = verify_global_deduction(repr_, enc, transcript)
    assert report == (64, 0, 7, 0) and report.ok
    (result,) = reproduce.results([1])
    assert result[:3] == (1, "brick differential uniformity", "PASS")


def test_reproduce_json_rows_keep_their_keys_in_order(monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines: payloads.append(payload))
    assert cli.main(["reproduce", "--criteria", "1,2", "--json"]) == 0
    (payload,) = payloads
    assert [row["criterion"] for row in payload["criteria"]] == [1, 2]
    for row in payload["criteria"]:
        assert list(row) == ["criterion", "title", "verdict", "detail", "elapsed_s"]
