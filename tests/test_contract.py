"""The recorded contract of tests/contract.json, replayed in process: each
argv's exit code, the sha256 of its stdout and, for exits 2 and 3, its
stderr text, as tests/record_contract.py recorded them."""
import json

import pytest

from lambdatower import cyclo, seifert
from record_contract import ARGVS, CASCADE, CERTIFIED_SIGN, CONTRACT, run

RECORDS = json.loads(CONTRACT.read_text(encoding="utf-8"))["records"]


def _id(record):
    text = " ".join(record["argv"])
    return text if len(text) < 80 else f"{text[:60]}...[{len(text)} chars]"


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_argv_replays_its_record(record):
    assert run(record["argv"]) == record


def test_the_recorded_argvs_are_the_listed_ones():
    assert [record["argv"] for record in RECORDS] == ARGVS


@pytest.mark.parametrize("argv, bits", CASCADE,
                         ids=[_id({"argv": argv}) for argv, _ in CASCADE])
def test_cascade_records_reach_the_cascade(argv, bits, monkeypatch):
    # the float pass leaves these roots open: each call of the mpmath stage
    # is counted, at the precisions it doubles through
    seen = []
    stage = seifert._interval_signature

    def counted(rows, d, s, prec):
        seen.append(prec)
        return stage(rows, d, s, prec)

    monkeypatch.setattr(seifert, "_interval_signature", counted)
    run(argv)
    assert seen == bits


def test_certified_sign_record_reaches_certified_sign(monkeypatch):
    # the float stage of embedding_signs leaves every embedding to the
    # intervals
    seen = []
    sign = cyclo.certified_sign

    def counted(x, embedding=1):
        seen.append(embedding)
        return sign(x, embedding)

    monkeypatch.setattr(cyclo, "certified_sign", counted)
    run(CERTIFIED_SIGN)
    assert seen == [1, 3, 5, 7]
