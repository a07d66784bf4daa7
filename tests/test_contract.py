"""The recorded contract of tests/contract.json, replayed in process: each
argv's exit code, the sha256 of its stdout and, for exits 2 and 3, its
stderr text, as tests/record_contract.py recorded them."""
import json

import pytest

from record_contract import ARGVS, CONTRACT, run

RECORDS = json.loads(CONTRACT.read_text(encoding="utf-8"))["records"]


def _id(record):
    text = " ".join(record["argv"])
    return text if len(text) < 80 else f"{text[:60]}...[{len(text)} chars]"


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_argv_replays_its_record(record):
    assert run(record["argv"]) == record


def test_the_recorded_argvs_are_the_listed_ones():
    assert [record["argv"] for record in RECORDS] == ARGVS
