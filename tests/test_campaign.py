"""Campaign aggregation, report serialization, and determinism."""
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from starinv import campaign
from starinv.campaign import (
    THEOREM_IDS,
    CampaignConfig,
    CampaignReport,
    TrialRecord,
    parse_ring_id,
    run_campaign,
)
from starinv.generators import TrialSpec
from starinv.scalars import QI, QQ, PrimeField, TooLargeError, field_named
from starinv.theorems import BATTERIES, FAIL, PASS, SubCheck, TheoremVerdict
from test_report_digests import DIGESTS

README = Path(__file__).resolve().parent.parent / "README.md"


def strip_duration(report):
    return (report.config, report.counts, report.records)


def test_theorem_id_list():
    assert len(THEOREM_IDS) == 14
    assert THEOREM_IDS[0] == "lemma21" and THEOREM_IDS[-1] == "thm214"


def test_readme_check_ids_match_registry():
    text = README.read_text(encoding="utf-8").split("### Check ids", 1)[1]
    rows = text.split("\n\n", 2)[1].splitlines()[2:]  # skip header and rule
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert tuple(row[0] for row in cells) == THEOREM_IDS
    needs = {"yes": True, "no": False, "partly": False}
    for theorem, _, gate in cells:
        assert needs[gate] == BATTERIES[theorem].needs_star_reducing, theorem


def test_parse_ring_id():
    for ring in ("q", "qi", "gf:2", "gf:13", "example26"):
        assert parse_ring_id(ring) == ring
    with pytest.raises(ValueError):
        parse_ring_id("gf:4")
    for huge in ("gf:1000000007", "gf:1000000000000000003"):
        with pytest.raises(TooLargeError):
            parse_ring_id(huge)
    with pytest.raises(ValueError):
        parse_ring_id("zz")
    for spelling in ("gf:+3", "gf: 3", "gf:0_3", "gf:03", "gf:\uff13"):  # int() reads 3
        with pytest.raises(ValueError):
            parse_ring_id(spelling)
    # one namer for both spellings, each field named once in each
    for field in (QQ, QI, PrimeField(2), PrimeField(7), PrimeField(1048573)):
        assert field_named(field.ring_id) == field
        assert field_named(field.label, header=True) == field
    for ring_id in ("Q", "QI", "GF 3"):
        with pytest.raises(ValueError):
            parse_ring_id(ring_id)
    for header in ("q", "qi", "gf:3", "GF 03", "GF +3", "GF 0_3", "GF \uff13"):
        with pytest.raises(ValueError):
            field_named(header, header=True)


def test_random_campaign_aggregates():
    config = CampaignConfig(ring="q", n=2, trials=5, seed=0)
    report = run_campaign(config)
    assert report.schema == 1
    assert report.exit_code == 0
    for counts in report.counts.values():
        assert counts.checked == counts.passed + counts.failed + counts.not_applicable
        assert counts.checked == 5
        assert counts.failed == 0
    assert len(report.records) == 5 * len(THEOREM_IDS)


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(ring="q", theorems=("nope",)))
    with pytest.raises(ValueError, match="duplicate"):
        run_campaign(CampaignConfig(ring="q", n=2, trials=2, theorems=("thm24", "thm24")))


def test_example26_campaign_is_exhaustive():
    report = run_campaign(CampaignConfig(ring="example26", theorems=("thm24",)))
    counts = report.counts["thm24"]
    assert counts.checked == 144  # 12 projections, every ordered pair
    assert counts.failed == 0
    assert counts.passed == 144


def test_gf2_reducing_gated_battery_not_applicable():
    report = run_campaign(CampaignConfig(ring="gf:2", n=2, theorems=("cor25",)))
    counts = report.counts["cor25"]
    assert counts.checked == counts.not_applicable > 0
    assert report.exit_code == 0


def test_gf3_reducing_batteries_apply():
    report = run_campaign(CampaignConfig(ring="gf:3", n=2, theorems=("cor25", "thm213")))
    assert report.counts["cor25"].not_applicable == 0
    assert report.counts["cor25"].failed == 0
    assert report.counts["thm213"].failed == 0


def test_campaign_determinism():
    config = CampaignConfig(ring="q", n=3, trials=8, seed=42, theorems=("thm24", "cor29"))
    first = run_campaign(config)
    second = run_campaign(config)
    assert strip_duration(first) == strip_duration(second)


def test_report_json_round_trip():
    report = run_campaign(CampaignConfig(ring="q", n=2, trials=3, seed=1))
    parsed = CampaignReport.from_json(report.to_json())
    assert parsed == report
    payload = json.loads(report.to_json())
    assert payload["schema"] == 1
    assert payload["config"]["ring"] == "q"
    assert payload["config"]["trials"] == 3
    assert set(payload["theorems"]) == set(THEOREM_IDS)


def _oracle_to_json(report):
    """The report as one full ``json.dumps``: the encoder ``to_json``
    must match byte for byte."""
    payload = {
        "schema": report.schema,
        "tool": report.tool,
        "config": report.config,
        "theorems": report.counts,
        "records": [vars(r) for r in report.records],
        "duration_seconds": report.duration_seconds,
    }
    return json.dumps(payload, indent=2, default=vars) + "\n"


@pytest.mark.parametrize(
    "config, edit",
    [(config, None) for config, _ in DIGESTS]
    + [(DIGESTS[0][0], "no_records"), (DIGESTS[3][0], "awkward_failure")],
    ids=[f"{c.ring}-n{c.n}" for c, _ in DIGESTS] + ["no_records", "awkward_failure"],
)
def test_to_json_matches_full_dump(config, edit):
    report = run_campaign(config)
    if edit == "no_records":
        report = replace(report, records=())
    elif edit == "awkward_failure":  # pair text that needs escaping
        awkward = 'a "quoted" \\ back\nslash \u00e9\u2020'
        failed = TrialRecord("thm24", 7, "failed", ("first", "second"),
                             TrialSpec("q", 2, 1, 0, 3, 7), awkward, awkward[::-1])
        report = replace(report, records=report.records + (failed,))
    assert report.to_json() == _oracle_to_json(report)
    assert CampaignReport.from_json(report.to_json()) == report


@pytest.mark.parametrize("edit", ["drop_first_key", "add_key", "drop_each_key", "not_an_object"])
@pytest.mark.parametrize(
    "path", [(), ("config",), ("theorems", "thm24"), ("records", 0), ("records", 2, "spec")]
)
def test_report_json_rejects_missing_and_unknown_keys(path, edit):
    """Every malformed object raises ValueError, including a missing key
    that from_json converts (records, config theorems, failing_checks,
    spec) and a document that is not a JSON object."""
    report = run_campaign(CampaignConfig(ring="q", n=2, trials=2, seed=1, theorems=("thm24",)))
    failed = TrialRecord("thm24", 2, "failed", ("x",), TrialSpec("q", 2, 1, 1, 1, 2), "p", "q")
    text = replace(report, records=report.records + (failed,)).to_json()

    def located(payload, path):
        for key in path:
            payload = payload[key]
        return payload

    keys = list(located(json.loads(text), path))
    for drop in {"drop_first_key": keys[:1], "drop_each_key": keys}.get(edit, [None]):
        payload = json.loads(text)
        obj = located(payload, path)
        if edit == "add_key":
            obj["extra"] = 1
        elif edit == "not_an_object" and path:
            located(payload, path[:-1])[path[-1]] = list(obj.values())
        elif edit == "not_an_object":
            payload = list(obj.values())
        else:
            del obj[drop]
        match = "not a JSON object" if edit == "not_an_object" else "missing or unknown"
        with pytest.raises(ValueError, match=match):
            CampaignReport.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "path, value",
    [
        (("theorems",), []),
        (("records",), None),
        (("records", 0, "failing_checks"), 5),
        (("config", "theorems"), 5),
        (("config", "theorems"), "thm24"),
        (("records", 0, "trial"), "x"),
    ],
    ids=["counts-list", "records-null", "failing-checks-int", "config-theorems-int",
         "config-theorems-string", "trial-string"],
)
def test_report_json_rejects_wrong_value_types(path, value):
    report = run_campaign(CampaignConfig(ring="q", n=2, trials=2, seed=1, theorems=("thm24",)))
    payload = json.loads(report.to_json())
    obj = payload
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    with pytest.raises(ValueError, match="not a JSON|not an integer"):
        CampaignReport.from_json(json.dumps(payload))


def test_report_csv_shape():
    report = run_campaign(CampaignConfig(ring="q", n=2, trials=3, seed=1, theorems=("lemma22",)))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "theorem,trial,status,failing_checks"
    assert len(lines) == 1 + 3
    assert all(line.startswith("lemma22,") for line in lines[1:])
    assert all(line.endswith(",passed,") for line in lines[1:])


def test_campaign_qi_instance():
    report = run_campaign(CampaignConfig(ring="qi", n=2, trials=4, seed=3))
    assert report.exit_code == 0


# No digest config fails, so these pin the bytes of failure records
# (spec, p, q, failing_checks).  The theorem order is not the paper's:
# records come out in paper order, counts in config order.
PLANTED_ORDER = ("thm24", "lemma22", "lemma21")
FAILURE_DIGESTS = [
    (CampaignConfig(ring="gf:3", n=2, theorems=PLANTED_ORDER),
     "76d8a4b51d4ce5b707242d7fa7df7fd7bcf8144d1ee77962313a51c6c45c65e3"),
    (CampaignConfig(ring="q", n=2, trials=6, seed=11, theorems=PLANTED_ORDER),
     "5e6be9f229b81d27ba0222c54aa8d5efd6057969599fd61ed87f88b7a627eccc"),
    (CampaignConfig(ring="qi", n=3, trials=4, seed=12, theorems=PLANTED_ORDER),
     "12d0d271682d2ba01605376c761ca7ca08efb2511355a53ac2767394c9b2cd6d"),
]


@pytest.mark.parametrize("config, digest", FAILURE_DIGESTS, ids=["gf:3", "q", "qi"])
def test_failure_record_bytes_unchanged(monkeypatch, config, digest):
    original = campaign.run_battery

    def planted(theorem, ctx, engine, star_reducing):
        if theorem != "lemma22" and ctx.p != ctx.q:
            checks = (SubCheck("planted_b", FAIL), SubCheck("kept", PASS),
                      SubCheck("planted_a", FAIL))
            return TheoremVerdict(theorem, True, False, checks)
        return original(theorem, ctx, engine, star_reducing)

    monkeypatch.setattr(campaign, "run_battery", planted)
    report = run_campaign(config)
    text = report.to_json()
    assert text == _oracle_to_json(report)
    assert report.failures() and report.exit_code == 1
    assert {r.failing_checks for r in report.failures()} == {("planted_b", "planted_a")}
    head = text.rsplit('"duration_seconds"', 1)[0]  # the last key
    assert hashlib.sha256(head.encode()).hexdigest() == digest
    assert CampaignReport.from_json(text) == report
